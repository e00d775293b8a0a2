"""Interconnect bookkeeping: the digital Haar filter bank and 2D-vs-3D
footprint scaling counts.

This module is deliberately free of wave physics; it is the layer the
optical experiments are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sources import haar_pattern

__all__ = [
    "ScalingReport",
    "HaarBankResult",
    "haar_filter_bank",
    "footprint_scaling",
]


class HaarBankResult(NamedTuple):
    s_plus: np.ndarray
    s_minus: np.ndarray
    response: np.ndarray


def haar_filter_bank(image: np.ndarray, kind: str = "vertical") -> HaarBankResult:
    """Boolean Haar responses of a 21x21 image, one per 3x3 patch.

    The image tiles into 7x7 non-overlapping 3x3 patches. For each patch
    s_plus and s_minus sum the pixels under the +1 / -1 cells of the
    kind's pattern and response = s_plus - s_minus, i.e. the subtraction
    happens after detection. Integer images stay integer, so results are
    exact.
    """
    img = np.asarray(image)
    if img.shape != (21, 21):
        raise ValueError(f"image must be 21x21, got shape {img.shape}")
    if np.any(img < 0):
        raise ValueError("image pixels must be non-negative intensities")
    pattern = haar_pattern(kind)

    work = img.astype(np.int64) if np.issubdtype(img.dtype, np.integer) else img.astype(float)
    # (7, 3, 7, 3) view: patch row, cell x, patch col, cell y.
    patches = work.reshape(7, 3, 7, 3)
    s_plus = np.zeros((7, 7), dtype=work.dtype)
    s_minus = np.zeros((7, 7), dtype=work.dtype)
    for i in range(3):
        for j in range(3):
            if pattern[i, j] > 0:
                s_plus += patches[:, i, :, j]
            elif pattern[i, j] < 0:
                s_minus += patches[:, i, :, j]
    return HaarBankResult(s_plus=s_plus, s_minus=s_minus, response=s_plus - s_minus)


@dataclass(frozen=True)
class ScalingReport:
    """Element and footprint counts for n all-to-all connected neurons."""

    n_neurons: int
    elements_2d: int
    planes_3d: int
    elements_per_plane_3d: int
    pitch_um: float
    footprint_2d_um2: float
    footprint_3d_um2: float


def footprint_scaling(n_neurons: int, pitch_um: float) -> ScalingReport:
    """Counts for routing n^2 connections in a plane vs through a volume.

    A 2D layout needs one routing element per connection (n^2 of them at
    the given pitch); stacking n planes of n elements realizes the same
    connectivity in 3D with an n-element footprint per plane.
    """
    if n_neurons < 1:
        raise ValueError(f"n_neurons must be >= 1, got {n_neurons}")
    if pitch_um <= 0 or not math.isfinite(pitch_um):
        raise ValueError(f"pitch_um must be finite and positive, got {pitch_um}")
    n = n_neurons
    return ScalingReport(
        n_neurons=n,
        elements_2d=n * n,
        planes_3d=n,
        elements_per_plane_3d=n,
        pitch_um=pitch_um,
        footprint_2d_um2=float(n * n) * pitch_um**2,
        footprint_3d_um2=float(n) * pitch_um**2,
    )
