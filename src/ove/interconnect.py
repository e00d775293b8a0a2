"""Interconnect bookkeeping: abstract coupling matrices, the square
fanout topology, the digital Haar filter bank, a saturating detector
nonlinearity, and 2D-vs-3D footprint scaling counts.

This module is deliberately free of wave physics; it is the layer the
optical experiments are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sources import HAAR_KINDS, haar_pattern

__all__ = [
    "CouplingMatrix",
    "ScalingReport",
    "HaarBankResult",
    "fanout_matrix",
    "apply_coupling",
    "haar_filter_bank",
    "neuron_nonlinearity",
    "footprint_scaling",
]

_PASSIVITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Input-to-output coupling of a passive device.

    Coherent matrices hold complex amplitude couplings; incoherent ones
    hold non-negative power fractions. Passivity (no column delivers
    more power than it receives) is enforced at construction.
    """

    entries: np.ndarray
    mode: str = "incoherent"

    def __post_init__(self):
        if self.mode not in ("coherent", "incoherent"):
            raise ValueError(f"mode must be coherent|incoherent, got {self.mode!r}")
        ent = np.array(self.entries, copy=True)
        if ent.ndim != 2 or 0 in ent.shape:
            raise ValueError(f"entries must be a non-empty 2D array, got shape {ent.shape}")
        if not np.all(np.isfinite(ent.view(float) if np.iscomplexobj(ent) else ent)):
            raise ValueError("entries must be finite")
        if self.mode == "incoherent":
            ent = ent.astype(float)
            if np.any(ent < 0):
                raise ValueError("incoherent coupling entries must be non-negative")
            col_power = ent.sum(axis=0)
        else:
            ent = ent.astype(complex)
            col_power = (np.abs(ent) ** 2).sum(axis=0)
        if np.any(col_power > 1.0 + _PASSIVITY_TOL):
            worst = int(np.argmax(col_power))
            raise ValueError(
                f"passivity violated: column {worst} carries total power "
                f"{col_power[worst]:.6g} > 1"
            )
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)

    @property
    def rows(self) -> int:
        """Output count."""
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        """Input count."""
        return self.entries.shape[1]


def fanout_matrix(n_in: int, fan: int) -> CouplingMatrix:
    """Ideal incoherent 1-to-fan splitter bank on a square grid.

    Inputs form a sqrt(n_in) x sqrt(n_in) grid; each input owns a
    disjoint sqrt(fan) x sqrt(fan) block of the output grid, every entry
    1/fan. Output indices are row-major over the combined
    (sqrt(n_in * fan))^2 output grid, so the matrix is a permuted block
    structure rather than block-diagonal.
    """
    s = math.isqrt(n_in)
    t = math.isqrt(fan)
    if n_in <= 0 or s * s != n_in:
        raise ValueError(f"n_in must be a positive perfect square, got {n_in}")
    if fan <= 0 or t * t != fan:
        raise ValueError(f"fan must be a positive perfect square, got {fan}")

    side = s * t
    entries = np.zeros((side * side, n_in))
    for r in range(s):
        for c in range(s):
            col = r * s + c
            for dr in range(t):
                row_index = (r * t + dr) * side + c * t
                entries[row_index:row_index + t, col] = 1.0 / fan
    return CouplingMatrix(entries=entries, mode="incoherent")


def apply_coupling(matrix: CouplingMatrix, inputs: np.ndarray) -> np.ndarray:
    """Apply the coupling to an input vector.

    Coherent: complex amplitudes in, complex amplitudes out. Incoherent:
    non-negative intensities in, intensities out.
    """
    vec = np.asarray(inputs)
    if vec.shape != (matrix.cols,):
        raise ValueError(
            f"input vector length {vec.shape} does not match {matrix.cols} inputs"
        )
    if matrix.mode == "incoherent":
        vec = vec.astype(float)
        if np.any(vec < 0):
            raise ValueError("incoherent inputs are intensities and must be non-negative")
        return matrix.entries @ vec
    return matrix.entries @ vec.astype(complex)


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


def neuron_nonlinearity(intensity, i_sat: float):
    """Saturating detector response I / (1 + I / I_sat).

    Monotone, bounded by I_sat, and linear (slope 1) for I << I_sat.
    Accepts scalars or arrays.
    """
    if i_sat <= 0 or not math.isfinite(i_sat):
        raise ValueError(f"i_sat must be finite and positive, got {i_sat}")
    arr = np.asarray(intensity, dtype=float)
    if np.any(arr < 0):
        raise ValueError("intensity must be non-negative")
    out = arr / (1.0 + arr / i_sat)
    return float(out) if np.isscalar(intensity) or arr.ndim == 0 else out


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
