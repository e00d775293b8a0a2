"""Core sampled-wave data types shared by every other module.

Conventions used throughout the package:

* all lengths are micrometers, wavelengths are vacuum wavelengths,
* a field is a 2D array of complex amplitudes with shape ``(nx, ny)``;
  axis 0 is x, axis 1 is y,
* sample (i, j) sits at ``((i - nx/2)*dx, (j - ny/2)*dy)``, so the grid
  center coincides with sample ``(nx//2, ny//2)`` on even grids,
* power is the discrete integral ``sum(|u|^2) * dx * dy`` and generated
  sources/targets carry unit power,
* a task (:class:`MappingTask`) is a weight layer: distinct inputs,
  targets and a (targets, inputs) weight matrix W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Grid2D",
    "ComplexField",
    "IndexVolume",
    "LayeredElement",
    "MappingTask",
    "power",
    "normalize",
    "overlap",
]


def _readonly(arr: np.ndarray, dtype) -> np.ndarray:
    """A read-only copy of ``arr`` as ``dtype``, converted and copied in one
    pass that keeps the input's memory layout."""
    out = np.array(arr, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Grid2D:
    """Uniform lateral sampling grid."""

    nx: int
    ny: int
    dx: float
    dy: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid needs at least 2 samples per axis, got {self.nx}x{self.ny}")
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError(f"grid spacing must be positive, got dx={self.dx}, dy={self.dy}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def window_um(self) -> tuple[float, float]:
        """Physical window extent (x, y)."""
        return (self.nx * self.dx, self.ny * self.dy)

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample coordinates along x and y (grid-center convention)."""
        x = (np.arange(self.nx) - self.nx / 2) * self.dx
        y = (np.arange(self.ny) - self.ny / 2) * self.dy
        return x, y

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        x, y = self.axes()
        return np.meshgrid(x, y, indexing="ij")


@dataclass(frozen=True, eq=False)
class ComplexField:
    """Scalar complex amplitude sampled on a :class:`Grid2D`.

    Values are stored as an immutable complex128 array of shape
    ``(nx, ny)``. Fields are only combinable when grids and wavelengths
    match exactly.
    """

    grid: Grid2D
    wavelength_um: float
    values: np.ndarray

    def __post_init__(self):
        if self.wavelength_um <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength_um}")
        vals = _readonly(self.values, np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "ComplexField":
        """New field on the same grid and wavelength."""
        return ComplexField(self.grid, self.wavelength_um, values)

    def check_compatible(self, other: "ComplexField"):
        if self.grid != other.grid:
            raise ValueError(f"grid mismatch: {self.grid} vs {other.grid}")
        if self.wavelength_um != other.wavelength_um:
            raise ValueError(
                f"wavelength mismatch: {self.wavelength_um} vs {other.wavelength_um}"
            )


def power(f: ComplexField) -> float:
    """Discrete power sum(|u|^2)*dx*dy."""
    return float(np.sum(np.abs(f.values) ** 2) * f.grid.cell_area)


def normalize(f: ComplexField) -> ComplexField:
    """Rescale to unit power. Rejects zero-power input."""
    p = power(f)
    if p <= 0.0:
        raise ValueError("degenerate field: cannot normalize zero power")
    return f.with_values(f.values / np.sqrt(p))


def overlap(a: ComplexField, b: ComplexField) -> complex:
    """Coupling amplitude <a, b> = sum(conj(a)*b)*dx*dy.

    For unit-power fields |overlap| <= 1 up to rounding (Cauchy-Schwarz).
    """
    a.check_compatible(b)
    return complex(np.sum(np.conj(a.values) * b.values) * a.grid.cell_area)


@dataclass(frozen=True, eq=False)
class IndexVolume:
    """3D voxel grid of index perturbation dn over a background n0.

    ``dn`` has shape ``(nx, ny, nz)``; slice ``dn[:, :, k]`` is the k-th
    axial slab of thickness ``dz``. Every voxel must respect the stated
    bounds, to which the optimizer clips each candidate. The volume keeps
    a read-only float64 copy of the ``dn`` it is given, converted and
    copied in one pass in the input's memory layout: an imported volume's
    is x-fastest, an optimized one's slice-major, so that each
    ``dn[:, :, k]`` is contiguous.
    """

    grid: Grid2D
    nz: int
    dz: float
    n0: float
    dn: np.ndarray
    dn_min: float = 0.0
    dn_max: float = 0.05

    def __post_init__(self):
        if self.nz < 1:
            raise ValueError(f"nz must be >= 1, got {self.nz}")
        if self.dz <= 0:
            raise ValueError(f"dz must be positive, got {self.dz}")
        if self.n0 < 1:
            raise ValueError(f"background index must be >= 1, got {self.n0}")
        if not self.dn_min <= self.dn_max:
            raise ValueError(f"dn_min={self.dn_min} exceeds dn_max={self.dn_max}")
        dn = _readonly(self.dn, np.float64)
        expected = (self.grid.nx, self.grid.ny, self.nz)
        if dn.shape != expected:
            raise ValueError(f"dn shape {dn.shape} does not match {expected}")
        # A NaN carries through min and max, and an infinity is one of them.
        lo, hi = dn.min(), dn.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("dn must be finite")
        if lo < self.dn_min or hi > self.dn_max:
            raise ValueError(
                f"dn out of bounds [{self.dn_min}, {self.dn_max}]: range [{lo}, {hi}]"
            )
        object.__setattr__(self, "dn", dn)

    def with_dn(self, dn: np.ndarray) -> "IndexVolume":
        return IndexVolume(
            grid=self.grid, nz=self.nz, dz=self.dz, n0=self.n0,
            dn=dn, dn_min=self.dn_min, dn_max=self.dn_max,
        )


@dataclass(frozen=True, eq=False)
class LayeredElement:
    """Thin phase masks separated by homogeneous gaps.

    ``layers[k]`` is an ``(nx, ny)`` phase mask in radians, followed by a
    free propagation over ``gaps[k]`` in a medium of index ``n_gap``.
    """

    grid: Grid2D
    layers: tuple[np.ndarray, ...]
    gaps: tuple[float, ...]
    n_gap: float = 1.0

    def __post_init__(self):
        layers = tuple(_readonly(p, np.float64) for p in self.layers)
        gaps = tuple(float(g) for g in self.gaps)
        if len(gaps) != len(layers):
            raise ValueError(f"{len(layers)} layers but {len(gaps)} gaps")
        if not layers:
            raise ValueError("element needs at least one layer")
        if any(g < 0 for g in gaps):
            raise ValueError(f"gaps must be non-negative, got {gaps}")
        if self.n_gap < 1:
            raise ValueError(f"gap index must be >= 1, got {self.n_gap}")
        for k, p in enumerate(layers):
            if p.shape != self.grid.shape:
                raise ValueError(f"layer {k} shape {p.shape} does not match grid")
            if not np.all(np.isfinite(p)):
                raise ValueError(f"layer {k} phases must be finite")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "gaps", gaps)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def with_layers(self, layers: Sequence[np.ndarray]) -> "LayeredElement":
        return LayeredElement(self.grid, tuple(layers), self.gaps, self.n_gap)


@dataclass(frozen=True, eq=False)
class MappingTask:
    """A weight layer an element should realize: distinct inputs, the
    targets (detectors) and the weight matrix W.

    ``weights[t, i]`` is W_ti, how much the coupling of input i into
    target t counts; W has shape (targets, inputs), is finite and >= 0,
    and sums to a positive value. A pair task is W = diag(weights), a
    1-to-m fanout one input with a column of m ones. Inputs and targets
    are normalized to unit power on ingest; all fields must share one
    grid and wavelength.
    """

    inputs: tuple[ComplexField, ...]
    targets: tuple[ComplexField, ...]
    weights: np.ndarray

    def __post_init__(self):
        inputs, targets = tuple(self.inputs), tuple(self.targets)
        if not inputs or not targets:
            raise ValueError(f"task needs at least one input and one target, got "
                             f"{len(inputs)} inputs and {len(targets)} targets")
        for f in inputs + targets:
            inputs[0].check_compatible(f)
        w = _readonly(self.weights, np.float64)
        if w.shape != (len(targets), len(inputs)):
            raise ValueError(f"weights shape {w.shape} does not match (targets, inputs) = "
                             f"({len(targets)}, {len(inputs)})")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError(f"weights must be >= 0, got {w.min()}")
        if not w.sum() > 0:
            raise ValueError("weights must sum to a positive value")
        object.__setattr__(self, "inputs", tuple(normalize(f) for f in inputs))
        object.__setattr__(self, "targets", tuple(normalize(f) for f in targets))
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_fields(cls, inputs: Sequence[ComplexField], targets: Sequence[ComplexField],
                    weights: Sequence[float] | None = None) -> "MappingTask":
        """Pair form: input k onto target k with weight ``weights[k]`` (1 by
        default), so W = diag(weights)."""
        if len(inputs) != len(targets):
            raise ValueError(f"{len(inputs)} inputs but {len(targets)} targets")
        if weights is None:
            weights = [1.0] * len(inputs)
        if len(weights) != len(inputs):
            raise ValueError("weights length mismatch")
        return cls(tuple(inputs), tuple(targets), np.diag(np.asarray(weights, dtype=np.float64)))

    @property
    def grid(self) -> Grid2D:
        return self.inputs[0].grid

    @property
    def wavelength_um(self) -> float:
        return self.inputs[0].wavelength_um
