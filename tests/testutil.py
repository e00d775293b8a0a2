"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the package's own numerics: power and
overlap are accumulated with math.fsum, the Haar bank is a plain nested
loop, and band-limited fields are built directly in the spectral domain.
"""

import importlib.util
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from ove import propagation
from ove.fields import ComplexField, Grid2D, IndexVolume, normalize
from ove.propagation import PropagationSpec
from ove.sources import FiberSpec

# Absorber off, evanescent kept: the settings under which propagation is
# exactly unitary for band-limited fields.
UNITARY = PropagationSpec(evanescent_policy="keep", absorber_width=0.0)
NO_ABSORBER = PropagationSpec(absorber_width=0.0)

# The default config's resolved.cfg from before Adam's decay rates and the
# sigmoid projection became constants; it still sets their three keys.
LEGACY_RESOLVED = os.path.join(os.path.dirname(__file__), "fixtures", "legacy_resolved.cfg")

def make_baselines():
    """scripts/make_baselines.py, loaded as a module; nothing runs."""
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "make_baselines.py")
    spec = importlib.util.spec_from_file_location("make_baselines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The default config's fiber.
LANTERN_FIBER = FiberSpec(core_radius_um=5.0, n_core=1.45, n_clad=1.444,
                          wavelength_um=1.55)


def traced_peak(fn):
    """``fn()``'s result and the peak of the memory tracemalloc traced while
    it ran, in bytes: what ``fn`` allocated, not what was live before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Boom(Exception):
    pass


def raise_on_call(fn, n):
    """A wrapper of fn that raises Boom on its n-th call (counting from 1)
    and records the thread count seen by each call."""
    seen = []

    def wrapper(*args, **kwargs):
        seen.append(threading.active_count())
        if len(seen) == n:
            raise Boom(f"call {n}")
        return fn(*args, **kwargs)

    return wrapper, seen


def allowed_cpus() -> set[int]:
    """The CPUs the calling thread may run on; none where that cannot be
    read."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return set(getaffinity(0)) if getaffinity else set()


# propagate's worker is bound only where its caller leaves it a CPU of its own.
TWO_CPUS = pytest.mark.skipif(len(allowed_cpus()) < 2, reason="fewer than two CPUs allowed")


def record_binding(monkeypatch):
    """Spies on ``propagation._caller_cpu`` and on the real
    ``os.sched_setaffinity``. Returns two lists, filled as ove runs: the
    (thread id, CPU) of each read of a caller's CPU, and the (thread id,
    pid, mask asked for, affinity after the call) of each binding."""
    reads, bindings = [], []
    caller_cpu, setaffinity = propagation._caller_cpu, os.sched_setaffinity

    def read():
        cpu = caller_cpu()
        reads.append((threading.get_ident(), cpu))
        return cpu

    def bind(pid, mask):
        setaffinity(pid, mask)
        bindings.append((threading.get_ident(), pid, set(mask), os.sched_getaffinity(0)))

    monkeypatch.setattr(propagation, "_caller_cpu", read)
    monkeypatch.setattr(os, "sched_setaffinity", bind)
    return reads, bindings


def fsum_power(field: ComplexField) -> float:
    """Power by compensated summation, one term per sample."""
    dA = field.grid.dx * field.grid.dy
    return math.fsum(abs(v) ** 2 * dA for v in field.values.ravel())


def fsum_overlap(a: ComplexField, b: ComplexField) -> complex:
    """Brute-force double sum of conj(a)*b, compensated per component."""
    dA = a.grid.dx * a.grid.dy
    terms = [va.conjugate() * vb * dA
             for va, vb in zip(a.values.ravel(), b.values.ravel())]
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms))


def random_field(grid: Grid2D, wavelength_um: float, seed: int) -> ComplexField:
    """Unit-power white complex noise."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.nx, grid.ny)) \
        + 1j * rng.standard_normal((grid.nx, grid.ny))
    return normalize(ComplexField(grid, wavelength_um, vals))


def band_limited_field(grid: Grid2D, wavelength_um: float, seed: int,
                       k_fraction: float = 0.5, n_medium: float = 1.0) -> ComplexField:
    """Unit-power random field whose spectrum stays propagating.

    Spectral support is a disc of radius k_fraction * (2 pi n / lambda),
    so the field survives exact transfer functions without evanescent
    decay and the unitary-propagation identities hold to roundoff.
    """
    rng = np.random.default_rng(seed)
    spec = rng.standard_normal((grid.nx, grid.ny)) \
        + 1j * rng.standard_normal((grid.nx, grid.ny))
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    ky = 2.0 * math.pi * np.fft.fftfreq(grid.ny, d=grid.dy)
    kr = np.hypot(*np.meshgrid(kx, ky, indexing="ij"))
    k_med = 2.0 * math.pi * n_medium / wavelength_um
    spec[kr > k_fraction * k_med] = 0.0
    vals = np.fft.ifft2(spec)
    return normalize(ComplexField(grid, wavelength_um, vals))


def smooth_random_volume(grid: Grid2D, nz: int, dz: float, seed: int,
                         n0: float = 1.5, dn_max: float = 0.05) -> IndexVolume:
    """Random dn, low-passed along all three axes so BPM stays well resolved."""
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(seed)
    raw = gaussian_filter(rng.standard_normal((grid.nx, grid.ny, nz)), sigma=2.0)
    raw -= raw.min()
    raw *= dn_max / raw.max()
    np.minimum(raw, dn_max, out=raw)  # the rescaled maximum can round above dn_max
    return IndexVolume(grid=grid, nz=nz, dz=dz, n0=n0, dn=raw,
                       dn_min=0.0, dn_max=dn_max)


def band_limited_volume(grid: Grid2D, nz: int, dz: float, seed: int,
                        n0: float = 1.5, dn_max: float = 0.025,
                        k_cut: float = 1.0) -> IndexVolume:
    """Random dn with a hard lateral spectral cutoff.

    Each phase screen then scatters at most k_cut per slice, so a
    band-limited input stays inside the propagating circle and power
    conservation tests can demand roundoff-level agreement. A Gaussian
    blur is not enough: its spectral tail leaks a few 1e-5 of power into
    evanescent components over a dozen slices.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((grid.nx, grid.ny, nz))
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    ky = 2.0 * math.pi * np.fft.fftfreq(grid.ny, d=grid.dy)
    kr = np.hypot(*np.meshgrid(kx, ky, indexing="ij"))
    spec = np.fft.fft2(raw, axes=(0, 1))
    spec[kr > k_cut] = 0.0
    smooth = np.fft.ifft2(spec, axes=(0, 1)).real
    smooth -= smooth.min()
    smooth *= dn_max / smooth.max()
    return IndexVolume(grid=grid, nz=nz, dz=dz, n0=n0, dn=smooth,
                       dn_min=0.0, dn_max=dn_max)


def band_limited_phases(grid: Grid2D, count: int, seed: int,
                        amplitude: float = 0.3, k_cut: float = 1.0) -> list[np.ndarray]:
    """Random layer phases with the same hard spectral cutoff."""
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    ky = 2.0 * math.pi * np.fft.fftfreq(grid.ny, d=grid.dy)
    kr = np.hypot(*np.meshgrid(kx, ky, indexing="ij"))
    out = []
    for s in range(count):
        raw = np.random.default_rng(seed + s).standard_normal((grid.nx, grid.ny))
        spec = np.fft.fft2(raw)
        spec[kr > k_cut] = 0.0
        out.append(amplitude * np.fft.ifft2(spec).real)
    return out


def _oracle_pattern(kind: str) -> np.ndarray:
    # Written out cell by cell, independent of the package's constants.
    p = np.zeros((3, 3), dtype=int)
    if kind == "vertical":
        p[0, :] = 1
        p[2, :] = -1
    elif kind == "horizontal":
        p[:, 0] = 1
        p[:, 2] = -1
    elif kind == "diagonal":
        p[0, 0] = p[2, 2] = 1
        p[0, 2] = p[2, 0] = -1
    elif kind == "uniform":
        p[:, :] = 1
    else:
        raise ValueError(kind)
    return p


def haar_bank_oracle(image: np.ndarray, kind: str):
    """Digital masked-sum reference: nested loops, no vectorization."""
    pattern = _oracle_pattern(kind)
    s_plus = np.zeros((7, 7))
    s_minus = np.zeros((7, 7))
    for pi in range(7):
        for pj in range(7):
            for ci in range(3):
                for cj in range(3):
                    v = image[3 * pi + ci, 3 * pj + cj]
                    if pattern[ci, cj] > 0:
                        s_plus[pi, pj] += v
                    elif pattern[ci, cj] < 0:
                        s_minus[pi, pj] += v
    return s_plus, s_minus, s_plus - s_minus


def mirror_values(values: np.ndarray) -> np.ndarray:
    """Spatial point reflection about the grid center.

    With samples at (i - n/2) * d, the partner of index i is (n - i) mod n,
    which is a flip followed by a one-sample roll.
    """
    return np.roll(values[::-1, ::-1], (1, 1), axis=(0, 1))
