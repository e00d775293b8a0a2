"""Forward scalar propagation: angular-spectrum steps, and one step chain
that covers both element families.

Both families are chains of ``(pre transfer, kick, post transfer)``
steps: drift, multiply by a thin screen, drift. The kick carries the
absorber: with M = :func:`absorber_mask` (1 when ``absorber_width`` is
0), a volume slice kicks by M^2 exp(i k0 dz dn[:, :, k]), with k0 = 2 pi
/ lambda in the background index, and a layer by M exp(i phase_k). A
volume slice is a split-step BPM step between two half-drifts H(dz/2);
the half-drifts of neighbouring slices merge into one H(dz), so slice
k > 0 has no pre drift, every slice but the last ends with H(dz), and a
pass runs nz + 1 drifts. A layer is ``(None, kick_k, H(gap_k))`` in the
gap medium, where a zero gap gives ``None`` and skips its drift; with
``absorber_width = 0`` a zero-phase layer with a zero gap is an exact
identity. Every drift and kick is a symmetric operator, so the chain is
reciprocal: its transpose is the same steps walked backwards.
:func:`_iter_steps` is the one builder of the chain and :func:`forward_sweep`
the one loop that runs a field through it. The builder is lazy: it forms
each kick when its step is drawn, so :func:`propagate`, which walks the
chain once, holds at most two (nx, ny) kicks, not one per slice. On grids
of 80 x 80 samples and more it draws step k + 1, forming its kick, on a
worker thread while the calling thread runs step k; every drift and
every transfer lookup stays on the calling thread, and the arithmetic
and its order are the same as a serial walk's. The worker binds itself
to the CPUs its caller may use except the one the caller runs on
(:func:`_leave_out_cpu`), so that the two threads run on two cores
instead of taking turns on one.
:func:`element_chain` is the same steps as a list, for callers that walk
the chain more than once. Both builders take a complex ``dtype``:
complex128, the default and :func:`propagate`'s, or complex64, which a
design evaluation asks for when the optimizer evaluates a candidate.

Every drift runs on pocketfft, the library behind ``scipy.fft``, through
its own binding ``_c2c``: the call ``scipy.fft.fft2``/``ifft2`` make for a
2-D complex field, so the transforms and their bits are the same, without
the few microseconds of dispatch and argument checks ``scipy.fft`` spends
on each call (about a third of a 64 x 64 complex64 drift on an x86-64
host). The new spectrum is multiplied and inverse-transformed in place;
the input field is never written, because it may be a traced field or
the caller's. :func:`forward_sweep` multiplies each kick in place into
the field a drift has just made, and never into the caller's or a traced
one.

Sign convention: time dependence exp(-i w t), forward propagation phase
exp(+i kz z). A plane wave propagated a whole number of wavelengths in a
homogeneous medium therefore returns to its input phase.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
from scipy.fft._pocketfft.pypocketfft import c2c as _c2c

from .fields import ComplexField, Grid2D, IndexVolume, LayeredElement

__all__ = [
    "PropagationSpec",
    "free_space",
    "propagate",
    "absorber_mask",
    "transfer_function",
]

TRANSFER_MODELS = ("exact-nonparaxial", "fresnel-paraxial")
EVANESCENT_POLICIES = ("zero", "keep")

# Absorber amplitude at the outermost sample of the super-Gaussian skirt.
_EDGE_AMPLITUDE = 1e-3

# Grids of at least this many samples use a second thread in two places:
# propagate forms its kicks one step ahead on a worker thread, and
# design.evaluate runs each input's adjoint on a worker thread while the
# calling thread runs the next input's forward sweep. Overlapped over
# serial time, 2-core host, one process, the modes alternating call by
# call; minimum of N calls, the range over two such runs:
#
#   propagate, 48 slices,    64 x 64: x1.04-1.05 (N = 120)
#   its worker bound off     80 x 80: x0.59-0.96
#   its caller's CPU         96 x 96: x0.65-0.79
#                  128 x 128 x 96: x0.52-0.89 (N = 45)
#   evaluate with gradient,  64 x 64: 2 inputs x0.95-1.04, 7 inputs x1.00-1.08
#   canned configs at dx     80 x 80: 2 inputs x1.06-1.63, 7 inputs x1.00-1.02
#   0.5 um, its worker       96 x 96: 2 inputs x1.00-1.04, 7 inputs x1.00-1.02
#   unbound (N = 60 with 2 inputs, 30 with 7)
#   the same in complex64    64 x 64: 2 inputs x1.10-1.39, 7 inputs x1.06-1.10
#                            80 x 80: 2 inputs x1.06-1.08, 7 inputs x1.05-1.09
#                            96 x 96: 2 inputs x1.05-1.12, 7 inputs x1.04-1.09
#
# The scheduler keeps an unbound worker on its caller's CPU (/proc/stat:
# the second CPU gained at most 1 user jiffy in any unbound row), so the
# two threads take turns on one core; unbound, propagate read x1.08-1.19.
# Bound, the overlapped calls put 38-56% of their user time on the second
# CPU, and evaluate read x0.66-1.06 from 80 x 80. evaluate's worker stays
# unbound all the same: in 14 harness pairs, binding it raised the layered
# benchmark's raw steps per second by only 4% and made its set-up, which
# runs no thread, 28% slower (13 of 14): with the second CPU in use, the
# host ran the process's single-threaded phases slower for more of the
# time (BENCH_28.json). Below 80 x 80 the handoffs can cost more than they
# hide, bound or not: bound, propagate read x1.04-1.05 at 64 x 64, and
# the optimizer's 2-input complex64 candidates, such as the 64 x 64
# lantern's, x1.05-1.08. So both keep their serial loops there. These
# ratios move with how busy the host is, so a lower threshold needs
# harness pairs of its own; so does removing or binding either path.
_OVERLAP_MIN_SAMPLES = 80 * 80


@dataclass(frozen=True)
class PropagationSpec:
    """Knobs for the spectral propagator.

    ``absorber_width`` is the fraction of the window, per edge, covered
    by the super-Gaussian amplitude skirt; 0 turns the absorber off.
    Conservation tests want ``absorber_width=0`` together with
    ``evanescent_policy="keep"``.
    """

    transfer_model: str = "exact-nonparaxial"
    evanescent_policy: str = "zero"
    absorber_width: float = 0.1

    def __post_init__(self):
        if self.transfer_model not in TRANSFER_MODELS:
            raise ValueError(f"unknown transfer model {self.transfer_model!r}")
        if self.evanescent_policy not in EVANESCENT_POLICIES:
            raise ValueError(f"unknown evanescent policy {self.evanescent_policy!r}")
        if not 0.0 <= self.absorber_width < 0.5:
            raise ValueError(f"absorber width must lie in [0, 0.5), got {self.absorber_width}")


@lru_cache(maxsize=256)
def transfer_function(grid: Grid2D, wavelength_um: float, n_medium: float,
                      distance_um: float, transfer_model: str,
                      evanescent_policy: str) -> np.ndarray:
    """Spectral transfer function H(kx, ky) for one homogeneous step.

    Exact model: H = exp(i d sqrt(k^2 - kx^2 - ky^2)) with k = 2 pi n / lambda.
    Fresnel model: H = exp(i k d) exp(-i d (kx^2 + ky^2) / (2k)).
    Evanescent components (radicand < 0) are zeroed under policy "zero";
    under "keep" the exact model applies the physical exponential decay
    and the paraxial model keeps its quadratic phase everywhere.
    """
    k = 2.0 * np.pi * n_medium / wavelength_um
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, grid.dx)[:, None]
    ky = 2.0 * np.pi * np.fft.fftfreq(grid.ny, grid.dy)[None, :]
    kt2 = kx * kx + ky * ky
    radicand = k * k - kt2
    propagating = radicand >= 0.0

    if transfer_model == "exact-nonparaxial":
        kz = np.sqrt(np.maximum(radicand, 0.0))
        h = np.exp(1j * distance_um * kz)
        if evanescent_policy == "zero":
            h = np.where(propagating, h, 0.0)
        else:
            decay = np.exp(-distance_um * np.sqrt(np.maximum(-radicand, 0.0)))
            h = np.where(propagating, h, decay)
    else:
        h = np.exp(1j * k * distance_um) * np.exp(-1j * distance_um * kt2 / (2.0 * k))
        if evanescent_policy == "zero":
            h = np.where(propagating, h, 0.0)

    h = np.ascontiguousarray(h)
    h.flags.writeable = False
    return h


@lru_cache(maxsize=64)
def absorber_mask(grid: Grid2D, width_fraction: float) -> np.ndarray | None:
    """Separable super-Gaussian amplitude skirt hugging the window edges.

    Returns None when the skirt is at most half a sample deep on every
    axis, zero width included: every sample of the mask would be 1.0, and
    x * 1.0 == x. The profile is 1 in the interior and falls to ~1e-3 at
    the outermost sample, following exp(log(eps) * s^4) with s the
    normalized depth into the skirt.
    """
    if width_fraction <= 0.5 / max(grid.nx, grid.ny):
        return None

    def profile(n: int) -> np.ndarray:
        u = (np.arange(n) + 0.5) / n
        edge_dist = np.minimum(u, 1.0 - u)
        s = np.clip((width_fraction - edge_dist) / width_fraction, 0.0, 1.0)
        return np.exp(np.log(_EDGE_AMPLITUDE) * s**4)

    mask = profile(grid.nx)[:, None] * profile(grid.ny)[None, :]
    mask.flags.writeable = False
    return mask


def drift(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One spectral step: FFT, multiply by H, inverse FFT.

    Both transforms are pocketfft's ``c2c`` over axes (0, 1) on one
    thread, with the arguments ``scipy.fft.fft2`` and ``ifft2(...,
    overwrite_x=True)`` pass it: the forward one unnormalized into a new
    spectrum, the inverse one scaled by 1 / (nx ny) in place. ``values``
    is left as it is: only its new spectrum is multiplied and
    inverse-transformed in place.
    """
    spec = _c2c(values, (0, 1), True, 0, None, 1)
    spec *= h
    return _c2c(spec, (0, 1), False, 2, spec, 1)


def drift_adjoint(g: np.ndarray, h_conj: np.ndarray) -> np.ndarray:
    """Adjoint of ``drift(., h)``: the same step through ``h_conj`` =
    conj(h), which the caller forms, so that an adjoint sweep conjugates
    a transfer once for the steps in a row that share it, not on every
    call.

    Like :func:`drift`, it runs on pocketfft's binding and never writes
    to ``g``."""
    spec = _c2c(g, (0, 1), True, 0, None, 1)
    spec *= h_conj
    return _c2c(spec, (0, 1), False, 2, spec, 1)


def free_space(field: ComplexField, distance_um: float, n_medium: float = 1.0,
               spec: PropagationSpec = PropagationSpec()) -> ComplexField:
    """Propagate through a homogeneous medium by the angular-spectrum method,
    then apply the absorber mask."""
    if distance_um < 0:
        raise ValueError(f"propagation distance must be >= 0, got {distance_um}")
    if distance_um == 0:
        return field
    h = transfer_function(field.grid, field.wavelength_um, n_medium, distance_um,
                          spec.transfer_model, spec.evanescent_policy)
    out = drift(field.values, h)
    mask = absorber_mask(field.grid, spec.absorber_width)
    if mask is not None:
        out *= mask
    return field.with_values(out)


Step = tuple[np.ndarray | None, np.ndarray, np.ndarray | None]


def _unit_phasors(phase: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """exp(1j * phase) as ``dtype``, filled by cos and sin: they cost less
    than the complex exp and give the same bits (the tests check ==). The
    phase is rounded to ``dtype``'s real precision first, into a C-ordered
    array, so that cos and sin run at that precision and read it in the
    kick's own order: a slice of an imported, x-fastest volume is copied
    once instead of being written through transposed."""
    out = np.empty(phase.shape, dtype=dtype)
    phase = phase.astype(out.real.dtype, order="C", copy=False)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _kick(phase: np.ndarray, factor: np.ndarray | None, dtype: np.dtype) -> np.ndarray:
    """exp(1j * phase) times the absorber ``factor`` (None: no absorber),
    as ``dtype``; ``factor`` is already of its real precision."""
    kick = _unit_phasors(phase, dtype)
    if factor is not None:
        kick *= factor
    return kick


def _own_params(design: IndexVolume | LayeredElement) -> Callable[[int], np.ndarray]:
    """Step k's parameters of ``design``: its slice ``dn[:, :, k]`` for a
    volume, its phase ``layers[k]`` for a layered element."""
    if isinstance(design, IndexVolume):
        return lambda k: design.dn[:, :, k]
    return design.layers.__getitem__


def _iter_steps(design: IndexVolume | LayeredElement, grid: Grid2D,
                wavelength_um: float, spec: PropagationSpec,
                dtype: np.dtype = np.complex128,
                params: Callable[[int], np.ndarray] | None = None) -> Iterator[Step]:
    """The steps of :func:`element_chain`, built one at a time: a step's
    kick is formed when the step is drawn, so a walk that drops each step
    before it draws the next holds one kick. The design and the grid are
    checked and every transfer is looked up here, before the first step
    is drawn, so drawing a step only forms its kick.

    Step k's kick reads ``params(k)``, a float64 (nx, ny) array of dn or
    of layer phase, which it calls when the step is drawn; by default
    that is the design's own slice or layer (:func:`_own_params`). The
    design gives everything else: the grid, dz and n0, the gaps.

    Every kick and transfer is of the complex ``dtype``. Below complex128
    each distinct transfer and the absorber factor are cast once here, so
    steps that share a transfer share one array, as they share the cached
    complex128 one."""
    if not isinstance(design, (IndexVolume, LayeredElement)):
        raise TypeError(f"cannot propagate through {type(design).__name__}")
    if grid != design.grid:
        raise ValueError(f"grid mismatch: field {grid} vs design {design.grid}")
    if params is None:
        params = _own_params(design)
    real = np.finfo(dtype).dtype

    @cache
    def transfer(n_medium: float, distance_um: float) -> np.ndarray:
        return transfer_function(grid, wavelength_um, n_medium, distance_um,
                                 spec.transfer_model, spec.evanescent_policy
                                 ).astype(dtype, copy=False)

    mask = absorber_mask(grid, spec.absorber_width)
    if isinstance(design, IndexVolume):
        factor = None if mask is None else (mask * mask).astype(real, copy=False)
        k0_dz = (2.0 * np.pi / wavelength_um) * design.dz
        h_half, h_full = transfer(design.n0, 0.5 * design.dz), transfer(design.n0, design.dz)
        last = design.nz - 1
        return ((h_half if k == 0 else None, _kick(k0_dz * params(k), factor, dtype),
                 h_half if k == last else h_full)
                for k in range(design.nz))
    factor = None if mask is None else mask.astype(real, copy=False)
    posts = [transfer(design.n_gap, gap) if gap > 0 else None for gap in design.gaps]
    return ((None, _kick(params(k), factor, dtype), post) for k, post in enumerate(posts))


def element_chain(design: IndexVolume | LayeredElement, grid: Grid2D,
                  wavelength_um: float, spec: PropagationSpec, *,
                  dtype: np.dtype = np.complex128,
                  params: Callable[[int], np.ndarray] | None = None) -> list[Step]:
    """The ``(pre transfer, kick, post transfer)`` steps of ``design`` (see
    the module docstring) seen by fields on ``grid`` at ``wavelength_um``,
    as a list that holds every kick: for callers that walk the chain more
    than once, such as the forward and adjoint sweeps of a design
    evaluation. :func:`propagate` walks it once and draws the steps from
    :func:`_iter_steps` instead, holding at most two kicks.

    ``None`` skips a drift. A volume's first step is ``(H(dz/2), kick_0,
    H(dz))``, middle ones ``(None, kick_k, H(dz))`` and the last ``(None,
    kick_{nz-1}, H(dz/2))``; one slice gives ``(H(dz/2), kick_0,
    H(dz/2))``. Kicks are C-contiguous (nx, ny) arrays of the complex
    ``dtype``, and so is every transfer: complex64 halves the chain and
    runs its kicks and drifts in single precision. ``params``, if given,
    forms each step's parameters in place of the design's own (see
    :func:`_iter_steps`)."""
    return list(_iter_steps(design, grid, wavelength_um, spec, dtype, params))


def forward_sweep(steps: Iterable[Step], values: np.ndarray,
                  trace: list[np.ndarray] | None = None) -> np.ndarray:
    """Run ``values`` through every step of the chain ``steps``: a list, or
    the lazy steps of :func:`_iter_steps`, which the sweep draws one at a
    time and drops once applied, so it holds no kick but the current one.

    When ``trace`` is given, the field right after each kick is appended
    to it: that is what the adjoint sweep needs.

    A kick is multiplied in place into a field that this sweep made and
    nothing else holds: a drift's output, or without a trace the previous
    kick's. Into ``values``, or a traced field after a zero gap, it is
    multiplied into a new array. Either way the product is kick * u, with
    the operands in that order, since numpy's complex product does not
    give the same bits with them swapped.
    """
    u, owned = values, False
    del values  # a cast made for this sweep is freed once a drift or kick replaces it
    for pre, kick, post in steps:
        if pre is not None:
            u, owned = drift(u, pre), True
        u = np.multiply(kick, u, out=u if owned else None)
        del kick  # a lazily built kick can be freed once it is applied
        if trace is not None:
            trace.append(u)
        if post is not None:
            u, owned = drift(u, post), True
        else:
            owned = trace is None
    return u


def _one_ahead(steps: Iterator[Step], pool: ThreadPoolExecutor) -> Iterator[Step]:
    """The steps of ``steps`` in order, each drawn on ``pool`` while the
    caller runs the step before it. A step is handed over by popping it
    from a list, so this generator keeps no reference to it while the
    caller runs it, and its kick is freed once the caller drops it. A
    caller that stops early, by an error of its own, leaves the step
    drawn ahead unread, together with any error drawing it raised: the
    caller's error is the one reported."""
    ahead = pool.submit(next, steps, None)
    while ahead.result() is not None:
        drawn = [ahead.result()]
        ahead = pool.submit(next, steps, None)  # frees the future that held the step
        yield drawn.pop()


def _caller_cpu() -> int | None:
    """The CPU the calling thread runs on, field 39 of
    /proc/thread-self/stat, or None where that cannot be read."""
    try:
        with open("/proc/thread-self/stat", "rb") as f:
            stat = f.read()
        # Field 2 is the thread's name in parentheses, which may hold spaces
        # and parentheses itself; the fields after it start at field 3.
        return int(stat[stat.rindex(b")") + 2:].split()[39 - 3])
    except (OSError, ValueError, IndexError):
        return None


def _leave_out_cpu(cpu: int | None) -> None:
    """Narrow the calling thread's affinity to the CPUs it may use minus
    ``cpu``. Where ``cpu`` is None, nothing is left, or the calls are
    missing (AttributeError) or fail, the thread stays as it is."""
    if cpu is None:
        return
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)  # pid 0: this thread, not its process
    except (AttributeError, OSError):
        pass


def propagate(design: IndexVolume | LayeredElement, field: ComplexField,
              spec: PropagationSpec = PropagationSpec()) -> ComplexField:
    """Forward pass through either design family (see the module docstring).

    The steps are drawn lazily, so the pass holds at most two kicks on top
    of the design and the field, not a kick per slice. On grids of
    ``_OVERLAP_MIN_SAMPLES`` samples or more, one worker thread forms the
    next step's kick while this thread runs the current step's drifts and
    kick product. This thread reads the CPU it runs on before the worker
    starts, and the worker, as it starts, leaves that CPU out of its own
    affinity; this thread's affinity is never changed. The worker lives
    only for the call, which joins it before it returns or raises."""
    steps = _iter_steps(design, field.grid, field.wavelength_um, spec)
    if field.grid.nx * field.grid.ny < _OVERLAP_MIN_SAMPLES:
        return field.with_values(forward_sweep(steps, field.values))
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="ove-kicks",
                            initializer=_leave_out_cpu, initargs=(_caller_cpu(),)) as pool:
        return field.with_values(forward_sweep(_one_ahead(steps, pool), field.values))

