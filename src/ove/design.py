"""Inverse design by adjoint gradients through the step-chain model.

The forward model is the step chain of propagation.py: each step is a
drift, a thin complex kick and a drift, for volume slices and for layers
alike. The adjoint sweep walks the same steps in reverse; per step it
applies the conjugate transfer and undoes the kick with its conjugate.
It reuses the forward pass's transfer functions and kicks, so the
gradient is exact for the discretized model (matches finite differences
to roundoff-limited accuracy, not just to O(dz)).

Gradients are with respect to the real parameters (index contrast dn for
volumes, per-layer phase for layered elements) of a real loss of complex
fields, i.e. Wirtinger cogradients folded back onto the real axis.

A task is a weight layer: inputs, targets and a (targets, inputs)
weight matrix W. One evaluation (:func:`evaluate`) gives a design's
:class:`Evaluation`: its loss, the sum over W of W_ti times the term of
input i against target t, its gradient and its (targets, inputs)
coupling matrix, from one forward and one adjoint sweep per input. The
targets an input feeds (a fanout's whole column) sum their adjoint seeds
and run back once. The optimizer evaluates each candidate once, with a
speculative gradient: an accepted candidate brings the next iteration's
gradient. An evaluation without a gradient keeps each input's output
field in its place, so the run's closing evaluation hands the outputs of
``result`` to the caller, and rendering them needs no further pass.

Precision: an evaluation runs in complex128 unless its ``dtype`` says
otherwise, and only :func:`optimize` says so. Its candidates run in
complex64, which halves the chain and the traces and runs the kicks and
the FFTs in single precision; their gradient is summed in float32, the
real precision of complex64. So a run's loss history is complex64. Its
start is two evaluations of the initial design: one in complex128
without a gradient (``initial_loss``, ``coupling_before``) and one in
complex64 with a gradient, Adam's first, so no evaluation of a run keeps
a complex128 trace. A closing evaluation of its result
(``coupling_after``, ``outputs_after``) runs in complex128, as do
:func:`propagation.propagate`, the finite-difference checks and every
caller that passes no ``dtype``; their gradient is float64. Adam reads
each float32 gradient in place and keeps its iterate, m and v in
float32, the precision of the candidates and of the exported designs. A
candidate is never a whole array: the chain forms its parameters from
Adam's state a block of steps at a time, as it forms their kicks,
widened to float64 before they are clipped to the dn bounds.

What runs where: every evaluation runs its sweeps one after another on
the calling thread and starts no thread; the comment at
``propagation._OVERLAP_MIN_SAMPLES`` says why.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import propagation
from .fields import IndexVolume, LayeredElement, MappingTask
from .propagation import PropagationSpec, Step, drift_adjoint, element_chain, forward_sweep

__all__ = [
    "LossSpec",
    "OptimizerConfig",
    "DesignRun",
    "Evaluation",
    "evaluate",
    "optimize",
    "seeded_initial_volume",
    "total_variation",
]

LOSS_KINDS = ("mode-coupling", "intensity-mse")

# Smoothing inside the TV square root; keeps the functional differentiable
# at zero contrast without visibly biasing the value.
_TV_EPS = 1e-12

# Safeguard: max step halvings in one iteration before accepting defeat.
_MAX_HALVINGS = 60

# Adam's moment decay rates and denominator guard, at the published
# defaults (Kingma & Ba, ICLR 2015).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8

# The precision of optimize's candidate evaluations and of the start's
# gradient. Its start's loss and its closing evaluation of the result run
# in complex128, evaluate's default.
_CANDIDATE_DTYPE = np.complex64

# The precision of Adam's iterate, m and v: the candidates' own, their
# gradients', and that of the exported designs.
_STATE_DTYPE = np.float32

# Adam forms a candidate's steps, and moves its iterate, in blocks of
# whole steps of about this many samples (at least one step): a 64 x 64
# lantern block is 8 slices, so each numpy call works on 128 kB of
# float32 rather than on one 16 kB slice, and the block stays in cache.
_BLOCK_SAMPLES = 1 << 15

# Amplitude of seeded_initial_volume's noise, relative to dn_max.
_SEED_NOISE_RELATIVE = 1e-4


@dataclass(frozen=True)
class LossSpec:
    """What the optimizer minimizes."""

    kind: str = "mode-coupling"
    tv_weight: float = 0.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}, expected one of {LOSS_KINDS}")
        if not (self.tv_weight >= 0.0 and math.isfinite(self.tv_weight)):
            raise ValueError(f"tv_weight must be finite and >= 0, got {self.tv_weight}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam's step size, its iteration budget and the seed of the start.

    step_size defaults to 1% of the default index-contrast budget. Zero is
    tolerated in both step_size and max_iters so a run can be used as a pure
    evaluation pass: step 0 iterates without moving, max_iters 0 skips the
    loop entirely. Adam steps in float32, so step_size must be a finite
    float32 too.
    """

    step_size: float = 5e-4
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.step_size <= float(np.finfo(_STATE_DTYPE).max):
            raise ValueError(f"step_size must be >= 0 and finite in float32, "
                             f"got {self.step_size}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")


@dataclass(frozen=True, eq=False)
class DesignRun:
    """Everything a finished optimization reports, filled from its
    :class:`Evaluation` records.

    initial_loss and coupling_before are the first record's, of the
    initial design, in complex128 and without a gradient; Adam's first
    gradient comes from a second record of it, in complex64, of which the
    run keeps nothing else. loss_history[t] is the loss of the
    record accepted in iteration t, a candidate evaluated in complex64, so
    it is non-increasing and its last entry is the complex64 loss of
    ``result``, which differs from its complex128 loss by about 1e-5
    (2.9e-5 relative on the canned lantern). coupling_after and
    outputs_after are a closing complex128 record's, of ``result``,
    without a gradient, so reporting them needs no further pass:
    outputs_after[i] is the complex128 output field values of input i,
    equal to what :func:`propagation.propagate` makes of ``result``. A run
    of no iterations takes them from its first record, which is of
    ``result``. A run that accepts no step returns the initial design
    itself as ``result``.
    """

    initial_loss: float
    loss_history: tuple[float, ...]
    result: IndexVolume | LayeredElement
    coupling_before: np.ndarray
    coupling_after: np.ndarray
    outputs_after: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class Evaluation:
    """What one evaluation of a design against a task gives.

    ``loss`` is the loss, TV term included. ``grad`` is its gradient,
    shaped as the design's parameters ((nx, ny, nz) for a volume's dn,
    slice-major in memory; (num_layers, nx, ny) for layer phases), or None
    for an evaluation without one. ``coupling`` is the (targets, inputs)
    matrix of |overlap|^2, the power fraction of each input delivered into
    each target. ``outputs[i]`` is input i's output field values, or None
    for an evaluation with a gradient. The loss and the coupling carry
    the same bits with or without the gradient. The loss, the coupling and
    the gradient hold the precision of the evaluation's ``dtype``:
    complex64 for an optimizer's candidate, whose outputs are complex64
    too and whose gradient is float32, and complex128 otherwise, with a
    float64 gradient.
    """

    loss: float
    grad: np.ndarray | None
    coupling: np.ndarray
    outputs: tuple[np.ndarray, ...] | None


# ---------------------------------------------------------------------------
# Loss terms
# ---------------------------------------------------------------------------

def total_variation(x: np.ndarray) -> tuple[float, np.ndarray]:
    """Smoothed isotropic total variation and its gradient.

    Works for any array rank; forward differences along every axis are
    combined per sample under one square root. Besides ``x`` it holds
    ndim + 2 arrays of its size: one difference per axis, their summed
    squares (then the root r) and one scratch buffer, which holds each
    squared difference, then r - eps for the value's sum, then the
    gradient. Each difference is divided by r in place. The value is
    summed over a C-ordered buffer, so its bits do not depend on the
    layout of ``x``.
    """
    def shifted(ax: int, lo: bool) -> tuple[slice, ...]:
        sl = [slice(None)] * x.ndim
        sl[ax] = slice(None, -1) if lo else slice(1, None)
        return tuple(sl)

    diffs = []
    sq = np.full(x.shape, _TV_EPS**2)
    buf = np.empty(x.shape)
    for ax in range(x.ndim):
        d = np.zeros_like(x)
        np.subtract(x[shifted(ax, False)], x[shifted(ax, True)], out=d[shifted(ax, True)])
        diffs.append(d)
        sq += np.multiply(d, d, out=buf)
    r = np.sqrt(sq, out=sq)
    value = float(np.sum(np.subtract(r, _TV_EPS, out=buf)))

    grad = buf
    grad.fill(0.0)
    for ax, d in enumerate(diffs):
        t = np.divide(d, r, out=d)[shifted(ax, True)]
        grad[shifted(ax, True)] -= t
        grad[shifted(ax, False)] += t
    return value, grad


def _entry_loss_and_seed(o: np.ndarray, t: np.ndarray, area: float, c: complex,
                         weight: float, kind: str,
                         with_seed: bool) -> tuple[float, np.ndarray | None]:
    """Loss term of one weight entry, and, if ``with_seed``, its cogradient
    dL/d(conj(out)) as an array of the output's dtype (else None). ``o``
    and ``t`` are the output and target values, of one dtype, ``area``
    the grid's cell area and ``c`` the overlap of the output with the
    target. ``c`` and ``weight`` are Python numbers, so that they take the
    arrays' precision (a numpy scalar would promote them)."""
    if kind == "mode-coupling":
        seed = -weight * c.conjugate() * t * area if with_seed else None
        return weight * (1.0 - abs(c) ** 2), seed
    # intensity-mse
    diff = np.abs(o) ** 2 - np.abs(t) ** 2
    seed = 2.0 * weight * diff * o * area if with_seed else None
    return weight * float(np.sum(diff**2)) * area, seed


def _by_step(design: IndexVolume | LayeredElement, a: np.ndarray) -> np.ndarray:
    """``a``, shaped as ``design``'s parameters, as a view indexed by chain
    step: (nz, nx, ny) for a volume, ``a`` itself for a layered element."""
    return np.moveaxis(a, -1, 0) if isinstance(design, IndexVolume) else a


def _params_per_step(design: IndexVolume | LayeredElement,
                     params: Callable[[int], np.ndarray] | None = None) -> np.ndarray:
    """A float64 copy of ``design``'s parameters, or of the per-step
    ``params`` that stand in for them (see :func:`propagation._iter_steps`),
    laid out as :func:`_gradient_per_step` lays out a gradient:
    slice-major for a volume, one layer after another for a layered
    element."""
    if params is None:
        params = propagation._own_params(design)
    volume = isinstance(design, IndexVolume)
    out = np.empty((design.nz if volume else design.num_layers, design.grid.nx, design.grid.ny))
    for k in range(out.shape[0]):
        out[k] = params(k)
    return np.moveaxis(out, 0, -1) if volume else out


def _with_params(design: IndexVolume | LayeredElement,
                 params: np.ndarray) -> IndexVolume | LayeredElement:
    """``design`` with the float64 ``params``, shaped as its own; the design
    keeps its own copy, in the layout of ``params``."""
    if isinstance(design, IndexVolume):
        return design.with_dn(params)
    return design.with_layers(tuple(params))


def _gradient_per_step(design: IndexVolume | LayeredElement, wavelength_um: float,
                       dtype: np.dtype = np.complex128) -> tuple[np.ndarray, np.ndarray, float]:
    """Zeroed gradient of the real precision of the complex ``dtype``, its
    view indexed by chain step, and the factor 2 d(kick phase)/d(parameter):
    2 k0 dz for dn, 2 for a layer phase.

    A volume's gradient is stored slice-major, so each ``grad_steps[k]``
    is contiguous; the (nx, ny, nz) gradient is a view of it."""
    real = np.finfo(dtype).dtype
    if isinstance(design, IndexVolume):
        grad_steps = np.zeros((design.nz, design.grid.nx, design.grid.ny), dtype=real)
        return (np.moveaxis(grad_steps, 0, -1), grad_steps,
                2.0 * ((2.0 * np.pi / wavelength_um) * design.dz))
    grad = np.zeros((design.num_layers, design.grid.nx, design.grid.ny), dtype=real)
    return grad, grad, 2.0


def _adjoint_sweep(steps: list[Step], trace: list[np.ndarray], g: np.ndarray,
                   grad_steps: np.ndarray, scale: float):
    """Walk the chain ``steps`` in reverse from the seed ``g`` = dL/d(conj(out)),
    consuming ``trace``.

    Each step undoes its post drift, adds ``scale * Im(conj(u_k) g)`` to
    ``grad_steps[k]`` (u_k is the traced field after kick k, the last in
    ``trace``), then undoes the kick and the pre drift. Nothing reads ``g``
    after step 0's term, so step 0 stops there: a volume's sweep runs nz
    drifts, one fewer than its forward pass, and a layered sweep undoes
    one kick fewer than it has layers.

    The term is formed in u_k's own array, which then takes the undone
    kick and becomes ``g``; u_k leaves ``trace`` only then, once ``g``'s
    old array is freed, so a sweep never holds a popped field beside the
    trace. The sweep keeps the conjugate of the transfer it last undid and
    forms a new one only when the transfer changes: twice for a volume,
    once per run of equal gaps for a layered element. So it holds ``g``,
    a drift's spectrum and one conjugate transfer on top of what is left
    of the trace.
    """
    held = h_conj = None

    def undrift(g: np.ndarray, h: np.ndarray) -> np.ndarray:
        nonlocal held, h_conj
        if h is not held:
            held, h_conj = h, None  # the old conjugate is freed before the new one
            h_conj = np.conj(h)
        return drift_adjoint(g, h_conj)

    for k in reversed(range(len(steps))):
        pre, kick, post = steps[k]
        if post is not None:
            g = undrift(g, post)
        work = trace[-1]
        np.conj(work, out=work)
        work *= g
        work.imag *= scale
        grad_steps[k] += work.imag
        if k > 0:
            g = np.multiply(np.conj(kick, out=work), g, out=work)
        del work
        trace.pop()
        if k == 0:
            break
        if pre is not None:
            g = undrift(g, pre)


def evaluate(design: IndexVolume | LayeredElement, task: MappingTask, spec: LossSpec,
             prop: PropagationSpec, *, with_gradient: bool,
             dtype: np.dtype = np.complex128,
             params: Callable[[int], np.ndarray] | None = None) -> Evaluation:
    """The :class:`Evaluation` of ``design`` against ``task``, from one pass
    over the task's inputs. Its gradient is None unless ``with_gradient``;
    its outputs are None with it, so that no output outlives its input's
    sweeps while the gradient is built.

    ``params``, if given, forms step k's parameters (a float64 (nx, ny)
    array of dn or of layer phase) in place of ``design``'s own, when the
    chain forms step k's kick (see :func:`propagation._iter_steps`); the
    design gives the rest. So the design evaluated need never exist as a
    whole array: this is how :func:`optimize` evaluates its candidates.
    With TV on, the whole parameter array is formed from ``params`` for
    the TV term, before the chain, and freed.

    The sweeps run in the complex ``dtype``: the chain is built in it
    (:func:`propagation.element_chain`), and each input's and target's
    values are cast to it once per call, so every traced field, output
    and seed is of it. The gradient takes its real precision: at
    complex64 the overlaps are summed in single precision and each step's
    gradient term is added to a float32 gradient; the TV term and the
    coupling stay float64, and the TV gradient is added to the float32
    one last. The default, complex128, carries the bits of every pin and
    of :func:`propagation.propagate`, and a float64 gradient.

    Each input runs one forward sweep. Its overlap c_ti with each target
    gives coupling[t, i] = |c_ti|^2, and each target with W_ti > 0 adds
    its loss term, input by input and in target order within an input.
    With a gradient the input's seed is the sum of those targets' seeds,
    since the adjoint is linear in its seed, and one adjoint sweep runs it
    back; an input whose column of W is zero keeps no trace and runs none.
    Without a gradient no seed is built.

    The TV term, if any, is formed first and added last. ``design`` and
    ``params`` are dropped once the chain is formed, so while the sweeps
    run this call holds the chain, the gradient, the TV gradient if TV is
    on, and one input's trace: nothing of the design. A caller that passes
    the design as a temporary holds none of it either.
    """
    if spec.tv_weight > 0.0:
        tv, tv_grad = total_variation(_params_per_step(design, params))
        # Scaled now and added in place at the end: the same bits as
        # grad + tv_weight * tv_grad.
        tv_grad *= spec.tv_weight
    steps = element_chain(design, task.grid, task.wavelength_um, prop, dtype=dtype,
                          params=params)
    grad = None
    if with_gradient:
        grad, grad_steps, scale = _gradient_per_step(design, task.wavelength_um, dtype)
    del design, params
    area = task.grid.cell_area
    targets = [target.values.astype(dtype, copy=False) for target in task.targets]
    coupling = np.empty(task.weights.shape)
    outputs = None if with_gradient else []
    total = 0.0  # summed in order; sum() compensates on Python >= 3.12
    for i, inp in enumerate(task.inputs):
        trace = [] if with_gradient and np.any(task.weights[:, i] > 0) else None
        out = forward_sweep(steps, inp.values.astype(dtype, copy=False), trace)
        if outputs is not None:
            outputs.append(out)
        out_conj = np.conj(out)
        seed = None  # stays None without a gradient: no seed is built
        for t, target in enumerate(targets):
            # |overlap|^2 as fields.overlap forms it, on the raw array, so a
            # non-finite output reaches the optimizer's check, not a field's.
            c = complex(np.sum(out_conj * target) * area)
            coupling[t, i] = abs(c) ** 2
            weight = float(task.weights[t, i])
            if weight > 0:
                term, g = _entry_loss_and_seed(out, target, area, c, weight, spec.kind,
                                               with_gradient)
                total += term
                if seed is None:
                    seed = g
                else:
                    seed += g
                del g
        # Neither is read again: freeing them makes room for the adjoint.
        del out, out_conj
        if seed is None:
            continue
        # ``seed`` keeps its array until the next input's: handing the sweep
        # the only reference, which it frees after its first drift, made a
        # 64² lantern evaluation page-fault a third more often.
        _adjoint_sweep(steps, trace, seed, grad_steps, scale)
    if spec.tv_weight > 0.0:
        total += spec.tv_weight * tv
        if with_gradient:
            grad += tv_grad
    return Evaluation(float(total), grad, coupling, None if outputs is None else tuple(outputs))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def seeded_initial_volume(grid, nz: int, dz: float, n0: float,
                          dn_min: float = 0.0, dn_max: float = 0.05,
                          seed: int = 0) -> IndexVolume:
    """Mid-bounds volume plus a small seeded uniform perturbation.

    The noise breaks the symmetry of an otherwise uniform start; its
    amplitude is _SEED_NOISE_RELATIVE * dn_max, kept inside the bounds.
    """
    rng = np.random.default_rng(seed)
    mid = 0.5 * (dn_min + dn_max)
    amp = _SEED_NOISE_RELATIVE * dn_max
    dn = rng.uniform(-amp, amp, size=(grid.nx, grid.ny, nz))
    dn += mid
    np.clip(dn, dn_min, dn_max, out=dn)
    return IndexVolume(grid=grid, nz=nz, dz=dz, n0=n0, dn=dn,
                       dn_min=dn_min, dn_max=dn_max)


def _block_steps(design: IndexVolume | LayeredElement) -> int:
    """How many chain steps of ``design`` make one block: about
    ``_BLOCK_SAMPLES`` samples, and at least one step."""
    return max(1, _BLOCK_SAMPLES // (design.grid.nx * design.grid.ny))


def _adam_candidate(z: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
                    lr: float) -> Callable[[slice], np.ndarray]:
    """Steps ``ks`` (a slice) of Adam's candidate z - lr * d, in float32 and
    in a new array, for an iterate ``z`` and moments ``m`` and ``v``
    indexed by step (see :func:`_by_step`). Adam's direction d = m_hat /
    (sqrt(v_hat) + eps), m_hat = m / (1 - beta1^t) and v_hat = v / (1 -
    beta2^t), is formed from those steps of m and v alone, with the
    operands, and the order, of the textbook update, in two temporaries
    of their size. Every operation is elementwise, so the bits do not
    depend on the slice."""
    c1, c2 = 1.0 - _BETA1**t, 1.0 - _BETA2**t

    def at(ks: slice) -> np.ndarray:
        d = np.divide(v[ks], c2)
        np.sqrt(d, out=d)
        d += _EPS
        d = np.divide(np.divide(m[ks], c1), d, out=d)
        d *= lr
        return np.subtract(z[ks], d, out=d)
    return at


def _design_params(design: IndexVolume | LayeredElement,
                   z_at: Callable[[slice], np.ndarray]) -> Callable[[int], np.ndarray]:
    """The per-step parameters (see :func:`propagation._iter_steps`) of
    ``design`` at Adam's float32 ``z_at(ks)``: widened to float64, then,
    for a volume, clipped to its dn bounds in place, and checked to be
    finite, so that a non-finite candidate fails while its chain is
    formed, before any sweep. The widening comes first: a bound cast to
    float32 can lie outside itself (float32(0.05) = 0.0500000007).

    Step k is formed with the other steps of its block (:func:`_block_steps`)
    when the chain first asks for one of them, and handed out as a view of
    the block, which is held until the chain moves on to the next block."""
    volume = isinstance(design, IndexVolume)
    bounds = (design.dn_min, design.dn_max) if volume else None
    size = _block_steps(design)
    start, block = 0, None

    def params(k: int) -> np.ndarray:
        nonlocal start, block
        if block is None or not 0 <= k - start < len(block):
            start, block = k - k % size, None  # the old block is freed first
            p = z_at(slice(start, start + size)).astype(np.float64)
            if volume:
                np.clip(p, *bounds, out=p)
            finite = np.isfinite(p).all(axis=(1, 2))
            if not finite.all():
                raise ValueError(f"the parameters of step {start + int(np.argmin(finite))} "
                                 f"must be finite")
            block = p
        return block[k - start]
    return params


def optimize(task: MappingTask, initial_design: IndexVolume | LayeredElement,
             loss_spec: LossSpec = LossSpec(),
             config: OptimizerConfig = OptimizerConfig(),
             prop: PropagationSpec = PropagationSpec()) -> DesignRun:
    """Adam with a monotonicity safeguard, clipped to the dn bounds.

    Adam's iterate is held unclipped; each candidate volume, and the
    result, is its clip to [dn_min, dn_max]. Layer phases are unbounded.
    Each iteration proposes an Adam update; if the resulting loss is
    higher than the current one the step size is halved (sticky, up to
    60 times, and not at all once it is zero) and the proposal recomputed
    from the same moments. The
    returned history is therefore non-increasing. Non-finite loss or
    gradient aborts with the iteration index in the message; a
    non-finite candidate fails before its sweeps.

    The start is evaluated twice: in complex128 without a gradient, which
    gives ``initial_loss`` and ``coupling_before``, and, if any iteration
    runs, in complex64 (``_CANDIDATE_DTYPE``) with a gradient, Adam's
    first. Each candidate is evaluated once, in complex64. Before the last
    iteration that evaluation also computes the gradient, speculatively:
    an accepted candidate brings the gradient of the next iteration, a
    rejected one wastes one adjoint sweep per input. So every gradient
    Adam reads is complex64, and ``loss_history`` is complex64 losses,
    each compared with the one before it, the first with the start's
    complex128 loss. A closing evaluation of ``result``, in complex128 and
    without a gradient, gives ``coupling_after`` and ``outputs_after``. A
    run of no iterations has neither the start's gradient nor a closing
    evaluation: its start is of ``result``.

    Adam's iterate, m and v are float32 (``_STATE_DTYPE``), the
    candidates' precision: the iterate starts at the initial design
    rounded to float32. They are allocated once, indexed by chain step
    (slice-major for a volume). Each gradient is float32 and is read in
    place: checked to be finite, spent by the update of m and v, which
    runs in place over the whole arrays with the operands, and the order,
    of the textbook update, and freed. Adam's direction is never stored:
    :func:`_adam_candidate` forms a block of a candidate's steps
    (:func:`_block_steps`) from z, m and v when the chain first asks for
    one of them, and :func:`_design_params` widens the block to float64,
    clips it and checks it, since float32(dn_max) can lie above dn_max,
    before the chain forms the block's kicks from it. An accepted step
    moves z by the same blocks. Only ``result`` is built as a whole
    design, from z by the same per-step function; a run that accepts no
    step returns the initial design itself, not its float32 rounding.

    While a candidate's sweeps run, the run holds one float64
    parameter-sized array (the initial design), Adam's three float32 ones
    (its iterate, m and v), the candidate's float32 gradient, its
    complex64 chain and one input's trace. It holds neither the
    candidate, of which no more than a block is formed at a time (with
    TV on, :func:`evaluate` forms a whole array for the TV term and frees
    it before the chain), nor the previous gradient: the gradient is
    taken out of an accepted :class:`Evaluation`, and the run keeps only
    its loss. The update of v takes a float32 temporary of the gradient's
    size, freed before the first candidate is formed. Adam's moments are
    freed before the result is built, and its iterate before the closing
    evaluation.

    ``config.seed`` is not read here: it only seeds the start, which the
    caller builds with ``seeded_initial_volume``.
    """
    first = evaluate(initial_design, task, loss_spec, prop, with_gradient=False)
    if not math.isfinite(first.loss):
        raise ArithmeticError(f"non-finite loss at iteration 0: {first.loss}")
    current_loss = first.loss
    grad = None
    if config.max_iters > 0:
        # The closing evaluation gives the result's outputs; the start's
        # would be held through every iteration.
        first = replace(first, outputs=None)
        grad = evaluate(initial_design, task, loss_spec, prop, with_gradient=True,
                        dtype=_CANDIDATE_DTYPE).grad

    z = _by_step(initial_design, _params_per_step(initial_design)).astype(_STATE_DTYPE)
    m = np.zeros_like(z)
    v = np.zeros_like(z)
    lr = config.step_size
    history: list[float] = []
    moved = False  # whether a step was accepted, so ``z`` names the result

    for t in range(1, config.max_iters + 1):
        grad = _by_step(initial_design, grad)  # float32, read in place
        if not np.all(np.isfinite(grad)):
            raise ArithmeticError(f"non-finite gradient at iteration {t - 1}")
        # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g g,
        # with the same products and sums in the same order.
        m *= _BETA1
        v *= _BETA2
        sq = np.multiply(1.0 - _BETA2, grad)
        sq *= grad
        v += sq
        grad *= 1.0 - _BETA1
        m += grad
        # Spent. Freed here, and with only ``grad`` naming an accepted
        # candidate's gradient below, no gradient but the candidate's own
        # is live while it is evaluated.
        grad = sq = None

        accepted = False
        for _ in range(_MAX_HALVINGS):
            step = _adam_candidate(z, m, v, t, lr)
            # The candidate's parameters are passed on as a temporary:
            # CPython (3.11 on) hands a call's argument references to the
            # callee, so evaluate frees them once its chain is formed.
            cand = evaluate(initial_design, task, loss_spec, prop,
                            with_gradient=t < config.max_iters, dtype=_CANDIDATE_DTYPE,
                            params=_design_params(initial_design, step))
            if not math.isfinite(cand.loss):
                raise ArithmeticError(f"non-finite loss at iteration {t}")
            if cand.loss <= current_loss:
                size = _block_steps(initial_design)
                for ks in (slice(k, k + size) for k in range(0, len(z), size)):
                    z[ks] = step(ks)  # z - lr * d, as the candidate formed it
                grad, current_loss = cand.grad, cand.loss
                del cand  # else the next iteration's ``grad = None`` frees nothing
                accepted = moved = True
                break
            del cand
            lr *= 0.5
            if lr == 0.0:
                # A zero step proposes the current design again. Its complex64
                # loss can round above the complex128 start's, and halving
                # would only repeat it.
                break
        del step  # it names z, m and v, which are freed below
        history.append(current_loss)
        if not accepted:
            # Step size exhausted; remaining iterations cannot move.
            history.extend([current_loss] * (config.max_iters - t))
            break

    del m, v  # Adam's moments are not read again
    result = initial_design  # unmoved, the start itself, not its float32 rounding
    if moved:
        result = _with_params(initial_design, _params_per_step(
            initial_design, _design_params(initial_design, z.__getitem__)))
    del z
    last = first if config.max_iters == 0 else evaluate(result, task, loss_spec, prop,
                                                        with_gradient=False)
    return DesignRun(
        initial_loss=first.loss,
        loss_history=tuple(history),
        result=result,
        coupling_before=first.coupling,
        coupling_after=last.coupling,
        outputs_after=last.outputs,
    )
