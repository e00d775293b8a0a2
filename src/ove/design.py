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
field in its place, so the run's last evaluation hands the outputs of
``result`` to the caller, and rendering them needs no further pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import ComplexField, IndexVolume, LayeredElement, MappingTask
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
    loop entirely.
    """

    step_size: float = 5e-4
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if not (self.step_size >= 0 and math.isfinite(self.step_size)):
            raise ValueError(f"step_size must be finite and >= 0, got {self.step_size}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")


@dataclass(frozen=True, eq=False)
class DesignRun:
    """Everything a finished optimization reports, filled from its
    :class:`Evaluation` records.

    initial_loss and coupling_before are the first record's, of the
    initial design. loss_history[t] is the loss of the record accepted in
    iteration t, so it is non-increasing and its last entry is the loss of
    ``result``. coupling_after and outputs_after are the last accepted
    record's, of ``result``, so reporting them needs no further pass:
    outputs_after[i] is the output field values of input i. Only a run
    whose last accepted record carries a gradient (its halvings ran out)
    takes its outputs from one more evaluation, without one.
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
    the same bits with or without the gradient.
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


def _entry_loss_and_seed(out_values: np.ndarray, target: ComplexField, c: complex,
                         weight: float, kind: str,
                         with_seed: bool) -> tuple[float, np.ndarray | None]:
    """Loss term of one weight entry, and, if ``with_seed``, its cogradient
    dL/d(conj(out)) as an array (else None). ``c`` is the overlap of the
    output with the target."""
    area = target.grid.cell_area
    o, t = out_values, target.values
    if kind == "mode-coupling":
        seed = -weight * np.conj(c) * t * area if with_seed else None
        return weight * (1.0 - abs(c) ** 2), seed
    # intensity-mse
    diff = np.abs(o) ** 2 - np.abs(t) ** 2
    seed = 2.0 * weight * diff * o * area if with_seed else None
    return weight * float(np.sum(diff**2)) * area, seed


def _params_per_step(design: IndexVolume | LayeredElement) -> np.ndarray:
    """A copy of ``design``'s parameters laid out as :func:`_gradient_per_step`
    lays out a gradient: slice-major for a volume, one layer after another
    for a layered element."""
    if isinstance(design, IndexVolume):
        return np.moveaxis(np.moveaxis(design.dn, -1, 0).copy(), 0, -1)
    return np.stack(design.layers)


def _with_params(design: IndexVolume | LayeredElement,
                 params: np.ndarray) -> IndexVolume | LayeredElement:
    """``design`` with ``params``; a volume's are clipped to its dn bounds
    in place, so ``params`` is spent, and layer phases have none. The
    design keeps its own copy, in the layout of ``params``."""
    if isinstance(design, IndexVolume):
        return design.with_dn(np.clip(params, design.dn_min, design.dn_max, out=params))
    return design.with_layers(tuple(params[k] for k in range(params.shape[0])))


def _gradient_per_step(design: IndexVolume | LayeredElement,
                       wavelength_um: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Zeroed gradient, its view indexed by chain step, and the factor
    2 d(kick phase)/d(parameter): 2 k0 dz for dn, 2 for a layer phase.

    A volume's gradient is stored slice-major, so each ``grad_steps[k]``
    is contiguous; the (nx, ny, nz) gradient is a view of it."""
    if isinstance(design, IndexVolume):
        grad_steps = np.zeros((design.nz, design.grid.nx, design.grid.ny))
        return (np.moveaxis(grad_steps, 0, -1), grad_steps,
                2.0 * ((2.0 * np.pi / wavelength_um) * design.dz))
    grad = np.zeros((design.num_layers, design.grid.nx, design.grid.ny))
    return grad, grad, 2.0


def _adjoint_sweep(steps: list[Step], trace: list[np.ndarray], g: np.ndarray,
                   grad_steps: np.ndarray, scale: float):
    """Walk the chain ``steps`` in reverse from the seed ``g`` = dL/d(conj(out)),
    consuming ``trace``.

    Each step undoes its post drift, adds ``scale * Im(conj(u_k) g)`` to
    ``grad_steps[k]`` (u_k is the traced field after kick k, popped from
    ``trace``), then undoes the kick and the pre drift. Nothing reads ``g``
    after step 0's term, so step 0 stops there: a volume's sweep runs nz
    drifts, one fewer than its forward pass, and a layered sweep undoes
    one kick fewer than it has layers. Each distinct transfer is
    conjugated once and held for the sweep. The kick and the gradient term
    work in place and each traced field is dropped once used, so that
    holding the conjugates raises no peak.
    """
    conj: dict[int, np.ndarray] = {}

    def undrift(g: np.ndarray, h: np.ndarray) -> np.ndarray:
        h_conj = conj.get(id(h))
        if h_conj is None:
            h_conj = conj[id(h)] = np.conj(h)
        return drift_adjoint(g, h_conj)

    for k in reversed(range(len(steps))):
        pre, kick, post = steps[k]
        if post is not None:
            g = undrift(g, post)
        work = np.conj(trace.pop())
        work *= g
        work.imag *= scale
        grad_steps[k] += work.imag
        if k == 0:
            break
        g = np.multiply(np.conj(kick, out=work), g, out=work)
        del work
        if pre is not None:
            g = undrift(g, pre)


def evaluate(design: IndexVolume | LayeredElement, task: MappingTask, spec: LossSpec,
             prop: PropagationSpec, *, with_gradient: bool) -> Evaluation:
    """The :class:`Evaluation` of ``design`` against ``task``, from one pass
    over the task's inputs. Its gradient is None unless ``with_gradient``;
    its outputs are None with it, so that no output outlives its input's
    sweeps while the gradient is built.

    Each input runs one forward sweep. Its overlap c_ti with each target
    gives coupling[t, i] = |c_ti|^2, and each target with W_ti > 0 adds
    its loss term, input by input and in target order within an input.
    With a gradient the input's seed is the sum of those targets' seeds,
    since the adjoint is linear in its seed, and one adjoint sweep runs it
    back; an input whose column of W is zero runs none. Without a
    gradient no seed is built.

    The TV term, if any, is formed first and added last. ``design`` is
    dropped once its chain is formed, so while the sweeps run this call
    holds the chain, the gradient, the TV gradient if TV is on, and one
    trace at a time: nothing of the design. A caller that passes the
    design as a temporary holds none of it either.
    """
    if spec.tv_weight > 0.0:
        tv, tv_grad = total_variation(_params_per_step(design))
        # Scaled now and added in place at the end: the same bits as
        # grad + tv_weight * tv_grad.
        tv_grad *= spec.tv_weight
    steps = element_chain(design, task.grid, task.wavelength_um, prop)
    grad = None
    if with_gradient:
        grad, grad_steps, scale = _gradient_per_step(design, task.wavelength_um)
    del design
    area = task.grid.cell_area
    coupling = np.empty(task.weights.shape)
    outputs = None if with_gradient else []
    total = 0.0  # summed in order; sum() compensates on Python >= 3.12
    for i, inp in enumerate(task.inputs):
        trace = [] if with_gradient else None
        out = forward_sweep(steps, inp.values, trace)
        if outputs is not None:
            outputs.append(out)
        out_conj = np.conj(out)
        seed = None  # stays None without a gradient: no seed is built
        for t, target in enumerate(task.targets):
            # |overlap|^2 as fields.overlap forms it, on the raw array, so a
            # non-finite output reaches the optimizer's check, not a field's.
            c = complex(np.sum(out_conj * target.values) * area)
            coupling[t, i] = abs(c) ** 2
            weight = task.weights[t, i]
            if weight > 0:
                term, g = _entry_loss_and_seed(out, target, c, weight, spec.kind,
                                               with_gradient)
                total += term
                if seed is None:
                    seed = g
                else:
                    seed += g
                del g
        # Neither is read again: freeing them makes room for the adjoint.
        del out, out_conj
        if seed is not None:
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
    dn = mid + rng.uniform(-amp, amp, size=(grid.nx, grid.ny, nz))
    dn = np.clip(dn, dn_min, dn_max)
    return IndexVolume(grid=grid, nz=nz, dz=dz, n0=n0, dn=dn,
                       dn_min=dn_min, dn_max=dn_max)


def _candidate(design: IndexVolume | LayeredElement, z: np.ndarray, lr: float,
               direction: np.ndarray) -> IndexVolume | LayeredElement:
    """``design`` at ``z - lr * direction``, formed and clipped in one
    temporary, which the candidate's own copy replaces. A caller that
    passes the result straight on holds no name of it."""
    params = np.multiply(lr, direction)
    return _with_params(design, np.subtract(z, params, out=params))


def optimize(task: MappingTask, initial_design: IndexVolume | LayeredElement,
             loss_spec: LossSpec = LossSpec(),
             config: OptimizerConfig = OptimizerConfig(),
             prop: PropagationSpec = PropagationSpec()) -> DesignRun:
    """Adam with a monotonicity safeguard, clipped to the dn bounds.

    Adam's iterate is held unclipped; each candidate volume, and the
    result, is its clip to [dn_min, dn_max]. Layer phases are unbounded.
    Each iteration proposes an Adam update; if the resulting loss is
    higher than the current one the step size is halved (sticky, up to
    60 times) and the proposal recomputed from the same moments. The
    returned history is therefore non-increasing. Non-finite loss or
    gradient aborts with the iteration index in the message.

    Each candidate is evaluated once. Before the last iteration that
    evaluation also computes the gradient, speculatively: an accepted
    candidate brings the gradient of the next iteration, a rejected one
    wastes one adjoint sweep per input. The same evaluations
    give the coupling matrices before and after, and the last iteration's
    accepted candidate, evaluated without a gradient, gives the outputs,
    so they cost no extra pass. Only a run whose halvings ran out ends on
    a gradient evaluation; it evaluates ``result`` once more, without one.

    Adam's iterate, m, v and the direction are allocated once, in the
    layout of the gradient (slice-major for a volume, so each candidate's
    ``dn[:, :, k]`` is contiguous), and updated in place with the
    operands, and the order, of the textbook update; the spent gradient
    holds m / (1 - beta1^t). So an update writes no parameter-sized
    temporary, and a candidate one, which its own copy replaces.

    While a candidate's sweeps run, the run holds five parameter-sized
    arrays (the initial design, Adam's iterate, m, v and the direction),
    the candidate's chain, its gradient and one input's trace. It holds
    neither the candidate, which :func:`evaluate` drops once its chain is
    formed, nor the previous gradient: the gradient is taken out of an
    accepted :class:`Evaluation`, and the run keeps the record without it.

    ``config.seed`` is not read here: it only seeds the start, which the
    caller builds with ``seeded_initial_volume``.
    """
    z = _params_per_step(initial_design)
    current = evaluate(_with_params(initial_design, z.copy(order="K")), task, loss_spec, prop,
                       with_gradient=config.max_iters > 0)
    if not math.isfinite(current.loss):
        raise ArithmeticError(f"non-finite loss at iteration 0: {current.loss}")
    grad, current = current.grad, replace(current, grad=None)
    first = current

    m = np.zeros_like(z)
    v = np.zeros_like(z)
    direction = np.empty_like(z)
    lr = config.step_size
    history: list[float] = []

    for t in range(1, config.max_iters + 1):
        if not np.all(np.isfinite(grad)):
            raise ArithmeticError(f"non-finite gradient at iteration {t - 1}")
        # m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g and
        # direction = (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps),
        # with the same products and sums in the same order.
        m *= _BETA1
        v *= _BETA2
        np.multiply(1.0 - _BETA2, grad, out=direction)
        direction *= grad
        v += direction
        grad *= 1.0 - _BETA1
        m += grad
        np.divide(m, 1.0 - _BETA1**t, out=grad)
        np.divide(v, 1.0 - _BETA2**t, out=direction)
        np.sqrt(direction, out=direction)
        direction += _EPS
        np.divide(grad, direction, out=direction)
        # The line search does not need it. Freed here, and with only
        # ``grad`` naming an accepted candidate's gradient below, no
        # gradient but the candidate's own is live while it is evaluated.
        del grad

        accepted = False
        for _ in range(_MAX_HALVINGS):
            # The candidate is passed on as a temporary: CPython (3.11 on)
            # hands a call's argument references to the callee, so
            # evaluate frees it once its chain is formed.
            cand = evaluate(_candidate(initial_design, z, lr, direction), task, loss_spec,
                            prop, with_gradient=t < config.max_iters)
            if not math.isfinite(cand.loss):
                raise ArithmeticError(f"non-finite loss at iteration {t}")
            if cand.loss <= current.loss:
                direction *= lr
                z -= direction  # z - lr * direction, as the candidate formed it
                grad, current = cand.grad, replace(cand, grad=None)
                del cand  # else the next iteration's ``del grad`` frees nothing
                accepted = True
                break
            del cand
            lr *= 0.5
        history.append(current.loss)
        if not accepted:
            # Step size exhausted; remaining iterations cannot move.
            history.extend([current.loss] * (config.max_iters - t))
            break

    result = _with_params(initial_design, z)
    outputs = current.outputs
    if outputs is None:
        outputs = evaluate(result, task, loss_spec, prop, with_gradient=False).outputs
    return DesignRun(
        initial_loss=first.loss,
        loss_history=tuple(history),
        result=result,
        coupling_before=first.coupling,
        coupling_after=current.coupling,
        outputs_after=outputs,
    )
