"""Inverse-design engine: loss against a direct reimplementation, adjoint
gradients against central finite differences, and the optimizer contract
(clipping to the dn bounds, determinism, descent, bookkeeping)."""

import dataclasses
import itertools
import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ove.design
import ove.propagation
from ove.design import (
    _CANDIDATE_DTYPE,
    _MAX_HALVINGS,
    _STATE_DTYPE,
    Evaluation,
    LossSpec,
    OptimizerConfig,
    _adjoint_sweep,
    _gradient_per_step,
    _params_per_step,
    _with_params,
    evaluate,
    optimize,
    seeded_initial_volume,
    total_variation,
)
from ove.experiments import fanout_task
from ove.fields import ComplexField, Grid2D, IndexVolume, LayeredElement, MappingTask, overlap
from ove.propagation import (
    EVANESCENT_POLICIES,
    TRANSFER_MODELS,
    PropagationSpec,
    absorber_mask,
    drift,
    drift_adjoint,
    element_chain,
    forward_sweep,
    free_space,
    propagate,
    transfer_function,
)
from ove.sources import gaussian
from testutil import (
    NO_ABSORBER,
    UNITARY,
    Boom,
    band_limited_field,
    band_limited_phases,
    make_baselines,
    raise_on_call,
    record_binding,
    smooth_random_volume,
    traced_peak,
)

LAM = 1.55
SMALL = Grid2D(16, 16, 0.5, 0.5)


def small_task(seeds=(1, 2, 3, 4), grid=SMALL) -> MappingTask:
    ins = [band_limited_field(grid, LAM, s, k_fraction=0.5) for s in seeds[:2]]
    tgts = [band_limited_field(grid, LAM, s, k_fraction=0.5) for s in seeds[2:]]
    return MappingTask.from_fields(ins, tgts)


def inputs_task(seeds) -> MappingTask:
    """Target k fed by the band-limited input of seed ``seeds[k]``, with
    weight 1. Each distinct seed is one input, so a repeated seed gives
    its input a column of W with several ones, whose seeds are summed."""
    distinct = list(dict.fromkeys(seeds))
    ins = [band_limited_field(SMALL, LAM, s, k_fraction=0.5) for s in distinct]
    tgts = [band_limited_field(SMALL, LAM, 3 + k, k_fraction=0.5) for k in range(len(seeds))]
    weights = np.zeros((len(seeds), len(distinct)))
    for k, s in enumerate(seeds):
        weights[k, distinct.index(s)] = 1.0
    return MappingTask(ins, tgts, weights)


def dense_task() -> MappingTask:
    """2 inputs onto 3 targets through a W with one zero entry: input 1
    skips target 0, and targets 1 and 2 take both inputs."""
    ins = [band_limited_field(SMALL, LAM, s, k_fraction=0.5) for s in (1, 2)]
    tgts = [band_limited_field(SMALL, LAM, s, k_fraction=0.5) for s in (3, 4, 5)]
    return MappingTask(ins, tgts, np.array([[0.7, 0.0], [1.0, 0.4], [0.3, 1.5]]))


def small_volume(seed=5, grid=SMALL, nz=8) -> IndexVolume:
    return smooth_random_volume(grid, nz=nz, dz=1.0, seed=seed)


def small_element(seed=21, grid=SMALL, gaps=(4.0, 4.0, 6.0)) -> LayeredElement:
    phases = band_limited_phases(grid, 3, seed=seed, amplitude=0.8, k_cut=2.0)
    return LayeredElement(grid=grid, layers=tuple(phases), gaps=gaps)


# FD checks run every loss kind with the absorber off and on (the
# default spec). With the absorber on they also run on tasks where one
# input feeds several targets, next to each other or not, so their seeds
# share one adjoint sweep; with a TV term; and under the paraxial transfer
# that keeps evanescent components. With the absorber off they also run
# with evanescent components kept and decaying, through the fused
# H(dz) drifts of a volume. Layered elements also run the first two with
# a zero gap, which skips a drift. The plain absorber-off ids carry the
# loss kind alone.
PARAXIAL_KEEP = PropagationSpec(transfer_model="fresnel-paraxial", evanescent_policy="keep")
FD_VARIANTS = (  # (id suffix, propagation spec, task builder, tv_weight)
    ("", NO_ABSORBER, small_task, 0.0),
    ("-absorber", PropagationSpec(), small_task, 0.0),
    ("-repeated", PropagationSpec(), lambda: inputs_task((1, 1, 2)), 0.0),
    ("-repeated-split", PropagationSpec(), lambda: inputs_task((1, 2, 1)), 0.0),
    ("-tv", PropagationSpec(), small_task, 1e-3),
    ("-paraxial-keep", PARAXIAL_KEEP, small_task, 0.0),
    ("-unitary", UNITARY, small_task, 0.0),
)
FD_KINDS = ("mode-coupling", "intensity-mse")
VOLUME_FD_CASES = [pytest.param(kind, prop, make_task, tv, id=kind + var_id)
                   for var_id, prop, make_task, tv in FD_VARIANTS for kind in FD_KINDS]
LAYERED_FD_CASES = [pytest.param(kind, prop, make_task, tv, gaps, id=kind + var_id + gap_id)
                    for gap_id, gaps, variants in (("", (4.0, 4.0, 6.0), FD_VARIANTS),
                                                   ("-zero-gap", (4.0, 0.0, 6.0), FD_VARIANTS[:2]))
                    for var_id, prop, make_task, tv in variants for kind in FD_KINDS]


def fd_volume(vol, task, spec, v, prop, h=1e-6):
    dn_p = vol.dn.copy()
    dn_p[v] += h
    dn_m = vol.dn.copy()
    dn_m[v] -= h
    mk = lambda dn: IndexVolume(grid=vol.grid, nz=vol.nz, dz=vol.dz, n0=vol.n0,
                                dn=dn, dn_min=-1.0, dn_max=1.0)
    return (evaluate(mk(dn_p), task, spec, prop, with_gradient=False).loss
            - evaluate(mk(dn_m), task, spec, prop, with_gradient=False).loss) / (2.0 * h)


def fd_layered(el, task, spec, v, prop, h=1e-6):
    li, i, j = v
    plus = [p.copy() for p in el.layers]
    plus[li][i, j] += h
    minus = [p.copy() for p in el.layers]
    minus[li][i, j] -= h
    mk = lambda ls: LayeredElement(grid=el.grid, layers=tuple(ls), gaps=el.gaps,
                                   n_gap=el.n_gap)
    return (evaluate(mk(plus), task, spec, prop, with_gradient=False).loss
            - evaluate(mk(minus), task, spec, prop, with_gradient=False).loss) / (2.0 * h)


def assert_directional_fd(design, task, spec, prop, h=1e-6):
    """The adjoint gradient, projected on a unit direction in the design's
    parameters z, against a central difference of the loss along it. The whole design moves, so
    the difference is far above FD cancellation noise even where single
    entries of the gradient are near zero.

    A volume's bounds are widened to +-1, so clipping is the identity.
    The direction is a random unit vector plus the adjoint gradient's unit
    vector: the random part gives every entry a weight, so an entry the
    adjoint wrongly reports as zero still shows, and the gradient part
    keeps the projection near |grad| / sqrt(2), never in roundoff."""
    if isinstance(design, IndexVolume):
        design = IndexVolume(grid=design.grid, nz=design.nz, dz=design.dz, n0=design.n0,
                             dn=design.dn, dn_min=-1.0, dn_max=1.0)
    z = _params_per_step(design)
    at = lambda zz: _with_params(design, zz)
    adj = evaluate(at(z), task, spec, prop, with_gradient=True).grad
    r = np.random.default_rng(4).standard_normal(z.shape)
    direction = r / np.linalg.norm(r) + adj / np.linalg.norm(adj)
    direction /= np.linalg.norm(direction)
    loss_at = lambda zz: evaluate(at(zz), task, spec, prop, with_gradient=False).loss
    fd = (loss_at(z + h * direction) - loss_at(z - h * direction)) / (2.0 * h)
    proj = float(np.sum(adj * direction))
    assert abs(fd - proj) <= 1e-5 * max(abs(fd), abs(proj))


# The sweep below draws every setting the optimizer can run on 16^2 grids:
# the transfer model and evanescent policy, the absorber off or at any
# width in [0.05, 0.3], each loss kind with and without TV, and the
# element, a volume of nz <= 4 or a layered element whose gaps may all
# be zero. One case is left out: with no drift
# at all the element is one phase screen, which the intensity loss cannot
# see, so without TV its derivative is exactly zero and no relative check
# applies.
SWEEP_VOLUMES = st.builds(
    lambda nz, seed: smooth_random_volume(SMALL, nz=nz, dz=1.0, seed=seed),
    st.integers(1, 4), st.integers(0, 3))
SWEEP_ELEMENTS = st.builds(
    lambda seed, gaps: small_element(seed=seed, gaps=tuple(gaps)),
    st.integers(0, 3), st.lists(st.sampled_from([0.0, 2.0, 5.0]), min_size=3, max_size=3))
SWEEP_PROPS = st.builds(
    PropagationSpec, st.sampled_from(TRANSFER_MODELS), st.sampled_from(EVANESCENT_POLICIES),
    st.one_of(st.just(0.0), st.floats(0.05, 0.3)))
SWEEP_LOSSES = st.builds(LossSpec, st.sampled_from(FD_KINDS), st.sampled_from([0.0, 1e-3]))


def _flat(case) -> bool:
    design, _prop, spec = case
    return (isinstance(design, LayeredElement) and not any(design.gaps)
            and spec.kind == "intensity-mse" and spec.tv_weight == 0.0)


SWEEP_CASES = st.tuples(st.one_of(SWEEP_VOLUMES, SWEEP_ELEMENTS), SWEEP_PROPS,
                        SWEEP_LOSSES).filter(lambda case: not _flat(case))


def direct_loss(design, task, kind, prop):
    """Sum over W of W_ti times the term of input i against target t."""
    dA = SMALL.dx * SMALL.dy
    want = 0.0
    for i, inp in enumerate(task.inputs):
        out = propagate(design, inp, prop)
        for t, tgt in enumerate(task.targets):
            w = task.weights[t, i]
            if kind == "mode-coupling":
                ov = np.sum(np.conj(out.values) * tgt.values) * dA
                want += w * (1.0 - abs(ov) ** 2)
            else:
                diff = np.abs(out.values) ** 2 - np.abs(tgt.values) ** 2
                want += w * float(np.sum(diff**2)) * dA
    return want


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

class TestLoss:
    def test_perfect_task_is_zero(self):
        g = Grid2D(32, 32, 0.5, 0.5)
        vol = IndexVolume(grid=g, nz=8, dz=1.0, n0=1.5, dn=np.zeros((32, 32, 8)))
        src = gaussian(g, LAM, waist_um=3.0)
        tgt = free_space(src, 8.0, 1.5, NO_ABSORBER)
        task = MappingTask.from_fields([src], [tgt])
        assert evaluate(vol, task, LossSpec(), NO_ABSORBER, with_gradient=False).loss <= 1e-9

    def test_orthogonal_targets_sum_of_weights(self):
        # Even input stays even through free space; an odd target then
        # couples nothing and each pair contributes exactly its weight.
        g = Grid2D(32, 32, 0.5, 0.5)
        vol = IndexVolume(grid=g, nz=4, dz=1.0, n0=1.5, dn=np.zeros((32, 32, 4)))
        xs, _ = g.meshgrid()
        even = gaussian(g, LAM, waist_um=2.0)
        odd = ComplexField(g, LAM, xs * np.exp(-(xs**2) / 4.0) + 0j)
        task = MappingTask.from_fields([even, even], [odd, odd],
                                       weights=[0.7, 2.3])
        got = evaluate(vol, task, LossSpec(), NO_ABSORBER, with_gradient=False).loss
        assert got == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("kind", ["mode-coupling", "intensity-mse"])
    def test_matches_direct_reimplementation(self, kind):
        task = small_task()
        vol = small_volume()
        tv_weight = 0.3
        got = evaluate(vol, task, LossSpec(kind=kind, tv_weight=tv_weight), NO_ABSORBER,
                       with_gradient=False).loss

        want = direct_loss(vol, task, kind, NO_ABSORBER)
        eps = 1e-12
        sq = np.full(vol.dn.shape, eps**2)
        for ax in range(3):
            d = np.diff(vol.dn, axis=ax)
            pad = [(0, 1) if a == ax else (0, 0) for a in range(3)]
            sq += np.pad(d, pad) ** 2
        want += tv_weight * float(np.sum(np.sqrt(sq) - eps))

        assert got == pytest.approx(want, rel=1e-10)

    def test_grid_mismatch_rejected(self):
        vol = small_volume()
        other = small_task(grid=Grid2D(16, 16, 0.25, 0.25))
        with pytest.raises(ValueError):
            evaluate(vol, other, LossSpec(), NO_ABSORBER, with_gradient=False)


# ---------------------------------------------------------------------------
# gradient vs finite differences
# ---------------------------------------------------------------------------

class TestGradient:
    @pytest.mark.parametrize("kind,prop,make_task,tv_weight", VOLUME_FD_CASES)
    def test_volume_matches_fd(self, kind, prop, make_task, tv_weight):
        task = make_task()
        vol = small_volume()
        spec = LossSpec(kind=kind, tv_weight=tv_weight)
        adj = evaluate(vol, task, spec, prop, with_gradient=True).grad
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = tuple(int(rng.integers(0, s)) for s in adj.shape)
            fd = fd_volume(vol, task, spec, v, prop)
            assert abs(fd - adj[v]) <= 1e-4 * max(abs(fd), abs(adj[v]))

    @pytest.mark.parametrize("kind,prop,make_task,tv_weight,gaps", LAYERED_FD_CASES)
    def test_layered_matches_fd(self, kind, prop, make_task, tv_weight, gaps):
        task = make_task()
        el = small_element(gaps=gaps)
        spec = LossSpec(kind=kind, tv_weight=tv_weight)
        adj = evaluate(el, task, spec, prop, with_gradient=True).grad
        assert adj.shape == (3, SMALL.nx, SMALL.ny)
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = tuple(int(rng.integers(0, s)) for s in adj.shape)
            fd = fd_layered(el, task, spec, v, prop)
            assert abs(fd - adj[v]) <= 1e-4 * max(abs(fd), abs(adj[v]))

    @pytest.mark.parametrize("kind,prop,make_task,tv_weight", VOLUME_FD_CASES)
    def test_volume_matches_directional_fd(self, kind, prop, make_task, tv_weight):
        assert_directional_fd(small_volume(), make_task(),
                              LossSpec(kind=kind, tv_weight=tv_weight), prop)

    @pytest.mark.parametrize("kind,prop,make_task,tv_weight,gaps", LAYERED_FD_CASES)
    def test_layered_matches_directional_fd(self, kind, prop, make_task, tv_weight, gaps):
        assert_directional_fd(small_element(gaps=gaps), make_task(),
                              LossSpec(kind=kind, tv_weight=tv_weight), prop)

    @given(case=SWEEP_CASES)
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_directional_fd(self, case):
        design, prop, spec = case
        assert_directional_fd(design, small_task(), spec, prop)

    def test_directional_derivative(self):
        # Projecting the gradient on a random direction agrees with the
        # FD of the whole volume moved along it; immune to single-voxel
        # cancellation noise.
        task = small_task()
        vol = small_volume()
        spec = LossSpec()
        adj = evaluate(vol, task, spec, NO_ABSORBER, with_gradient=True).grad
        rng = np.random.default_rng(2)
        direction = rng.standard_normal(vol.dn.shape)
        direction /= np.linalg.norm(direction)
        h = 1e-6
        mk = lambda dn: IndexVolume(grid=vol.grid, nz=vol.nz, dz=vol.dz, n0=vol.n0,
                                    dn=dn, dn_min=-1.0, dn_max=1.0)
        loss_at = lambda dn: evaluate(mk(dn), task, spec, NO_ABSORBER, with_gradient=False).loss
        fd = (loss_at(vol.dn + h * direction) - loss_at(vol.dn - h * direction)) / (2 * h)
        proj = float(np.sum(adj * direction))
        assert abs(fd - proj) <= 1e-6 * max(abs(fd), abs(proj))

    def test_stationary_at_perfect_task(self):
        g = Grid2D(32, 32, 0.5, 0.5)
        vol = IndexVolume(grid=g, nz=8, dz=1.0, n0=1.5, dn=np.zeros((32, 32, 8)))
        src = gaussian(g, LAM, waist_um=3.0)
        tgt = free_space(src, 8.0, 1.5, NO_ABSORBER)
        task = MappingTask.from_fields([src], [tgt])
        adj = evaluate(vol, task, LossSpec(), NO_ABSORBER, with_gradient=True).grad
        assert np.max(np.abs(adj)) <= 1e-8

    def test_tv_term_matches_fd(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 5, 4)) * 0.01
        _, grad = total_variation(x)
        h = 1e-5
        for v in [(0, 0, 0), (3, 2, 1), (5, 4, 3), (2, 0, 3)]:
            xp = x.copy()
            xp[v] += h
            xm = x.copy()
            xm[v] -= h
            fd = (total_variation(xp)[0] - total_variation(xm)[0]) / (2 * h)
            assert abs(fd - grad[v]) <= 1e-5 * max(1.0, abs(fd))

    @staticmethod
    def reference_total_variation(x):
        """The TV term as first written, one temporary per operation."""
        diffs = []
        sq = np.full(x.shape, 1e-12**2)
        for ax in range(x.ndim):
            d = np.zeros_like(x)
            sl_hi = [slice(None)] * x.ndim
            sl_lo = [slice(None)] * x.ndim
            sl_hi[ax] = slice(1, None)
            sl_lo[ax] = slice(None, -1)
            d[tuple(sl_lo)] = x[tuple(sl_hi)] - x[tuple(sl_lo)]
            diffs.append(d)
            sq += d * d
        r = np.sqrt(sq)
        value = float(np.sum(r - 1e-12))
        grad = np.zeros_like(x)
        for ax, d in enumerate(diffs):
            t = d / r
            sl_hi = [slice(None)] * x.ndim
            sl_lo = [slice(None)] * x.ndim
            sl_hi[ax] = slice(1, None)
            sl_lo[ax] = slice(None, -1)
            grad[tuple(sl_lo)] -= t[tuple(sl_lo)]
            grad[tuple(sl_hi)] += t[tuple(sl_lo)]
        return value, grad

    @pytest.mark.parametrize("shape,order", [((40,), "C"), ((9, 7), "C"), ((6, 5, 4), "C"),
                                             ((6, 5, 4), "F"), ((3, 4, 5, 2), "C")])
    def test_tv_matches_reference_bit_for_bit(self, shape, order):
        x = np.asarray(np.random.default_rng(8).standard_normal(shape) * 0.01, order=order)
        value, grad = total_variation(x)
        want_value, want_grad = self.reference_total_variation(x)
        assert value == want_value
        np.testing.assert_array_equal(grad, want_grad, strict=True)

    def test_tv_peaks_at_six_arrays(self):
        # The slice-major copy of dn that evaluate passes, one difference per
        # axis, the summed squares and one scratch buffer: 6 arrays of the
        # input's size, plus the iterator buffers numpy's ufuncs use on
        # strided slices (up to 3 operands of getbufsize() elements each).
        vol = small_volume(nz=32)
        param = vol.dn.nbytes
        _, peak = traced_peak(lambda: total_variation(_params_per_step(vol)))
        bound = 6 * param + 3 * np.getbufsize() * 8 + 4096
        assert peak <= bound, f"peak {peak / param:.2f} arrays, bound {bound / param:.2f}"

    def test_loss_and_gradient_consistent(self):
        # The gradient rides on the same forward sweeps: with it or without
        # it, the loss and the coupling carry the same bits. The gradient is
        # there exactly when asked for, and the outputs exactly when not.
        task = small_task()
        for design, kind, tv_weight in itertools.product(sorted(EVALUATE_DESIGNS), FD_KINDS,
                                                         (0.0, 1e-3)):
            args = (EVALUATE_DESIGNS[design](), task, LossSpec(kind=kind, tv_weight=tv_weight),
                    PropagationSpec())
            with_grad = evaluate(*args, with_gradient=True)
            without = evaluate(*args, with_gradient=False)
            assert with_grad.loss == without.loss
            np.testing.assert_array_equal(with_grad.coupling, without.coupling, strict=True)
            assert with_grad.grad is not None and with_grad.outputs is None
            assert without.grad is None and len(without.outputs) == len(task.inputs)


# ---------------------------------------------------------------------------
# one evaluation
# ---------------------------------------------------------------------------

def reference_term_and_seed(out, target, weight, kind):
    """Loss term of one W entry and its seed dL/d(conj(out)), written out."""
    area = target.grid.cell_area
    if kind == "mode-coupling":
        c = complex(np.sum(np.conj(out) * target.values) * area)
        return weight * (1.0 - abs(c) ** 2), -weight * np.conj(c) * target.values * area
    diff = np.abs(out) ** 2 - np.abs(target.values) ** 2
    return weight * float(np.sum(diff**2)) * area, 2.0 * weight * diff * out * area


def reference_evaluate(design, task, spec, prop, with_gradient):
    """evaluate entry by entry: one forward sweep per input, then for each
    target with W_ti > 0, in target order, its loss term and an adjoint
    sweep of its own seed."""
    steps = element_chain(design, task.grid, task.wavelength_um, prop)
    grad = None
    if with_gradient:
        # A float64 gradient of its own, indexed by step as evaluate's is.
        _, _, scale = _gradient_per_step(design, task.wavelength_um)
        volume = isinstance(design, IndexVolume)
        grad_steps = np.zeros((design.nz if volume else design.num_layers, *task.grid.shape))
        grad = np.moveaxis(grad_steps, 0, -1) if volume else grad_steps
    coupling = np.empty(task.weights.shape)
    total = 0.0
    for i, inp in enumerate(task.inputs):
        trace = [] if with_gradient else None
        out = forward_sweep(steps, inp.values, trace)
        for t, target in enumerate(task.targets):
            coupling[t, i] = abs(overlap(inp.with_values(out), target)) ** 2
            if task.weights[t, i] > 0:
                term, g = reference_term_and_seed(out, target, task.weights[t, i], spec.kind)
                total += term
                if with_gradient:  # the sweep consumes its trace's fields: give it copies
                    _adjoint_sweep(steps, [u.copy() for u in trace], g, grad_steps, scale)
    if spec.tv_weight > 0.0:
        tv, tv_grad = total_variation(_params_per_step(design))
        total += spec.tv_weight * tv
        if with_gradient:
            grad = grad + spec.tv_weight * tv_grad
    return float(total), grad, coupling


EVALUATE_DESIGNS = {
    "volume": small_volume,
    "layered-zero-gap": lambda: small_element(gaps=(4.0, 0.0, 6.0)),
}


class TestEvaluate:
    def test_one_public_evaluation(self):
        # evaluate and its frozen record are the one way to evaluate a
        # design; no wrapper slices the record.
        assert {"evaluate", "Evaluation"} <= set(ove.__all__) & set(ove.design.__all__)
        wrappers = {"loss", "gradient", "loss_and_gradient", "coupling_matrix"}
        assert not wrappers & (set(ove.__all__) | set(vars(ove.design)))
        ev = evaluate(small_volume(), small_task(), LossSpec(), PropagationSpec(),
                      with_gradient=False)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.loss = 0.0

    @pytest.mark.parametrize("tv_weight", [0.0, 1e-3])
    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("design", sorted(EVALUATE_DESIGNS))
    def test_distinct_inputs_match_per_pair_loop_bit_for_bit(self, design, kind, tv_weight):
        # Identity W: every input feeds one target, so its seed runs back
        # unchanged.
        args = (EVALUATE_DESIGNS[design](), small_task(),
                LossSpec(kind=kind, tv_weight=tv_weight), PropagationSpec())
        got = evaluate(*args, with_gradient=True)
        want_loss, want_grad, want_coupling = reference_evaluate(*args, with_gradient=True)
        assert got.loss == want_loss
        np.testing.assert_array_equal(got.grad, want_grad, strict=True)
        np.testing.assert_array_equal(got.coupling, want_coupling, strict=True)

    @pytest.mark.parametrize("prop", [PARAXIAL_KEEP, NO_ABSORBER, UNITARY],
                             ids=["paraxial-keep", "no-absorber", "unitary"])
    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("design", sorted(EVALUATE_DESIGNS))
    def test_every_propagation_matches_per_pair_loop_bit_for_bit(self, design, kind, prop):
        # Three distinct inputs, with TV on, under the transfers and
        # absorber settings other than the default.
        args = (EVALUATE_DESIGNS[design](), inputs_task((1, 2, 3)),
                LossSpec(kind=kind, tv_weight=1e-3), prop)
        got = evaluate(*args, with_gradient=True)
        want_loss, want_grad, want_coupling = reference_evaluate(*args, with_gradient=True)
        assert got.loss == want_loss
        np.testing.assert_array_equal(got.grad, want_grad, strict=True)
        np.testing.assert_array_equal(got.coupling, want_coupling, strict=True)

    @pytest.mark.parametrize("seeds", [(1, 1, 1, 2), (1, 2, 1)], ids=["aaab", "aba"])
    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("design", sorted(EVALUATE_DESIGNS))
    def test_shared_inputs_match_per_pair_loop(self, design, kind, seeds):
        # A column of W with several ones: its summed seeds reorder the
        # gradient's additions, so it agrees to rounding; the loss (summed
        # in the same order) and the coupling come from the same outputs
        # and stay equal.
        args = (EVALUATE_DESIGNS[design](), inputs_task(seeds), LossSpec(kind=kind),
                PropagationSpec())
        got = evaluate(*args, with_gradient=True)
        want_loss, want_grad, want_coupling = reference_evaluate(*args, with_gradient=True)
        assert got.loss == want_loss
        assert np.linalg.norm(got.grad - want_grad) <= 1e-12 * np.linalg.norm(want_grad)
        np.testing.assert_array_equal(got.coupling, want_coupling, strict=True)


class TestWeightMatrix:
    """A task whose W is not the identity: ``dense_task``'s 2 inputs share
    targets and skip one."""

    @pytest.mark.parametrize("kind", FD_KINDS)
    def test_loss_is_weighted_sum_of_terms(self, kind):
        vol, task = small_volume(), dense_task()
        got = evaluate(vol, task, LossSpec(kind=kind), PropagationSpec(),
                       with_gradient=False).loss
        want = direct_loss(vol, task, kind, PropagationSpec())
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("design", sorted(EVALUATE_DESIGNS))
    def test_matches_entry_loop(self, design, kind):
        args = (EVALUATE_DESIGNS[design](), dense_task(), LossSpec(kind=kind),
                PropagationSpec())
        got = evaluate(*args, with_gradient=True)
        want_loss, want_grad, want_coupling = reference_evaluate(*args, with_gradient=True)
        assert got.loss == want_loss
        assert np.linalg.norm(got.grad - want_grad) <= 1e-12 * np.linalg.norm(want_grad)
        np.testing.assert_array_equal(got.coupling, want_coupling, strict=True)

    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("design", sorted(EVALUATE_DESIGNS))
    def test_matches_directional_fd(self, design, kind):
        assert_directional_fd(EVALUATE_DESIGNS[design](), dense_task(), LossSpec(kind=kind),
                              PropagationSpec())

    def test_coupling_matrix_covers_every_entry(self):
        vol, task = small_volume(), dense_task()
        got = evaluate(vol, task, LossSpec(), PropagationSpec(), with_gradient=False).coupling
        assert got.shape == (3, 2)
        np.testing.assert_array_equal(got, reference_coupling(vol, task, PropagationSpec()),
                                      strict=True)

    def test_zero_column_runs_no_adjoint(self, monkeypatch):
        calls = {"forward": 0, "adjoint": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ove.design, "forward_sweep",
                            counted("forward", ove.design.forward_sweep))
        monkeypatch.setattr(ove.design, "_adjoint_sweep",
                            counted("adjoint", ove.design._adjoint_sweep))
        task = dense_task()
        task = MappingTask(task.inputs, task.targets, np.array([[1.0, 0.0]] * 3))
        vol = small_volume()
        got = evaluate(vol, task, LossSpec(), PropagationSpec(), with_gradient=True)
        assert calls == {"forward": 2, "adjoint": 1}
        only_first = MappingTask(task.inputs[:1], task.targets, np.ones((3, 1)))
        want = evaluate(vol, only_first, LossSpec(), PropagationSpec(), with_gradient=True)
        assert got.loss == want.loss
        np.testing.assert_array_equal(got.grad, want.grad, strict=True)


def zero_column_task() -> MappingTask:
    """3 inputs onto 3 targets with the middle input's column of W zero:
    it runs no adjoint, between two inputs that do."""
    ins = [band_limited_field(SMALL, LAM, s, k_fraction=0.5) for s in (1, 2, 3)]
    tgts = [band_limited_field(SMALL, LAM, s, k_fraction=0.5) for s in (4, 5, 6)]
    return MappingTask(ins, tgts, np.diag([1.0, 0.0, 0.7]))


def counted_sweeps(monkeypatch) -> dict[str, int]:
    """Counts evaluate's forward and adjoint sweeps as they run."""
    calls = {"forward": 0, "adjoint": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ove.design, "forward_sweep", counted("forward", ove.design.forward_sweep))
    monkeypatch.setattr(ove.design, "_adjoint_sweep",
                        counted("adjoint", ove.design._adjoint_sweep))
    return calls


class TestTaskShapes:
    """Tasks whose W is not a plain identity, each with the adjoint sweeps
    it runs with a gradient: one per input whose column of W is not zero,
    however many targets it feeds."""

    TASKS = {
        "zero-column": (zero_column_task, 2),
        "shared-aaab": (lambda: inputs_task((1, 1, 1, 2)), 2),
        "shared-aba": (lambda: inputs_task((1, 2, 1)), 2),
        "dense": (dense_task, 2),
        "one-input": (lambda: inputs_task((1,)), 1),
    }

    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("design", sorted(EVALUATE_DESIGNS))
    @pytest.mark.parametrize("task", ["zero-column", "one-input"])
    def test_matches_entry_loop_bit_for_bit(self, monkeypatch, task, design, kind):
        # Every input feeds at most one target, so each seed runs back
        # unchanged; the zero column's input keeps no trace.
        make_task, adjoints = self.TASKS[task]
        args = (EVALUATE_DESIGNS[design](), make_task(), LossSpec(kind=kind),
                PropagationSpec())
        want_loss, want_grad, want_coupling = reference_evaluate(*args, with_gradient=True)
        calls = counted_sweeps(monkeypatch)
        got = evaluate(*args, with_gradient=True)
        assert calls == {"forward": len(args[1].inputs), "adjoint": adjoints}
        assert got.loss == want_loss and got.outputs is None
        np.testing.assert_array_equal(got.grad, want_grad, strict=True)
        np.testing.assert_array_equal(got.coupling, want_coupling, strict=True)

    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("design", sorted(EVALUATE_DESIGNS))
    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_without_gradient_runs_forward_sweeps_only(self, monkeypatch, task, design, kind):
        # One forward sweep per input and no adjoint; the outputs are
        # propagate's, and the loss and coupling the entry loop's.
        design = EVALUATE_DESIGNS[design]()
        task = self.TASKS[task][0]()
        args = (design, task, LossSpec(kind=kind), PropagationSpec())
        want_loss, want_grad, want_coupling = reference_evaluate(*args, with_gradient=False)
        calls = counted_sweeps(monkeypatch)
        got = evaluate(*args, with_gradient=False)
        assert calls == {"forward": len(task.inputs), "adjoint": 0}
        assert got.loss == want_loss and got.grad is None and want_grad is None
        np.testing.assert_array_equal(got.coupling, want_coupling, strict=True)
        monkeypatch.undo()
        assert len(got.outputs) == len(task.inputs)
        for out, inp in zip(got.outputs, task.inputs):
            np.testing.assert_array_equal(out, propagate(design, inp, PropagationSpec()).values,
                                          strict=True)

    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("design", sorted(EVALUATE_DESIGNS))
    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_complex64_agrees_with_complex128(self, monkeypatch, task, design, kind):
        make_task, adjoints = self.TASKS[task]
        calls = counted_sweeps(monkeypatch)
        got = assert_agrees_with_complex128(EVALUATE_DESIGNS[design](), make_task(),
                                            LossSpec(kind=kind), PropagationSpec())
        assert calls["adjoint"] == 2 * adjoints and got.grad.dtype == np.float32


# ---------------------------------------------------------------------------
# the thread an evaluation runs on
# ---------------------------------------------------------------------------

def large_case(kind="volume"):
    """A design on an 80² grid, large enough for propagate to start its
    kick worker, and a task of two inputs."""
    grid = Grid2D(80, 80, 0.5, 0.5)
    assert grid.nx * grid.ny >= ove.propagation._OVERLAP_MIN_SAMPLES
    if kind == "volume":
        design = smooth_random_volume(grid, nz=6, dz=1.0, seed=41)
    else:
        design = LayeredElement(grid=grid, layers=tuple(band_limited_phases(grid, 3, seed=42)),
                                gaps=(4.0, 0.0, 6.0))
    ins = [band_limited_field(grid, LAM, s, k_fraction=0.5) for s in (43, 44)]
    tgts = [band_limited_field(grid, LAM, s, k_fraction=0.5) for s in (45, 46)]
    return design, MappingTask.from_fields(ins, tgts)


class TestCallingThread:
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("kind", ["volume", "layered"])
    def test_every_sweep_runs_on_the_calling_thread(self, monkeypatch, kind, dtype):
        # With a gradient and without, on a grid where propagate binds a
        # worker: every sweep and drift runs on the caller's thread, the
        # thread count never rises, and no CPU is read or bound.
        design, task = large_case(kind)
        reads, bindings = record_binding(monkeypatch)
        caller, before = threading.current_thread(), threading.active_count()
        seen = []

        def recorded(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                seen.append((name, threading.current_thread(), threading.active_count()))
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("forward_sweep", "_adjoint_sweep", "drift_adjoint"):
            recorded(ove.design, name)
        recorded(ove.propagation, "drift")
        for with_gradient in (True, False):
            evaluate(design, task, LossSpec(), PropagationSpec(), with_gradient=with_gradient,
                     dtype=dtype)
        sweeps = [name for name, _, _ in seen if name.endswith("_sweep")]
        assert sweeps == ["forward_sweep", "_adjoint_sweep"] * 2 + ["forward_sweep"] * 2
        assert {"drift", "drift_adjoint"} <= {name for name, _, _ in seen}
        assert {(thread, count) for _, thread, count in seen} == {(caller, before)}
        assert reads == [] and bindings == []

    # Each wrapper raises on its second call: input 0's second forward
    # drift, input 0's second adjoint drift, or the chain's second kick.
    FAILING = {
        "forward-drift": (ove.propagation, "drift"),
        "adjoint-drift": (ove.design, "drift_adjoint"),
        "kick": (ove.propagation, "_kick"),
    }

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("kind", ["volume", "layered"])
    @pytest.mark.parametrize("failing", sorted(FAILING))
    def test_a_failure_reaches_the_caller_as_raised(self, monkeypatch, failing, kind, dtype):
        # The failure leaves no thread, binds no CPU, and spoils nothing
        # for the next evaluation, which gives the bits of one before it.
        design, task = large_case(kind)

        def run():
            return evaluate(design, task, LossSpec(), PropagationSpec(), with_gradient=True,
                            dtype=dtype)

        want = run()
        reads, bindings = record_binding(monkeypatch)
        before = threading.active_count()
        module, name = self.FAILING[failing]
        wrapper, seen = raise_on_call(getattr(module, name), 2)
        monkeypatch.setattr(module, name, wrapper)
        with pytest.raises(Boom, match="^call 2$"):
            run()
        assert seen == [before] * 2 and threading.active_count() == before
        assert reads == [] and bindings == []
        monkeypatch.undo()
        got = run()
        assert got.loss == want.loss
        np.testing.assert_array_equal(got.grad, want.grad, strict=True)
        np.testing.assert_array_equal(got.coupling, want.coupling, strict=True)


# ---------------------------------------------------------------------------
# evaluations in complex64
# ---------------------------------------------------------------------------

def assert_agrees_with_complex128(design, task, spec, prop) -> Evaluation:
    """evaluate with a gradient in complex64 against the default
    complex128: the loss and the coupling within rtol 1e-4, the gradient
    within a relative L2 error of 1e-4. Returns the complex64 one."""
    want = evaluate(design, task, spec, prop, with_gradient=True)
    got = evaluate(design, task, spec, prop, with_gradient=True, dtype=np.complex64)
    assert got.loss == pytest.approx(want.loss, rel=1e-4)
    np.testing.assert_allclose(got.coupling, want.coupling, rtol=1e-4)
    assert np.linalg.norm(got.grad - want.grad) <= 1e-4 * np.linalg.norm(want.grad)
    return got


class TestComplex64:
    """``evaluate(..., dtype=np.complex64)``, which the optimizer's
    candidates run: it agrees with complex128 to single precision, and
    every array of its sweeps is complex64."""

    @pytest.mark.parametrize("prop", [PropagationSpec(), NO_ABSORBER], ids=["absorber", "none"])
    @pytest.mark.parametrize("tv_weight", [0.0, 1e-3])
    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("design", sorted(EVALUATE_DESIGNS))
    def test_agrees_with_complex128(self, design, kind, tv_weight, prop):
        assert_agrees_with_complex128(EVALUATE_DESIGNS[design](), inputs_task((1, 2, 3)),
                                      LossSpec(kind=kind, tv_weight=tv_weight), prop)

    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("design", ["volume", "layered"])
    def test_agrees_with_complex128_on_an_80_grid(self, design, kind):
        # A grid past propagate's worker threshold, of two inputs.
        design, task = large_case(design)
        assert_agrees_with_complex128(design, task, LossSpec(kind=kind), PropagationSpec())

    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("design", sorted(EVALUATE_DESIGNS))
    def test_every_array_of_the_sweeps_is_complex64(self, monkeypatch, design, kind):
        # A float64 or complex128 array anywhere in the chain, the casts or
        # the seed would promote the sweeps back to complex128. The absorber
        # factor is float32: a float64 one would leave the kicks complex64
        # but form each in complex128. The gradient is float32, so each
        # step's term is added without a cast; the TV term (on here) and
        # the coupling stay float64, and propagate keeps complex128 and its
        # bits.
        design, task = EVALUATE_DESIGNS[design](), inputs_task((1, 2, 3))
        prop = PropagationSpec()
        before = propagate(design, task.inputs[0], prop).values
        seen = {}

        def note(name, *arrays):
            seen.setdefault(name, set()).update(a.dtype for a in arrays if a is not None)

        sweep, adjoint = ove.design.forward_sweep, ove.design._adjoint_sweep
        fwd_drift, adj_drift = ove.propagation.drift, ove.design.drift_adjoint
        kick = ove.propagation._kick

        def recorded_kick(phase, factor, dtype):
            note("factor", factor)
            return kick(phase, factor, dtype)

        def recorded_sweep(steps, values, trace=None):
            for pre, kick, post in steps:
                note("kick", kick)
                note("transfer", pre, post)
            note("input", values)
            out = sweep(steps, values, trace)
            note("traced", *(trace or ()))
            note("output", out)
            return out

        def recorded_adjoint(steps, trace, g, grad_steps, scale):
            note("seed", g)
            return adjoint(steps, trace, g, grad_steps, scale)

        def recorded_drift(values, h):
            note("drift", values, h)
            return fwd_drift(values, h)

        def recorded_drift_adjoint(g, h_conj):
            note("adjoint drift", g, h_conj)
            return adj_drift(g, h_conj)

        monkeypatch.setattr(ove.propagation, "_kick", recorded_kick)
        monkeypatch.setattr(ove.design, "forward_sweep", recorded_sweep)
        monkeypatch.setattr(ove.design, "_adjoint_sweep", recorded_adjoint)
        monkeypatch.setattr(ove.propagation, "drift", recorded_drift)
        monkeypatch.setattr(ove.design, "drift_adjoint", recorded_drift_adjoint)
        spec = LossSpec(kind=kind, tv_weight=1e-3)
        ev = evaluate(design, task, spec, prop, with_gradient=True, dtype=np.complex64)
        c64 = {np.dtype(np.complex64)}
        names = ("kick", "transfer", "input", "traced", "output", "seed", "drift",
                 "adjoint drift")
        factor = seen.pop("factor")
        assert seen == dict.fromkeys(names, c64) and factor == {np.dtype(np.float32)}
        assert ev.grad.dtype == np.float32 and ev.coupling.dtype == np.float64
        assert type(ev.loss) is float
        seen.clear()
        ev = evaluate(design, task, spec, prop, with_gradient=False, dtype=np.complex64)
        seen.pop("factor")
        assert {out.dtype for out in ev.outputs} == c64 and set(seen) <= set(names)
        assert all(dtypes <= c64 for dtypes in seen.values())  # no trace: an empty set
        monkeypatch.undo()
        np.testing.assert_array_equal(propagate(design, task.inputs[0], prop).values, before,
                                      strict=True)

    @pytest.mark.parametrize("tv_weight", [0.0, 1e-3])
    @pytest.mark.parametrize("design", sorted(EVALUATE_DESIGNS))
    def test_complex128_gradient_stays_float64(self, design, tv_weight):
        # Only a complex64 evaluation sums its gradient in float32. The
        # complex128 one, which the FD checks read, is float64, with the
        # bits of the per-pair loop summed into a float64 gradient of its
        # own.
        args = (EVALUATE_DESIGNS[design](), small_task(), LossSpec(tv_weight=tv_weight),
                PropagationSpec())
        got = evaluate(*args, with_gradient=True).grad
        _, want, _ = reference_evaluate(*args, with_gradient=True)
        assert want.dtype == np.float64
        np.testing.assert_array_equal(got, want, strict=True)


# ---------------------------------------------------------------------------
# the volume chain against the split-step formula
# ---------------------------------------------------------------------------

def reference_volume_sweeps(vol, task, spec, prop):
    """Outputs, loss and gradient of ``vol`` from the split-step formula
    alone, without ``element_chain``: kicks M^2 exp(1j k0 dz dn)[:, :, k],
    M the absorber mask (1 when off), with a half-drift on each side of
    every one, the adjoint walking the same slices back, and one forward
    and one adjoint sweep per input of an identity-W task."""
    phase = (2.0 * np.pi / task.wavelength_um) * vol.dz * vol.dn
    mask = absorber_mask(task.grid, prop.absorber_width)
    kick = np.exp(1j * phase) * (1.0 if mask is None else mask[:, :, None] ** 2)
    h_half = transfer_function(task.grid, task.wavelength_um, vol.n0, 0.5 * vol.dz,
                               prop.transfer_model, prop.evanescent_policy)
    h_half_conj = np.conj(h_half)
    scale = 2.0 * ((2.0 * np.pi / task.wavelength_um) * vol.dz)
    grad = np.zeros(vol.dn.shape)
    outs, total = [], 0.0
    for inp, target, weight in zip(task.inputs, task.targets, np.diagonal(task.weights)):
        u, trace = inp.values, []
        for k in range(vol.nz):
            u = drift(u, h_half)
            u = kick[:, :, k] * u
            trace.append(u)
            u = drift(u, h_half)
        outs.append(u)
        pair_loss, g = reference_term_and_seed(u, target, weight, spec.kind)
        total += pair_loss
        for k in reversed(range(vol.nz)):
            g = drift_adjoint(g, h_half_conj)
            grad[:, :, k] += scale * np.imag(np.conj(trace[k]) * g)
            g = np.conj(kick[:, :, k]) * g
            g = drift_adjoint(g, h_half_conj)
    return outs, float(total), grad


class TestVolumeChain:
    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("prop", [PropagationSpec(), PARAXIAL_KEEP, NO_ABSORBER, UNITARY],
                             ids=["absorber", "paraxial-keep", "no-absorber", "unitary"])
    def test_fused_drifts_match_formula(self, prop, kind):
        # H(dz) in place of H(dz/2) H(dz/2) changes only the rounding, with
        # the absorber on or off.
        vol, task, spec = small_volume(), small_task(), LossSpec(kind=kind)
        outs, want_loss, want_grad = reference_volume_sweeps(vol, task, spec, prop)
        steps = element_chain(vol, task.grid, task.wavelength_um, prop)
        for inp, want in zip(task.inputs, outs):
            got = forward_sweep(steps, inp.values)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        got = evaluate(vol, task, spec, prop, with_gradient=True)
        assert abs(got.loss - want_loss) <= 1e-12 * abs(want_loss)
        assert np.linalg.norm(got.grad - want_grad) <= 1e-12 * np.linalg.norm(want_grad)

    @staticmethod
    def sweep_drifts(monkeypatch, nz, prop, task):
        """Forward and adjoint drifts of one evaluation with a gradient."""
        calls = {"forward": 0, "adjoint": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(ove.propagation, "drift", counted("forward", drift))
        monkeypatch.setattr(ove.design, "drift_adjoint", counted("adjoint", drift_adjoint))
        vol = IndexVolume(grid=SMALL, nz=nz, dz=1.0, n0=1.5,
                          dn=np.full((SMALL.nx, SMALL.ny, nz), 0.01))
        evaluate(vol, task, LossSpec(), prop, with_gradient=True)
        return calls

    # A forward sweep runs nz + 1 drifts. The adjoint runs nz: it stops
    # after slice 0's gradient term, so slice 0's pre half-drift is not
    # undone.
    SWEEP_DRIFTS = pytest.mark.parametrize("nz,prop,drifts", [
        (8, NO_ABSORBER, 9), (8, PropagationSpec(), 9),
        (1, NO_ABSORBER, 2), (1, PropagationSpec(), 2),
    ], ids=["fused", "absorber", "one-slice-fused", "one-slice-absorber"])

    @SWEEP_DRIFTS
    def test_drifts_per_sweep(self, monkeypatch, nz, prop, drifts):
        calls = self.sweep_drifts(monkeypatch, nz, prop, inputs_task((1,)))
        assert calls == {"forward": drifts, "adjoint": nz}

    @SWEEP_DRIFTS
    def test_fanout_drifts_per_sweep(self, monkeypatch, nz, prop, drifts):
        # One forward and one adjoint sweep for the one input that feeds
        # four targets.
        task = fanout_task(SMALL, LAM, 4, 2.0, 1.0, prop)
        calls = self.sweep_drifts(monkeypatch, nz, prop, task)
        assert calls == {"forward": drifts, "adjoint": nz}


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def reference_coupling(design, task, prop):
    """|overlap|^2 of each propagated input against each target, (targets,
    inputs)."""
    outs = [propagate(design, inp, prop) for inp in task.inputs]
    return np.array([[abs(overlap(out, tgt)) ** 2 for out in outs] for tgt in task.targets])


def reference_optimize(task, initial_design, loss_spec, config, prop):
    """The optimizer loop as written before evaluations were shared: an
    evaluation without a gradient per candidate, one with a gradient again
    after acceptance, and a coupling pass of its own before and after.
    The start's loss is evaluated in complex128, and its gradient, every
    candidate and each candidate's gradient in ``_CANDIDATE_DTYPE``; the
    coupling passes run ``propagate``. Adam runs at its published defaults
    in ``_STATE_DTYPE`` on an unclipped iterate z, which starts at the
    initial design rounded to it; a candidate is z widened to float64 and
    clipped to its dn bounds. Until a step is accepted the design is the
    initial one. Returns the run's fields and the number of rejected
    candidates."""
    def at(zz):
        zz = zz.astype(np.float64)
        if isinstance(initial_design, IndexVolume):
            return initial_design.with_dn(
                np.clip(zz, initial_design.dn_min, initial_design.dn_max))
        return initial_design.with_layers(tuple(zz))

    z = _params_per_step(initial_design)
    design = at(z)
    z = z.astype(_STATE_DTYPE)
    coupling_before = reference_coupling(design, task, prop)
    current_loss = evaluate(design, task, loss_spec, prop, with_gradient=False).loss
    initial_loss = current_loss
    grad = evaluate(design, task, loss_spec, prop, with_gradient=True,
                    dtype=_CANDIDATE_DTYPE).grad.astype(_STATE_DTYPE)
    m = np.zeros_like(z)
    v = np.zeros_like(z)
    lr = config.step_size
    history = []
    rejected = 0
    for t in range(1, config.max_iters + 1):
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad * grad
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        direction = m_hat / (np.sqrt(v_hat) + 1e-8)
        assert direction.dtype == _STATE_DTYPE
        accepted = False
        for _ in range(_MAX_HALVINGS):
            z_new = z - lr * direction
            cand = at(z_new)
            cand_loss = evaluate(cand, task, loss_spec, prop, with_gradient=False,
                                 dtype=_CANDIDATE_DTYPE).loss
            if cand_loss <= current_loss:
                z, design, current_loss = z_new, cand, cand_loss
                accepted = True
                break
            rejected += 1
            lr *= 0.5
        history.append(current_loss)
        if not accepted:
            history.extend([current_loss] * (config.max_iters - t))
            break
        if t < config.max_iters:
            accepted_ev = evaluate(design, task, loss_spec, prop, with_gradient=True,
                                   dtype=_CANDIDATE_DTYPE)
            current_loss, grad = accepted_ev.loss, accepted_ev.grad.astype(_STATE_DTYPE)
    coupling_after = reference_coupling(design, task, prop)
    return (_params_per_step(design), initial_loss, tuple(history), coupling_before,
            coupling_after), rejected


def perfect_flat_case():
    """Flat volume already at its task's optimum: every step makes it worse."""
    src = gaussian(SMALL, LAM, waist_um=2.0)
    task = MappingTask.from_fields([src], [free_space(src, 8.0, 1.5, PropagationSpec())])
    vol = IndexVolume(grid=SMALL, nz=8, dz=1.0, n0=1.5, dn=np.zeros((16, 16, 8)),
                      dn_min=-0.05, dn_max=0.05)
    return task, vol


# (task, design, loss spec, optimizer, whether the run rejects a candidate)
REFERENCE_CASES = {
    "volume-absorber": lambda: (small_task(), small_volume(), LossSpec(),
                                OptimizerConfig(step_size=2e-3, max_iters=5), False),
    "layered-zero-gap-halving": lambda: (small_task(), small_element(gaps=(4.0, 0.0, 6.0)),
                                         LossSpec(), OptimizerConfig(step_size=2.0, max_iters=5),
                                         True),
    "inputs-aaab": lambda: (inputs_task((1, 1, 1, 2)), small_volume(),
                            LossSpec(kind="intensity-mse"),
                            OptimizerConfig(step_size=2e-3, max_iters=5), False),
    "volume-tv": lambda: (small_task(), small_volume(), LossSpec(tv_weight=1e-3),
                          OptimizerConfig(step_size=2e-3, max_iters=5), False),
    "halvings-run-out": lambda: (*perfect_flat_case(), LossSpec(),
                                 OptimizerConfig(step_size=1e20, max_iters=3), True),
    "max-iters-0": lambda: (inputs_task((1, 1, 1, 2)), small_volume(), LossSpec(),
                            OptimizerConfig(step_size=2e-3, max_iters=0), False),
    "max-iters-1": lambda: (inputs_task((1, 1, 1, 2)), small_volume(), LossSpec(),
                            OptimizerConfig(step_size=2e-3, max_iters=1), False),
}


class TestOptimize:
    def test_zero_step_returns_initial(self, monkeypatch):
        # The candidate of a zero step is the start rounded to Adam's
        # float32; it is evaluated once, in complex64, not halved, whether
        # or not its loss rounds above the complex128 start's (on this
        # design it does). A run that accepts no step returns the start
        # itself.
        task = small_task()
        vol = small_volume()
        cfg = OptimizerConfig(step_size=0.0, max_iters=1)
        calls = []
        monkeypatch.setattr(ove.design, "evaluate",
                            lambda *args, **kwargs: calls.append(1) or evaluate(*args, **kwargs))
        run = optimize(task, vol, LossSpec(), cfg, NO_ABSORBER)
        np.testing.assert_array_equal(run.result.dn, vol.dn)
        assert run.loss_history == (run.initial_loss,)
        # the start's loss, the start's gradient, the one candidate and the
        # closing evaluation
        assert len(calls) == 4

    def test_zero_iterations_evaluate_only(self):
        task = small_task()
        vol = small_volume()
        run = optimize(task, vol, LossSpec(), OptimizerConfig(max_iters=0), NO_ABSORBER)
        np.testing.assert_array_equal(run.result.dn, vol.dn)
        assert run.loss_history == ()
        assert run.initial_loss == pytest.approx(
            evaluate(vol, task, LossSpec(), NO_ABSORBER, with_gradient=False).loss, rel=1e-12)

    def test_starts_at_optimum_stays_there(self):
        g = Grid2D(32, 32, 0.5, 0.5)
        vol = IndexVolume(grid=g, nz=8, dz=1.0, n0=1.5, dn=np.zeros((32, 32, 8)),
                          dn_min=-0.05, dn_max=0.05)
        src = gaussian(g, LAM, waist_um=3.0)
        tgt = free_space(src, 8.0, 1.5, NO_ABSORBER)
        task = MappingTask.from_fields([src], [tgt])
        run = optimize(task, vol, LossSpec(), OptimizerConfig(max_iters=10),
                       NO_ABSORBER)
        assert all(h <= 1e-6 for h in run.loss_history)

    def test_toy_sorter_against_fixture(self, toy_result, baselines):
        run, report = toy_result
        ref = baselines["toy_sorter"]
        assert run.loss_history[-1] <= 0.5 * run.initial_loss
        assert report.diagonal_mean > report.offdiag_mean
        assert run.initial_loss == pytest.approx(ref["initial_loss"], rel=1e-10)
        assert run.loss_history[-1] == pytest.approx(ref["final_loss"], rel=1e-10)
        np.testing.assert_allclose(report.matrix, ref["coupling_matrix"],
                                   rtol=1e-9, atol=1e-12)

    def test_projection_safety_clip(self):
        task = small_task()
        vol = small_volume()
        cfg = OptimizerConfig(step_size=0.05, max_iters=5)  # huge steps
        run = optimize(task, vol, LossSpec(), cfg, NO_ABSORBER)
        assert np.all(run.result.dn >= run.result.dn_min)
        assert np.all(run.result.dn <= run.result.dn_max)

    def test_bounds_float32_cannot_hold_are_clipped_in_float64(self, monkeypatch):
        # Neither bound of a +-0.05 volume is a float32: each rounds outward
        # (float32(0.05) = 0.0500000007). Each step of Adam's float32
        # candidate is widened before it is clipped, so every candidate,
        # and the result, builds its chain, and test_projection_safety_clip's
        # huge steps land voxels on both bounds exactly.
        assert float(np.float32(0.05)) > 0.05 and float(np.float32(-0.05)) < -0.05
        base = small_volume()
        vol = IndexVolume(grid=SMALL, nz=base.nz, dz=base.dz, n0=base.n0,
                          dn=2.0 * base.dn - 0.05, dn_min=-0.05, dn_max=0.05)
        extremes, design_params = [], ove.design._design_params

        def spied(*args):
            params, steps = design_params(*args), []
            extremes.append(steps)

            def recorded(k):
                p = params(k)
                steps.append((p.min(), p.max()))
                return p
            return recorded

        monkeypatch.setattr(ove.design, "_design_params", spied)
        cfg = OptimizerConfig(step_size=0.05, max_iters=5)  # huge steps
        run = optimize(small_task(), vol, LossSpec(), cfg, NO_ABSORBER)
        # Every candidate and the result form each step once.
        assert len(extremes) >= cfg.max_iters + 1
        assert all(len(steps) == vol.nz for steps in extremes)
        assert {(min(lo for lo, _ in steps), max(hi for _, hi in steps))
                for steps in extremes} == {(-0.05, 0.05)}
        assert run.loss_history[-1] < run.initial_loss
        assert run.result.dn.min() == run.result.dn_min
        assert run.result.dn.max() == run.result.dn_max

    def test_deterministic(self):
        # The seed only seeds the start (seeded_initial_volume); from the
        # same start, runs that differ only in seed are identical.
        task = small_task()
        vol = small_volume()
        a, b = (optimize(task, vol, LossSpec(),
                         OptimizerConfig(step_size=1e-3, max_iters=6, seed=seed), NO_ABSORBER)
                for seed in (0, 9))
        assert a.loss_history == b.loss_history
        np.testing.assert_array_equal(a.result.dn, b.result.dn)
        np.testing.assert_array_equal(a.coupling_before, b.coupling_before)
        np.testing.assert_array_equal(a.coupling_after, b.coupling_after)

    def test_descent_sanity(self):
        task = small_task()
        vol = small_volume()
        run = optimize(task, vol, LossSpec(),
                       OptimizerConfig(step_size=2e-3, max_iters=15), NO_ABSORBER)
        assert run.loss_history[-1] <= run.loss_history[0]
        diffs = np.diff(run.loss_history)
        assert np.all(diffs <= 1e-15)  # safeguarded: non-increasing

    def test_run_bookkeeping(self):
        task = small_task()
        vol = small_volume()
        cfg = OptimizerConfig(step_size=1e-3, max_iters=7)
        run = optimize(task, vol, LossSpec(), cfg, NO_ABSORBER)
        assert len(run.loss_history) <= cfg.max_iters
        # The history holds the accepted candidates' losses, evaluated in
        # complex64; the last is the result's, to the bit.
        final = evaluate(run.result, task, LossSpec(), NO_ABSORBER, with_gradient=False,
                         dtype=_CANDIDATE_DTYPE).loss
        assert run.loss_history[-1] == final
        exact = evaluate(run.result, task, LossSpec(), NO_ABSORBER, with_gradient=False).loss
        assert abs(run.loss_history[-1] - exact) <= 1e-4 * exact
        assert run.coupling_before.shape == (2, 2)
        assert run.coupling_after.shape == (2, 2)

    def test_permutation_equivariance(self):
        ins = [band_limited_field(SMALL, LAM, s, k_fraction=0.5) for s in (1, 2, 3)]
        tgts = [band_limited_field(SMALL, LAM, s, k_fraction=0.5) for s in (4, 5, 6)]
        weights = [0.5, 1.5, 1.0]
        fwd = MappingTask.from_fields(ins, tgts, weights=weights)
        perm = [2, 0, 1]
        rev = MappingTask.from_fields([ins[p] for p in perm],
                                      [tgts[p] for p in perm],
                                      weights=[weights[p] for p in perm])
        vol = small_volume()
        a = evaluate(vol, fwd, LossSpec(), NO_ABSORBER, with_gradient=True)
        b = evaluate(vol, rev, LossSpec(), NO_ABSORBER, with_gradient=True)
        assert abs(a.loss - b.loss) <= 1e-12
        np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_reference_loop_bit_for_bit(self, case):
        task, design, spec, cfg, rejects = REFERENCE_CASES[case]()
        want, rejected = reference_optimize(task, design, spec, cfg, PropagationSpec())
        assert (rejected > 0) == rejects
        if case == "halvings-run-out":
            assert rejected == _MAX_HALVINGS
        run = optimize(task, design, spec, cfg, PropagationSpec())
        got = (_params_per_step(run.result), run.initial_loss, run.loss_history,
               run.coupling_before, run.coupling_after)
        np.testing.assert_array_equal(got[0], want[0], strict=True)
        assert got[1] == want[1]
        assert got[2] == want[2]
        np.testing.assert_array_equal(got[3], want[3], strict=True)
        np.testing.assert_array_equal(got[4], want[4], strict=True)

    @pytest.mark.parametrize("case", ["volume-absorber", "volume-tv", "layered-zero-gap-halving"])
    def test_any_block_size_gives_the_same_run(self, monkeypatch, case):
        # On these grids one block holds every step. Blocks of one step, and
        # of three with a short last one, run the same elementwise
        # arithmetic, so the run carries the same bits.
        task, design, spec, cfg, _ = REFERENCE_CASES[case]()
        want = optimize(task, design, spec, cfg, PropagationSpec())
        steps = len(element_chain(design, SMALL, LAM, PropagationSpec()))
        assert ove.design._block_steps(design) >= steps
        for size in (1, 3):
            monkeypatch.setattr(ove.design, "_BLOCK_SAMPLES", size * SMALL.nx * SMALL.ny)
            assert ove.design._block_steps(design) == size
            run = optimize(task, design, spec, cfg, PropagationSpec())
            assert run.loss_history == want.loss_history
            np.testing.assert_array_equal(_params_per_step(run.result),
                                          _params_per_step(want.result), strict=True)

    # (REFERENCE_CASES entry, propagation spec)
    OUTPUT_CASES = {
        "volume-absorber": ("volume-absorber", PropagationSpec()),
        "volume-no-absorber": ("volume-absorber", NO_ABSORBER),
        "layered-zero-gap": ("layered-zero-gap-halving", PropagationSpec()),
        "max-iters-0": ("max-iters-0", PropagationSpec()),
        "halvings-run-out": ("halvings-run-out", PropagationSpec()),
    }

    @pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
    def test_outputs_after_equal_propagated_result(self, case):
        # The outputs come from the run's last evaluation, not from a pass
        # of their own, and equal what propagate makes of the result.
        name, prop = self.OUTPUT_CASES[case]
        task, design, spec, cfg, _ = REFERENCE_CASES[name]()
        run = optimize(task, design, spec, cfg, prop)
        assert len(run.outputs_after) == len(task.inputs)
        for inp, out in zip(task.inputs, run.outputs_after):
            np.testing.assert_array_equal(out, propagate(run.result, inp, prop).values,
                                          strict=True)

    @staticmethod
    def recorded_evaluations(monkeypatch, case):
        """The run of a REFERENCE_CASES entry, and (design, with_gradient,
        dtype) of each evaluation it made."""
        task, design, spec, cfg, _ = REFERENCE_CASES[case]()
        calls = []

        def recorded(design, *args, with_gradient, dtype=np.complex128, **kwargs):
            calls.append((design, with_gradient, np.dtype(dtype)))
            return evaluate(design, *args, with_gradient=with_gradient, dtype=dtype, **kwargs)

        monkeypatch.setattr(ove.design, "evaluate", recorded)
        return optimize(task, design, spec, cfg, PropagationSpec()), calls

    def test_halvings_run_out_evaluate_result_without_gradient(self, monkeypatch):
        # Iteration 1 rejects every candidate, so the run ends on its
        # initial design; the closing evaluation, in complex128 and without
        # a gradient, gives the outputs, as it does for every run.
        run, calls = self.recorded_evaluations(monkeypatch, "halvings-run-out")
        c64, c128 = np.dtype(_CANDIDATE_DTYPE), np.dtype(np.complex128)
        assert [(g, d) for _, g, d in calls] == \
            [(False, c128), (True, c64)] + [(True, c64)] * _MAX_HALVINGS + [(False, c128)]
        assert calls[-1][0] is run.result

    @pytest.mark.parametrize("case", ["volume-absorber", "layered-zero-gap-halving",
                                      "max-iters-1", "max-iters-0"])
    def test_candidates_in_complex64_start_and_result_in_complex128(self, monkeypatch, case):
        # The start's loss, without a gradient, and the closing evaluation
        # of the result, without one, run in complex128. The start's
        # gradient, of the same design, and every candidate run in
        # complex64, the candidates with a gradient before the last
        # iteration, so no complex128 evaluation builds a trace. A run of
        # no iterations evaluates its start alone, without a gradient.
        run, calls = self.recorded_evaluations(monkeypatch, case)
        c64, c128 = np.dtype(_CANDIDATE_DTYPE), np.dtype(np.complex128)
        iters = REFERENCE_CASES[case]()[3].max_iters
        if iters == 0:
            assert [(g, d) for _, g, d in calls] == [(False, c128)]
            return
        (start, *first), (start_again, *first_gradient), *candidates, (last, *closing) = calls
        assert first == [False, c128] and first_gradient == [True, c64]
        assert closing == [False, c128]
        np.testing.assert_array_equal(_params_per_step(start_again), _params_per_step(start),
                                      strict=True)
        assert last is run.result
        assert {d for _, _, d in candidates} == {c64}
        assert candidates[-1][1] is False and candidates[0][1] == (iters > 1)
        assert run.outputs_after[0].dtype == c128

    # Runs that accept at least three steps, with the absorber on and two
    # inputs: a 32-slice volume, and 32 layers, whose rejected first
    # candidates also drop their gradients. With 32 steps a parameter-sized
    # array is 16 fields, so the three a spent candidate, its iterate and a
    # stale gradient would add stand far above the few fields of the sweeps.
    LIVE_SET_CASES = {
        "volume": lambda: (small_volume(nz=32), OptimizerConfig(step_size=2e-3, max_iters=4)),
        "layered": lambda: (LayeredElement(grid=SMALL, gaps=(1.0,) * 32,
                                           layers=tuple(band_limited_phases(SMALL, 32, seed=40))),
                            OptimizerConfig(step_size=2.0, max_iters=6)),
    }

    @pytest.mark.parametrize("case", sorted(LIVE_SET_CASES))
    def test_sweeps_start_without_the_candidate_or_an_older_gradient(self, monkeypatch, case):
        # Every evaluation but the closing one evaluates the initial design,
        # each candidate's per-step parameters standing in for its own.
        # When an evaluation's first forward sweep starts, every candidate's
        # per-step function and every step it formed are gone (its chain is
        # formed), and so is every gradient of an earlier evaluation: the
        # accepted one that updated Adam's moments, and any rejected
        # candidate's. The result, built from the same per-step function,
        # leaves neither behind either.
        design, cfg = self.LIVE_SET_CASES[case]()
        formed, grads, starts, seen, chained = [], [], [], [], []
        design_params = ove.design._design_params

        def spied(*args):
            params = design_params(*args)

            def recorded(k):
                p = params(k)
                formed.extend((weakref.ref(p), weakref.ref(p.base)))  # the step and its block
                return p
            formed.append(weakref.ref(recorded))
            return recorded

        def chain(*args, **kwargs):
            starts.append(len(grads))
            chained.append(args[0])
            return element_chain(*args, **kwargs)

        def gradient_per_step(*args):
            grad = _gradient_per_step(*args)
            grads.append(weakref.ref(grad[1]))  # the array the gradient views
            return grad

        def sweep(*args):
            if starts:
                older = grads[:starts.pop()]
                seen.append((len(older), [r() for r in formed + older]))
            return forward_sweep(*args)

        monkeypatch.setattr(ove.design, "_design_params", spied)
        monkeypatch.setattr(ove.design, "element_chain", chain)
        monkeypatch.setattr(ove.design, "_gradient_per_step", gradient_per_step)
        monkeypatch.setattr(ove.design, "forward_sweep", sweep)
        run = optimize(small_task(), design, LossSpec(), cfg, PropagationSpec())
        accepted = sum(b < a for a, b in zip((run.initial_loss,) + run.loss_history,
                                              run.loss_history))
        assert accepted >= 3
        # Every evaluation: the start's loss, the last candidate and the
        # closing evaluation of the result run without a gradient. The
        # closing one holds the result, which the run returns, and nothing
        # else.
        assert len(seen) == len(grads) + 3
        assert [n for n, _ in seen] == [0] + list(range(len(grads) + 1)) + [len(grads)]
        assert formed and all(live == [None] * len(live) for _, live in seen)
        assert chained[-1] is run.result and all(d is design for d in chained[:-1])

    @pytest.mark.parametrize("case", sorted(LIVE_SET_CASES))
    def test_iteration_peaks_at_its_live_set(self, case):
        # An iteration holds one float64 parameter-sized array (the
        # initial design) and four float32 ones (Adam's iterate, m and v,
        # and the candidate's gradient), the chain's kicks, one input's
        # trace, plus a dozen (nx, ny) fields: the sweeps' working fields
        # and, below complex128, the casts of the inputs, the targets and
        # the transfers. Its fields are of the candidates' dtype. The array
        # and list objects of the steps do not shrink with the dtype: up to
        # 1 kB a step is allowed, and about 0.6 kB is measured. The start's
        # gradient is complex64 too and holds no Adam state; its complex128
        # loss and the closing evaluation hold neither a gradient nor a
        # trace. The initial design is rebuilt inside the traced call, so
        # it counts; a first run warms the transfer and absorber caches.
        design, cfg = self.LIVE_SET_CASES[case]()
        task = small_task()
        optimize(task, design, LossSpec(), OptimizerConfig(max_iters=0), PropagationSpec())
        _, peak = traced_peak(lambda: optimize(
            task, _with_params(design, _params_per_step(design)), LossSpec(), cfg,
            PropagationSpec()))
        param = _params_per_step(design).nbytes
        state = param // 8 * np.dtype(_STATE_DTYPE).itemsize
        steps = len(element_chain(design, SMALL, LAM, PropagationSpec()))
        field = SMALL.nx * SMALL.ny * np.dtype(_CANDIDATE_DTYPE).itemsize
        bound = param + 4 * state + steps * field + steps * field + 12 * field + 1024 * steps
        assert peak <= bound, f"peak {peak} B, bound {bound} B"

    @pytest.mark.parametrize("case", sorted(LIVE_SET_CASES))
    def test_no_evaluation_traces_in_complex128(self, monkeypatch, case):
        # The start is two evaluations of one design: its loss in
        # complex128 without a gradient, then Adam's first gradient in
        # complex64. So every forward sweep that keeps a trace runs in
        # complex64, and the complex128 sweeps (the start's loss and the
        # closing evaluation) keep none.
        design, cfg = self.LIVE_SET_CASES[case]()
        calls, sweeps = [], []

        def recorded(design, *args, with_gradient, dtype=np.complex128, **kwargs):
            calls.append((with_gradient, np.dtype(dtype)))
            return evaluate(design, *args, with_gradient=with_gradient, dtype=dtype, **kwargs)

        def sweep(steps, values, trace=None):
            sweeps.append((values.dtype, trace is not None))
            return forward_sweep(steps, values, trace)

        monkeypatch.setattr(ove.design, "evaluate", recorded)
        monkeypatch.setattr(ove.design, "forward_sweep", sweep)
        task = small_task()
        optimize(task, design, LossSpec(), cfg, PropagationSpec())
        c64, c128 = np.dtype(_CANDIDATE_DTYPE), np.dtype(np.complex128)
        assert calls[:2] == [(False, c128), (True, c64)]
        assert {d for d, traced in sweeps if traced} == {c64}
        assert [traced for d, traced in sweeps if d == c128] == [False] * 2 * len(task.inputs)

    def test_make_baselines_records_the_run_dtypes(self, baselines):
        # The provenance of the pins names the dtypes the run has now.
        want = {"start_report": "complex128", "start_gradient": "complex64",
                "candidates": "complex64", "result": "complex128", "state": "float32",
                "gradient": "float32"}
        assert make_baselines().optimizer_dtypes() == want
        assert baselines["provenance"]["optimizer_dtypes"] == want

    @pytest.mark.parametrize("case", ["volume-absorber", "volume-tv", "layered-zero-gap-halving"])
    def test_non_finite_candidate_step_fails_before_its_sweeps(self, monkeypatch, case):
        # A NaN, which a volume's clip keeps, or an infinite layer phase,
        # which has no bound, in one step of the first candidate fails
        # while that step's parameters are formed: for the chain, or with
        # TV on for the TV term first. The candidate runs no sweep.
        task, design, spec, cfg, _ = REFERENCE_CASES[case]()
        bad = np.nan if isinstance(design, IndexVolume) else np.inf
        adam_candidate, sweeps = ove.design._adam_candidate, []

        def poisoned(*args):
            at = adam_candidate(*args)

            def step(ks):
                z = at(ks)
                if ks.start <= 1 < ks.stop:
                    z[1 - ks.start, 0, 0] = bad
                return z
            return step

        def sweep(*args):
            sweeps.append(1)
            return forward_sweep(*args)

        monkeypatch.setattr(ove.design, "_adam_candidate", poisoned)
        monkeypatch.setattr(ove.design, "forward_sweep", sweep)
        with pytest.raises(ValueError, match="step 1 must be finite"):
            optimize(task, design, spec, cfg, PropagationSpec())
        assert len(sweeps) == 2 * len(task.inputs)  # the start's two evaluations

    def test_volume_result_is_slice_major(self):
        # Adam's state lives in the gradient's slice-major layout, so every
        # candidate's slices, and the result's, are contiguous for the kicks.
        design, cfg = self.LIVE_SET_CASES["volume"]()
        run = optimize(small_task(), design, LossSpec(), cfg, PropagationSpec())
        assert run.loss_history[-1] < run.initial_loss
        assert all(run.result.dn[:, :, k].flags.c_contiguous for k in range(run.result.nz))

    @pytest.mark.parametrize("seeds", [(1, 1, 1, 1), (1, 2, 3), (1, 2, 1)],
                             ids=["repeated", "distinct", "repeated-split"])
    @pytest.mark.parametrize("iters", [0, 3])
    def test_pass_counts(self, monkeypatch, seeds, iters):
        # One forward sweep per input per evaluation, and one adjoint
        # sweep per input for every evaluation but the start's loss, the
        # last candidate and the closing one, however many targets an
        # input feeds. Every step of this run is accepted. A run of no
        # iterations evaluates its start alone, without a gradient.
        calls = {"forward": 0, "adjoint": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ove.design, "forward_sweep",
                            counted("forward", ove.design.forward_sweep))
        monkeypatch.setattr(ove.design, "_adjoint_sweep",
                            counted("adjoint", ove.design._adjoint_sweep))
        run = optimize(inputs_task(seeds), small_volume(), LossSpec(),
                       OptimizerConfig(step_size=2e-3, max_iters=iters), PropagationSpec())
        assert len(run.loss_history) == iters
        distinct = len(set(seeds))
        evaluations = 1 + (iters > 0) + iters + (iters > 0)
        assert calls == {"forward": distinct * evaluations, "adjoint": distinct * iters}


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------

class TestSpecs:
    @pytest.mark.parametrize("kwargs", [
        dict(step_size=-1e-3),
        dict(step_size=math.nan),
        dict(step_size=math.inf),
        dict(step_size=-math.inf),
        dict(step_size=1e39),  # above float32's largest finite value
        dict(max_iters=-1),
    ])
    def test_optimizer_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    def test_loss_spec_rejects(self):
        with pytest.raises(ValueError):
            LossSpec(kind="l2")
        with pytest.raises(ValueError):
            LossSpec(tv_weight=-0.5)

    def test_seeded_initial_volume(self):
        a = seeded_initial_volume(SMALL, nz=4, dz=1.0, n0=1.5, seed=3)
        b = seeded_initial_volume(SMALL, nz=4, dz=1.0, n0=1.5, seed=3)
        c = seeded_initial_volume(SMALL, nz=4, dz=1.0, n0=1.5, seed=4)
        np.testing.assert_array_equal(a.dn, b.dn)
        assert not np.array_equal(a.dn, c.dn)
        assert np.all(a.dn >= a.dn_min) and np.all(a.dn <= a.dn_max)
        mid = 0.5 * (a.dn_min + a.dn_max)
        assert np.max(np.abs(a.dn - mid)) <= 1e-4 * a.dn_max
