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
    _MAX_HALVINGS,
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
    raise_on_call,
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
        grad, grad_steps, scale = _gradient_per_step(design, task.wavelength_um)
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


# ---------------------------------------------------------------------------
# the overlapped evaluation
# ---------------------------------------------------------------------------

# evaluate's two paths. Every 16² grid takes the serial loop; lowering the
# grid threshold to one sample forces the overlapped one, which runs each
# input's adjoint on a worker thread beside the next input's forward sweep.
PATHS = pytest.mark.parametrize("path", ["serial", "overlapped"])


def use_path(monkeypatch, path):
    assert SMALL.nx * SMALL.ny < ove.propagation._OVERLAP_MIN_SAMPLES
    if path == "overlapped":
        monkeypatch.setattr(ove.propagation, "_OVERLAP_MIN_SAMPLES", 1)


def zero_column_task() -> MappingTask:
    """3 inputs onto 3 targets with the middle input's column of W zero:
    it runs no adjoint, between two inputs that do."""
    ins = [band_limited_field(SMALL, LAM, s, k_fraction=0.5) for s in (1, 2, 3)]
    tgts = [band_limited_field(SMALL, LAM, s, k_fraction=0.5) for s in (4, 5, 6)]
    return MappingTask(ins, tgts, np.diag([1.0, 0.0, 0.7]))


def evaluate_on_both_paths(monkeypatch, design, task, spec, prop):
    """evaluate with a gradient on the serial path and then on the
    overlapped one, each with the threads its adjoint sweeps ran on."""
    threads = []
    adjoint_sweep = ove.design._adjoint_sweep

    def recorded(*args):
        threads.append(threading.current_thread())
        return adjoint_sweep(*args)

    monkeypatch.setattr(ove.design, "_adjoint_sweep", recorded)
    results = []
    for path in ("serial", "overlapped"):
        use_path(monkeypatch, path)
        results.append((evaluate(design, task, spec, prop, with_gradient=True), threads[:]))
        threads.clear()
    return results


def assert_same_evaluation(got, want):
    assert got.loss == want.loss
    np.testing.assert_array_equal(got.grad, want.grad, strict=True)
    np.testing.assert_array_equal(got.coupling, want.coupling, strict=True)


class TestOverlappedEvaluation:
    @pytest.mark.parametrize("prop", [PropagationSpec(), NO_ABSORBER], ids=["absorber", "none"])
    @pytest.mark.parametrize("tv_weight", [0.0, 1e-3])
    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("design", sorted(EVALUATE_DESIGNS))
    def test_matches_serial_bit_for_bit(self, monkeypatch, design, kind, tv_weight, prop):
        # Three inputs, so two adjoints run beside a forward sweep, and
        # every adjoint runs on the worker.
        (serial, serial_threads), (overlapped, threads) = evaluate_on_both_paths(
            monkeypatch, EVALUATE_DESIGNS[design](), inputs_task((1, 2, 3)),
            LossSpec(kind=kind, tv_weight=tv_weight), prop)
        assert_same_evaluation(overlapped, serial)
        assert serial_threads == [threading.main_thread()] * 3
        assert len(threads) == 3 and threading.main_thread() not in threads

    TASKS = {
        "zero-column": (zero_column_task, 2),
        "shared-aaab": (lambda: inputs_task((1, 1, 1, 2)), 2),
        "dense": (dense_task, 2),
        "one-input": (lambda: inputs_task((1,)), 1),
    }

    @pytest.mark.parametrize("kind", FD_KINDS)
    @pytest.mark.parametrize("design", sorted(EVALUATE_DESIGNS))
    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_tasks_match_serial_bit_for_bit(self, monkeypatch, task, design, kind):
        # An input with a zero column keeps no trace and runs no adjoint; a
        # task of one input has nothing to overlap and keeps the serial loop.
        make_task, adjoints = self.TASKS[task]
        (serial, _), (overlapped, threads) = evaluate_on_both_paths(
            monkeypatch, EVALUATE_DESIGNS[design](), make_task(), LossSpec(kind=kind),
            PropagationSpec())
        assert_same_evaluation(overlapped, serial)
        assert len(threads) == adjoints
        on_caller = [t is threading.main_thread() for t in threads]
        assert on_caller == [task == "one-input"] * adjoints

    @PATHS
    def test_evaluation_without_gradient_is_serial(self, monkeypatch, path):
        # Without a gradient there is no adjoint to overlap.
        use_path(monkeypatch, path)
        before = threading.active_count()
        seen = []
        sweep = ove.design.forward_sweep

        def recorded(*args):
            seen.append(threading.active_count())
            return sweep(*args)

        monkeypatch.setattr(ove.design, "forward_sweep", recorded)
        evaluate(small_volume(), small_task(), LossSpec(), PropagationSpec(), with_gradient=False)
        assert seen == [before] * 2


def overlapped_case(kind="volume"):
    """A design on an 80² grid, large enough for evaluate to overlap its
    sweeps, and a task of two inputs."""
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


class TestOverlapThreads:
    """The worker thread of an overlapped evaluation, on the pattern of
    propagate's: it lives only for the call, and a failure on either
    thread reaches the caller as it was raised. Each call runs on a
    thread of its own, joined with a timeout, so that a hang fails the
    test: while it runs, the thread count is one above ``before``, and
    two above with the worker."""

    @staticmethod
    def run(design, task):
        return evaluate(design, task, LossSpec(), PropagationSpec(), with_gradient=True)

    @classmethod
    def run_joined(cls, design, task) -> list[Exception]:
        """What the evaluation raised, run on a thread of its own."""
        errors = []

        def call():
            try:
                cls.run(design, task)
            except Exception as exc:
                errors.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "the evaluation hung"
        return errors

    def test_no_thread_outlives_a_success(self, monkeypatch):
        design, task = overlapped_case()
        before = threading.active_count()
        adjoint, seen = raise_on_call(ove.design._adjoint_sweep, 0)  # 0: never raises
        monkeypatch.setattr(ove.design, "_adjoint_sweep", adjoint)
        assert self.run_joined(design, task) == []
        assert len(seen) == 2 and min(seen) == before + 2  # both ran on the worker
        assert threading.active_count() == before

    def test_no_thread_outlives_a_worker_failure(self, monkeypatch):
        # The second drift of input 0's adjoint raises on the worker, while
        # the caller runs input 1's forward sweep.
        design, task = overlapped_case()
        before = threading.active_count()
        failing, seen = raise_on_call(drift_adjoint, 2)
        monkeypatch.setattr(ove.design, "drift_adjoint", failing)
        errors = self.run_joined(design, task)
        assert [(type(e), str(e)) for e in errors] == [(Boom, "call 2")]
        assert len(seen) == 2 and min(seen) == before + 2
        assert threading.active_count() == before

    def test_no_thread_outlives_a_caller_failure(self, monkeypatch):
        # Input 1's second forward drift raises on the calling thread, while
        # the worker runs input 0's adjoint.
        design, task = overlapped_case()
        before = threading.active_count()
        drifts = design.nz + 1  # per forward sweep
        failing, seen = raise_on_call(drift, drifts + 2)
        monkeypatch.setattr(ove.propagation, "drift", failing)
        errors = self.run_joined(design, task)
        assert [(type(e), str(e)) for e in errors] == [(Boom, f"call {drifts + 2}")]
        assert len(seen) == drifts + 2 and seen[-1] == before + 2
        assert threading.active_count() == before

    def test_a_forward_sweep_waiting_on_the_budget_is_released(self, monkeypatch):
        # Input 0's adjoint fails only once input 1's forward sweep has
        # filled the trace budget and waits for a field of it. The failure
        # must release it.
        design, task = overlapped_case()
        before = threading.active_count()
        waiting = threading.Event()

        def append(trace, u):
            if not trace.budget.acquire(blocking=False):
                waiting.set()
                trace.budget.acquire()
            list.append(trace, u)

        def failing(*args):
            waiting.wait(timeout=30)
            raise Boom("adjoint")

        monkeypatch.setattr(ove.design._BudgetedTrace, "append", append)
        monkeypatch.setattr(ove.design, "drift_adjoint", failing)
        errors = self.run_joined(design, task)
        assert waiting.is_set()
        assert [type(e) for e in errors] == [Boom]
        assert threading.active_count() == before

    @pytest.mark.parametrize("kind", ["volume", "layered"])
    def test_peak_within_two_fields_of_the_serial_loop(self, monkeypatch, kind):
        # The serial loop peaks while it forms an input's overlaps, beside
        # its full trace. The overlapped path forms them only once the
        # adjoint before is done; while both sweeps run, the traces hold at
        # most one field more than the chain has steps, beside the
        # adjoint's g, a spectrum and one conjugate transfer. It measures
        # about one (nx, ny) field above the serial peak; two are allowed.
        # A first call warms the caches.
        design, task = overlapped_case(kind)
        self.run(design, task)
        field = task.grid.nx * task.grid.ny * 16
        _, overlapped = traced_peak(lambda: self.run(design, task))
        monkeypatch.setattr(ove.propagation, "_OVERLAP_MIN_SAMPLES",
                            task.grid.nx * task.grid.ny + 1)
        _, serial = traced_peak(lambda: self.run(design, task))
        assert overlapped <= serial + 2 * field, (overlapped - serial) / field


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
    Adam runs at its published defaults on an unclipped iterate z; a
    volume's design is z clipped to its dn bounds. Returns the run's fields
    and the number of rejected candidates."""
    def at(zz):
        if isinstance(initial_design, IndexVolume):
            return initial_design.with_dn(
                np.clip(zz, initial_design.dn_min, initial_design.dn_max))
        return initial_design.with_layers(tuple(zz))

    z = _params_per_step(initial_design)
    design = at(z)
    coupling_before = reference_coupling(design, task, prop)
    first = evaluate(design, task, loss_spec, prop, with_gradient=True)
    current_loss, grad = first.loss, first.grad
    initial_loss = current_loss
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
        accepted = False
        for _ in range(_MAX_HALVINGS):
            z_new = z - lr * direction
            cand = at(z_new)
            cand_loss = evaluate(cand, task, loss_spec, prop, with_gradient=False).loss
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
            accepted_ev = evaluate(design, task, loss_spec, prop, with_gradient=True)
            current_loss, grad = accepted_ev.loss, accepted_ev.grad
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
    def test_zero_step_returns_initial(self):
        task = small_task()
        vol = small_volume()
        cfg = OptimizerConfig(step_size=0.0, max_iters=1)
        run = optimize(task, vol, LossSpec(), cfg, NO_ABSORBER)
        np.testing.assert_array_equal(run.result.dn, vol.dn)
        assert run.loss_history == (run.initial_loss,)

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
        final = evaluate(run.result, task, LossSpec(), NO_ABSORBER, with_gradient=False).loss
        assert abs(run.loss_history[-1] - final) <= 1e-9
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

    @PATHS
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_reference_loop_bit_for_bit(self, monkeypatch, case, path):
        # The reference runs the serial loop; the run takes either path.
        task, design, spec, cfg, rejects = REFERENCE_CASES[case]()
        want, rejected = reference_optimize(task, design, spec, cfg, PropagationSpec())
        assert (rejected > 0) == rejects
        if case == "halvings-run-out":
            assert rejected == _MAX_HALVINGS
        use_path(monkeypatch, path)
        run = optimize(task, design, spec, cfg, PropagationSpec())
        got = (_params_per_step(run.result), run.initial_loss, run.loss_history,
               run.coupling_before, run.coupling_after)
        np.testing.assert_array_equal(got[0], want[0], strict=True)
        assert got[1] == want[1]
        assert got[2] == want[2]
        np.testing.assert_array_equal(got[3], want[3], strict=True)
        np.testing.assert_array_equal(got[4], want[4], strict=True)

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

    def test_halvings_run_out_evaluate_result_without_gradient(self, monkeypatch):
        # Iteration 1 rejects every candidate, so the run ends on its
        # initial, gradient evaluation; one more, without a gradient, gives
        # the outputs.
        task, design, spec, cfg, _ = REFERENCE_CASES["halvings-run-out"]()
        calls = []

        def recorded(design, *args, with_gradient):
            calls.append((design, with_gradient))
            return evaluate(design, *args, with_gradient=with_gradient)

        monkeypatch.setattr(ove.design, "evaluate", recorded)
        run = optimize(task, design, spec, cfg, PropagationSpec())
        assert [g for _, g in calls] == [True] * (1 + _MAX_HALVINGS) + [False]
        assert calls[-1][0] is run.result

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
        # When an evaluation's first forward sweep starts, the design it
        # evaluates is gone (its chain is formed), and so is every gradient
        # of an earlier evaluation: the accepted one that formed Adam's
        # direction, and any rejected candidate's.
        design, cfg = self.LIVE_SET_CASES[case]()
        candidates, grads, starts, seen = [], [], [], []

        def with_params(*args):
            cand = _with_params(*args)
            candidates.append(weakref.ref(cand))
            return cand

        def chain(*args):
            starts.append(len(grads))
            return element_chain(*args)

        def gradient_per_step(*args):
            grad = _gradient_per_step(*args)
            grads.append(weakref.ref(grad[1]))  # the array the gradient views
            return grad

        def sweep(*args):
            if starts:
                older = grads[:starts.pop()]
                seen.append((len(older), [r() for r in candidates + older]))
            return forward_sweep(*args)

        monkeypatch.setattr(ove.design, "_with_params", with_params)
        monkeypatch.setattr(ove.design, "element_chain", chain)
        monkeypatch.setattr(ove.design, "_gradient_per_step", gradient_per_step)
        monkeypatch.setattr(ove.design, "forward_sweep", sweep)
        run = optimize(small_task(), design, LossSpec(), cfg, PropagationSpec())
        accepted = sum(b < a for a, b in zip((run.initial_loss,) + run.loss_history,
                                              run.loss_history))
        assert accepted >= 3
        assert len(seen) == len(grads) + 1  # every evaluation, the last without a gradient
        assert [n for n, _ in seen] == list(range(len(seen)))
        assert all(live == [None] * len(live) for _, live in seen)

    @pytest.mark.parametrize("case", sorted(LIVE_SET_CASES))
    def test_iteration_peaks_at_its_live_set(self, case):
        # An iteration holds 5 parameter-sized arrays (the initial design,
        # Adam's iterate, m, v and direction), the chain's kicks, one
        # gradient and one input's trace, plus a dozen (nx, ny) fields: the
        # sweeps' working fields, and the array and list objects of 32 steps
        # (8 to 9 fields measured). The initial design is rebuilt inside the
        # traced call, so it counts; a first run warms the transfer and
        # absorber caches.
        design, cfg = self.LIVE_SET_CASES[case]()
        task = small_task()
        optimize(task, design, LossSpec(), OptimizerConfig(max_iters=0), PropagationSpec())
        _, peak = traced_peak(lambda: optimize(
            task, _with_params(design, _params_per_step(design)), LossSpec(), cfg,
            PropagationSpec()))
        param = _params_per_step(design).nbytes
        steps = len(element_chain(design, SMALL, LAM, PropagationSpec()))
        field = SMALL.nx * SMALL.ny * 16
        bound = 5 * param + steps * field + param + steps * field + 12 * field
        assert peak <= bound, f"peak {peak} B, bound {bound} B"

    def test_volume_result_is_slice_major(self):
        # Adam's state lives in the gradient's slice-major layout, so every
        # candidate's slices, and the result's, are contiguous for the kicks.
        design, cfg = self.LIVE_SET_CASES["volume"]()
        run = optimize(small_task(), design, LossSpec(), cfg, PropagationSpec())
        assert run.loss_history[-1] < run.initial_loss
        assert all(run.result.dn[:, :, k].flags.c_contiguous for k in range(run.result.nz))

    @PATHS
    @pytest.mark.parametrize("seeds", [(1, 1, 1, 1), (1, 2, 3), (1, 2, 1)],
                             ids=["repeated", "distinct", "repeated-split"])
    @pytest.mark.parametrize("iters", [0, 3])
    def test_pass_counts(self, monkeypatch, seeds, iters, path):
        # One forward sweep per input per evaluation, and one adjoint
        # sweep per input for every evaluation but the last, however many
        # targets an input feeds. Every step of this run is accepted.
        use_path(monkeypatch, path)
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
        assert calls == {"forward": distinct * (1 + iters), "adjoint": distinct * iters}


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------

class TestSpecs:
    @pytest.mark.parametrize("kwargs", [
        dict(step_size=-1e-3),
        dict(step_size=math.nan),
        dict(step_size=math.inf),
        dict(step_size=-math.inf),
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
