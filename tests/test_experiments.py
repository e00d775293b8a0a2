"""End-to-end experiments: task builders, crosstalk scoring, the two holography fanout
schemes and their efficiency-vs-M slopes, the plane-wave-to-LP-mode
lantern, and the Haar-lobe GRIN mapping.

The expensive optimization runs come from session-scoped fixtures in
conftest and are compared against the recorded baselines in
tests/fixtures/baselines.json.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ove.config import default_config, parse_config, serialize_config, to_mapping
from ove.design import LossSpec, OptimizerConfig, evaluate
from ove.experiments import (
    CANNED,
    CrosstalkReport,
    EfficiencyCurve,
    HolographySetup,
    canned_config,
    design_task,
    fanout_config,
    fanout_task,
    fit_log_slope,
    lantern_task,
    multiplexed_grating_volume,
    ring_positions,
    run_design,
    sorter_task,
    spot_centroid,
    superposed_grating_efficiency,
    weak_grating_efficiency,
)
from ove.fields import ComplexField, Grid2D, IndexVolume, MappingTask, normalize
from ove.propagation import PropagationSpec, propagate
from ove.sources import gaussian, plane_wave, tilt_angles
from testutil import LANTERN_FIBER, NO_ABSORBER

LAM = 1.55


def even_odd_pair(grid: Grid2D) -> tuple[ComplexField, ComplexField]:
    xs, _ = grid.meshgrid()
    even = gaussian(grid, LAM, waist_um=2.5)
    odd = normalize(ComplexField(grid, LAM, xs * np.exp(-(xs**2) / 6.0) + 0j))
    return even, odd


def scored(design, task, prop=PropagationSpec()) -> CrosstalkReport:
    """Crosstalk report of a design that has no run."""
    coupling = evaluate(design, task, LossSpec(), prop, with_gradient=False).coupling
    return CrosstalkReport.from_matrix(coupling, task.weights)


def old_diagonal_report(mat: np.ndarray) -> tuple[float, float, float]:
    """Diagonal mean, off-diagonal mean and worst extinction of a square
    matrix, as the report formed them from the diagonal alone."""
    diag = np.diagonal(mat)
    off = mat[~np.eye(*mat.shape, dtype=bool)]
    peak = float(off.max())
    return (float(diag.mean()), float(off.mean()),
            10.0 * math.log10(float(diag.min()) / peak))


class TestTaskBuilders:
    GRID = Grid2D(32, 32, 0.5, 0.5)

    def test_fanout_is_one_input_with_a_column_of_ones(self):
        task = fanout_task(self.GRID, LAM, 4, 5.0, 1.5, NO_ABSORBER)
        assert len(task.inputs) == 1 and len(task.targets) == 4
        np.testing.assert_array_equal(task.weights, np.ones((4, 1)), strict=True)

    def test_sorters_are_identity_tasks(self):
        angles = tilt_angles(self.GRID, LAM, (-1.0, 1.0))
        for task in (sorter_task(self.GRID, LAM, angles, 5.0, 1.5),
                     lantern_task(LANTERN_FIBER, self.GRID, angles)):
            assert len(task.inputs) == len(task.targets) == 2
            np.testing.assert_array_equal(task.weights, np.eye(2), strict=True)


class TestCrosstalk:
    def test_identity_task_diagonal_unity(self):
        g = Grid2D(32, 32, 0.5, 0.5)
        vol = IndexVolume(grid=g, nz=4, dz=1.0, n0=1.5, dn=np.zeros((32, 32, 4)))
        even, odd = even_odd_pair(g)
        inputs = [even, odd]
        targets = [propagate(vol, f, NO_ABSORBER) for f in inputs]
        rep = scored(vol, MappingTask.from_fields(inputs, targets), NO_ABSORBER)
        np.testing.assert_allclose(np.diag(rep.matrix), 1.0, rtol=0, atol=1e-6)
        assert rep.worst_extinction_db > 40.0

    def test_orthogonal_targets_fully_dark(self):
        # Free space preserves parity, so even inputs never reach odd targets.
        g = Grid2D(32, 32, 0.5, 0.5)
        vol = IndexVolume(grid=g, nz=4, dz=1.0, n0=1.5, dn=np.zeros((32, 32, 4)))
        even, odd = even_odd_pair(g)
        rep = scored(vol, MappingTask.from_fields([even, even], [odd, odd]), NO_ABSORBER)
        assert rep.matrix.max() <= 1e-6

    def test_toy_sorter_separation(self, toy_result):
        _, report = toy_result
        assert report.diagonal_mean / report.offdiag_mean >= 2.0

    def test_mismatched_lengths_rejected(self):
        g = Grid2D(32, 32, 0.5, 0.5)
        vol = IndexVolume(grid=g, nz=4, dz=1.0, n0=1.5, dn=np.zeros((32, 32, 4)))
        even, odd = even_odd_pair(g)
        with pytest.raises(ValueError):
            scored(vol, MappingTask.from_fields([even], []), NO_ABSORBER)

    def test_from_matrix_statistics(self):
        rep = CrosstalkReport.from_matrix(np.array([[0.8, 0.1], [0.2, 0.6]]), np.eye(2))
        assert rep.diagonal_mean == pytest.approx(0.7)
        assert rep.offdiag_mean == pytest.approx(0.15)
        assert rep.worst_extinction_db == pytest.approx(10 * math.log10(0.6 / 0.2))

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_identity_weights_score_the_diagonal(self, n):
        # Identity W matches the diagonal: the same numbers, bit for bit,
        # whatever the weights on it.
        rng = np.random.default_rng(n)
        mat = rng.uniform(0.0, 1.0 / n, size=(n, n))
        want = old_diagonal_report(mat)
        for weights in (np.eye(n), np.diag(rng.uniform(0.5, 2.0, size=n))):
            rep = CrosstalkReport.from_matrix(mat, weights)
            assert (rep.diagonal_mean, rep.offdiag_mean, rep.worst_extinction_db) == want

    def test_fanout_has_no_unmatched_entry(self):
        rep = CrosstalkReport.from_matrix(np.array([[0.2], [0.25], [0.3]]), np.ones((3, 1)))
        assert rep.diagonal_mean == pytest.approx(0.25)
        assert math.isnan(rep.offdiag_mean)
        assert math.isinf(rep.worst_extinction_db)

    def test_weight_matrix_marks_matched_entries(self):
        mat = np.array([[0.5, 0.1], [0.3, 0.4], [0.05, 0.2]])
        weights = np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 1.0]])
        rep = CrosstalkReport.from_matrix(mat, weights)
        assert rep.diagonal_mean == pytest.approx(np.mean([0.5, 0.3, 0.4, 0.2]))
        assert rep.offdiag_mean == pytest.approx(np.mean([0.1, 0.05]))
        assert rep.worst_extinction_db == pytest.approx(10 * math.log10(0.2 / 0.1))

    def test_from_matrix_single_entry(self):
        rep = CrosstalkReport.from_matrix(np.array([[0.9]]), np.ones((1, 1)))
        assert math.isnan(rep.offdiag_mean)
        assert math.isinf(rep.worst_extinction_db)

    def test_weights_shape_must_match(self):
        with pytest.raises(ValueError, match="does not match"):
            CrosstalkReport.from_matrix(np.eye(2), np.ones((2, 1)))

    def test_out_of_range_couplings_rejected(self):
        with pytest.raises(ValueError):
            CrosstalkReport.from_matrix(np.array([[1.5, 0.0], [0.0, 0.5]]), np.eye(2))
        with pytest.raises(ValueError):
            CrosstalkReport.from_matrix(np.array([[-0.1, 0.0], [0.0, 0.5]]), np.eye(2))


class TestSpotCentroid:
    def test_locates_offset_gaussian(self):
        g = Grid2D(64, 64, 0.5, 0.5)
        f = gaussian(g, LAM, waist_um=2.0, center=(4.0, -3.0))
        cx, cy = spot_centroid(f, window_radius_um=6.0)
        assert math.hypot(cx - 4.0, cy + 3.0) <= 0.1

    def test_degenerate_field_rejected(self):
        g = Grid2D(16, 16, 0.5, 0.5)
        dark = ComplexField(g, LAM, np.zeros((16, 16), dtype=complex))
        with pytest.raises(ValueError, match="degenerate"):
            spot_centroid(dark, window_radius_um=2.0)

    def test_bad_window_rejected(self):
        g = Grid2D(16, 16, 0.5, 0.5)
        f = gaussian(g, LAM, waist_um=2.0)
        with pytest.raises(ValueError):
            spot_centroid(f, window_radius_um=0.0)


class TestRingPositions:
    def test_single_position_on_axis(self):
        assert ring_positions(1, 5.0) == [(5.0, 0.0)]

    def test_even_spacing(self):
        pos = ring_positions(4, 3.0)
        for x, y in pos:
            assert math.hypot(x, y) == pytest.approx(3.0, rel=1e-12)
        assert pos[1][0] == pytest.approx(0.0, abs=1e-12)
        assert pos[1][1] == pytest.approx(3.0, rel=1e-12)

    def test_phase_rotation(self):
        (x, y), = ring_positions(1, 2.0, phase_deg=90.0)
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(2.0, rel=1e-12)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            ring_positions(0, 1.0)


class TestWeakGrating:
    def test_zero_amplitude(self):
        assert weak_grating_efficiency(0.0, 20.0, LAM) == 0.0

    def test_quadratic_scaling(self):
        full = weak_grating_efficiency(1e-3, 20.0, LAM)
        half = weak_grating_efficiency(5e-4, 20.0, LAM)
        assert half == pytest.approx(full / 4.0, rel=1e-14)

    def test_operating_point_matches_bpm(self, baselines):
        ref = baselines["holography"]["weak_grating_point"]
        analytic = weak_grating_efficiency(1e-3, 20.0, LAM)
        assert analytic == pytest.approx(ref["analytic"], rel=1e-12)
        # Live numerical cross-check: one slanted grating read at normal
        # incidence (Bragg-matched by construction) on a 20 um volume.
        setup = HolographySetup(nz=40, dz=0.5)
        eta_bpm = float(superposed_grating_efficiency(1, 1e-3, setup)[0])
        assert eta_bpm == pytest.approx(ref["bpm"], rel=1e-9)
        assert abs(analytic - eta_bpm) <= 0.2 * eta_bpm

    def test_weak_regime_guard(self):
        with pytest.raises(ValueError, match="weak-coupling formula invalid"):
            weak_grating_efficiency(0.01, 100.0, LAM)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            weak_grating_efficiency(-1e-3, 20.0, LAM)
        with pytest.raises(ValueError):
            weak_grating_efficiency(1e-3, 0.0, LAM)


def expected_carrier_bins(m: int, setup: HolographySetup) -> list[int]:
    # Independent restatement of the carrier layout: m bins evenly spaced
    # between the lo/hi Nyquist fractions, midpoint when m == 1.
    nyq = setup.grid.nx // 2
    lo = round(setup.carrier_lo * nyq)
    hi = round(setup.carrier_hi * nyq)
    if m == 1:
        return [round(0.5 * (lo + hi))]
    return [round(lo + (hi - lo) * i / (m - 1)) for i in range(m)]


def manual_readout(volume: IndexVolume, bins, setup: HolographySetup) -> np.ndarray:
    read = plane_wave(setup.grid, setup.wavelength_um)
    out = propagate(volume, read, setup.prop)
    spec_in = np.fft.fft2(read.values)
    spec_out = np.fft.fft2(out.values)
    p_in = float(np.sum(np.abs(spec_in) ** 2))
    return np.array([abs(spec_out[b, 0]) ** 2 / p_in for b in bins])


class TestSuperposedGratings:
    BUDGET = 0.005

    def test_m1_matches_weak_formula(self, superposed_result):
        setup = HolographySetup()
        analytic = weak_grating_efficiency(self.BUDGET, setup.thickness_um, LAM)
        eta1 = superposed_result.eta_per_output[0]
        assert abs(eta1 - analytic) <= 0.2 * analytic

    def test_slope_is_inverse_square(self, superposed_result, baselines):
        ref = baselines["holography"]["superposed"]
        assert superposed_result.fitted_log_slope == pytest.approx(-2.0, abs=0.2)
        assert superposed_result.fitted_log_slope == pytest.approx(
            ref["fitted_log_slope"], abs=1e-12)
        np.testing.assert_allclose(superposed_result.eta_per_output,
                                   ref["eta_per_output"], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_total_first_order_power_shrinks(self, m):
        total = float(superposed_grating_efficiency(m, self.BUDGET).sum())
        eta1 = float(superposed_grating_efficiency(1, self.BUDGET)[0])
        assert total <= 1.1 * eta1

    def test_efficiencies_in_range(self, superposed_result):
        for eta in superposed_result.eta_per_output:
            assert 0.0 <= eta <= 1.0 + 1e-9

    def test_carrier_order_is_immaterial(self):
        # Summing the same gratings in reverse order must reproduce the
        # per-carrier efficiencies; also exercises an independent rebuild
        # of the slanted-grating volume.
        setup = HolographySetup()
        m = 4
        bins = expected_carrier_bins(m, setup)
        got = superposed_grating_efficiency(m, self.BUDGET, setup)

        grid = setup.grid
        amp = self.BUDGET / m
        x = grid.axes()[0][:, None, None]
        z = ((np.arange(setup.nz) + 0.5) * setup.dz)[None, None, :]
        k_med = 2.0 * math.pi * setup.n0 / setup.wavelength_um
        dn = np.zeros((grid.nx, grid.ny, setup.nz))
        for b in reversed(bins):
            kx = 2.0 * math.pi * b / (grid.nx * grid.dx)
            dkz = k_med - math.sqrt(k_med**2 - kx**2)
            dn = dn + amp * np.cos(kx * x - dkz * z)
        vol = IndexVolume(grid=grid, nz=setup.nz, dz=setup.dz, n0=setup.n0,
                          dn=dn, dn_min=-self.BUDGET, dn_max=self.BUDGET)
        want = manual_readout(vol, bins, setup)
        np.testing.assert_allclose(got, want, rtol=0.01)

    def test_rerun_bit_identical(self):
        a = superposed_grating_efficiency(2, self.BUDGET)
        b = superposed_grating_efficiency(2, self.BUDGET)
        np.testing.assert_array_equal(a, b)

    def test_aliased_carriers_rejected(self):
        setup = HolographySetup(carrier_lo=0.2, carrier_hi=0.999)
        with pytest.raises(ValueError, match="alias"):
            superposed_grating_efficiency(2, self.BUDGET, setup)

    def test_colliding_carriers_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            superposed_grating_efficiency(20, self.BUDGET)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            superposed_grating_efficiency(0, self.BUDGET)
        with pytest.raises(ValueError):
            superposed_grating_efficiency(2, -0.001)
        with pytest.raises(ValueError):
            HolographySetup(carrier_lo=0.6, carrier_hi=0.2)

    def test_grating_volume_respects_budget(self):
        vol = multiplexed_grating_volume(4, self.BUDGET)
        assert np.max(np.abs(vol.dn)) <= self.BUDGET + 1e-15


class TestOptimizedFanout:
    def test_slope_is_near_inverse_linear(self, optimized_result, baselines):
        curve, _ = optimized_result
        ref = baselines["holography"]["optimized"]
        assert curve.fitted_log_slope >= -1.3
        assert curve.fitted_log_slope == pytest.approx(ref["fitted_log_slope"],
                                                       abs=1e-9)
        np.testing.assert_allclose(curve.eta_per_output, ref["eta_per_output"],
                                   rtol=1e-9, atol=0)

    def test_uniform_per_output_efficiency(self, optimized_result):
        _, runs = optimized_result
        for run in runs:
            per_output = run.coupling_after[:, 0]
            assert run.coupling_after.shape == (per_output.size, 1)
            assert per_output.max() <= 2.0 * per_output.min()

    def test_clearly_separated_from_superposed(self, superposed_result,
                                               optimized_result, baselines):
        curve, _ = optimized_result
        gap = curve.fitted_log_slope - superposed_result.fitted_log_slope
        assert gap >= 0.5
        assert gap == pytest.approx(baselines["holography"]["slope_gap"], abs=1e-9)

    def test_single_output_reported(self, optimized_result):
        # eta(1) vs the superposed m=1 grating is reported, not asserted:
        # at a saturating budget the two schemes legitimately converge.
        curve, _ = optimized_result
        assert 0.0 < curve.eta_per_output[0] <= 1.0 + 1e-9


class TestEfficiencyCurve:
    def test_exact_inverse_square_fit(self):
        ms = [1, 2, 4, 8]
        curve = EfficiencyCurve.fit(ms, [0.8 / m**2 for m in ms])
        assert curve.fitted_log_slope == pytest.approx(-2.0, abs=1e-9)

    def test_exact_inverse_linear_fit(self):
        ms = [1, 2, 4]
        curve = EfficiencyCurve.fit(ms, [0.6 / m for m in ms])
        assert curve.fitted_log_slope == pytest.approx(-1.0, abs=1e-9)

    def test_single_point_slope_nan(self):
        assert math.isnan(EfficiencyCurve.fit([3], [0.5]).fitted_log_slope)

    def test_fit_rejects_bad_data(self):
        with pytest.raises(ValueError):
            fit_log_slope([1, 2], [0.1, 0.0])
        with pytest.raises(ValueError):
            fit_log_slope([0, 2], [0.1, 0.1])
        with pytest.raises(ValueError):
            fit_log_slope([1, 2, 4], [0.1, 0.1])

    def test_validation(self):
        with pytest.raises(ValueError):
            EfficiencyCurve(m_values=(2, 2), eta_per_output=(0.1, 0.1),
                            fitted_log_slope=0.0)
        with pytest.raises(ValueError):
            EfficiencyCurve(m_values=(1,), eta_per_output=(1.5,),
                            fitted_log_slope=math.nan)
        with pytest.raises(ValueError):
            EfficiencyCurve(m_values=(), eta_per_output=(),
                            fitted_log_slope=math.nan)


class TestLantern:
    def test_two_angle_run_against_baseline(self, lantern_result, baselines):
        run, report = lantern_result
        ref = baselines["lantern"]
        assert len(run.loss_history) <= 400
        assert report.diagonal_mean >= 2.0 * report.offdiag_mean
        assert run.loss_history[-1] / run.initial_loss == pytest.approx(
            ref["loss_ratio"], rel=1e-9)
        np.testing.assert_allclose(report.matrix, ref["coupling_matrix"],
                                   rtol=1e-9, atol=1e-12)
        assert report.worst_extinction_db == pytest.approx(
            ref["worst_extinction_db"], rel=1e-9)

    def test_single_angle_never_worsens(self):
        cfg = replace(canned_config("lantern"), task_num_pairs=1, volume_nz=16,
                      optimizer=OptimizerConfig(step_size=2e-3, max_iters=25, seed=3))
        run, report = run_design(cfg)
        assert run.coupling_after[0, 0] >= run.coupling_before[0, 0] - 1e-12
        assert report.matrix.shape == (1, 1)

    def test_overdetermined_task_rejected(self):
        cfg = replace(canned_config("lantern"), task_num_pairs=5, volume_nz=8)
        with pytest.raises(ValueError, match="overdetermined"):
            run_design(cfg)

    def test_couplings_in_range(self, lantern_result):
        _, report = lantern_result
        assert report.matrix.min() >= 0.0
        assert report.matrix.max() <= 1.0 + 1e-9


class TestHaarGrin:
    def test_default_run_against_baseline(self, haar_result, baselines):
        run, report = haar_result
        ref = baselines["haar_grin"]
        assert run.loss_history[-1] <= 0.5 * run.initial_loss
        assert run.loss_history[-1] / run.initial_loss == pytest.approx(
            ref["loss_ratio"], rel=1e-9)
        np.testing.assert_allclose(report.matrix, ref["coupling_matrix"],
                                   rtol=1e-9, atol=1e-12)

    def test_output_spots_land_on_targets(self, haar_result):
        run, _ = haar_result
        task = design_task(canned_config("haar-grin"))
        centers = ring_positions(len(task.targets), 6.5)
        for inp, (tx, ty) in zip(task.inputs, centers):
            out = propagate(run.result, inp)
            cx, cy = spot_centroid(out, window_radius_um=3.0 * 1.3)
            assert math.hypot(cx - tx, cy - ty) <= 2.0 * 1.3

    def test_zero_iterations_is_free_space_baseline(self):
        # dn_max = 0 makes the seeded start literally free space, so a
        # zero-iteration "run" must score exactly like the bare medium.
        grid = Grid2D(64, 64, 0.5, 0.5)
        cfg = replace(canned_config("haar-grin"), volume_nz=8, dn_max=0.0,
                      optimizer=OptimizerConfig(step_size=0.0, max_iters=0, seed=13))
        run, report = run_design(cfg)
        assert not run.result.dn.any()
        vol = IndexVolume(grid=grid, nz=8, dz=1.5, n0=1.5,
                          dn=np.zeros((64, 64, 8)))
        want = scored(vol, design_task(cfg))
        np.testing.assert_array_equal(report.matrix, want.matrix)

    def test_couplings_in_range(self, haar_result):
        _, report = haar_result
        assert report.matrix.min() >= 0.0
        assert report.matrix.max() <= 1.0 + 1e-9


@pytest.mark.parametrize("name", sorted(CANNED))
def test_canned_config_sets_only_keys_off_their_default(name):
    # One site per setting: a key that restated its default would be a
    # second copy of it. The iteration count is always stated.
    keys = [line.partition("=")[0].strip() for line in CANNED[name].splitlines()]
    assert "optimizer.max_iters" in keys
    got, default = to_mapping(canned_config(name)), to_mapping(default_config())
    for key in keys:
        if key != "optimizer.max_iters":
            assert got[key] != default[key], key


@pytest.mark.parametrize("base", [*sorted(CANNED), "fanout"])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_replace_variant_is_the_config_it_serializes_to(base, data):
    # A variant drawn by dataclasses.replace, the wavelength and the fiber
    # among its keys, writes a file that parses back to it and builds the
    # same task, at the variant's wavelength. Small grids, on which every
    # task kind still fits its fiber, spots and patch.
    cfg = fanout_config(4, 0.05) if base == "fanout" else canned_config(base)
    n = data.draw(st.sampled_from([20, 24]), label="grid.nx")
    dx = data.draw(st.floats(1.05, 1.2), label="grid.dx_um")
    n_clad = data.draw(st.floats(1.44, 1.45), label="fiber.n_clad")
    cfg = replace(
        cfg, grid=Grid2D(n, n, dx, dx), fiber_n_clad=n_clad,
        wavelength_um=data.draw(st.floats(1.3, 1.55), label="wavelength_um"),
        n0=data.draw(st.floats(1.0, 1.6), label="n0"),
        fiber_core_radius_um=data.draw(st.floats(5.0, 6.0), label="fiber.core_radius_um"),
        # A contrast of 0.006 or more keeps LP11 guided at 1.55 um.
        fiber_n_core=n_clad + data.draw(st.floats(0.006, 0.012), label="fiber contrast"),
        propagation=replace(cfg.propagation, absorber_width=data.draw(
            st.floats(0.0, 0.2), label="propagation.absorber_width")),
    )
    again = parse_config(serialize_config(cfg))
    assert again == cfg

    task, again_task = design_task(cfg), design_task(again)
    for got, want in ((task.inputs, again_task.inputs), (task.targets, again_task.targets)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.wavelength_um == b.wavelength_um == cfg.wavelength_um
            np.testing.assert_array_equal(a.values, b.values)
