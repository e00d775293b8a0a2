"""Source and target generators: tilted plane waves, LP fiber modes,
Gaussians, spot targets, Haar masks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.optimize import brentq

from ove import sources
from ove.config import default_config
from ove.fields import ComplexField, Grid2D, overlap, power
from ove.sources import (
    _NEFF_EDGE_MARGIN,
    _NEFF_SCAN_POINTS,
    _NEFF_TOLERANCE,
    HAAR_KINDS,
    FiberSpec,
    gaussian,
    haar_mask_field,
    haar_pattern,
    lp_modes,
    plane_wave,
    spot_target,
    tilt_angles,
    _dispersion_mismatch,
    _guided_orders,
)
from testutil import mirror_values

LAM = 1.55
GRID = Grid2D(64, 64, 0.5, 0.5)


def fiber_with_v(v: float, n_core=1.45, n_clad=1.444, lam=LAM) -> FiberSpec:
    """Scale the core radius so the fiber has exactly the requested V."""
    na = math.sqrt(n_core**2 - n_clad**2)
    radius = v * lam / (2.0 * math.pi * na)
    return FiberSpec(core_radius_um=radius, n_core=n_core, n_clad=n_clad,
                     wavelength_um=lam)


def scan_grid(fiber: FiberSpec) -> np.ndarray:
    edge = _NEFF_EDGE_MARGIN * (fiber.n_core - fiber.n_clad)
    return np.linspace(fiber.n_clad + edge, fiber.n_core - edge, _NEFF_SCAN_POINTS)


def reference_guided_orders(fiber: FiberSpec) -> list[list[float]]:
    """Roots of each order l = 0, 1, ..., descending, by a sign scan of
    the whole n_eff grid: a fresh mismatch array per order, a bracket
    wherever neighbours differ in sign, and the same brentq, up to the
    first order above 0 with none. Raises RuntimeError when l = 0 has
    none."""
    n_grid = scan_grid(fiber)
    orders = []
    for l in itertools.count():
        vals = _dispersion_mismatch(n_grid, l, fiber)
        left, right = vals[:-1], vals[1:]
        roots = [float(n_grid[i]) for i in np.flatnonzero(left == 0.0)]
        for i in np.flatnonzero(left * right < 0.0):
            roots.append(float(brentq(_dispersion_mismatch, n_grid[i], n_grid[i + 1],
                                      args=(l, fiber), xtol=_NEFF_TOLERANCE)))
        if not roots:
            if l == 0:
                raise RuntimeError(f"no l=0 root at V={fiber.v_number}")
            return orders
        orders.append(sorted(roots, reverse=True))


def reference_lp_modes(fiber: FiberSpec, grid: Grid2D) -> list[tuple]:
    """(l, m, parity, n_eff, values) of each mode, written out directly:
    the roots of the full scan, and the J and K branches on every sample
    joined by np.where."""
    k0a = 2.0 * np.pi / fiber.wavelength_um * fiber.core_radius_um
    x, y = grid.meshgrid()
    r = np.hypot(x, y) / fiber.core_radius_um
    phi = np.arctan2(y, x)
    modes = []
    for l, roots in enumerate(reference_guided_orders(fiber)):
        for m, n_eff in enumerate(roots, start=1):
            u = k0a * np.sqrt(max(fiber.n_core**2 - n_eff**2, 0.0))
            w = k0a * np.sqrt(max(n_eff**2 - fiber.n_clad**2, 0.0))
            radial = np.where(
                r <= 1.0,
                special.jv(l, u * np.minimum(r, 1.0)) / special.jv(l, u),
                special.kv(l, w * np.maximum(r, 1.0)) / special.kv(l, w),
            )
            if l == 0:
                modes.append((l, m, None, n_eff, radial * 1.0))
            else:
                modes.append((l, m, "cos", n_eff, radial * np.cos(l * phi)))
                modes.append((l, m, "sin", n_eff, radial * np.sin(l * phi)))
    ortho = []
    for *key, v in modes:
        v = v.astype(np.complex128)
        for *_, q in ortho:
            v = v - (np.sum(np.conj(q) * v) * grid.cell_area) * q
        ortho.append((*key, v / np.sqrt(np.sum(np.abs(v) ** 2) * grid.cell_area)))
    return ortho


class CountingSpecial:
    """Stands in for ``scipy.special`` and records (name, order, argument
    size) of each ``jv`` and ``kv`` call."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(special, name)
        if name not in ("jv", "kv"):
            return fn

        def counted(order, arg):
            self.calls.append((name, order, np.size(arg)))
            return fn(order, arg)
        return counted


def one_bin_angle(grid=GRID, lam=LAM, bins: float = 1.0) -> float:
    return math.asin(bins * lam / (grid.nx * grid.dx))


# ---------------------------------------------------------------------------
# plane_wave
# ---------------------------------------------------------------------------

class TestPlaneWave:
    def test_normal_incidence_uniform_phase(self):
        f = plane_wave(GRID, LAM)
        assert np.max(np.abs(f.values - f.values[0, 0])) <= 1e-12
        assert power(f) == pytest.approx(1.0, abs=1e-9)

    def test_one_bin_tilt_single_fringe(self):
        f = plane_wave(GRID, LAM, theta_x=one_bin_angle())
        # Exactly one fringe period across the window: phase advances by
        # 2 pi / nx per sample along x.
        phases = np.unwrap(np.angle(f.values[:, 0]))
        steps = np.diff(phases)
        np.testing.assert_allclose(steps, 2.0 * math.pi / GRID.nx, rtol=1e-9)
        # and the spectral peak sits in discrete frequency bin 1
        spectrum = np.abs(np.fft.fft(f.values[:, 0]))
        assert int(np.argmax(spectrum)) == 1

    def test_distinct_angles_orthogonal(self):
        a = plane_wave(GRID, LAM, theta_x=one_bin_angle(bins=1.0))
        b = plane_wave(GRID, LAM, theta_x=one_bin_angle(bins=2.0))
        assert abs(overlap(a, b)) <= 1e-9

    def test_beyond_nyquist_rejected(self):
        # Needs a coarse grid: at dx = 0.5 um and lambda = 1.55 um no real
        # angle can alias, so sample at 1 um where Nyquist is sin = 0.775.
        coarse = Grid2D(32, 32, 1.0, 1.0)
        with pytest.raises(ValueError, match="aliased source"):
            plane_wave(coarse, LAM, theta_x=math.asin(0.9))

    @pytest.mark.parametrize("bins", [-3.0, -1.0, 0.0, 2.0, 5.0])
    def test_spectral_centroid_roundtrip(self, bins):
        # The intensity-weighted spectral centroid recovers the tilt
        # within one discrete bin.
        f = plane_wave(GRID, LAM, theta_x=one_bin_angle(bins=bins))
        spec = np.abs(np.fft.fft2(f.values)) ** 2
        freqs = np.fft.fftfreq(GRID.nx, d=GRID.dx)
        fx = float((spec.sum(axis=1) * freqs).sum() / spec.sum())
        sin_hat = fx * LAM
        sin_true = bins * LAM / (GRID.nx * GRID.dx)
        one_bin = LAM / (GRID.nx * GRID.dx)
        assert abs(sin_hat - sin_true) <= one_bin

    def test_envelope_apodizes(self):
        env = np.zeros((GRID.nx, GRID.ny))
        env[16:48, 16:48] = 1.0
        f = plane_wave(GRID, LAM, envelope=env)
        assert np.all(f.values[:16, :] == 0)
        assert power(f) == pytest.approx(1.0, abs=1e-9)


class TestTiltAngles:
    def test_matches_reference(self):
        bins = [-1.5, -1.0, 0.0, 2.0]
        expected = [(one_bin_angle(bins=b), 0.0) for b in bins]
        assert tilt_angles(GRID, LAM, bins) == expected

    def test_tilt_past_grazing_rejected(self):
        with pytest.raises(ValueError, match="aliased source"):
            tilt_angles(GRID, LAM, [0.0, 30.0])


# ---------------------------------------------------------------------------
# lp_modes
# ---------------------------------------------------------------------------

class TestLpModes:
    def test_v1_single_mode(self):
        modes = lp_modes(fiber_with_v(1.0), GRID)
        assert [(m.l, m.m) for m in modes] == [(0, 1)]
        assert modes[0].parity is None

    def test_v5_mode_groups(self):
        modes = lp_modes(fiber_with_v(5.0), GRID)
        groups = {(m.l, m.m) for m in modes}
        assert groups == {(0, 1), (1, 1), (2, 1), (0, 2)}
        # l >= 1 groups carry both parities
        assert sum(1 for m in modes if (m.l, m.m) == (1, 1)) == 2
        assert sum(1 for m in modes if (m.l, m.m) == (2, 1)) == 2

    @pytest.mark.parametrize("v", [1.0, 5.0])
    def test_orthonormal(self, v):
        modes = lp_modes(fiber_with_v(v), GRID)
        for mode in modes:
            assert abs(power(mode.field) - 1.0) <= 1e-9
        for i, a in enumerate(modes):
            for b in modes[i + 1:]:
                assert abs(overlap(a.field, b.field)) <= 1e-6

    def test_effective_index_bounds(self):
        fiber = fiber_with_v(5.0)
        for mode in lp_modes(fiber, GRID):
            assert fiber.n_clad < mode.n_eff < fiber.n_core

    def test_count_nondecreasing_in_v(self):
        counts = [len(lp_modes(fiber_with_v(v), GRID))
                  for v in (0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0)]
        assert counts == sorted(counts)
        assert counts[0] >= 1  # LP01 always guided

    def test_ordering(self):
        modes = lp_modes(fiber_with_v(5.0), GRID)
        keys = [(m.l, m.m, m.parity or "") for m in modes]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("v", [1.0, 2.5, 5.0])
    def test_mismatch_on_any_grid_subset_matches_the_grid_array(self, v):
        # The root search evaluates the mismatch on single grid points,
        # scattered index arrays with one order per point, and slices. Each
        # must give the whole-grid array's bits, so its signs (and the
        # brackets brentq refines) are those of a full scan. brentq's
        # scalar calls may differ in the last bits, but not in sign.
        fiber = fiber_with_v(v)
        grid = scan_grid(fiber)
        rng = np.random.default_rng(0)
        full = {l: _dispersion_mismatch(grid, l, fiber) for l in range(4)}
        for l in range(4):
            for i in range(len(grid)):
                assert _dispersion_mismatch(grid[i:i + 1], l, fiber)[0] == full[l][i]
            loop = np.array([_dispersion_mismatch(n, l, fiber) for n in grid])
            np.testing.assert_array_equal(np.sign(full[l]), np.sign(loop))
            np.testing.assert_allclose(full[l], loop, rtol=0, atol=1e-12 * np.max(np.abs(loop)))
            for size in (2, 3, 17, 400):
                idx = rng.choice(len(grid), size, replace=False)
                assert np.array_equal(_dispersion_mismatch(grid[idx], l, fiber), full[l][idx])
                run = slice(idx.min(), idx.max() + 1)
                assert np.array_equal(_dispersion_mismatch(grid[run], l, fiber), full[l][run])
        idx = rng.choice(len(grid), 64)
        orders = rng.integers(0, 4, 64)
        assert np.array_equal(_dispersion_mismatch(grid[idx], orders, fiber),
                              [full[l][i] for l, i in zip(orders, idx)])

    @pytest.mark.parametrize("fiber, grid", [
        (default_config().fiber, GRID),
        *[(fiber_with_v(v), GRID) for v in (0.5, 1.0, 2.5, 5.0, 6.0)],
        (fiber_with_v(2.5), Grid2D(63, 80, 0.5, 0.4)),
    ], ids=["canned", "v0.5", "v1", "v2.5", "v5", "v6", "63x80"])
    def test_bits_of_the_direct_solver(self, fiber, grid):
        got = lp_modes(fiber, grid)
        want = reference_lp_modes(fiber, grid)
        assert [(m.l, m.m, m.parity, m.n_eff) for m in got] == [w[:4] for w in want]
        assert all(type(m.n_eff) is float for m in got)
        for mode, (*_, values) in zip(got, want):
            assert np.array_equal(mode.field.values, values)

    @pytest.mark.parametrize("fiber", [
        default_config().fiber, fiber_with_v(5.0), fiber_with_v(6.0),
        fiber_with_v(special.jn_zeros(1, 1)[0] + 1e-9),
    ], ids=["canned", "v5", "v6", "lp02-lp21-in-margin"])
    def test_root_search_evaluates_few_mismatch_points(self, fiber, monkeypatch):
        counter = CountingSpecial()
        monkeypatch.setattr(sources, "special", counter)
        search = []  # the Bessel calls made by the mismatch
        arrays = []  # (orders, n_eff) of each array call of the mismatch
        mismatch = sources._dispersion_mismatch
        refining = []

        def refine(*args, **kwargs):
            refining.append(True)
            try:
                return brentq(*args, **kwargs)
            finally:
                refining.pop()

        def recorded(n_eff, l, fiber):
            start = len(counter.calls)
            vals = mismatch(n_eff, l, fiber)
            search.extend(counter.calls[start:])
            del counter.calls[start:]
            if np.ndim(n_eff):
                arrays.append((np.broadcast_to(l, np.shape(n_eff)), n_eff))
            else:  # only brentq makes scalar calls
                assert refining
            return vals

        monkeypatch.setattr(sources, "brentq", refine)
        monkeypatch.setattr(sources, "_dispersion_mismatch", recorded)
        groups = sorted({(m.l, m.m) for m in lp_modes(fiber, GRID)})
        # No Bessel call of the search covers the n_eff grid.
        assert max(size for *_, size in search) < _NEFF_SCAN_POINTS
        # A range whose ends agree in sign is scanned: one call on a run of
        # consecutive grid points. Every other point is a range end (two per
        # range) or a bisection midpoint (at most ceil(log2 2000) per range).
        grid = scan_grid(fiber)
        budget = math.ceil(math.log2(_NEFF_SCAN_POINTS)) + 2
        scanned, points = {}, {}
        for orders, n_eff in arrays:
            idx = np.searchsorted(grid, n_eff)
            assert np.array_equal(grid[idx], n_eff)
            if n_eff.size > 2 and np.all(np.diff(idx) == 1):
                assert np.all(orders == orders[0])
                scanned[int(orders[0])] = scanned.get(int(orders[0]), 0) + 1
            else:
                for l in orders.tolist():
                    points[l] = points.get(l, 0) + 1
        for l, count in points.items():
            guided = sum(1 for g, _ in groups if g == l)
            assert count <= budget * guided + 2 * scanned.get(l, 0), (l, count, guided)
        # One J and one K call per (l, m) group, on the distinct radii and
        # r = 1 once per call for the normalizer.
        x, y = GRID.meshgrid()
        distinct = np.unique(np.hypot(x, y)).size
        profile = counter.calls
        assert sorted((name, order) for name, order, _ in profile) == sorted(
            (name, l) for name in ("jv", "kv") for l, _ in groups)
        assert all(size <= distinct for *_, size in profile)
        assert sum(size for *_, size in profile) <= len(groups) * (distinct + 2)

    def test_lp01_inside_the_edge_margin_is_reported(self):
        # Near cutoff LP01 sits just above n_clad; below V of about 0.415 its
        # root lies inside the search's 1e-9 edge margin.
        with pytest.raises(RuntimeError, match="inside the root search's edge margin"):
            lp_modes(fiber_with_v(0.3), GRID)
        fiber = fiber_with_v(0.45)
        (mode,) = lp_modes(fiber, GRID)
        b = (mode.n_eff**2 - fiber.n_clad**2) / (fiber.n_core**2 - fiber.n_clad**2)
        assert (mode.l, mode.m) == (0, 1)
        assert _NEFF_EDGE_MARGIN < b < 1e-7

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(v=st.floats(0.35, 20.0),
           indices=st.sampled_from([(1.45, 1.444), (1.6, 1.4), (3.5, 3.0)]))
    def test_root_search_finds_the_roots_of_the_full_scan(self, v, indices):
        fiber = fiber_with_v(v, *indices)
        try:
            want = reference_guided_orders(fiber)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                _guided_orders(fiber)
            return
        assert _guided_orders(fiber) == want

    def test_oversized_core_rejected(self):
        fiber = FiberSpec(core_radius_um=14.0, n_core=1.45, n_clad=1.444,
                          wavelength_um=LAM)
        with pytest.raises(ValueError):
            lp_modes(fiber, GRID)

    def test_fiberspec_validation(self):
        with pytest.raises(ValueError):
            FiberSpec(core_radius_um=5.0, n_core=1.444, n_clad=1.45,
                      wavelength_um=LAM)


# ---------------------------------------------------------------------------
# gaussian / spot_target
# ---------------------------------------------------------------------------

class TestGaussian:
    def test_centered_even_symmetry(self):
        f = gaussian(GRID, LAM, waist_um=3.0)
        mirrored = ComplexField(GRID, LAM, mirror_values(f.values))
        assert overlap(f, mirrored) == pytest.approx(1.0, abs=1e-12)

    def test_separated_pair_overlap(self):
        w0 = 2.0
        a = gaussian(GRID, LAM, waist_um=w0, center=(-4.0, 0.0))
        b = gaussian(GRID, LAM, waist_um=w0, center=(4.0, 0.0))
        want = math.exp(-(4.0 * w0) ** 2 / (2.0 * w0**2))  # exp(-8)
        assert abs(overlap(a, b)) == pytest.approx(want, abs=1e-6)

    def test_unresolvable_waist_rejected(self):
        with pytest.raises(ValueError):
            gaussian(GRID, LAM, waist_um=0.9)

    def test_unit_power(self):
        assert power(gaussian(GRID, LAM, waist_um=4.0)) == pytest.approx(1.0, abs=1e-9)


class TestSpotTarget:
    def test_separated_spots_near_orthogonal(self):
        rho = 1.5
        a = spot_target(GRID, LAM, (-4.5, 0.0), rho)
        b = spot_target(GRID, LAM, (4.5, 0.0), rho)  # 9 um = 6 radii apart
        assert abs(overlap(a, b)) <= 1e-3

    def test_centered_symmetry(self):
        f = spot_target(GRID, LAM, (0.0, 0.0), 2.0)
        np.testing.assert_allclose(f.values, mirror_values(f.values),
                                   rtol=0, atol=1e-12)

    def test_radius_below_spacing_rejected(self):
        with pytest.raises(ValueError):
            spot_target(GRID, LAM, (0.0, 0.0), 0.25)

    def test_outside_window_rejected(self):
        with pytest.raises(ValueError):
            spot_target(GRID, LAM, (15.5, 0.0), 2.0)

    def test_unit_power(self):
        f = spot_target(GRID, LAM, (3.0, -2.0), 1.3)
        assert power(f) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Haar masks
# ---------------------------------------------------------------------------

class TestHaarMasks:
    def test_uniform_has_no_minus_lobe(self):
        hf = haar_mask_field(GRID, LAM, "uniform", patch_extent_um=12.0)
        assert hf.minus is None
        np.testing.assert_array_equal(hf.pattern, np.ones((3, 3), dtype=int))
        assert power(hf.plus) == pytest.approx(1.0, abs=1e-9)

    def test_vertical_pattern(self):
        p = haar_pattern("vertical")
        np.testing.assert_array_equal(p[0, :], [1, 1, 1])
        np.testing.assert_array_equal(p[1, :], [0, 0, 0])
        np.testing.assert_array_equal(p[2, :], [-1, -1, -1])

    def test_horizontal_is_transpose_of_vertical(self):
        np.testing.assert_array_equal(haar_pattern("horizontal"),
                                      haar_pattern("vertical").T)

    @pytest.mark.parametrize("kind", [k for k in HAAR_KINDS if k != "uniform"])
    def test_lobes_disjoint(self, kind):
        hf = haar_mask_field(GRID, LAM, kind, patch_extent_um=12.0)
        assert abs(overlap(hf.plus, hf.minus)) <= 1e-12
        assert power(hf.plus) == pytest.approx(1.0, abs=1e-9)
        assert power(hf.minus) == pytest.approx(1.0, abs=1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            haar_mask_field(GRID, LAM, "checker", patch_extent_um=12.0)

    def test_patch_must_fit(self):
        with pytest.raises(ValueError):
            haar_mask_field(GRID, LAM, "vertical", patch_extent_um=40.0)
