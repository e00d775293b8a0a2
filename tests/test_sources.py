"""Source and target generators: tilted plane waves, LP fiber modes,
Gaussians, spot targets, Haar masks."""

import itertools
import math

import numpy as np
import pytest
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
    _mismatch_scan,
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


def reference_lp_modes(fiber: FiberSpec, grid: Grid2D) -> list[tuple]:
    """(l, m, parity, n_eff, values) of each mode, written out directly: a
    fresh mismatch scan per order, a loop over its intervals, the same
    brentq, and the J and K branches on every sample joined by np.where."""
    k0a = 2.0 * np.pi / fiber.wavelength_um * fiber.core_radius_um
    n_grid = scan_grid(fiber)
    x, y = grid.meshgrid()
    r = np.hypot(x, y) / fiber.core_radius_um
    phi = np.arctan2(y, x)
    modes = []
    for l in itertools.count():
        vals = _dispersion_mismatch(n_grid, l, fiber)
        roots = []
        for i in range(len(n_grid) - 1):
            if vals[i] == 0.0:
                roots.append(float(n_grid[i]))
            elif vals[i] * vals[i + 1] < 0.0:
                roots.append(float(brentq(_dispersion_mismatch, n_grid[i], n_grid[i + 1],
                                          args=(l, fiber), xtol=_NEFF_TOLERANCE)))
        if not roots:
            break
        for m, n_eff in enumerate(sorted(roots, reverse=True), start=1):
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
    def test_array_scan_matches_scalar_calls(self, v):
        # The root scan shares each Bessel array between neighbouring
        # orders; brentq refines on scalar calls. The shared scan must give
        # the bits of a fresh array call per order, and every sign must
        # agree with a loop of scalar calls, so the brackets (and the
        # roots) are those of the scalar function.
        fiber = fiber_with_v(v)
        grid = scan_grid(fiber)
        for l, scan in zip(range(4), _mismatch_scan(grid, fiber)):
            np.testing.assert_array_equal(scan, _dispersion_mismatch(grid, l, fiber))
            loop = np.array([_dispersion_mismatch(n, l, fiber) for n in grid])
            np.testing.assert_array_equal(np.sign(scan), np.sign(loop))
            np.testing.assert_allclose(scan, loop, rtol=0, atol=1e-12 * np.max(np.abs(loop)))

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

    def test_each_bessel_function_is_evaluated_once(self, monkeypatch):
        counter = CountingSpecial()
        monkeypatch.setattr(sources, "special", counter)
        fiber = fiber_with_v(5.0)
        groups = sorted({(m.l, m.m) for m in lp_modes(fiber, GRID)})
        x, y = GRID.meshgrid()
        distinct = np.unique(np.hypot(x, y)).size
        # brentq's calls are scalar; the rest is the scan or the profiles.
        scan = sorted((name, order) for name, order, size in counter.calls
                      if size == _NEFF_SCAN_POINTS)
        profile = [(name, order, size) for name, order, size in counter.calls
                   if 1 < size != _NEFF_SCAN_POINTS]
        # Orders 0..L scan J and K of orders 0..L+1, each once.
        last = max(l for l, _ in groups) + 1
        assert scan == sorted((name, order) for name in ("jv", "kv")
                              for order in range(last + 2))
        # One J and one K call per (l, m) group, on the distinct radii and
        # r = 1 once per call for the normalizer.
        assert sorted((name, order) for name, order, _ in profile) == sorted(
            (name, l) for name in ("jv", "kv") for l, _ in groups)
        assert all(size <= distinct for *_, size in profile)
        assert sum(size for *_, size in profile) <= len(groups) * (distinct + 2)

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
