"""Core lattice types: grids, fields, volumes, tasks, and the three
field primitives (power, normalize, overlap) against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ove.design import DesignRun
from ove.experiments import CrosstalkReport
from ove.fields import (
    ComplexField,
    Grid2D,
    IndexVolume,
    LayeredElement,
    MappingTask,
    normalize,
    overlap,
    power,
)
from testutil import fsum_overlap, fsum_power, random_field


def uniform_field(grid, value, wavelength=1.55):
    return ComplexField(grid, wavelength, np.full((grid.nx, grid.ny), value, complex))


# ---------------------------------------------------------------------------
# Grid2D
# ---------------------------------------------------------------------------

class TestGrid:
    def test_center_convention(self):
        # Sample (i, j) sits at ((i - nx/2) dx, (j - ny/2) dy).
        g = Grid2D(8, 6, 0.5, 0.25)
        xs, ys = g.axes()
        assert xs[g.nx // 2] == 0.0
        assert ys[g.ny // 2] == 0.0
        np.testing.assert_array_equal(xs, (np.arange(8) - 4) * 0.5)
        np.testing.assert_array_equal(ys, (np.arange(6) - 3) * 0.25)

    def test_meshgrid_matches_axes(self):
        g = Grid2D(4, 4, 1.0, 1.0)
        xs, ys = g.meshgrid()
        ax, ay = g.axes()
        np.testing.assert_array_equal(xs[:, 0], ax)
        np.testing.assert_array_equal(ys[0, :], ay)

    @pytest.mark.parametrize("kwargs", [
        dict(nx=1, ny=4, dx=0.5, dy=0.5),
        dict(nx=4, ny=1, dx=0.5, dy=0.5),
        dict(nx=4, ny=4, dx=0.0, dy=0.5),
        dict(nx=4, ny=4, dx=0.5, dy=-1.0),
    ])
    def test_rejects_degenerate(self, kwargs):
        with pytest.raises(ValueError):
            Grid2D(**kwargs)

    def test_cell_area(self):
        assert Grid2D(4, 4, 0.5, 0.25).cell_area == pytest.approx(0.125)


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------

class TestPower:
    def test_zero_field(self):
        g = Grid2D(8, 8, 0.5, 0.5)
        assert power(uniform_field(g, 0.0)) == 0.0

    def test_unit_impulse(self):
        g = Grid2D(8, 8, 0.5, 0.5)
        vals = np.zeros((8, 8), complex)
        vals[3, 5] = 1.0
        assert power(ComplexField(g, 1.55, vals)) == pytest.approx(0.25, abs=1e-15)

    def test_matches_compensated_sum(self):
        g = Grid2D(32, 24, 0.37, 0.61)
        rng = np.random.default_rng(42)
        vals = rng.standard_normal((32, 24)) + 1j * rng.standard_normal((32, 24))
        f = ComplexField(g, 1.55, vals)
        assert power(f) == pytest.approx(fsum_power(f), rel=1e-12)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

class TestNormalize:
    def test_uniform_example(self):
        # 32x32 window of unit pitch: power 1 forces amplitude 1/32.
        g = Grid2D(32, 32, 1.0, 1.0)
        out = normalize(uniform_field(g, 2.0))
        np.testing.assert_allclose(out.values, np.full((32, 32), 1 / 32), rtol=1e-14)
        assert power(out) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        f = random_field(Grid2D(16, 16, 0.5, 0.5), 1.55, seed=1)
        once = normalize(f)
        twice = normalize(once)
        np.testing.assert_allclose(twice.values, once.values, rtol=0, atol=1e-12)

    def test_zero_field_rejected(self):
        g = Grid2D(8, 8, 0.5, 0.5)
        with pytest.raises(ValueError, match="degenerate field"):
            normalize(uniform_field(g, 0.0))

    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6))
    @settings(max_examples=30, deadline=None)
    def test_unit_power_property(self, seed, scale):
        g = Grid2D(12, 12, 0.5, 0.5)
        f = random_field(g, 1.55, seed)
        scaled = ComplexField(g, 1.55, f.values * scale)
        assert abs(power(normalize(scaled)) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# overlap
# ---------------------------------------------------------------------------

class TestOverlap:
    def test_self_overlap(self):
        f = random_field(Grid2D(16, 16, 0.5, 0.5), 1.55, seed=2)
        assert overlap(f, f) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_even_odd_orthogonal(self):
        # Width chosen so the unpaired i=0 grid row (the center convention
        # leaves x = -8 um without a +8 um partner) is at amplitude ~1e-7
        # and its symmetry-breaking contribution stays below 1e-12.
        g = Grid2D(32, 32, 0.5, 0.5)
        xs, ys = g.meshgrid()
        r2 = xs**2 + ys**2
        even = normalize(ComplexField(g, 1.55, np.exp(-r2 / 4.0).astype(complex)))
        odd = normalize(ComplexField(g, 1.55, (xs * np.exp(-r2 / 4.0)).astype(complex)))
        assert abs(overlap(even, odd)) <= 1e-12

    def test_matches_brute_force(self):
        g = Grid2D(24, 24, 0.5, 0.5)
        a = random_field(g, 1.55, seed=3)
        b = random_field(g, 1.55, seed=4)
        got = overlap(a, b)
        want = fsum_overlap(a, b)
        assert abs(got - want) <= 1e-12

    def test_grid_mismatch_rejected(self):
        a = random_field(Grid2D(8, 8, 0.5, 0.5), 1.55, seed=0)
        b = random_field(Grid2D(8, 8, 0.25, 0.25), 1.55, seed=0)
        with pytest.raises(ValueError):
            overlap(a, b)

    def test_wavelength_mismatch_rejected(self):
        g = Grid2D(8, 8, 0.5, 0.5)
        with pytest.raises(ValueError):
            overlap(random_field(g, 1.55, 0), random_field(g, 1.3, 0))

    @given(sa=st.integers(0, 2**31), sb=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_cauchy_schwarz(self, sa, sb):
        g = Grid2D(12, 12, 0.5, 0.5)
        a = random_field(g, 1.55, sa)
        b = random_field(g, 1.55, sb)
        assert abs(overlap(a, b)) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# IndexVolume / LayeredElement / MappingTask construction
# ---------------------------------------------------------------------------

class TestVolume:
    def test_bounds_enforced(self):
        g = Grid2D(4, 4, 0.5, 0.5)
        dn = np.full((4, 4, 2), 0.06)
        with pytest.raises(ValueError):
            IndexVolume(grid=g, nz=2, dz=0.5, n0=1.5, dn=dn, dn_min=0.0, dn_max=0.05)

    def test_shape_enforced(self):
        g = Grid2D(4, 4, 0.5, 0.5)
        with pytest.raises(ValueError):
            IndexVolume(grid=g, nz=3, dz=0.5, n0=1.5, dn=np.zeros((4, 4, 2)))

    @pytest.mark.parametrize("bad", [dict(nz=0), dict(dz=0.0), dict(n0=0.9)])
    def test_rejects_degenerate(self, bad):
        g = Grid2D(4, 4, 0.5, 0.5)
        kwargs = dict(grid=g, nz=2, dz=0.5, n0=1.5,
                      dn=np.zeros((4, 4, 2)), dn_min=0.0, dn_max=0.05)
        kwargs.update(bad)
        kwargs["dn"] = np.zeros((4, 4, kwargs["nz"])) if kwargs["nz"] else kwargs["dn"]
        with pytest.raises(ValueError):
            IndexVolume(**kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_dn_rejected(self, bad):
        g = Grid2D(4, 4, 0.5, 0.5)
        dn = np.full((4, 4, 2), 0.01)
        dn[1, 2, 1] = bad
        with pytest.raises(ValueError, match="dn must be finite"):
            IndexVolume(grid=g, nz=2, dz=0.5, n0=1.5, dn=dn, dn_min=0.0, dn_max=0.05)

    def test_negative_bounds_allowed(self):
        g = Grid2D(4, 4, 0.5, 0.5)
        dn = np.full((4, 4, 2), -0.01)
        vol = IndexVolume(grid=g, nz=2, dz=0.5, n0=1.5, dn=dn,
                          dn_min=-0.05, dn_max=0.05)
        assert vol.dn.min() == -0.01

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_float32_dn_is_widened_once_in_its_layout(self, order):
        # One conversion and copy: float64 equal to astype bit for bit,
        # read-only, and laid out as the input was.
        g = Grid2D(4, 6, 0.5, 0.5)
        dn32 = np.asarray(np.random.default_rng(2).uniform(0.0, 0.05, size=(4, 6, 3)),
                          dtype=np.float32, order=order)
        vol = IndexVolume(grid=g, nz=3, dz=0.5, n0=1.5, dn=dn32)
        np.testing.assert_array_equal(vol.dn, dn32.astype(np.float64), strict=True)
        assert vol.dn.strides == dn32.astype(np.float64, order="K").strides
        assert not vol.dn.flags.writeable

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dn_is_a_copy(self, dtype):
        g = Grid2D(4, 4, 0.5, 0.5)
        dn = np.full((4, 4, 2), 0.01, dtype=dtype)
        vol = IndexVolume(grid=g, nz=2, dz=0.5, n0=1.5, dn=dn)
        want = vol.dn.copy()
        dn[...] = 0.02
        np.testing.assert_array_equal(vol.dn, want, strict=True)


class TestLayered:
    def test_gap_count_must_match(self):
        g = Grid2D(4, 4, 0.5, 0.5)
        with pytest.raises(ValueError):
            LayeredElement(grid=g, layers=(np.zeros((4, 4)),), gaps=(1.0, 2.0))

    def test_negative_gap_rejected(self):
        g = Grid2D(4, 4, 0.5, 0.5)
        with pytest.raises(ValueError):
            LayeredElement(grid=g, layers=(np.zeros((4, 4)),), gaps=(-1.0,))

    def test_nonfinite_phase_rejected(self):
        g = Grid2D(4, 4, 0.5, 0.5)
        phase = np.zeros((4, 4))
        phase[0, 0] = np.nan
        with pytest.raises(ValueError):
            LayeredElement(grid=g, layers=(phase,), gaps=(1.0,))


class TestMappingTask:
    def test_normalizes_on_ingest(self):
        g = Grid2D(8, 8, 0.5, 0.5)
        raw = uniform_field(g, 3.0)
        task = MappingTask.from_fields([raw], [raw])
        assert power(task.inputs[0]) == pytest.approx(1.0, abs=1e-12)
        assert power(task.targets[0]) == pytest.approx(1.0, abs=1e-12)
        assert task.weights.tolist() == [[1.0]]

    def test_pair_form_is_diagonal(self):
        g = Grid2D(8, 8, 0.5, 0.5)
        a, b = random_field(g, 1.55, seed=1), random_field(g, 1.55, seed=2)
        task = MappingTask.from_fields([a, b, a], [a, b, b], weights=[0.5, 2.0, 1.0])
        # Pairs keep their own inputs: repeats are not looked for.
        assert len(task.inputs) == 3 and len(task.targets) == 3
        np.testing.assert_array_equal(task.weights, np.diag([0.5, 2.0, 1.0]))
        assert not task.weights.flags.writeable

    def test_weight_matrix_task(self):
        g = Grid2D(8, 8, 0.5, 0.5)
        a = random_field(g, 1.55, seed=1)
        spots = [random_field(g, 1.55, seed=s) for s in (2, 3, 4)]
        task = MappingTask([a], spots, np.ones((3, 1)))
        assert len(task.inputs) == 1 and len(task.targets) == 3
        assert task.weights.shape == (3, 1)
        assert power(task.targets[2]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("weights,match", [
        (np.ones((2, 1)), r"shape \(2, 1\) does not match \(targets, inputs\) = \(3, 1\)"),
        (np.ones(3), r"shape \(3,\) does not match"),
        (np.array([[1.0], [-0.5], [1.0]]), "must be >= 0"),
        (np.array([[1.0], [np.nan], [1.0]]), "must be finite"),
        (np.array([[1.0], [np.inf], [1.0]]), "must be finite"),
        (np.array([[1.0], [-np.inf], [1.0]]), "must be finite"),
        (np.zeros((3, 1)), "must sum to a positive value"),
    ], ids=["wrong-shape", "flat", "negative", "nan", "inf", "-inf", "zero-sum"])
    def test_bad_weights_rejected(self, weights, match):
        g = Grid2D(8, 8, 0.5, 0.5)
        a = random_field(g, 1.55, seed=1)
        with pytest.raises(ValueError, match=match):
            MappingTask([a], [a, a, a], weights)

    def test_empty_rejected(self):
        g = Grid2D(8, 8, 0.5, 0.5)
        f = uniform_field(g, 1.0)
        with pytest.raises(ValueError, match="at least one input and one target"):
            MappingTask((), (), np.zeros((0, 0)))
        with pytest.raises(ValueError, match="at least one input and one target"):
            MappingTask([f], (), np.zeros((0, 1)))

    def test_zero_total_weight_rejected(self):
        g = Grid2D(8, 8, 0.5, 0.5)
        f = uniform_field(g, 1.0)
        with pytest.raises(ValueError, match="positive"):
            MappingTask.from_fields([f], [f], weights=[0.0])

    def test_mismatched_pair_lengths_rejected(self):
        f = uniform_field(Grid2D(8, 8, 0.5, 0.5), 1.0)
        with pytest.raises(ValueError, match="1 inputs but 0 targets"):
            MappingTask.from_fields([f], [])

    def test_mixed_grid_rejected(self):
        a = uniform_field(Grid2D(8, 8, 0.5, 0.5), 1.0)
        b = uniform_field(Grid2D(8, 8, 0.25, 0.25), 1.0)
        with pytest.raises(ValueError):
            MappingTask.from_fields([a, b], [a, b])
        with pytest.raises(ValueError, match="grid mismatch"):
            MappingTask([a], [b], np.ones((1, 1)))


# ---------------------------------------------------------------------------
# identity equality of the array-holding records
# ---------------------------------------------------------------------------

_G = Grid2D(4, 4, 0.5, 0.5)


def _field():
    return uniform_field(_G, 1.0)


def _volume():
    return IndexVolume(grid=_G, nz=2, dz=1.0, n0=1.5, dn=np.zeros((4, 4, 2)))


ARRAY_RECORDS = {
    "ComplexField": _field,
    "IndexVolume": _volume,
    "LayeredElement": lambda: LayeredElement(grid=_G, layers=(np.zeros((4, 4)),), gaps=(1.0,)),
    "MappingTask": lambda: MappingTask.from_fields([_field()], [_field()]),
    "DesignRun": lambda: DesignRun(1.0, (0.5,), _volume(), np.zeros((1, 1)), np.zeros((1, 1)),
                                   (np.zeros((4, 4)),)),
    "CrosstalkReport": lambda: CrosstalkReport(np.eye(2), 1.0, 0.0, math.inf),
}


@pytest.mark.parametrize("make", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_array_records_compare_by_identity(make):
    # Value equality of a record holding arrays would raise on the array
    # comparison; identity equality and hashing never do.
    x = make()
    assert x == x
    assert not x == make()
    assert x != make()
    assert len({x, x}) == 1
