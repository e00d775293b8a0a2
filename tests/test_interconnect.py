"""Discrete interconnect layer: fanout matrices, Haar filter bank vs a
digital oracle, detector nonlinearity, and the 2D/3D footprint counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ove.interconnect import (
    CouplingMatrix,
    apply_coupling,
    fanout_matrix,
    footprint_scaling,
    haar_filter_bank,
    neuron_nonlinearity,
)
from ove.sources import HAAR_KINDS
from testutil import haar_bank_oracle


class TestFanoutMatrix:
    def test_single_input_nine_way(self):
        m = fanout_matrix(1, 9)
        assert m.entries.shape == (9, 1)
        out = apply_coupling(m, np.ones(1))
        np.testing.assert_allclose(out, np.full(9, 1.0 / 9.0), rtol=0, atol=1e-15)

    def test_waveguide_array_225_to_81(self):
        m = fanout_matrix(225, 81)
        assert m.cols == 225
        assert m.rows == 225 * 81
        per_col = np.count_nonzero(m.entries, axis=0)
        np.testing.assert_array_equal(per_col, np.full(225, 81))
        nz = m.entries[m.entries != 0]
        np.testing.assert_allclose(nz, 1.0 / 81.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(m.entries.sum(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_all_ones_conserves_power(self):
        m = fanout_matrix(225, 81)
        out = apply_coupling(m, np.ones(225))
        assert out.sum() == pytest.approx(225.0, abs=1e-9)

    def test_each_input_owns_disjoint_outputs(self):
        m = fanout_matrix(16, 4)
        owners = np.count_nonzero(m.entries, axis=1)
        np.testing.assert_array_equal(owners, np.ones(64, dtype=int))

    @pytest.mark.parametrize("n_in,fan", [(2, 4), (4, 3), (0, 1), (4, 0)])
    def test_non_square_counts_rejected(self, n_in, fan):
        with pytest.raises(ValueError):
            fanout_matrix(n_in, fan)


class TestCouplingMatrix:
    def test_passivity_enforced_incoherent(self):
        with pytest.raises(ValueError, match="passivity"):
            CouplingMatrix(entries=np.array([[0.7], [0.7]]))

    def test_passivity_enforced_coherent(self):
        with pytest.raises(ValueError, match="passivity"):
            CouplingMatrix(entries=np.array([[1.0], [0.5j]]), mode="coherent")

    def test_negative_incoherent_rejected(self):
        with pytest.raises(ValueError):
            CouplingMatrix(entries=np.array([[-0.1, 0.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 0)), np.array([[np.inf]])])
    def test_bad_entries_rejected(self, bad):
        with pytest.raises(ValueError):
            CouplingMatrix(entries=bad)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            CouplingMatrix(entries=np.eye(2), mode="lossy")


class TestApplyCoupling:
    def test_identity(self):
        m = CouplingMatrix(entries=np.eye(5))
        x = np.array([1.0, 0.5, 0.0, 2.0, 0.25])
        np.testing.assert_array_equal(apply_coupling(m, x), x)

    def test_coherent_5050_splitter(self):
        s = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)
        m = CouplingMatrix(entries=s, mode="coherent")
        out = apply_coupling(m, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [1 / math.sqrt(2), 1j / math.sqrt(2)],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.abs(out) ** 2, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_length_mismatch_rejected(self):
        m = CouplingMatrix(entries=np.eye(3))
        with pytest.raises(ValueError, match="length"):
            apply_coupling(m, np.ones(4))

    def test_negative_intensity_rejected(self):
        m = CouplingMatrix(entries=np.eye(2))
        with pytest.raises(ValueError):
            apply_coupling(m, np.array([1.0, -0.5]))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_passive_never_gains(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.0, 1.0, size=(4, 4))
        raw /= np.maximum(raw.sum(axis=0), 1.0)  # force column sums <= 1
        m = CouplingMatrix(entries=raw)
        x = rng.uniform(0.0, 10.0, size=4)
        assert apply_coupling(m, x).sum() <= x.sum() + 1e-9


class TestHaarFilterBank:
    @pytest.mark.parametrize("kind", ["vertical", "horizontal", "diagonal"])
    def test_constant_image_nulls(self, kind):
        # Balanced +/- lobes; uniform is all-plus and deliberately not here.
        res = haar_filter_bank(np.full((21, 21), 7.0), kind=kind)
        np.testing.assert_array_equal(res.response, np.zeros((7, 7)))

    def test_left_half_edge_vertical(self):
        # Unit intensity for x-index < 10. The x = 9..11 patch row (index 3)
        # straddles the edge, so it carries the only nonzero response.
        img = np.zeros((21, 21))
        img[:10, :] = 1.0
        res = haar_filter_bank(img, kind="vertical")
        mag = np.abs(res.response)
        for pj in range(7):
            assert int(np.argmax(mag[:, pj])) == 3
            assert mag[3, pj] > 0

    def test_subtraction_after_detection(self):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, size=(21, 21))
        res = haar_filter_bank(img, kind="diagonal")
        assert np.all(res.s_plus >= 0)
        assert np.all(res.s_minus >= 0)
        np.testing.assert_array_equal(res.response, res.s_plus - res.s_minus)

    @pytest.mark.parametrize("kind", sorted(HAAR_KINDS))
    def test_hundred_random_integer_images_bit_exact(self, kind):
        rng = np.random.default_rng(42)
        for _ in range(100):
            img = rng.integers(0, 4096, size=(21, 21))
            got = haar_filter_bank(img, kind=kind)
            want_p, want_m, want_r = haar_bank_oracle(img, kind)
            np.testing.assert_array_equal(got.s_plus, want_p)
            np.testing.assert_array_equal(got.s_minus, want_m)
            np.testing.assert_array_equal(got.response, want_r)

    def test_real_images_match_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            img = rng.uniform(0.0, 1.0, size=(21, 21))
            got = haar_filter_bank(img, kind="horizontal")
            _, _, want = haar_bank_oracle(img, "horizontal")
            np.testing.assert_allclose(got.response, want, rtol=0, atol=1e-12)

    @given(seed=st.integers(0, 2**31),
           kind=st.sampled_from(sorted(HAAR_KINDS)))
    @settings(max_examples=40, deadline=None)
    def test_integer_images_exact(self, seed, kind):
        img = np.random.default_rng(seed).integers(0, 1000, size=(21, 21))
        got = haar_filter_bank(img, kind=kind)
        _, _, want = haar_bank_oracle(img, kind)
        assert got.response.dtype == np.int64
        np.testing.assert_array_equal(got.response, want)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="21x21"):
            haar_filter_bank(np.zeros((20, 21)))

    def test_negative_pixels_rejected(self):
        img = np.zeros((21, 21))
        img[4, 4] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            haar_filter_bank(img)


class TestNeuronNonlinearity:
    def test_anchor_points(self):
        assert neuron_nonlinearity(0.0, 1.0) == 0.0
        assert neuron_nonlinearity(2.5, 2.5) == pytest.approx(1.25, rel=1e-15)
        deep = neuron_nonlinearity(1e6 * 3.0, 3.0)
        assert abs(deep - 3.0) <= 1e-5 * 3.0

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            neuron_nonlinearity(-1.0, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.inf, math.nan])
    def test_bad_saturation_rejected(self, bad):
        with pytest.raises(ValueError):
            neuron_nonlinearity(1.0, bad)

    def test_array_input(self):
        x = np.array([0.0, 1.0, 4.0])
        out = neuron_nonlinearity(x, 2.0)
        np.testing.assert_allclose(out, [0.0, 2.0 / 3.0, 4.0 / 3.0], rtol=1e-15)

    @given(a=st.floats(0.0, 1e6), b=st.floats(0.0, 1e6),
           i_sat=st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_monotone_lipschitz_bounded(self, a, b, i_sat):
        lo, hi = sorted((a, b))
        f_lo = neuron_nonlinearity(lo, i_sat)
        f_hi = neuron_nonlinearity(hi, i_sat)
        assert f_lo <= f_hi + 1e-12
        assert f_hi - f_lo <= (hi - lo) + 1e-12  # slope never exceeds 1
        assert f_hi <= i_sat


class TestFootprintScaling:
    def test_single_neuron(self):
        r = footprint_scaling(1, 10.0)
        assert r.elements_2d == 1
        assert r.planes_3d == 1
        assert r.elements_per_plane_3d == 1

    def test_printed_interconnect_window(self):
        r = footprint_scaling(225, 20.0)
        assert r.elements_2d == 225**2
        assert r.footprint_3d_um2 == pytest.approx(300.0 * 300.0, rel=1e-12)
        assert r.footprint_2d_um2 == pytest.approx(225**2 * 400.0, rel=1e-12)

    @given(n=st.integers(1, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_doubling_ratios(self, n):
        small = footprint_scaling(n, 5.0)
        big = footprint_scaling(2 * n, 5.0)
        assert big.elements_2d == 4 * small.elements_2d
        assert big.planes_3d == 2 * small.planes_3d
        assert big.footprint_2d_um2 == pytest.approx(4 * small.footprint_2d_um2)
        assert big.footprint_3d_um2 == pytest.approx(2 * small.footprint_3d_um2)

    def test_second_differences(self):
        quad = [footprint_scaling(n, 1.0).elements_2d for n in range(1, 65)]
        lin = [footprint_scaling(n, 1.0).planes_3d for n in range(1, 65)]
        assert set(np.diff(quad, 2)) == {2}
        assert set(np.diff(lin, 2)) == {0}

    @pytest.mark.parametrize("kwargs", [
        dict(n_neurons=0, pitch_um=1.0),
        dict(n_neurons=4, pitch_um=0.0),
        dict(n_neurons=4, pitch_um=math.inf),
    ])
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            footprint_scaling(**kwargs)
