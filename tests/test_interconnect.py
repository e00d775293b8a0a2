"""Interconnect bookkeeping: the Haar filter bank vs a digital oracle and
the 2D/3D footprint counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ove.interconnect import footprint_scaling, haar_filter_bank
from ove.sources import HAAR_KINDS
from testutil import haar_bank_oracle


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
