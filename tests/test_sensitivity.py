"""Disparity-error sensitivity profiles and the quadratic penalty built on them."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvstream.frames import MB_SIZE
from fvstream.sensitivity import (SensitivityError, SensitivityParams,
                                  curvature_map, g_eval)

import oracles
from oracles import pixel_profiles


def step_plane(width=32, height=16, edge=8, low=100, high=200):
    tex = np.full((height, width), low, dtype=np.uint8)
    tex[:, edge:] = high
    return tex


class TestParams:
    def test_defaults(self):
        p = SensitivityParams()
        assert p.threshold == 5.0
        assert p.max_deviation == 16

    def test_rejects_bad_values(self):
        with pytest.raises(SensitivityError):
            SensitivityParams(threshold=0.0)
        with pytest.raises(SensitivityError):
            SensitivityParams(max_deviation=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects_a_non_finite_threshold(self, value):
        with pytest.raises(SensitivityError, match="finite"):
            SensitivityParams(threshold=value)


class TestProfiles:
    def test_exact_correspondence_has_zero_center(self):
        # right view shows world column c + d at column c: eps = 0 matches
        tex = np.tile(np.arange(32, dtype=np.uint8) * 3, (16, 1))
        disp = np.full((16, 32), 4, dtype=np.uint8)
        opp = np.roll(tex, -4, axis=1)
        prof = pixel_profiles(tex, disp, opp, 0, 1.0, 4)
        # columns below the disparity clamp to the frame edge and mismatch
        assert (prof[4][:, 4:] == 0.0).all()
        assert (prof[4][:, :4] > 0.0).all()

    def test_profile_shape_and_indexing(self):
        tex = step_plane()
        disp = np.zeros_like(tex)
        prof = pixel_profiles(tex, disp, tex, 0, 1.0, 3)
        assert prof.shape == (7, 16, 32)
        # index k corresponds to eps = k - max_dev: at eps = +1 a view-0
        # pixel maps one column left
        assert prof[4, 0, 8] == abs(200.0 - 100.0)
        assert prof[2, 0, 7] == abs(100.0 - 200.0)

    @given(st.integers(0, 15), st.integers(0, 31), st.sampled_from([0, 1]),
           st.integers(1, 5))
    @settings(max_examples=40)
    def test_matches_single_pixel_oracle(self, r, c, view, max_dev):
        rng = np.random.default_rng(10 * r + c)
        tex = rng.integers(0, 256, (16, 32)).astype(np.uint8)
        disp = rng.integers(0, 9, (16, 32)).astype(np.uint8)
        opp = rng.integers(0, 256, (16, 32)).astype(np.uint8)
        prof = pixel_profiles(tex, disp, opp, view, 1.0, max_dev)
        want = oracles.brute_profile(tex, disp, opp, view, 1.0, max_dev, r, c)
        assert np.array_equal(prof[:, r, c], want)

    def test_eta_scales_the_mapping(self):
        tex = step_plane()
        disp = np.full_like(tex, 8)
        prof = pixel_profiles(tex, disp, tex, 0, 0.5, 2)
        # disp 8 at eta 0.5 shifts 4 columns; eps +-1 rounds to the same shift
        # (rint(4.5) = 4, rint(3.5) = 4), so the center three entries agree
        assert (prof[1] == prof[2]).all()
        assert (prof[3] == prof[2]).all()

    def test_block_profile_averages_pixels(self):
        rng = np.random.default_rng(99)
        tex = rng.integers(0, 256, (16, 32)).astype(np.uint8)
        disp = rng.integers(0, 6, (16, 32)).astype(np.uint8)
        opp = rng.integers(0, 256, (16, 32)).astype(np.uint8)
        prof = pixel_profiles(tex, disp, opp, 1, 1.0, 3)
        got = oracles.block_profile(tex, disp, opp, 1, 1.0, 1, 3)
        want = prof[:, 0:16, 16:32].mean(axis=(1, 2))
        assert np.allclose(got, want, atol=1e-12)


class TestCurvature:
    @pytest.mark.example
    def test_crossing_at_one_gives_ten(self):
        # b = 1 at threshold 5: a = 2 * 5 / 1
        profile = np.zeros(9)
        profile[5] = 80.0
        assert oracles.brute_pixel_curvature(profile, 5.0, 4) == 10.0

    @pytest.mark.example
    def test_sharper_side_wins(self):
        # crossings at +2 and -4: the nearer one sets the parabola
        profile = np.zeros(9)
        profile[6] = 7.0
        profile[0] = 6.0
        assert oracles.brute_pixel_curvature(profile, 5.0, 4) == pytest.approx(2.5)

    @pytest.mark.example
    def test_no_crossing_is_flat(self):
        profile = np.full(9, 4.9)
        assert oracles.brute_pixel_curvature(profile, 5.0, 4) == 0.0

    def test_one_sided_crossing_counts(self):
        profile = np.zeros(9)
        profile[1] = 9.0
        assert oracles.brute_pixel_curvature(profile, 5.0, 4) == pytest.approx(
            2.0 * 5.0 / 9.0)

    def test_constant_scene_is_exactly_zero(self):
        tex = np.full((32, 32), 140, dtype=np.uint8)
        disp = np.full((32, 32), 6, dtype=np.uint8)
        got = curvature_map(tex, disp, tex, 0, 1.0, SensitivityParams())
        assert got.shape == (4,)
        assert (got == 0.0).all()

    def test_step_edge_block_values(self):
        # identical views, zero disparity: the profile scans the row itself
        tex = step_plane(width=32, height=16, edge=8)
        disp = np.zeros_like(tex)
        prof = pixel_profiles(tex, disp, tex, 0, 1.0, 4)
        # one column right of the edge: crossing at eps +1
        assert oracles.brute_pixel_curvature(prof[:, 0, 8], 5.0, 4) == 10.0
        # two columns right: crossing at eps +2
        assert oracles.brute_pixel_curvature(prof[:, 0, 9], 5.0, 4) == 2.5
        # deep in the flat region
        assert oracles.brute_pixel_curvature(prof[:, 0, 20], 5.0, 4) == 0.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25)
    def test_map_matches_per_pixel_oracle(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 256, (4, 8)).astype(np.float64)
        tex = np.kron(base, np.ones((8, 8))).astype(np.uint8)
        disp = np.kron(rng.integers(0, 5, (2, 4)), np.ones((16, 16))).astype(np.uint8)
        opp = np.kron(rng.integers(0, 256, (4, 8)),
                      np.ones((8, 8))).astype(np.uint8)
        params = SensitivityParams(threshold=5.0, max_deviation=6)
        got = curvature_map(tex, disp, opp, 0, 1.0, params)
        h, w = tex.shape
        hb, wb = h // MB_SIZE, w // MB_SIZE
        want = np.zeros(hb * wb)
        for r in range(h):
            for c in range(w):
                prof = oracles.brute_profile(tex, disp, opp, 0, 1.0, 6, r, c)
                a = oracles.brute_pixel_curvature(prof, 5.0, 6)
                want[(r // MB_SIZE) * wb + c // MB_SIZE] += a
        want /= float(MB_SIZE * MB_SIZE)
        assert np.allclose(got, want, atol=1e-12)

    def test_scalar_profile_agrees_with_map(self):
        rng = np.random.default_rng(3)
        tex = rng.integers(0, 256, (16, 32)).astype(np.uint8)
        disp = rng.integers(0, 5, (16, 32)).astype(np.uint8)
        opp = rng.integers(0, 256, (16, 32)).astype(np.uint8)
        params = SensitivityParams(max_deviation=5)
        prof = pixel_profiles(tex, disp, opp, 0, 1.0, 5)
        a_pix = np.array([[oracles.brute_pixel_curvature(prof[:, r, c], 5.0,
                                                         5)
                           for c in range(32)] for r in range(16)])
        want = np.array([a_pix[:, :16].mean(), a_pix[:, 16:].mean()])
        got = curvature_map(tex, disp, opp, 0, 1.0, params)
        assert np.allclose(got, want, atol=1e-12)


def scan_planes(seed, kind, h=16, w=48):
    """(own texture, own disparity, opposing texture) of one kind: "flat"
    planes never cross, "edges" are blocky, "random" are noise."""
    rng = np.random.default_rng(seed)
    if kind == "flat":
        tex = np.full((h, w), rng.integers(0, 256), dtype=np.uint8)
        return tex, rng.integers(0, 256, (h, w)).astype(np.uint8), tex.copy()
    if kind == "edges":
        tex = np.kron(rng.integers(0, 256, (h // 8, w // 8)),
                      np.ones((8, 8))).astype(np.uint8)
        disp = np.kron(rng.integers(0, 16, (h // 16, w // 16)),
                       np.ones((16, 16))).astype(np.uint8)
        return tex, disp, np.roll(tex, int(rng.integers(-4, 5)), axis=1)
    return tuple(rng.integers(0, 256, (h, w)).astype(np.uint8)
                 for _ in range(3))


class TestScanMatchesProfileOracle:
    @given(st.integers(0, 10 ** 6), st.sampled_from(["flat", "edges", "random"]),
           st.sampled_from([0, 1]), st.sampled_from([0.5, 0.7, 1.0, 2.5]),
           st.sampled_from([1.0, 4.5, 5.0, 40.0, 300.0]),
           st.sampled_from([1, 3, 16, 60]))
    @example(0, "flat", 0, 1.0, 5.0, 16)          # never crosses: all zero
    @example(1, "edges", 1, 0.7, 4.5, 60)         # ceil(4.5); n above width
    @settings(max_examples=60)
    def test_bit_for_bit(self, seed, kind, view, eta, threshold, max_dev):
        own, disp, opp = scan_planes(seed, kind)
        params = SensitivityParams(threshold=threshold, max_deviation=max_dev)
        got = curvature_map(own, disp, opp, view, eta, params)
        want = oracles.oracle_curvature_map(own, disp, opp, view, eta, params)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_flat_example_never_crosses(self):
        own, disp, opp = scan_planes(0, "flat")
        prof = pixel_profiles(own, disp, opp, 0, 1.0, 16)
        assert (prof == 0.0).all()

    def test_threshold_compares_as_its_ceiling(self):
        # a mismatch of 5 reaches 4.5 and 5.0, but not 5.5
        tex = step_plane(low=100, high=105)
        disp = np.zeros_like(tex)
        p = {t: curvature_map(tex, disp, tex, 0, 1.0,
                              SensitivityParams(threshold=t, max_deviation=2))
             for t in (4.5, 5.0, 5.5)}
        assert (p[4.5] > 0).any() and (p[5.0] > 0).any()
        assert (p[5.5] == 0.0).all()

    @pytest.mark.parametrize("bad", range(3))
    def test_rejects_planes_that_are_not_uint8(self, bad):
        planes = [step_plane(), np.zeros((16, 32), dtype=np.uint8), step_plane()]
        planes[bad] = planes[bad].astype(np.float64)
        with pytest.raises(SensitivityError, match="uint8"):
            curvature_map(*planes, 0, 1.0, SensitivityParams())


class TestPenalty:
    @pytest.mark.example
    def test_quadratic_value(self):
        assert g_eval(2.0, 3.0) == 9.0

    def test_even_in_the_error(self):
        assert g_eval(1.7, -4.0) == g_eval(1.7, 4.0)

    def test_zero_curvature_costs_nothing(self):
        assert g_eval(0.0, 12.0) == 0.0

    @given(st.floats(0.01, 20.0), st.floats(0.0, 15.0), st.floats(0.01, 1.0))
    def test_monotone_in_error_magnitude(self, a, eps, step):
        assert g_eval(a, eps + step) > g_eval(a, eps)

    def test_broadcasts_like_numpy(self):
        a = np.array([0.0, 2.0, 10.0])
        eps = np.array([3.0, 3.0, 0.5])
        got = g_eval(a, eps)
        assert got.tolist() == [0.0, 9.0, 1.25]
        assert isinstance(g_eval(2.0, 3.0), float)


class TestOnScene:
    def test_object_borders_are_more_sensitive_than_interiors(self, scene64):
        left = scene64.left[0]
        right = scene64.right[0]
        a = curvature_map(left.texture.samples, left.disparity.samples,
                          right.texture.samples, 0, 1.0, SensitivityParams())
        disp = left.disparity.samples
        hb, wb = disp.shape[0] // MB_SIZE, disp.shape[1] // MB_SIZE
        tiles = disp.reshape(hb, MB_SIZE, wb, MB_SIZE).swapaxes(1, 2)
        varying = (tiles.max(axis=(2, 3)) != tiles.min(axis=(2, 3))).reshape(-1)
        assert varying.any() and (~varying).any()
        assert a[varying].mean() > a[~varying].mean()
