"""Forward warping, hole filling, blending and block correspondence."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvstream.frames import MB_SIZE, mse
from fvstream.synthesis import (SynthesisError, SynthesisParams, WarpedView,
                                blend, blend_pair, correspondence_sets,
                                expand_block_values, fill_holes,
                                gather_at_targets, reliability_weights,
                                shift_factor, synthesize_view, warp_pair,
                                warp_view, worst_case_distortion_map)

import oracles


def make_warp(value, covered=None, disparity=None, src_col=None):
    value = np.asarray(value, dtype=np.uint8)
    h, w = value.shape
    if covered is None:
        covered = np.ones((h, w), dtype=bool)
    if disparity is None:
        disparity = np.zeros((h, w), dtype=np.int64)
    if src_col is None:
        src_col = np.broadcast_to(np.arange(w, dtype=np.int64), (h, w)).copy()
    covered = np.asarray(covered, dtype=bool)
    # as warp_view leaves them: value and disparity 0 where not covered
    return WarpedView(covered=covered, value=value * covered,
                      disparity=np.asarray(disparity, dtype=np.int64) * covered,
                      src_col=np.asarray(src_col, dtype=np.int64))


def random_view(seed, h=32, w=48, max_disp=8):
    rng = np.random.default_rng(seed)
    tex = rng.integers(0, 256, (h, w)).astype(np.uint8)
    disp = rng.integers(0, max_disp + 1, (h, w)).astype(np.uint8)
    return tex, disp


DISPARITY_KINDS = ("flat", "binary", "collide", "random")


def disparity_plane(rng, kind, h=16, w=48):
    """A uint8 disparity plane of one kind; "collide" alternates far and
    near runs of 4 columns, so near runs land on far ones."""
    if kind == "flat":
        return np.full((h, w), rng.integers(0, 256), dtype=np.uint8)
    if kind == "binary":
        return rng.integers(0, 2, (h, w)).astype(np.uint8)
    if kind == "collide":
        far = rng.integers(0, 4, (h, 1))
        near = rng.integers(4, 13, (h, 1))
        runs = (np.arange(w) // 4) % 2 == 1
        return np.where(runs, near, far).astype(np.uint8)
    return rng.integers(0, 256, (h, w)).astype(np.uint8)


def warp_inputs(seed, kind):
    rng = np.random.default_rng(seed)
    tex = rng.integers(0, 256, (16, 48)).astype(np.uint8)
    return tex, disparity_plane(rng, kind)


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


class TestParams:
    @pytest.mark.parametrize("field", ["position", "eta", "reliability_c"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(SynthesisError, match=field):
            SynthesisParams(**{field: value})


class TestWarp:
    def test_zero_position_is_identity_for_the_left_view(self):
        tex, disp = random_view(1)
        w = warp_view(tex, disp, 0, 0.0, 1.0)
        assert w.covered.all()
        assert np.array_equal(w.value, tex)
        assert np.array_equal(w.src_col,
                              np.broadcast_to(np.arange(48), (32, 48)))

    @pytest.mark.example
    def test_midpoint_shift_of_disparity_six(self):
        # disparity 6 at position 0.5 moves a left-view pixel 3 columns left
        tex = np.zeros((16, 48), dtype=np.uint8)
        disp = np.zeros((16, 48), dtype=np.uint8)
        tex[:, 10] = 250
        disp[:, 10] = 6
        w = warp_view(tex, disp, 0, 0.5, 1.0)
        assert (w.value[:, 7] == 250).all()
        assert (w.src_col[:, 7] == 10).all()
        assert (w.disparity[:, 7] == 6).all()

    def test_right_view_shifts_the_other_way(self):
        tex = np.zeros((16, 48), dtype=np.uint8)
        disp = np.zeros((16, 48), dtype=np.uint8)
        tex[:, 10] = 250
        disp[:, 10] = 6
        w = warp_view(tex, disp, 1, 0.5, 1.0)
        assert (w.value[:, 13] == 250).all()

    @pytest.mark.example
    def test_nearer_pixel_wins_the_collision(self):
        # cols 12 (disp 8) and 6 (disp 2) both land on target 4 at position 1
        tex = np.full((16, 48), 10, dtype=np.uint8)
        disp = np.zeros((16, 48), dtype=np.uint8)
        tex[:, 12], disp[:, 12] = 200, 8
        tex[:, 6], disp[:, 6] = 90, 2
        w = warp_view(tex, disp, 0, 1.0, 1.0)
        assert (w.value[:, 4] == 200).all()
        assert (w.disparity[:, 4] == 8).all()
        assert (w.src_col[:, 4] == 12).all()

    def test_out_of_frame_pixels_leave_holes(self):
        # left-view content slides left; the right edge of the target opens up
        tex = np.full((16, 32), 77, dtype=np.uint8)
        disp = np.full((16, 32), 8, dtype=np.uint8)
        w = warp_view(tex, disp, 0, 1.0, 1.0)
        assert w.covered[:, :24].all()
        assert not w.covered[:, 24:].any()
        assert (w.src_col[:, 24:] == -1).all()

    def test_rejects_unknown_view(self):
        tex, disp = random_view(2)
        with pytest.raises(SynthesisError):
            warp_view(tex, disp, 2, 0.5)

    def test_rejects_planes_of_another_shape(self):
        tex, disp = random_view(2)
        with pytest.raises(SynthesisError, match="one shape"):
            warp_view(tex, disp[:16], 0, 0.5)

    @given(st.integers(0, 10 ** 6), st.sampled_from([0, 1]),
           st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.sampled_from([0.5, 1.0]))
    @settings(max_examples=30)
    def test_matches_explicit_z_buffer(self, seed, view, pos, eta):
        tex, disp = random_view(seed, h=16, w=32, max_disp=10)
        got = warp_view(tex, disp, view, pos, eta)
        cov, val, odisp, src = oracles.brute_warp(tex, disp, view, pos, eta)
        assert np.array_equal(got.covered, cov)
        assert np.array_equal(got.value, val)
        assert np.array_equal(got.disparity[cov], odisp[cov])
        assert np.array_equal(got.src_col[cov], src[cov])

    @given(st.integers(0, 10 ** 6), st.sampled_from([0, 1]),
           st.sampled_from([0.0, 0.25, 0.5, 1.0]),
           st.sampled_from([0.5, 0.7, 1.0, 2.5]),
           st.sampled_from(DISPARITY_KINDS))
    @example(3, 0, 1.0, 2.5, "collide")
    @settings(max_examples=60)
    def test_matches_the_lexsort_oracle_bit_for_bit(self, seed, view, pos,
                                                    eta, kind):
        # every field and dtype, uncovered pixels included
        tex, disp = warp_inputs(seed, kind)
        got = warp_view(tex, disp, view, pos, eta)
        want = oracles.oracle_warp_view(tex, disp, view, pos, eta)
        for field in ("covered", "value", "disparity", "src_col"):
            assert_same_array(getattr(got, field), getattr(want, field))

    def test_pinned_collision_case_collides(self):
        # the example pinned above: more sources land in frame than there
        # are covered targets, so near runs overwrite far ones
        tex, disp = warp_inputs(3, "collide")
        w = warp_view(tex, disp, 0, 1.0, 2.5)
        inframe = np.arange(48) - np.rint(disp * 2.5) >= 0
        assert inframe.sum() > w.covered.sum()

    @pytest.mark.parametrize("bad", ["texture", "disparity"])
    def test_rejects_planes_that_are_not_uint8(self, bad):
        tex, disp = random_view(4)
        planes = {"texture": tex, "disparity": disp}
        planes[bad] = planes[bad].astype(np.int64)
        with pytest.raises(SynthesisError, match="uint8"):
            warp_view(planes["texture"], planes["disparity"], 0, 0.5)

    @pytest.mark.parametrize("view", [0, 1])
    def test_a_huge_eta_shifts_like_a_large_one(self, view):
        # every nonzero disparity leaves the frame at eta 1e6 already; at
        # 1e20 an unclamped cast to int64 would wrap
        tex = np.full((32, 32), 100, dtype=np.uint8)
        tex[:, 16:] = 200
        disp = np.full((32, 32), 4, dtype=np.uint8)
        disp[:, :8] = 0
        large = warp_view(tex, disp, view, 0.5, 1e6)
        huge = warp_view(tex, disp, view, 0.5, 1e20)
        for name in ("covered", "value", "disparity", "src_col"):
            assert_same_array(getattr(huge, name), getattr(large, name))
        assert large.covered.sum() == (disp == 0).sum()

    @pytest.mark.parametrize("view", [0, 1])
    @pytest.mark.parametrize("eta", [1.0, 2.5])
    def test_a_row_past_16_column_bits_matches_the_oracle(self, view, eta):
        # 70,000 columns take 17 bits beside the disparity's 8 in a key
        rng = np.random.default_rng(70000)
        tex = rng.integers(0, 256, (1, 70000)).astype(np.uint8)
        disp = rng.integers(0, 256, (1, 70000)).astype(np.uint8)
        got = warp_view(tex, disp, view, 0.5, eta)
        want = oracles.oracle_warp_view(tex, disp, view, 0.5, eta)
        for field in ("covered", "value", "disparity", "src_col"):
            assert_same_array(getattr(got, field), getattr(want, field))


class TestFillHoles:
    def test_background_side_supplies_the_fill(self):
        plane = np.zeros((1, 10), dtype=np.uint8)
        holes = np.zeros((1, 10), dtype=bool)
        disp = np.zeros((1, 10), dtype=np.int64)
        plane[0, 2], disp[0, 2] = 200, 5
        plane[0, 7], disp[0, 7] = 50, 3
        holes[0, 3:7] = True
        out = fill_holes(plane, holes, disp)
        assert out[0, 3:7].tolist() == [50, 50, 50, 50]

    def test_equal_disparity_prefers_the_left_neighbor(self):
        plane = np.zeros((1, 8), dtype=np.uint8)
        holes = np.zeros((1, 8), dtype=bool)
        disp = np.full((1, 8), 4, dtype=np.int64)
        plane[0, 1], plane[0, 6] = 120, 30
        holes[0, 2:6] = True
        out = fill_holes(plane, holes, disp)
        assert out[0, 2:6].tolist() == [120] * 4

    def test_border_hole_takes_the_only_neighbor(self):
        plane = np.zeros((1, 6), dtype=np.uint8)
        holes = np.zeros((1, 6), dtype=bool)
        disp = np.zeros((1, 6), dtype=np.int64)
        plane[0, 3] = 90
        holes[0, :3] = True
        out = fill_holes(plane, holes, disp)
        assert out[0, :3].tolist() == [90, 90, 90]

    def test_fully_uncovered_row_becomes_mid_gray(self):
        plane = np.zeros((2, 6), dtype=np.uint8)
        holes = np.zeros((2, 6), dtype=bool)
        holes[1, :] = True
        out = fill_holes(plane, holes, np.zeros((2, 6), dtype=np.int64))
        assert (out[1] == 128).all()
        assert (out[0] == plane[0]).all()

    @given(seed=st.integers(0, 2 ** 32 - 1), h=st.integers(1, 6),
           w=st.integers(1, 12), hole_frac=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
           dtype=st.sampled_from([np.uint8, np.int64]))
    @settings(max_examples=60)
    def test_matches_the_per_row_oracle(self, seed, h, w, hole_frac, dtype):
        # rows with no covered pixel, holes at both borders, one-column
        # planes, and disparities of 0-2 so that dl == dr ties are common
        rng = np.random.default_rng(seed)
        plane = rng.integers(0, 256, (h, w)).astype(dtype)
        holes = rng.random((h, w)) < hole_frac
        holes[rng.integers(0, h)] = True
        holes[:, [0, -1]] |= rng.random((h, 2)) < 0.5
        disp = rng.integers(0, 3, (h, w)).astype(np.int64)
        assert_same_array(fill_holes(plane, holes, disp),
                          oracles.oracle_fill_holes(plane, holes, disp))


def distance_blend(left, right, position):
    """blend with equal reliabilities: (plane, holes)."""
    return blend(left, right, position, 0.0, 0.0, 1.0)


class TestBlend:
    @pytest.mark.example
    def test_midpoint_average(self):
        left = make_warp(np.full((1, 4), 100))
        right = make_warp(np.full((1, 4), 80))
        plane, holes = distance_blend(left, right, 0.5)
        assert (plane == 90).all()
        assert not holes.any()

    @pytest.mark.example
    def test_quarter_position_weighting(self):
        # 0.75 * 68 + 0.25 * 104 = 77
        left = make_warp(np.full((1, 4), 68))
        right = make_warp(np.full((1, 4), 104))
        plane, _ = distance_blend(left, right, 0.25)
        assert (plane == 77).all()

    def test_halves_round_up(self):
        left = make_warp(np.full((1, 4), 101))
        right = make_warp(np.full((1, 4), 80))
        plane, _ = distance_blend(left, right, 0.5)
        assert (plane == 91).all()

    def test_single_coverage_passes_through(self):
        cov_l = np.array([[True, False, False]])
        cov_r = np.array([[False, True, False]])
        left = make_warp(np.full((1, 3), 200), covered=cov_l)
        right = make_warp(np.full((1, 3), 40), covered=cov_r)
        plane, holes = distance_blend(left, right, 0.5)
        assert plane[0].tolist() == [200, 40, 0]
        assert holes[0].tolist() == [False, False, True]


class TestReliability:
    @pytest.mark.example
    def test_equal_distortions_split_evenly(self):
        r0, r1 = reliability_weights(0.0, 0.0, 1.0)
        assert (r0, r1) == (0.5, 0.5)

    @pytest.mark.example
    def test_asymmetric_distortions(self):
        # d0 = 8, d1 = 32, c = 1 normalizes to 33/42 and 9/42
        r0, r1 = reliability_weights(8.0, 32.0, 1.0)
        w0, w1 = oracles.fraction_weights(8, 32, 1)
        assert r0 == pytest.approx(float(w0), rel=1e-15)
        assert r1 == pytest.approx(float(w1), rel=1e-15)
        assert r0 == pytest.approx(33.0 / 42.0, rel=1e-15)

    @given(st.floats(0.0, 500.0), st.floats(0.0, 500.0), st.floats(0.1, 10.0))
    @example(0.0, 1.5635647993273032e-215, 1.0)
    def test_normalized_and_ordered(self, d0, d1, c):
        r0, r1 = reliability_weights(d0, d1, c)
        assert r0 + r1 == pytest.approx(1.0, rel=1e-12)
        # The order is weak in general: a gap below the float spacing of
        # d0 + d1 + c rounds to an exact tie, and blend needs that
        # tie to stay exact.  It is strict once the gap is resolvable.
        if d0 <= d1:
            assert r0 >= r1
        if d0 == d1:
            assert r0 == r1
        if d1 - d0 > 1e-12 * (d0 + d1 + 2 * c):
            assert r0 > r1
        w0, w1 = oracles.fraction_weights(d0, d1, c)
        assert r0 == pytest.approx(float(w0), rel=1e-12)

    def test_reliable_side_dominates_in_the_limit(self):
        left = make_warp(np.full((1, 4), 100))
        right = make_warp(np.full((1, 4), 30))
        d0 = np.zeros((1, 4))
        d1 = np.full((1, 4), 1e12)
        plane, _ = blend(left, right, 0.5, d0, d1, 1.0)
        r0, _ = reliability_weights(d0, d1, 1.0)
        assert (plane == 100).all()
        assert (r0 > 0.999999).all()

    def test_zero_errors_reproduce_standard_blend_bit_for_bit(self):
        tex0, disp0 = random_view(11)
        tex1, disp1 = random_view(12)
        wl = warp_view(tex0, disp0, 0, 0.5, 1.0)
        wr = warp_view(tex1, disp1, 1, 0.5, 1.0)
        z = np.zeros((32, 48))
        std, holes_s = oracles.blend_standard(wl, wr, 0.5)
        ada, holes_a = blend(wl, wr, 0.5, z, z, 1.0)
        r0, r1 = reliability_weights(z, z, 1.0)
        assert np.array_equal(std, ada)
        assert np.array_equal(holes_s, holes_a)
        assert (r0 == 0.5).all() and (r1 == 0.5).all()

    @given(st.integers(0, 10 ** 6), st.floats(0.0, 1.0),
           st.sampled_from([0.5, 1.0, 4.0]))
    @settings(max_examples=40)
    def test_equal_distortions_give_the_distance_weighted_blend(self, seed,
                                                               position, c):
        # any equal pair of distortions, not only zeros, ties the weights
        tex0, disp0 = random_view(seed, h=16, w=32, max_disp=10)
        tex1, disp1 = random_view(seed + 1, h=16, w=32, max_disp=10)
        wl = warp_view(tex0, disp0, 0, position, 1.0)
        wr = warp_view(tex1, disp1, 1, position, 1.0)
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.0, 50.0, (16, 32)) * rng.integers(0, 2)
        plane, holes = blend(wl, wr, position, d, d.copy(), c)
        r0, r1 = reliability_weights(d, d.copy(), c)
        want, want_holes = oracles.blend_standard(wl, wr, position)
        assert np.array_equal(plane, want)
        assert np.array_equal(holes, want_holes)
        assert np.array_equal(r0, r1)

    def test_large_tracked_error_pins_the_output_to_the_clean_view(self):
        # r1 = 1/202 at tracked error 200; 80 * r1 = 0.396 rounds away
        rng = np.random.default_rng(5)
        x0 = rng.integers(60, 160, (1, 16)).astype(np.uint8)
        x1 = np.clip(x0.astype(np.int64) + 80, 0, 255).astype(np.uint8)
        left = make_warp(x0)
        right = make_warp(x1)
        d0 = np.zeros((1, 16))
        d1 = np.full((1, 16), 200.0)
        plane, _ = blend(left, right, 0.5, d0, d1, 1.0)
        _, r1 = reliability_weights(d0, d1, 1.0)
        assert np.array_equal(plane, x0)
        assert r1[0, 0] == pytest.approx(1.0 / 202.0, rel=1e-12)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           position=st.sampled_from([0.0, 0.25, 0.5, 0.8, 1.0]),
           c=st.sampled_from([0.5, 1.0, 4.0]),
           kinds=st.tuples(*[st.sampled_from(["map", "scalar"])] * 2))
    @settings(max_examples=60)
    def test_the_subset_blend_matches_the_full_plane_formula(self, seed,
                                                             position, c,
                                                             kinds):
        # maps that agree at about half the pixels, tiny gaps that round
        # to a tie, and scalar distortions, equal or not
        rng = np.random.default_rng(seed)
        shape = (8, 24)
        left = make_warp(rng.integers(0, 256, shape),
                         covered=rng.random(shape) < 0.8)
        right = make_warp(rng.integers(0, 256, shape),
                          covered=rng.random(shape) < 0.8)
        base = rng.uniform(0.0, 60.0, shape)
        maps = []
        for kind in kinds:
            d = np.where(rng.random(shape) < 0.5, base,
                         base + rng.choice([1e-14, 3.0, 40.0], shape))
            maps.append(d if kind == "map" else float(rng.choice([0.0, 7.5])))
        got = blend(left, right, position, *maps, c)
        want = oracles.oracle_blend(left, right, position, *maps, c)
        for g, w in zip(got, want):
            assert_same_array(g, w)


class TestWorstCase:
    def test_zero_disparity_error_keeps_the_block_error(self):
        tex, _ = random_view(21, h=16, w=32)
        e = np.array([3.0, 11.0])
        d = worst_case_distortion_map(tex, e, np.zeros(2), 1.0)
        assert np.array_equal(d, oracles.oracle_expand_block_values(e, (1, 2)))

    @given(st.integers(0, 10 ** 6), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=40)
    def test_expansion_matches_the_repeat_oracle(self, seed, hb, wb):
        values = np.random.default_rng(seed).uniform(-50.0, 50.0, hb * wb)
        assert_same_array(expand_block_values(values, (hb, wb)),
                          oracles.oracle_expand_block_values(values, (hb, wb)))

    @pytest.mark.example
    def test_straddling_pixel_sees_the_neighbor_block(self):
        # block 0: flat 100, err 2, eps 1; block 1: flat 120, err 30, eps 0
        tex = np.full((16, 32), 100, dtype=np.uint8)
        tex[:, 16:] = 120
        e = np.array([2.0, 30.0])
        eps = np.array([1.0, 0.0])
        d = worst_case_distortion_map(tex, e, eps, 1.0)
        assert (d[:, 15] == 50.0).all()      # 30 + |120 - 100| across the edge
        assert (d[:, 14] == 2.0).all()       # interior: only its own block
        assert (d[:, 16] == 30.0).all()      # radius 0 on the right block
        assert (d[:, 31] == 30.0).all()

    def test_flat_texture_reduces_to_the_block_error(self):
        tex = np.full((16, 32), 90, dtype=np.uint8)
        e = np.array([4.0, 4.0])
        eps = np.array([3.0, 3.0])
        d = worst_case_distortion_map(tex, e, eps, 1.0)
        assert (d == 4.0).all()

    def test_radius_scales_with_the_shift_factor(self):
        tex = np.full((16, 32), 100, dtype=np.uint8)
        tex[:, 16:] = 180
        e = np.zeros(2)
        eps = np.array([4.0, 0.0])
        half = worst_case_distortion_map(tex, e, eps, 0.5)   # radius 2
        full = worst_case_distortion_map(tex, e, eps, 1.0)   # radius 4
        assert (half[:, 13] == 0.0).all()
        assert (full[:, 13] == 80.0).all()
        assert (half[:, 14] == 80.0).all()

    @given(st.integers(0, 10 ** 6), st.sampled_from([0.25, 0.5, 1.0, 2.5]),
           st.sampled_from([0.0, 1.0, 4.0, 1000.0]))
    @example(0, 2.5, 1000.0)
    @settings(max_examples=40)
    def test_matches_the_gather_oracle_bit_for_bit(self, seed, factor, scale):
        # scale 1000 makes the radius far wider than the 48-column frame
        rng = np.random.default_rng(seed)
        tex = rng.integers(0, 256, (32, 48)).astype(np.uint8)
        e = rng.uniform(0.0, 40.0, 6) * rng.integers(0, 2, 6)
        eps = rng.uniform(0.0, 1.0, 6) * scale
        got = worst_case_distortion_map(tex, e, eps, factor)
        want = oracles.oracle_worst_case_distortion_map(tex, e, eps, factor)
        assert_same_array(got, want)

    def test_rejects_a_texture_that_is_not_uint8(self):
        tex = np.full((16, 16), 100.0)
        with pytest.raises(SynthesisError, match="uint8"):
            worst_case_distortion_map(tex, np.zeros(1), np.ones(1), 1.0)

    def test_a_huge_factor_reaches_like_a_large_one(self):
        # a radius of 1e6 already spans the row; 1e20 would wrap in int64
        tex = np.full((16, 32), 100, dtype=np.uint8)
        tex[:, 16:] = 200
        e, eps = np.array([1.0, 2.0]), np.ones(2)
        large = worst_case_distortion_map(tex, e, eps, 1e6)
        assert_same_array(worst_case_distortion_map(tex, e, eps, 1e20), large)
        assert large[0, [0, 15, 16, 31]].tolist() == [102.0, 102.0, 101.0,
                                                       101.0]

    @pytest.mark.parametrize("bad", [0, 1])
    def test_rejects_block_errors_of_another_count(self, bad):
        tex = np.full((16, 32), 100, dtype=np.uint8)
        errors = [np.zeros(2), np.ones(2)]
        errors[bad] = np.ones(5)
        with pytest.raises(SynthesisError, match="5 block values"):
            worst_case_distortion_map(tex, *errors, 1.0)

    def test_rejects_a_plane_of_partial_blocks(self):
        tex = np.full((20, 39), 100, dtype=np.uint8)
        with pytest.raises(SynthesisError, match="20x39"):
            worst_case_distortion_map(tex, np.zeros(2), np.ones(2), 1.0)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_rejects_nan_block_errors(self, bad):
        tex = np.full((16, 32), 100, dtype=np.uint8)
        errors = [np.zeros(2), np.ones(2)]
        errors[bad][1] = np.nan
        with pytest.raises(SynthesisError, match="NaN"):
            worst_case_distortion_map(tex, *errors, 1.0)

    def test_an_infinite_disparity_error_reaches_every_column(self):
        tex = np.full((16, 32), 100, dtype=np.uint8)
        tex[:, 16:] = 200
        e = np.array([1.0, 2.0])
        inf = worst_case_distortion_map(tex, e, np.full(2, np.inf), 1.0)
        assert_same_array(inf, worst_case_distortion_map(tex, e, np.ones(2),
                                                         1e6))

    @given(seed=st.integers(0, 2 ** 32 - 1), hb=st.integers(1, 3),
           wb=st.integers(1, 3), factor=st.sampled_from([0.3, 1.0, 2.5]))
    @settings(max_examples=60)
    def test_mixed_block_radii_match_the_gather_oracle(self, seed, hb, wb,
                                                      factor):
        # per block: radius 0, a few columns, or at least the plane's width
        rng = np.random.default_rng(seed)
        tex = rng.integers(0, 256, (16 * hb, 16 * wb)).astype(np.uint8)
        e = rng.uniform(0.0, 40.0, hb * wb)
        eps = rng.choice([0.0, 1.0, 2.0, 5.0, 17.0, 100.0], hb * wb)
        got = worst_case_distortion_map(tex, e, eps, factor)
        want = oracles.oracle_worst_case_distortion_map(tex, e, eps, factor)
        assert_same_array(got, want)

    @pytest.mark.parametrize("view, position", [(0, 0.0), (1, 1.0)])
    def test_a_view_at_its_own_camera_has_radius_zero(self, view, position):
        # factor 0 moves no column, even for an infinite disparity error
        tex = np.full((16, 32), 100, dtype=np.uint8)
        tex[:, 16:] = 200
        e = np.array([1.0, 2.0])
        factor = shift_factor(view, position, 1.0)
        assert factor == 0.0
        d = worst_case_distortion_map(tex, e, np.full(2, np.inf), factor)
        assert_same_array(d, oracles.oracle_expand_block_values(e, (1, 2)))

    def test_gather_pulls_source_values_to_targets(self):
        src_map = np.arange(8, dtype=np.float64).reshape(1, 8)
        covered = np.array([[True, False, True, True, False, False, True, True]])
        src_col = np.array([[3, -1, 0, 7, -1, -1, 2, 2]])
        w = make_warp(np.zeros((1, 8)), covered=covered, src_col=src_col)
        got = gather_at_targets(src_map, w)
        assert got[0].tolist() == [3.0, 0.0, 0.0, 7.0, 0.0, 0.0, 2.0, 2.0]

    @given(st.integers(0, 10 ** 6), st.sampled_from([0, 1]),
           st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from(DISPARITY_KINDS))
    @settings(max_examples=30)
    def test_gather_matches_a_per_pixel_loop(self, seed, view, pos, kind):
        tex, disp = warp_inputs(seed, kind)
        warped = warp_view(tex, disp, view, pos, 2.5)
        src_map = np.random.default_rng(seed).uniform(0.0, 99.0, tex.shape)
        want = np.zeros(tex.shape)
        for i, j in np.ndindex(tex.shape):
            if warped.covered[i, j]:
                want[i, j] = src_map[i, warped.src_col[i, j]]
        assert_same_array(gather_at_targets(src_map, warped), want)


class TestSynthesizeView:
    def test_adaptive_mode_requires_tracked_errors(self):
        # reliability weights need the tracked errors of both views
        tex, disp = random_view(31)
        errs = (np.zeros(6), np.zeros(6))
        with pytest.raises(SynthesisError):
            synthesize_view(tex, disp, tex, disp, SynthesisParams(),
                            left_errors=errs)
        with pytest.raises(SynthesisError):
            synthesize_view(tex, disp, tex, disp, SynthesisParams(),
                            right_errors=errs)

    def test_rejects_views_of_another_shape(self):
        tex, disp = random_view(31)
        with pytest.raises(SynthesisError, match="one shape"):
            synthesize_view(tex, disp, tex[:16], disp[:16], SynthesisParams())

    def test_tracked_errors_need_whole_blocks(self):
        # the warp and the error-free blend take any shape
        tex, disp = random_view(32, h=20, w=39)
        plane = synthesize_view(tex, disp, tex, disp, SynthesisParams())
        assert plane.shape == (20, 39)
        errs = (np.zeros(2), np.zeros(2))
        with pytest.raises(SynthesisError, match="20x39"):
            synthesize_view(tex, disp, tex, disp, SynthesisParams(),
                            left_errors=errs, right_errors=errs)

    def test_lossless_synthesis_matches_the_withheld_view(self, scene64):
        params = SynthesisParams(position=0.5, eta=1.0)
        for t in range(len(scene64.truth)):
            lt = scene64.left[t]
            rt = scene64.right[t]
            plane = synthesize_view(lt.texture.samples, lt.disparity.samples,
                                    rt.texture.samples, rt.disparity.samples,
                                    params)
            # holes are the pixels neither view covers before the fill
            wl = warp_view(lt.texture.samples, lt.disparity.samples, 0,
                           params.position, params.eta)
            wr = warp_view(rt.texture.samples, rt.disparity.samples, 1,
                           params.position, params.eta)
            holes = ~(wl.covered | wr.covered)
            truth = scene64.truth[t].samples
            ok = ~holes
            assert np.array_equal(plane[ok], truth[ok])
            assert holes.mean() < 0.10

    def test_adaptive_equals_standard_on_clean_decodes(self, scene64):
        lt, rt = scene64.left[3], scene64.right[3]
        h, w = lt.texture.samples.shape
        zeros = np.zeros((h // MB_SIZE) * (w // MB_SIZE))
        std = synthesize_view(lt.texture.samples, lt.disparity.samples,
                              rt.texture.samples, rt.disparity.samples,
                              SynthesisParams())
        ada = synthesize_view(lt.texture.samples, lt.disparity.samples,
                              rt.texture.samples, rt.disparity.samples,
                              SynthesisParams(),
                              left_errors=(zeros, zeros),
                              right_errors=(zeros, zeros))
        assert np.array_equal(std, ada)

    @pytest.mark.parametrize("position", [0.0, 1.0])
    def test_the_adaptive_blend_at_a_camera_passes_that_view(self, position):
        # the other view's distance weight is 0, and an infinite disparity
        # error at the camera's own view moves none of its columns
        tex0, disp0 = random_view(41)
        tex1, disp1 = random_view(42)
        params = SynthesisParams(position=position)
        pair = warp_pair(tex0, disp0, tex1, disp1, params)
        errs = (np.full(6, 3.0), np.full(6, np.inf))
        got = blend_pair(pair, params, errs, errs)
        assert_same_array(got, tex0 if position == 0.0 else tex1)

    def test_down_weighting_a_corrupted_view_lowers_the_error(self, side_scene):
        lt, rt = side_scene.left[4], side_scene.right[4]
        truth = side_scene.truth[4].samples
        h, w = lt.texture.samples.shape
        grid = (h // MB_SIZE, w // MB_SIZE)
        n_mb = grid[0] * grid[1]
        bad = rt.texture.samples.astype(np.int64)
        bad[:, 48:] = np.clip(bad[:, 48:] + 12, 0, 255)
        bad = bad.astype(np.uint8)
        tex_err = np.zeros(n_mb)
        tex_err[3::grid[1]] = 12.0
        zeros = np.zeros(n_mb)
        std = synthesize_view(lt.texture.samples, lt.disparity.samples,
                              bad, rt.disparity.samples,
                              SynthesisParams())
        ada = synthesize_view(lt.texture.samples, lt.disparity.samples,
                              bad, rt.disparity.samples,
                              SynthesisParams(),
                              left_errors=(zeros, zeros),
                              right_errors=(tex_err, zeros))
        assert mse(ada, truth) < mse(std, truth)


def pairs_of(cs):
    return [(int(a), int(b)) for a, b in zip(cs.src, cs.tgt)]


class TestCorrespondence:
    def test_flat_shift_membership_and_covering(self):
        # disp 24 moves view-0 content 24 columns left at the far position:
        # the first block falls outside, the second keeps exactly half
        tex = np.tile(np.arange(64, dtype=np.uint8), (16, 1))
        disp = np.full((16, 64), 24, dtype=np.uint8)
        cs = correspondence_sets(tex, disp, 0, 1.0)
        assert cs.member.tolist() == [False, True, True, True]
        assert pairs_of(cs) == [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)]

    def test_occluded_background_loses_membership(self):
        # a near strip hides the background columns behind it
        tex = np.tile(np.arange(64, dtype=np.uint8), (32, 1))
        disp = np.full((32, 64), 2, dtype=np.uint8)
        disp[:, 32:48] = 18
        cs = correspondence_sets(tex, disp, 0, 1.0)
        member, pairs = oracles.brute_correspondence(tex, disp, 0, 1.0)
        assert cs.member.tolist() == member.tolist()
        assert pairs_of(cs) == pairs

    @given(st.integers(0, 10 ** 6), st.sampled_from([0, 1]))
    @settings(max_examples=20)
    def test_matches_counting_oracle(self, seed, view):
        tex, disp = random_view(seed, h=32, w=48, max_disp=12)
        cs = correspondence_sets(tex, disp, view, 1.0)
        member, pairs = oracles.brute_correspondence(tex, disp, view, 1.0)
        assert cs.member.tolist() == member.tolist()
        assert pairs_of(cs) == pairs

    def test_identity_geometry_covers_itself(self, scene64):
        lt = scene64.left[0]
        cs = correspondence_sets(lt.texture.samples, lt.disparity.samples, 0, 1.0)
        # low-disparity background blocks stay inside their own MB column
        assert cs.member.sum() >= len(cs.member) - 4
