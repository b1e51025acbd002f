"""Block codec: transform, rate model, motion search, decode and container."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvstream.codec import (INTRA_BASE_BITS, MODE_BITS, MODE_INTER, MODE_INTRA,
                            MODE_SKIP, PLANE_ORDER, SKIP_BITS, CodecConfig,
                            CodecError, EncodedPlane, TrialRecord,
                            build_inter_candidates,
                            build_intra_candidates, code_against_prediction,
                            decode_plane, dct16,
                            dequantize, displacement_order,
                            exp_golomb_signed_bits, idct16, motion_search,
                            parse_stream, plane_blocks, predictor_blocks,
                            quantize, _displacements, residual_bits,
                            serialize_stream)
from fvstream.channel import Component, lost_mb_mask
from fvstream import codec, pipeline
from fvstream.pipeline import ExperimentConfig, decode_stream

import oracles


def rand_plane(shape, seed, smooth=True):
    """Random test content; smoothed so motion search has structure to match."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, shape).astype(np.float64)
    if smooth:
        k = np.ones(5) / 5.0
        raw = np.apply_along_axis(lambda r: np.convolve(r, k, "same"), 1, raw)
        raw = np.apply_along_axis(lambda r: np.convolve(r, k, "same"), 0, raw)
    return np.clip(np.rint(raw), 0, 255).astype(np.uint8)


def one_block_plane(mode, ref_dist, mv, coeffs=None, step=10):
    """A 16x16 plane holding one macroblock record."""
    if coeffs is None:
        coeffs = np.zeros((16, 16), dtype=np.int32)
    return EncodedPlane(modes=np.array([mode], dtype=np.int64),
                        ref_dist=np.array([ref_dist], dtype=np.int64),
                        mv=np.array([mv], dtype=np.int64),
                        coeffs=np.asarray(coeffs, dtype=np.int32)[None],
                        quant_step=step, grid=(1, 1))


class TestTransform:
    def test_inverse_recovers_input(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-200, 200, (5, 16, 16))
        assert np.allclose(idct16(dct16(x)), x, atol=1e-9)

    def test_transform_preserves_energy(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-100, 100, (3, 16, 16))
        y = dct16(x)
        assert np.allclose((x ** 2).sum(axis=(1, 2)), (y ** 2).sum(axis=(1, 2)))

    def test_quantize_rounds_to_nearest_step(self):
        q = quantize(np.array([[0.0, 14.0, 16.0, -26.0]]), 10)
        assert q.tolist() == [[0, 1, 2, -3]]
        assert np.array_equal(dequantize(q, 10), np.array([[0., 10., 20., -30.]]))

    @pytest.mark.parametrize("level", [255, 0])
    def test_extreme_residual_quantizes_to_1020_in_int16(self, level):
        # flat 255 against a flat 0 predictor, or the reverse, at step 1: the
        # largest coefficient an 8-bit residual can give, as int32 held it
        orig = np.full((1, 16, 16), float(level))
        pred = np.full((1, 16, 16), 255.0 - level)
        coeffs = dct16(orig - pred)
        q = quantize(coeffs, 1)
        assert q.dtype == np.int16
        assert np.array_equal(q, np.rint(coeffs).astype(np.int32))
        dc = 1020 if level else -1020
        assert q[0, ::4, ::4].tolist() == [[dc] * 4] * 4
        assert np.count_nonzero(q) == 16

    @pytest.mark.parametrize("value", [32767.6, -32768.6, 1e9, np.inf, np.nan])
    def test_quantize_refuses_what_int16_cannot_hold(self, value):
        assert quantize(np.array([32767.4, -32768.4]), 1).tolist() == [
            32767, -32768]
        with pytest.raises(CodecError, match="outside int16"):
            quantize(np.array([[0.0, value]]), 1)

    def test_zero_residual_reconstructs_prediction(self):
        pred = np.full((1, 16, 16), 90.0)
        q, rec, rbits, dist = code_against_prediction(pred, pred.copy(), 10)
        assert (q == 0).all()
        assert (rec == 90).all()
        assert rbits.tolist() == [0]
        assert dist.tolist() == [0.0]

    @settings(deadline=None)
    @given(n=st.sampled_from([0, 1, 7, 800, 1100]), step=st.integers(1, 20),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=800, step=20, seed=0)
    def test_equals_the_per_tile_matmuls_bit_for_bit(self, n, step, seed):
        # 800 blocks are 51,200 rows of four, past the size at which
        # OpenBLAS splits a product across its threads
        rng = np.random.default_rng(seed)
        residual = rng.integers(-255, 256, (n, 16, 16)).astype(np.float64)
        q = rng.integers(-32768, 32768, (n, 16, 16)).astype(np.int16)
        coeffs = dequantize(q, step)
        assert dct16(residual).shape == idct16(coeffs).shape == (n, 16, 16)
        assert np.array_equal(dct16(residual), oracles.tile_dct16(residual))
        assert np.array_equal(idct16(coeffs), oracles.tile_idct16(coeffs))
        assert np.array_equal(idct16(q), oracles.tile_idct16(q))

    def test_no_blocks_code_to_empty_results(self):
        none = np.empty((0, 16, 16))
        q, rec, rbits, dist = code_against_prediction(none, none, 4)
        assert q.shape == rec.shape == (0, 16, 16)
        assert (q.dtype, rec.dtype) == (np.int16, np.uint8)
        assert rbits.shape == dist.shape == (0,)


class TestRateModel:
    @pytest.mark.example
    def test_skip_costs_exactly_two_bits(self):
        assert SKIP_BITS == 2
        assert oracles.decision_bits(oracles.BlockDecision(MODE_SKIP, 1), 999) == 2

    @pytest.mark.example
    def test_inter_prev_frame_zero_mv_zero_residual_is_five_bits(self):
        d = oracles.BlockDecision(MODE_INTER, 1, (0, 0))
        assert oracles.decision_bits(d, 0) == 5

    def test_intra_carries_mode_plus_base_plus_residual(self):
        d = oracles.BlockDecision(MODE_INTRA, intra_base=100)
        assert oracles.decision_bits(d, 7) == MODE_BITS + INTRA_BASE_BITS + 7

    @given(st.integers(-5000, 5000))
    def test_exp_golomb_length_matches_reference(self, v):
        got = int(exp_golomb_signed_bits(np.array([v]))[0])
        assert got == oracles.exp_golomb_signed_len(v)

    def test_exp_golomb_small_values(self):
        lens = exp_golomb_signed_bits(np.array([0, 1, -1, 2, -2, 3]))
        assert lens.tolist() == [1, 3, 3, 5, 5, 5]

    def test_residual_bits_matches_entropy_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.integers(-4, 5, (16, 16))
            lib = int(residual_bits(q[None])[0])
            ref = oracles.entropy_bits(q.ravel())
            assert abs(lib - ref) <= 1

    def test_residual_bits_structured_cases(self):
        assert int(residual_bits(np.zeros((1, 16, 16), dtype=np.int64))[0]) == 0
        half = np.zeros(256, dtype=np.int64)
        half[:128] = 1
        assert int(residual_bits(half.reshape(1, 16, 16))[0]) == 256
        four = np.repeat(np.arange(4), 64).reshape(1, 16, 16)
        assert int(residual_bits(four)[0]) == 512

    def test_residual_bits_within_ten_percent_of_ideal_entropy(self):
        # whole-bit rounding is the only modeling slack
        rng = np.random.default_rng(4)
        for _ in range(10):
            q = rng.integers(-6, 7, (16, 16))
            ideal = oracles.entropy_exact(q.ravel())
            lib = int(residual_bits(q[None])[0])
            if ideal >= 10.0:
                assert abs(lib - ideal) / ideal < 0.10
            else:
                assert lib - ideal <= 1.0

    @given(st.integers(2, 5))
    def test_scaling_symbols_keeps_the_rate(self, factor):
        # relabeling symbols bijectively cannot change a zero-order entropy
        rng = np.random.default_rng(99)
        q = rng.integers(-3, 4, (1, 16, 16))
        assert residual_bits(q * factor).tolist() == residual_bits(q).tolist()

    def test_batched_residual_bits_agree_with_single(self):
        rng = np.random.default_rng(5)
        q = rng.integers(-3, 4, (6, 16, 16))
        batched = residual_bits(q)
        singles = [int(residual_bits(q[i:i + 1])[0]) for i in range(6)]
        assert batched.tolist() == singles


class TestMotionSearch:
    def test_displacement_order_starts_at_zero(self):
        order = displacement_order(2)
        assert order[0] == (0, 0)
        keys = [(abs(dx) + abs(dy), dy, dx) for dx, dy in order]
        assert keys == sorted(keys)
        assert len(order) == 25

    def test_displacement_table_is_built_once_per_range(self):
        order, table = _displacements(3)
        assert _displacements(3)[1] is table and not table.flags.writeable
        assert list(order) == displacement_order(3)
        assert table.dtype == np.int16
        assert table.tolist() == [list(d) for d in displacement_order(3)]

    @pytest.mark.example
    def test_pure_horizontal_shift_is_found_exactly(self):
        base = rand_plane((64, 72), seed=11)
        ref = base[:, 4:68]
        cur = base[:, 2:66]  # content moved right by 2 columns
        mv = motion_search(cur, ref[None], 4)
        grid_cols = 4
        for m in range(16):
            top, left = (m // grid_cols) * 16, (m % grid_cols) * 16
            block = cur[top:top + 16, left:left + 16]
            sad = oracles.block_sad(block, ref, top, left, mv[0, m])
            assert oracles.block_sad(block, ref, top, left, (0, 0)) >= sad
            if m % grid_cols == 0:
                continue  # leftmost blocks would predict outside the frame
            assert tuple(mv[0, m]) == (2, 0)
            assert sad == 0

    def test_matches_exhaustive_reference(self):
        cur = rand_plane((32, 32), seed=21)
        ref = rand_plane((32, 32), seed=22)
        mv = motion_search(cur, ref[None], 3)
        for m in range(4):
            top, left = (m // 2) * 16, (m % 2) * 16
            block = cur[top:top + 16, left:left + 16]
            (odx, ody), osad = oracles.naive_best_mv(block, ref, top, left, 3)
            assert (int(mv[0, m, 0]), int(mv[0, m, 1])) == (odx, ody)
            assert oracles.block_sad(block, ref, top, left, mv[0, m]) == osad
            zref = int(np.abs(block.astype(np.int64)
                              - ref[top:top + 16, left:left + 16].astype(np.int64)
                              ).sum())
            assert oracles.block_sad(block, ref, top, left, (0, 0)) == zref

    def test_multiple_references_searched_independently(self):
        cur = rand_plane((32, 32), seed=31)
        refs = np.stack([rand_plane((32, 32), seed=s) for s in (32, 33)])
        mv = motion_search(cur, refs, 2)
        for r in range(2):
            for m in range(4):
                top, left = (m // 2) * 16, (m % 2) * 16
                block = cur[top:top + 16, left:left + 16]
                want_mv, want_sad = oracles.naive_best_mv(block, refs[r],
                                                          top, left, 2)
                assert (int(mv[r, m, 0]), int(mv[r, m, 1])) == want_mv
                assert oracles.block_sad(block, refs[r], top, left,
                                         mv[r, m]) == want_sad


    @given(hb=st.integers(1, 3), wb=st.integers(1, 3), n_refs=st.integers(1, 5),
           search_range=st.integers(1, 16), levels=st.sampled_from([1, 2, 256]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(hb=2, wb=3, n_refs=2, search_range=16, levels=2, seed=0)
    @example(hb=1, wb=2, n_refs=1, search_range=16, levels=1, seed=0)
    def test_matches_the_naive_search_on_any_frame(self, hb, wb, n_refs,
                                                   search_range, levels, seed):
        # levels 1 and 2 give flat and 0/1 planes, where SADs tie; a frame
        # one block high or wide leaves many displacements without any
        # in-frame block
        rng = np.random.default_rng(seed)
        cur = rng.integers(0, levels, (16 * hb, 16 * wb)).astype(np.uint8)
        refs = rng.integers(0, levels, (n_refs, 16 * hb, 16 * wb)).astype(np.uint8)
        mv = motion_search(cur, refs, search_range)
        assert mv.dtype == np.int16 and mv.shape == (n_refs, hb * wb, 2)
        for r in range(n_refs):
            for m in range(hb * wb):
                top, left = (m // wb) * 16, (m % wb) * 16
                block = cur[top:top + 16, left:left + 16]
                want_mv, want_sad = oracles.naive_best_mv(block, refs[r], top,
                                                          left, search_range)
                assert (int(mv[r, m, 0]), int(mv[r, m, 1])) == want_mv
                assert oracles.block_sad(block, refs[r], top, left,
                                         mv[r, m]) == want_sad
                colocated = refs[r, top:top + 16, left:left + 16]
                assert oracles.block_sad(block, refs[r], top, left, (0, 0)) \
                    == np.abs(block.astype(np.int64) - colocated).sum()

    @staticmethod
    def search_planes(content, shape, n_refs, seed):
        """(cur, refs) of one kind of content.  Flat planes tie every SAD of
        a reference; a period-3 pattern gives zero SADs at displacements
        three apart, so equal minima fall in different chunks."""
        rng = np.random.default_rng(seed)
        if content == "smooth":
            planes = [rand_plane(shape, seed + r) for r in range(n_refs + 1)]
        elif content == "flat":
            planes = [np.full(shape, 100 + 7 * r, dtype=np.uint8)
                      for r in range(n_refs + 1)]
        elif content == "binary":
            planes = list(rng.integers(0, 2, (n_refs + 1,) + shape).astype(np.uint8))
        else:
            tile = rng.integers(0, 256, (3, 3)).astype(np.uint8)
            rows, cols = np.indices((shape[0] + n_refs, shape[1] + n_refs))
            pattern = tile[rows % 3, cols % 3]
            planes = [pattern[r:r + shape[0], r:r + shape[1]]
                      for r in range(n_refs + 1)]
        return planes[0], np.stack(planes[1:])

    @pytest.mark.parametrize("content", ["smooth", "flat", "binary", "periodic"])
    @pytest.mark.parametrize("shape, n_refs, search_range", [
        ((64, 64), 16, 16), ((128, 128), 16, 16), ((128, 128), 5, 4),
        ((128, 128), 2, 2), ((64, 64), 1, 64), ((16, 128), 16, 64),
        ((128, 16), 16, 64)])
    def test_equals_the_per_displacement_kernel(self, content, shape, n_refs,
                                                search_range):
        # all but the two default-sized searches span several chunks
        cur, refs = self.search_planes(content, shape, n_refs, seed=71)
        want = oracles.per_displacement_search(cur, refs, search_range)
        assert np.array_equal(motion_search(cur, refs, search_range), want)

    @settings(deadline=None)
    @given(hb=st.integers(1, 3), wb=st.integers(1, 3), n_refs=st.integers(1, 4),
           search_range=st.integers(1, 12),
           content=st.sampled_from(["smooth", "flat", "binary", "periodic"]),
           chunk_bytes=st.integers(1, 8192), seed=st.integers(0, 2 ** 16))
    def test_any_chunk_size_finds_the_same_vectors(self, hb, wb, n_refs,
                                                   search_range, content,
                                                   chunk_bytes, seed):
        cur, refs = self.search_planes(content, (16 * hb, 16 * wb), n_refs, seed)
        want = oracles.per_displacement_search(cur, refs, search_range)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codec, "_SEARCH_CHUNK_BYTES", chunk_bytes)
            assert np.array_equal(motion_search(cur, refs, search_range), want)

    def test_the_widest_search_stays_within_a_few_megabytes(self):
        # search_range 64 and 16 references, the limits CodecConfig allows:
        # a column-sum table of all 16,641 displacements would take 545 MB
        rng = np.random.default_rng(5)
        cur = rng.integers(0, 256, (128, 128)).astype(np.uint8)
        refs = rng.integers(0, 256, (16, 128, 128)).astype(np.uint8)
        _displacements(64)      # cached outside the search's own memory
        tracemalloc.start()
        try:
            motion_search(cur, refs, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1 MiB of column sums, plus three 256 KiB |a - b| temporaries
        assert peak < 3 * 2 ** 20



class TestPredictorGather:
    @given(hb=st.integers(1, 3), wb=st.integers(1, 3),
           n_refs=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           fortran=st.booleans())
    def test_matches_the_sliding_window_gather(self, hb, wb, n_refs, seed,
                                               fortran):
        # every block against every reference: windows at each frame edge
        # and corner, the centre and one random window, in any stack layout
        rng = np.random.default_rng(seed)
        h, w, grid = 16 * hb, 16 * wb, (hb, wb)
        refs = rng.integers(0, 256, (n_refs, h, w), dtype=np.uint8)
        stack = np.asfortranarray(refs) if fortran else refs
        r0, c0 = (np.indices(grid).reshape(2, -1) * 16)
        places = [(top, left) for top in (0, (h - 16) // 2, h - 16)
                  for left in (0, (w - 16) // 2, w - 16)]
        places.append((int(rng.integers(0, h - 15)),
                       int(rng.integers(0, w - 15))))
        mbs, dist, tops, lefts = [], [], [], []
        for m in range(hb * wb):
            for d in range(1, n_refs + 1):
                for top, left in places:
                    mbs.append(m)
                    dist.append(d)
                    tops.append(top)
                    lefts.append(left)
        mbs, dist = np.array(mbs), np.array(dist)
        tops, lefts = np.array(tops), np.array(lefts)
        mv = np.stack([c0[mbs] - lefts, r0[mbs] - tops], axis=1)
        want = np.lib.stride_tricks.sliding_window_view(
            refs, (16, 16), axis=(1, 2))[dist - 1, tops, lefts]
        got = predictor_blocks(stack, dist, mv, mbs, grid)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        # one scalar distance reads the same reference for every block
        assert np.array_equal(predictor_blocks(stack, 1, mv, mbs, grid),
                              np.lib.stride_tricks.sliding_window_view(
                                  refs[0], (16, 16))[tops, lefts])
        # one pixel past any edge raises before anything is gathered
        for m in range(hb * wb):
            for dx, dy in ((c0[m] + 1, 0), (c0[m] - (w - 16) - 1, 0),
                           (0, r0[m] + 1), (0, r0[m] - (h - 16) - 1)):
                with pytest.raises(CodecError, match="leaves the frame"):
                    predictor_blocks(stack, 1, np.array([[dx, dy]]),
                                     np.array([m]), grid)


class TestIntra:
    def test_base_level_is_clipped_rounded_mean(self):
        block = np.full((16, 16), 100, dtype=np.uint8)
        block[0, 0] = 200  # mean 100.39
        assert oracles.intra_base_level(block) == 100
        assert oracles.intra_base_level(
            np.full((16, 16), 255, dtype=np.uint8)) == 255

    @pytest.mark.example
    def test_flat_offset_reconstruction(self):
        # base 100, every 4x4 tile DC quantized to 2 at step 10 lifts the
        # block by dequant 20 spread over 16 pixels: 100 + 5 = 105
        q = np.zeros((16, 16), dtype=np.int32)
        q[::4, ::4] = 2
        enc = one_block_plane(MODE_INTRA, 0, (100, 0), q)
        rec, _ = decode_plane(enc, [], None, np.ones(1, dtype=bool))
        assert (rec == 105).all()

    def test_flat_block_codes_losslessly(self):
        block = np.full((16, 16), 77, dtype=np.uint8)
        q, rec, bits, dist, base = oracles.code_intra_block(block, 10)
        assert base == 77
        assert (q == 0).all()
        assert (rec == 77).all()
        assert dist == 0.0
        assert bits == MODE_BITS + INTRA_BASE_BITS

    def test_intra_candidates_are_flat_predictors_at_the_base_level(self):
        plane = rand_plane((32, 48), seed=41)
        base, pred = build_intra_candidates(plane)
        assert base.dtype == np.int16 and pred.dtype == np.uint8
        # the build's fingerprints view the predictor as uint64 words
        assert pred.shape == (6, 16, 16) and pred.flags.c_contiguous
        for m, block in enumerate(plane_blocks(plane)):
            assert int(base[m]) == oracles.intra_base_level(block)
            assert (pred[m] == base[m]).all()


class TestCandidates:
    def test_column_layout(self):
        plane = rand_plane((32, 32), seed=51)
        refs = [rand_plane((32, 32), seed=52), rand_plane((32, 32), seed=53)]
        cset = build_inter_candidates(plane, refs, CodecConfig(10, 2, 8))
        assert cset.mode_col.size == 6
        assert cset.mode_col.tolist() == [MODE_SKIP, MODE_INTER, MODE_INTER,
                                          MODE_INTER, MODE_INTER, MODE_INTRA]
        assert cset.ref_col.tolist() == [1, 1, 1, 2, 2, 0]
        assert (cset.mv[:, 0] == 0).all()   # skip
        assert (cset.mv[:, 1] == 0).all()   # zero-mv inter, d=1
        assert (cset.mv[:, 3] == 0).all()   # zero-mv inter, d=2
        # intra: the base level rides the mv slot
        base = build_inter_candidates(plane, [], CodecConfig(10, 2, 8)).mv[:, 0, 0]
        assert cset.mv[:, 5].tolist() == [[int(b), 0] for b in base]
        assert cset.quant_step == 10

    def test_no_references_leave_the_intra_column_alone(self):
        plane = rand_plane((32, 48), 1)
        cset = build_inter_candidates(plane, [], CodecConfig(6, 16, 8))
        assert cset.mode_col.tolist() == [MODE_INTRA]
        assert cset.ref_col.tolist() == [0]
        assert cset.quant_step == 6
        assert (cset.mv[:, 0, 1] == 0).all()
        for m, block in enumerate(plane_blocks(plane)):
            q, rec, bits, dist, base = oracles.code_intra_block(block, 6)
            assert np.array_equal(cset.coeffs[m, 0], q)
            assert np.array_equal(cset.recon[m, 0], rec)
            assert cset.bits[m, 0] == bits
            assert cset.distortion[m, 0] == dist
            assert cset.mv[m, 0, 0] == base

    @pytest.mark.example
    def test_static_content_skips_for_free(self):
        plane = rand_plane((32, 32), seed=61)
        cset = build_inter_candidates(plane, [plane.copy()],
                                      CodecConfig(10, 2, 8))
        assert (motion_search(plane, plane[None], 2) == 0).all()
        assert all(oracles.block_sad(plane[r:r + 16, c:c + 16], plane, r, c,
                                     (0, 0)) == 0
                   for r in (0, 16) for c in (0, 16))
        assert (cset.distortion[:, 0] == 0).all()
        assert (cset.bits[:, 0] == SKIP_BITS).all()
        assert np.array_equal(cset.recon[:, 0], plane_blocks(plane))

    def test_searched_column_codes_only_moved_blocks(self):
        # block row 0 stays, row 1 moves right by 2 columns, row 2 down by 2
        ref = rand_plane((48, 64), seed=75)
        cur = ref.copy()
        cur[16:32, 2:] = ref[16:32, :-2]
        cur[32:] = ref[30:46]
        refs = [ref, rand_plane((48, 64), seed=76)]
        cfg = CodecConfig(10, 3, 8)
        cset = build_inter_candidates(cur, refs, cfg)
        orig = plane_blocks(cur).astype(np.float64)
        moved_rows = 0
        for d in (1, 2):
            cz, cb = 2 * d - 1, 2 * d
            for m in range(cset.mv.shape[0]):
                dx, dy = (int(v) for v in cset.mv[m, cb])
                if (dx, dy) == (0, 0):
                    assert np.array_equal(cset.coeffs[m, cb], cset.coeffs[m, cz])
                    assert np.array_equal(cset.recon[m, cb], cset.recon[m, cz])
                    assert cset.distortion[m, cb] == cset.distortion[m, cz]
                    assert cset.bits[m, cb] == cset.bits[m, cz]
                    continue
                moved_rows += 1
                top, left = (m // 4) * 16 - dy, (m % 4) * 16 - dx
                pred = refs[d - 1][top:top + 16, left:left + 16]
                q, rec, rbits, dist = code_against_prediction(
                    pred[None], orig[m:m + 1], 10)
                assert np.array_equal(cset.coeffs[m, cb], q[0])
                assert np.array_equal(cset.recon[m, cb], rec[0])
                assert cset.distortion[m, cb] == dist[0]
                assert cset.bits[m, cb] == oracles.decision_bits(
                    oracles.BlockDecision(MODE_INTER, d, (dx, dy)),
                    int(rbits[0]))
        assert (cset.mv[:4, 2] == 0).all()
        assert cset.mv[5:8, 2].tolist() == [[2, 0]] * 3
        assert cset.mv[8:, 2].tolist() == [[0, 2]] * 4
        assert moved_rows >= 7

    @given(hb=st.integers(1, 3), wb=st.integers(1, 3),
           kinds=st.lists(st.sampled_from(["repeat", "shift", "static-rows",
                                           "fresh"]), min_size=1, max_size=5),
           step=st.integers(1, 11), search_range=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200)
    def test_matches_the_per_column_oracle_on_repeating_references(
            self, hb, wb, kinds, step, search_range, seed):
        # references built to repeat: one plane twice, shifted copies of the
        # current plane, and block rows left static, so many (block,
        # predictor) pairs recur across columns
        rng = np.random.default_rng(seed)
        shape = (16 * hb, 16 * wb)
        cur = rng.integers(0, 256, shape).astype(np.uint8)
        refs = []
        for kind in kinds:
            if kind == "repeat":
                ref = (refs[-1] if refs else cur).copy()
            elif kind == "shift":
                dy, dx = (int(v) for v in rng.integers(-3, 4, 2))
                ref = np.roll(cur, (dy, dx), axis=(0, 1))
            else:
                ref = rng.integers(0, 256, shape).astype(np.uint8)
                if kind == "static-rows":    # even block rows stand still
                    still = np.arange(shape[0]) // 16 % 2 == 0
                    ref[still] = cur[still]
            refs.append(ref)
        cfg = CodecConfig(step, search_range, 8)
        got = build_inter_candidates(cur, refs, cfg)
        want = oracles.oracle_inter_candidates(cur, refs, cfg)
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "quant_step":
                assert a == b
            else:
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name

    def test_each_distinct_predictor_is_coded_once(self, monkeypatch):
        # within one build, and across two builds of one plane whose source
        # stands still: the second codes only the new reference's
        # predictors, and no INTRA row
        seen = []

        def recording(pred, orig, step):
            seen.append(np.array(pred))
            return code_against_prediction(pred, orig, step)

        monkeypatch.setattr("fvstream.codec.code_against_prediction",
                            recording)
        p = rand_plane((32, 48), seed=81)
        q = rand_plane((32, 48), seed=83)
        cur = rand_plane((32, 48), seed=82)
        cfg, record = CodecConfig(10, 2, 8), TrialRecord()
        first = build_inter_candidates(cur, [p, p, p], cfg, record)
        second = build_inter_candidates(cur, [q, p, p], cfg, record)
        rows = np.concatenate(seen)
        for block in np.concatenate([plane_blocks(p), plane_blocks(q)]):
            assert (rows == block).all(axis=(1, 2)).sum() == 1
        # one call per build; only INTRA's predictors are flat
        assert len(seen) == 2
        flat = [(batch == batch[:, :1, :1]).all(axis=(1, 2)).sum()
                for batch in seen]
        assert flat == [6, 0]
        assert np.array_equal(second.recon[:, -1], first.recon[:, -1])

    def test_every_build_codes_in_one_call(self, monkeypatch):
        # INTRA and INTER columns share one trial path: without references,
        # with them, and with every trial copied from the record
        calls = []

        def recording(pred, orig, step):
            calls.append(len(pred))
            return code_against_prediction(pred, orig, step)

        monkeypatch.setattr("fvstream.codec.code_against_prediction",
                            recording)
        p = rand_plane((32, 32), seed=86)
        cfg, record = CodecConfig(10, 2, 8), TrialRecord()
        for refs in ([], [p], [p, p], [p, p]):
            before = len(calls)
            build_inter_candidates(p, refs, cfg, record)
            assert len(calls) == before + 1
        assert calls[0] == 4 and calls[-1] == 0

    def test_an_intra_predictor_equal_to_an_inter_one_shares_its_trial(
            self, monkeypatch):
        # a flat reference at the block's base level predicts what INTRA
        # does: one trial serves the INTER and the INTRA column, and each
        # keeps its own header bits
        calls = []

        def recording(pred, orig, step):
            calls.append(len(pred))
            return code_against_prediction(pred, orig, step)

        monkeypatch.setattr("fvstream.codec.code_against_prediction",
                            recording)
        noise = np.random.default_rng(87).integers(-9, 10, (16, 16))
        cur = (100 + np.concatenate([noise, -noise], axis=1)).astype(np.uint8)
        ref = np.full((16, 32), 100, dtype=np.uint8)
        cfg = CodecConfig(7, 2, 8)
        cset = build_inter_candidates(cur, [ref], cfg)
        assert (cset.mv[:, 1:3] == 0).all() and (cset.mv[:, 3, 0] == 100).all()
        assert calls == [2]
        for name in ("coeffs", "recon", "distortion"):
            col = getattr(cset, name)
            assert np.array_equal(col[:, 1], col[:, 3]), name
        rbits = cset.bits[:, 3] - MODE_BITS - INTRA_BASE_BITS
        assert (cset.bits[:, 1] == MODE_BITS + 1 + 2 + rbits).all()
        assert (rbits > 0).all()
        want = oracles.oracle_inter_candidates(cur, [ref], cfg)
        for f in dataclasses.fields(cset):
            assert np.array_equal(getattr(cset, f.name), getattr(want, f.name))

    @given(hb=st.integers(1, 3), wb=st.integers(1, 3),
           kinds=st.lists(st.sampled_from(["static", "moving", "partly",
                                           "fresh"]), min_size=2, max_size=6),
           noisy_refs=st.booleans(), window=st.integers(1, 4),
           step=st.integers(1, 11), search_range=st.integers(1, 3),
           leftover=st.sampled_from([None, "shape", "step"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150)
    def test_a_record_builds_what_fresh_builds_do(
            self, hb, wb, kinds, noisy_refs, window, step, search_range,
            leftover, seed):
        # a sequence of one plane, built frame by frame against one record
        # and fresh: every block either stands still, moves, changes in
        # part or is new; the references are the earlier sources (slightly
        # damaged, like reconstructions) in a window that grows from 0, or
        # from 1 after a record left by a build of another shape or step
        rng = np.random.default_rng(seed)
        shape = (16 * hb, 16 * wb)
        frames = [rng.integers(0, 256, shape).astype(np.uint8)]
        for kind in kinds[1:]:
            cur = frames[-1].copy()
            for m, block_kind in enumerate(rng.choice(
                    ["static", kind], hb * wb)):
                rows = slice((m // wb) * 16, (m // wb) * 16 + 16)
                cols = slice((m % wb) * 16, (m % wb) * 16 + 16)
                if block_kind == "moving":
                    cur[rows, cols] = np.roll(frames[-1], rng.integers(
                        -2, 3, 2), axis=(0, 1))[rows, cols]
                elif block_kind == "partly":
                    cur[rows, cols][rng.random((16, 16)) < 0.1] = 0
                elif block_kind == "fresh":
                    cur[rows, cols] = rng.integers(0, 256, (16, 16))
            frames.append(cur)
        recon = [np.where(rng.random(shape) < 0.02, 255, f).astype(np.uint8)
                 if noisy_refs else f for f in frames]
        cfg = CodecConfig(step, search_range, window)
        record = TrialRecord()
        if leftover == "shape":
            taller = np.concatenate([frames[0], frames[0][:16]])
            build_inter_candidates(taller, [taller], cfg, record)
        elif leftover == "step":
            build_inter_candidates(frames[1], recon[:1],
                                   CodecConfig(step + 1, search_range, window),
                                   record)
        for t, cur in enumerate(frames):
            if leftover and t == 0:
                continue
            refs = recon[max(t - window, 0):t][::-1]
            got = build_inter_candidates(cur, refs, cfg, record)
            want = build_inter_candidates(cur, refs, cfg)
            for f in dataclasses.fields(got):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if f.name == "quant_step":
                    assert a == b
                else:
                    assert a.dtype == b.dtype and np.array_equal(a, b), f.name

    def test_fingerprint_collisions_are_caught_by_the_word_compare(
            self, monkeypatch):
        # with every fingerprint equal, each match is a word compare alone
        monkeypatch.setattr("fvstream.codec._FINGERPRINT",
                            np.zeros(32, dtype=np.uint64))
        p = rand_plane((32, 48), seed=84)
        cur = p.copy()
        cur[:16] = rand_plane((16, 48), seed=85)
        refs = [p, np.roll(p, 2, axis=1), p]
        cfg, record = CodecConfig(7, 3, 8), TrialRecord()
        for cur_t in (p, cur, cur):
            got = build_inter_candidates(cur_t, refs, cfg, record)
            want = oracles.oracle_inter_candidates(cur_t, refs, cfg)
            for f in dataclasses.fields(got):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert np.array_equal(a, b), f.name

    @pytest.mark.parametrize("cur_shape, cur_dtype, ref_shapes, ref_dtype, "
                             "named", [
        ((32, 32), np.uint8, [(32, 48)], np.uint8, "reference at distance 1"),
        ((32, 32), np.uint8, [(32, 32)], np.float64, "reference at distance 1"),
        ((32, 32), np.float64, [(32, 32)], np.uint8, "source plane"),
        ((32, 32), np.uint8, [(32, 32), (48, 32)], np.uint8, "reference at distance 2"),
        ((30, 32), np.uint8, [], np.uint8, "multiple of 16"),
        ((0, 32), np.uint8, [], np.uint8, "multiple of 16"),
        ((32, 32, 1), np.uint8, [], np.uint8, "multiple of 16")])
    def test_builds_reject_malformed_planes(self, cur_shape, cur_dtype,
                                            ref_shapes, ref_dtype, named):
        cur = np.full(cur_shape, 100).astype(cur_dtype)
        refs = [np.full(s, 90).astype(ref_dtype) for s in ref_shapes]
        with pytest.raises(CodecError, match=named):
            build_inter_candidates(cur, refs, CodecConfig(10, 2, 8),
                                   TrialRecord())

    def test_candidate_search_single_block_view(self):
        plane = rand_plane((32, 32), seed=71)
        refs = [rand_plane((32, 32), seed=72)]
        cfg = CodecConfig(10, 2, 8)
        cands = oracles.candidate_search(plane, 2, refs, cfg)
        assert len(cands) == 4  # skip, two inter, intra
        assert cands[0]["decision"].mode == MODE_SKIP
        assert cands[-1]["decision"].mode == MODE_INTRA
        cset = build_inter_candidates(plane, refs, cfg)
        for c in range(4):
            assert cands[c]["bits"] == int(cset.bits[2, c])
            assert np.array_equal(cands[c]["recon"], cset.recon[2, c])

    def test_decision_validation(self):
        refs = [rand_plane((16, 16), seed=54)]
        for mode, ref_dist, mv in ((7, 0, (0, 0)), (MODE_INTER, 0, (0, 0)),
                                   (MODE_INTRA, 0, (300, 0))):
            enc = one_block_plane(mode, ref_dist, mv)
            with pytest.raises(CodecError):
                decode_plane(enc, refs, None, np.ones(1, dtype=bool))
            # the record of a lost block is never read
            out, concealed = decode_plane(enc, refs, None,
                                          np.zeros(1, dtype=bool))
            assert (out == 128).all() and concealed.tolist() == [True]


class TestDecode:
    def test_conceal_copies_previous_or_fills_gray(self):
        prev = rand_plane((32, 32), seed=81)
        enc = EncodedPlane(modes=np.full(4, MODE_SKIP, dtype=np.uint8),
                           ref_dist=np.ones(4, dtype=np.uint8),
                           mv=np.zeros((4, 2), dtype=np.int16),
                           coeffs=np.zeros((4, 16, 16), dtype=np.int32),
                           quant_step=10, grid=(2, 2))
        lost = np.zeros(4, dtype=bool)
        got, _ = decode_plane(enc, [], prev, lost)
        assert np.array_equal(got[16:32, 0:16], prev[16:32, 0:16])
        assert np.array_equal(got, prev)
        got, _ = decode_plane(enc, [], None, lost)
        assert (got == 128).all()

    @pytest.mark.parametrize("refs, conceal, named", [
        ([np.zeros((32, 32), np.uint8)], None, "reference at distance 1"),
        ([np.zeros((16, 16))], None, "reference at distance 1"),
        ([], np.zeros((32, 32), np.uint8), "concealment source"),
        ([], np.zeros((16, 16), np.int16), "concealment source")])
    def test_decode_rejects_planes_of_another_size_or_type(self, refs, conceal,
                                                           named):
        enc = one_block_plane(MODE_SKIP, 1, (0, 0))
        with pytest.raises(CodecError, match=named):
            decode_plane(enc, refs, conceal, np.zeros(1, dtype=bool))

    def test_reconstruct_validates_reference_depth_and_mv(self):
        refs = [np.zeros((16, 16), dtype=np.uint8)]
        for ref_dist, mv in ((2, (0, 0)), (1, (1, 0))):
            enc = one_block_plane(MODE_INTER, ref_dist, mv)
            with pytest.raises(CodecError):
                decode_plane(enc, refs, None, np.ones(1, dtype=bool))
            out, _ = decode_plane(enc, refs, None, np.zeros(1, dtype=bool))
            assert (out == 128).all()

    def test_decode_reconstructs_received_and_conceals_lost(self):
        plane = rand_plane((32, 32), seed=91)
        ref = rand_plane((32, 32), seed=92)
        cset = build_inter_candidates(plane, [ref], CodecConfig(10, 2, 8))
        # choose the best-motion candidate everywhere
        enc = EncodedPlane(
            modes=np.full(4, MODE_INTER, dtype=np.uint8),
            ref_dist=np.ones(4, dtype=np.uint8),
            mv=cset.mv[:, 2].astype(np.int16),
            coeffs=cset.coeffs[:, 2],
            quant_step=10, grid=(2, 2))
        received = np.array([True, False, True, True])
        prev = rand_plane((32, 32), seed=93)
        out, concealed = decode_plane(enc, [ref], prev, received)
        assert concealed.tolist() == [False, True, False, False]
        blocks = plane_blocks(out)
        assert np.array_equal(blocks[0], cset.recon[0, 2])
        assert np.array_equal(blocks[1], plane_blocks(prev)[1])

    def test_decode_without_history_fills_gray(self):
        plane = rand_plane((32, 32), seed=94)
        intra = build_inter_candidates(plane, [], CodecConfig(10, 2, 8))
        rec = intra.recon[:, 0]
        enc = EncodedPlane(modes=np.full(4, MODE_INTRA, dtype=np.uint8),
                           ref_dist=np.zeros(4, dtype=np.uint8),
                           mv=intra.mv[:, 0], coeffs=intra.coeffs[:, 0],
                           quant_step=10, grid=(2, 2))
        out, concealed = decode_plane(enc, [], None,
                                      np.array([True, True, False, True]))
        assert (plane_blocks(out)[2] == 128).all()
        assert np.array_equal(plane_blocks(out)[0], rec[0])


    @settings(max_examples=300)
    @given(hb=st.integers(1, 3), wb=st.integers(1, 3), n_refs=st.integers(0, 3),
           step=st.integers(1, 11), malformed=st.booleans(),
           with_source=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(hb=1, wb=2, n_refs=0, step=10, malformed=False, with_source=False,
             seed=0)
    def test_batched_decode_matches_the_block_oracle(self, hb, wb, n_refs, step,
                                                     malformed, with_source,
                                                     seed):
        rng = np.random.default_rng(seed)
        n_mb = hb * wb
        shape = (16 * hb, 16 * wb)
        refs = [rng.integers(0, 256, shape).astype(np.uint8)
                for _ in range(n_refs)]
        source = rng.integers(0, 256, shape).astype(np.uint8) if with_source else None
        modes = rng.integers(0, 3, n_mb)
        ref_dist = rng.integers(1, max(n_refs, 1) + 1, n_mb)
        mv = np.zeros((n_mb, 2), dtype=np.int64)
        for m in range(n_mb):
            top, left = (m // wb) * 16, (m % wb) * 16
            if modes[m] == MODE_INTRA:
                mv[m, 0] = rng.integers(0, 256)
                ref_dist[m] = 0
            elif modes[m] == MODE_INTER:       # predictor inside the frame
                mv[m] = (rng.integers(left - shape[1] + 16, left + 1),
                         rng.integers(top - shape[0] + 16, top + 1))
        if malformed:
            # corrupt a few fields: unknown modes, references past the
            # buffer, skip motion, out-of-frame vectors, base levels past
            # 8 bits, and intra records that name a reference
            for m in rng.choice(n_mb, rng.integers(1, n_mb + 1), replace=False):
                field = rng.integers(0, 4)
                if field == 0:
                    modes[m] = rng.integers(3, 256)
                elif field == 1:
                    ref_dist[m] = rng.integers(0, 6)
                else:
                    mv[m, field - 2] = rng.integers(-300, 300)
        coeffs = np.where(rng.random((n_mb, 16, 16)) < 0.1,
                          rng.integers(-40, 41, (n_mb, 16, 16)), 0)
        enc = EncodedPlane(modes=modes.astype(np.uint8),
                           ref_dist=ref_dist.astype(np.uint8),
                           mv=mv.astype(np.int16),
                           coeffs=coeffs.astype(np.int32), quant_step=step,
                           grid=(hb, wb))
        received = rng.random(n_mb) < 0.7
        try:
            want = oracles.oracle_decode_plane(enc, refs, source, received)
        except CodecError:
            with pytest.raises(CodecError):
                decode_plane(enc, refs, source, received)
            return
        got = decode_plane(enc, refs, source, received)
        assert got[0].dtype == np.uint8 and got[0].shape == shape
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


class TestContainer:
    def _all_intra(self, plane, step=10):
        intra = build_inter_candidates(plane, [], CodecConfig(step, 2, 8))
        n_mb = plane.size // 256
        return EncodedPlane(modes=np.full(n_mb, MODE_INTRA, dtype=np.uint8),
                            ref_dist=np.zeros(n_mb, dtype=np.uint8),
                            mv=intra.mv[:, 0], coeffs=intra.coeffs[:, 0],
                            quant_step=step, grid=(plane.shape[0] // 16,
                                                   plane.shape[1] // 16))

    def _frame(self, seed):
        return {(v, c): self._all_intra(rand_plane((32, 32), seed + 10 * v + i),
                                        step=2 if c is Component.DEPTH else 10)
                for i, (v, c) in enumerate(
                    ((0, Component.TEXTURE), (0, Component.DEPTH),
                     (1, Component.TEXTURE), (1, Component.DEPTH)))}

    def test_round_trip_bit_exact(self):
        frames = [self._frame(100), self._frame(200)]
        blob = serialize_stream(32, 32, 10, frames, 2)
        w, h, step, back = parse_stream(blob)
        assert (w, h, step) == (32, 32, 10)
        assert len(back) == 2
        for f0, f1 in zip(frames, back):
            for key in f0:
                assert np.array_equal(f0[key].modes, f1[key].modes)
                assert np.array_equal(f0[key].mv, f1[key].mv)
                assert np.array_equal(f0[key].coeffs, f1[key].coeffs)
                assert f0[key].quant_step == f1[key].quant_step

    def test_skip_blocks_carry_no_coefficients(self):
        frame = self._frame(300)
        plain = len(serialize_stream(32, 32, 10, [frame], 2))
        enc = frame[(0, Component.TEXTURE)]
        enc.modes[:] = MODE_SKIP
        enc.ref_dist[:] = 1
        enc.mv[:] = 0
        skipped = len(serialize_stream(32, 32, 10, [frame], 2))
        assert plain - skipped == 4 * 512

    def test_bad_magic_version_and_trailing_bytes(self):
        blob = serialize_stream(32, 32, 10, [self._frame(400)], 2)
        with pytest.raises(CodecError):
            parse_stream(b"XXXX" + blob[4:])
        bad_version = blob[:4] + bytes([99]) + blob[5:]
        with pytest.raises(CodecError):
            parse_stream(bad_version)
        with pytest.raises(CodecError):
            parse_stream(blob + b"\x00")

    def test_cut_or_corrupt_streams_raise_codec_error(self):
        blob = serialize_stream(32, 32, 10, [self._frame(410)], 2)
        header = 4 + 11
        bad_mode = bytearray(blob)
        bad_mode[header] = 7
        cases = [blob[:n] for n in (5, 14, 20, header + 6 + 100, len(blob) - 3)]
        cases.append(bytes(bad_mode))
        for width, height in ((0, 32), (40, 32), (32, 0), (32, 8)):
            cases.append(blob[:5] + width.to_bytes(2, "little")
                         + height.to_bytes(2, "little") + blob[9:])
        # a quantizer step of 0 in the header would zero every residual
        cases += [blob[:11] + bytes(2) + blob[13:], blob[:13] + bytes(2) + blob[15:]]
        for data in cases:
            with pytest.raises(CodecError) as info:
                parse_stream(data)
            assert "\n" not in str(info.value)

    @given(cut=st.integers(0, 4 + 11 + 16 * 518),
           edits=st.lists(st.tuples(st.integers(0, 4 + 11 + 16 * 518 - 1),
                                    st.integers(0, 255)), max_size=4))
    def test_any_damaged_stream_parses_or_raises_codec_error(self, cut, edits):
        data = bytearray(serialize_stream(32, 32, 10, [self._frame(420)], 2))
        for pos, value in edits:
            data[pos] = value
        try:
            parse_stream(bytes(data[:cut]))
        except CodecError as exc:
            assert "\n" not in str(exc)

    @given(cut=st.one_of(st.none(), st.integers(0, 2 ** 20)),
           edits=st.lists(st.tuples(st.integers(0, 2 ** 20), st.integers(0, 255)),
                          max_size=4),
           lost_edits=st.lists(st.tuples(
               st.integers(0, 7), st.integers(0, 3), st.integers(0, 3),
               st.sampled_from(["modes", "ref_dist", "mvx", "mvy", "coeffs"]),
               st.integers(-32768, 32767)), max_size=8))
    @example(cut=None, edits=[], lost_edits=[(3, 0, 0, "mvx", 30000)])
    def test_any_damaged_stream_decodes_or_raises_codec_error(
            self, lossy_micro_stream, cut, edits, lost_edits):
        # byte edits reach the parser and the records of received blocks;
        # the records of lost blocks get arbitrary values after parsing
        cfg, stream, blob, trace = lossy_micro_stream
        data = bytearray(blob)
        for pos, value in edits:
            data[pos % len(data)] = value
        if cut is not None:
            data = data[:cut % (len(data) + 1)]
        try:
            _, _, _, frames = parse_stream(bytes(data))
            for t, plane, m, name, value in lost_edits:
                key = PLANE_ORDER[plane]
                if t >= len(frames) or not lost_mb_mask(trace, t, *key,
                                                         4)[m]:
                    continue
                enc = frames[t][key]
                if name == "mvx":
                    enc.mv[m, 0] = value
                elif name == "mvy":
                    enc.mv[m, 1] = value
                elif name == "coeffs":
                    enc.coeffs[m] = value
                else:
                    getattr(enc, name)[m] = value % 256
            decode_stream(cfg, dataclasses.replace(stream, frames=frames), trace)
        except CodecError as exc:
            assert "\n" not in str(exc)

    def test_decode_stream_rejects_planes_of_another_size(self,
                                                         lossy_micro_stream):
        # 16x64 holds the same 4 blocks as the scene's 32x32, so the stream
        # parses; zero motion keeps every predictor inside the frame
        cfg, stream, blob, trace = lossy_micro_stream
        data = bytearray(blob)
        data[5:9] = (16).to_bytes(2, "little") + (64).to_bytes(2, "little")
        _, _, _, frames = parse_stream(bytes(data))
        for frame in frames:
            for enc in frame.values():
                enc.mv[enc.modes != MODE_INTRA] = 0
        with pytest.raises(CodecError):
            decode_stream(cfg, dataclasses.replace(stream, frames=frames), trace)

    @pytest.mark.parametrize("field, value", [("coeffs", 40000),
                                              ("coeffs", -32769),
                                              ("mv", 32768), ("mv", -40000),
                                              ("modes", 256), ("modes", -1),
                                              ("ref_dist", 300)])
    def test_serialize_refuses_values_the_container_cannot_hold(self, field,
                                                                value):
        frame = self._frame(430)
        enc = frame[(1, Component.DEPTH)]
        wide = getattr(enc, field).astype(np.int64)
        wide.flat[1] = value
        setattr(enc, field, wide)
        with pytest.raises(CodecError, match="outside"):
            serialize_stream(32, 32, 10, [frame], 2)

    @pytest.mark.parametrize("field, args", [
        ("width", dict(width=65536)), ("height", dict(height=-16)),
        ("frame_count", dict(frames=65536)), ("quant_step", dict(step=70000)),
        ("depth_step", dict(depth_step=65536))])
    def test_serialize_refuses_header_fields_past_u16(self, field, args):
        frame = self._frame(440)
        kw = dict(width=32, height=32, step=10, frames=1, depth_step=2) | args
        with pytest.raises(CodecError, match=f"^{field} "):
            serialize_stream(kw["width"], kw["height"], kw["step"],
                             [frame] * kw["frames"], kw["depth_step"])

    def test_serialize_refuses_planes_coded_at_another_step(self):
        # the header carries one step per component, and the parser gives
        # it to every plane of that component
        frames = [self._frame(450), self._frame(460)]
        frames[1][(1, Component.DEPTH)].quant_step = 7
        with pytest.raises(CodecError, match="frame 1 view 1 depth"):
            serialize_stream(32, 32, 10, frames, 2)
        with pytest.raises(CodecError, match="frame 0 view 0 texture"):
            serialize_stream(32, 32, 7, frames[:1], 2)

    def test_decoded_stream_matches_encoder_reconstruction(self):
        """Lossless channel: decode of the parsed container equals the
        encoder-side reconstruction everywhere."""
        plane0 = rand_plane((32, 32), seed=500)
        plane1 = rand_plane((32, 32), seed=501)
        enc0 = self._all_intra(plane0)
        ref0, _ = decode_plane(enc0, [], None, np.ones(4, dtype=bool))
        cset = build_inter_candidates(plane1, [ref0], CodecConfig(10, 2, 8))
        enc1 = EncodedPlane(modes=np.full(4, MODE_INTER, dtype=np.uint8),
                            ref_dist=np.ones(4, dtype=np.uint8),
                            mv=cset.mv[:, 2].astype(np.int16),
                            coeffs=cset.coeffs[:, 2], quant_step=10,
                            grid=(2, 2))
        keys = list(self._frame(0))
        frames = [{k: enc0 for k in keys}, {k: enc1 for k in keys}]
        blob = serialize_stream(32, 32, 10, frames, 10)
        _, _, _, back = parse_stream(blob)
        d0, _ = decode_plane(back[0][(0, Component.TEXTURE)], [], None,
                             np.ones(4, dtype=bool))
        d1, _ = decode_plane(back[1][(0, Component.TEXTURE)], [d0], d0,
                             np.ones(4, dtype=bool))
        assert np.array_equal(d0, ref0)
        assert np.array_equal(plane_blocks(d1), cset.recon[:, 2])

    def test_coefficients_are_int16_from_candidates_to_container(
            self, micro_scene):
        # the candidates of frame 3, the encoded stream and the parsed
        # container hold one coefficient type with equal values
        cfg = ExperimentConfig(scene=micro_scene.spec, setups=("arps",),
                               loss_rates=(0.2,), seeds=(5,), rtt=2)
        orig = pipeline._plane_lists(micro_scene.left, micro_scene.right)
        stream = pipeline.encode_stream(cfg, orig, "cross",
                                        cfg.loss_trace(5, 0.2))
        blob = serialize_stream(32, 32, cfg.quant_step, stream.frames,
                                cfg.depth_quant_step)
        _, _, _, back = parse_stream(blob)
        for key in PLANE_ORDER:
            recon = stream.recon[key]
            cset = build_inter_candidates(orig[key][3], recon[2::-1],
                                          cfg.codecs[key[1]])
            chosen = stream.records[3][key].chosen_col
            assert cset.coeffs.dtype == np.int16
            assert np.array_equal(cset.coeffs[np.arange(4), chosen],
                                  stream.frames[3][key].coeffs)
            for t, frame in enumerate(stream.frames):
                enc, got = frame[key], back[t][key]
                assert enc.coeffs.dtype == got.coeffs.dtype == np.int16
                assert np.array_equal(enc.coeffs, got.coeffs)


class TestCodecConfig:
    def test_defaults_and_validation(self):
        # no defaults: every caller states all three, as ExperimentConfig does
        with pytest.raises(TypeError):
            CodecConfig()
        cfg = CodecConfig(10, 16, 8)
        assert cfg.quant_step == 10
        with pytest.raises(CodecError):
            CodecConfig(0, 16, 8)
        with pytest.raises(CodecError):
            CodecConfig(10, 0, 8)
        with pytest.raises(CodecError):
            CodecConfig(10, 16, 0)
