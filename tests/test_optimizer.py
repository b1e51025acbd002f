"""Candidate costing, per-block selection, taint bookkeeping and rate control."""
import multiprocessing
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvstream.channel import Component, build_schedule, make_iid_trace
from fvstream.codec import (MODE_INTER, MODE_INTRA, MODE_SKIP, PLANE_ORDER,
                            CandidateSet, CodecConfig, build_inter_candidates,
                            build_intra_candidates, decode_plane)
from fvstream.errortrack import (ExpectedErrorTracker, expected_errors,
                                 innovation_term)
from fvstream.optimizer import (PlaneCandidates, ReactiveTaint,
                                build_plane_candidates, cross_cap,
                                opposing_cap, select_plane, step1_minimum,
                                tune_to_band)
from fvstream import pipeline
from fvstream.pipeline import ExperimentConfig, HarnessError, encode_stream
from fvstream.sensitivity import g_eval
from fvstream.synthesis import CorrespondenceSets

import oracles


def crafted_candidates(chan, distortion=None, bits=None):
    """A PlaneCandidates with hand-picked numbers, INTRA in the last column.

    The motion columns carry the given distortion and bits (zero and one by
    default) and inert coding payloads; the INTRA column codes a flat 100
    plane of n_mb blocks.
    """
    chan = np.asarray(chan, dtype=np.float64)
    n_mb, n_cand = chan.shape
    flat = np.full((16, 16 * n_mb), 100, dtype=np.uint8)
    q, rec, ibits, idist, base = build_intra_candidates(flat, 10)
    all_dist = np.zeros((n_mb, n_cand))
    all_bits = np.ones((n_mb, n_cand), dtype=np.int64)
    if distortion is not None:
        all_dist[:, :-1] = distortion
    if bits is not None:
        all_bits[:, :-1] = bits
    all_dist[:, -1], all_bits[:, -1] = idist, ibits
    mv = np.zeros((n_mb, n_cand, 2), dtype=np.int16)
    mv[:, -1, 0] = base
    recon = np.zeros((n_mb, n_cand, 16, 16), dtype=np.uint8)
    recon[:, -1] = rec
    coeffs = np.zeros((n_mb, n_cand, 16, 16), dtype=np.int32)
    coeffs[:, -1] = q
    cset = CandidateSet(
        mode_col=np.array([MODE_INTER] * (n_cand - 1) + [MODE_INTRA],
                          dtype=np.uint8),
        ref_col=np.array([1] * (n_cand - 1) + [0], dtype=np.int16),
        mv=mv, bits=all_bits, distortion=all_dist, recon=recon,
        coeffs=coeffs, quant_step=10)
    return PlaneCandidates(cset=cset, chan=chan)


def intra_frame(plane, step):
    """Code a plane as the encoder codes frame 0: its INTRA-only candidate
    set, selected with no channel term."""
    cset = build_inter_candidates(plane, [], CodecConfig(step, 16, 8))
    zeros = np.zeros((cset.mv.shape[0], 1))
    return select_plane(plane, PlaneCandidates(cset=cset, chan=zeros), zeros,
                        0.0)


def drifting_planes(seed, n_frames=4, h=32, w=32):
    rng = np.random.default_rng(seed)
    base = rng.integers(30, 220, (h // 4, w // 4)).astype(np.float64)
    smooth = np.kron(base, np.ones((4, 4)))
    frames = []
    for t in range(n_frames):
        shifted = np.roll(smooth, t, axis=1)
        noise = rng.integers(-3, 4, (h, w))
        frames.append(np.clip(shifted + noise, 0, 255).astype(np.uint8))
    return frames


def channel_columns(chan, mode, curvature=None, member=None, fixed=None,
                    cap=None):
    """A plane's channel columns as EncoderState.plan builds them: texture
    when curvature is None, depth otherwise."""
    cols = (np.asarray(chan) if curvature is None
            else g_eval(np.asarray(curvature)[:, None], chan))
    return cols if mode == "independent" else cross_cap(cols, fixed, cap,
                                                        member)


class TestChannelColumns:
    CHAN = [[5.5, 2.0, 0.8], [1.0, 4.0, 0.2]]

    def test_independent_texture_is_the_expected_error(self, replay_setup):
        # the plan hands the candidates' expected errors on unchanged
        cfg, orig, trace = replay_setup
        state = pipeline.EncoderState(cfg, orig, "independent", trace)
        stream = encode_stream(cfg, orig, "independent", trace)
        for t in range(3):
            state.learn(t)
            if t:
                plan = state.plan(t)
                for v in (0, 1):
                    key = (v, Component.TEXTURE)
                    assert np.array_equal(plan.cols[key], plan.pcs[key].chan)
            state.commit(t, stream.frames[t],
                         {key: stream.recon[key][t] for key in PLANE_ORDER})

    @pytest.mark.example
    def test_independent_depth_applies_the_quadratic_penalty(self):
        # curvature 2 and expected disparity error 3 cost 9
        cols = channel_columns([[3.0, 0.0]], "independent", [2.0])
        assert cols[0].tolist() == [9.0, 0.0]

    @pytest.mark.example
    def test_cross_texture_adds_the_fixed_depth_penalty_then_caps(self):
        # 5.5 + g(2, 3) = 14.5, capped at 12 when the opposing view is better
        chan = np.array([[5.5, 20.0]])
        gfix = np.array([g_eval(2.0, 3.0)])
        member = np.array([True])
        tight = cross_cap(chan, gfix, np.array([12.0]), member)
        loose = cross_cap(chan, gfix, np.array([100.0]), member)
        assert tight[0].tolist() == [12.0, 12.0]
        assert loose[0].tolist() == [14.5, 29.0]

    def test_cross_leaves_nonmembers_untouched(self):
        cols = cross_cap(np.array(self.CHAN), np.array([50.0, 0.5]),
                         np.array([np.inf, 2.2]), np.array([False, True]))
        assert cols[0].tolist() == [5.5, 2.0, 0.8]
        assert cols[1].tolist() == [1.5, 2.2, 0.7]

    def test_cross_depth_swaps_in_the_fixed_texture_error(self):
        cols = channel_columns([[1.0, 2.0, 0.0]], "cross", [2.0],
                               member=np.array([True]),
                               fixed=np.array([3.0]), cap=np.array([6.5]))
        # 3 + g(2, eps): eps 1 -> 4, eps 2 -> 7 capped, eps 0 -> 3
        assert cols[0].tolist() == [4.0, 6.5, 3.0]

    def test_unknown_mode_is_rejected(self, replay_setup):
        # the selection mode is decided in one place, the encoder's state
        cfg, orig, trace = replay_setup
        for mode in ("both", "standard", "Cross"):
            with pytest.raises(HarnessError):
                pipeline.EncoderState(cfg, orig, mode, trace)

    @given(st.integers(0, 10 ** 6), st.sampled_from(["independent", "cross"]))
    @settings(max_examples=40)
    def test_matches_scalar_oracles(self, seed, mode):
        rng = np.random.default_rng(seed)
        n_mb, n_cand = 6, 4
        chan = np.empty((n_mb, n_cand + 1))
        chan[:, :-1] = rng.uniform(0, 30, (n_mb, n_cand))
        chan[:, -1] = rng.uniform(0, 10, n_mb)
        member = rng.random(n_mb) < 0.5
        pen = rng.uniform(0, 8, n_mb)
        cap = np.where(member, rng.uniform(0, 40, n_mb), np.inf)
        curv = rng.uniform(0, 5, n_mb)
        efix = rng.uniform(0, 20, n_mb)
        tex = channel_columns(chan, mode, member=member, fixed=pen, cap=cap)
        want_t = oracles.oracle_texture_columns(chan, mode, member, pen, cap)
        assert np.array_equal(tex, np.asarray(want_t))
        dep = channel_columns(chan, mode, curv, member=member, fixed=efix,
                              cap=cap)
        want_d = oracles.oracle_depth_columns(chan, mode, curv, member, efix,
                                              cap)
        assert np.array_equal(dep, np.asarray(want_d))


class TestOpposingCap:
    @pytest.mark.example
    def test_worst_covering_block_plus_innovation(self):
        # the pair of non-member block 1 must not count
        corr = CorrespondenceSets(member=np.array([True, False]),
                                  src=np.array([0, 0, 1]),
                                  tgt=np.array([0, 1, 1]))
        cap = opposing_cap(corr, np.array([3.0, 7.0]), np.array([1.0, 2.0]),
                           np.array([0.5, 0.9]))
        assert cap[0] == 9.5
        assert np.isinf(cap[1])

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30)
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_mb = 6
        member = rng.random(n_mb) < 0.7
        # non-members may be linked too (below half coverage); their
        # pairs must be ignored
        covering = [np.sort(rng.choice(n_mb, rng.integers(1, 4), replace=False))
                    for _ in range(n_mb)]
        src = np.concatenate([np.full(len(ks), m)
                              for m, ks in enumerate(covering)])
        corr = CorrespondenceSets(member=member, src=src,
                                  tgt=np.concatenate(covering))
        err = rng.uniform(0, 20, n_mb)
        pen = rng.uniform(0, 10, n_mb)
        delta = rng.uniform(0, 5, n_mb)
        got = opposing_cap(corr, err, pen, delta)
        want = oracles.oracle_opposing_cap(member, covering, err, pen, delta)
        assert got.tolist() == want

    def test_step1_takes_the_minimum_over_motion_columns(self):
        # ties take their shared value; the INTRA column never counts
        pc = crafted_candidates(chan=[[4.0, 1.0, 1.0, 0.0],
                                      [2.0, 2.0, 5.0, 0.0]])
        assert step1_minimum(pc).tolist() == [1.0, 2.0]


class TestSelectPlane:
    ORIG = np.full((16, 16), 100, dtype=np.uint8)

    def _pick(self, lam, chan=(5.0, 3.0), dist=(4.0, 2.0), bits=(10, 20)):
        pc = crafted_candidates(chan=[[*chan, 7.0]], distortion=[list(dist)],
                                bits=[list(bits)])
        cols = pc.chan
        valid = np.array([[True, True, False]])     # keep the arithmetic crafted
        return select_plane(self.ORIG, pc, cols, lam, valid=valid)

    @pytest.mark.example
    def test_lagrangian_tradeoff(self):
        # (4+5) + 0.3*10 = 12 loses to (2+3) + 0.3*20 = 11
        sel = self._pick(0.3)
        assert sel.chosen_col[0] == 1
        assert sel.cost[0] == 11.0
        assert sel.bits[0] == 20

    @pytest.mark.example
    def test_equal_cost_keeps_the_first_column(self):
        # both columns cost 13 at lambda 0.4
        sel = self._pick(0.4)
        assert sel.chosen_col[0] == 0
        assert sel.cost[0] == 13.0

    def test_zero_lambda_ignores_rate(self):
        sel = self._pick(0.0)
        assert sel.chosen_col[0] == 1
        assert sel.cost[0] == 5.0

    def test_all_motion_disabled_forces_intra(self):
        pc = crafted_candidates(chan=[[0.0, 0.0, 0.0]])
        cols = pc.chan
        valid = np.array([[False, False, True]])
        sel = select_plane(self.ORIG, pc, cols, 0.01, valid=valid)
        assert sel.chosen_col[0] == 2
        assert sel.enc.modes[0] == MODE_INTRA
        assert sel.enc.mv[0, 0] == 100      # flat plane: base level rides along
        assert (sel.recon == 100).all()

    def test_huge_lambda_or_tiny_lambda_hits_the_extremes(self):
        frames = drifting_planes(3)
        cfg = CodecConfig(quant_step=10, search_range=4, ref_window=3)
        cset = build_inter_candidates(frames[3], frames[:3][::-1], cfg)
        pc = PlaneCandidates(cset=cset, chan=np.zeros(cset.mv.shape[:2]))
        cols = pc.chan
        heavy = select_plane(frames[3], pc, cols, 1.0e12)
        assert np.array_equal(heavy.bits, cset.bits.min(axis=1))
        light = select_plane(frames[3], pc, cols, 0.0)
        assert np.array_equal(light.dsrc, cset.distortion.min(axis=1))

    def test_bits_nonincreasing_in_lambda(self):
        frames = drifting_planes(7)
        cfg = CodecConfig(quant_step=10, search_range=4, ref_window=3)
        cset = build_inter_candidates(frames[3], frames[:3][::-1], cfg)
        pc = PlaneCandidates(cset=cset, chan=np.zeros(cset.mv.shape[:2]))
        cols = pc.chan
        lams = [0.0, 0.002, 0.01, 0.05, 0.25, 1.0, 10.0, 1.0e6]
        totals = [select_plane(frames[3], pc, cols, lam).total_bits
                  for lam in lams]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30)
    def test_matches_the_selection_oracle(self, seed):
        rng = np.random.default_rng(seed)
        frames = drifting_planes(seed % 1000, n_frames=3)
        cfg = CodecConfig(quant_step=10, search_range=3, ref_window=2)
        cset = build_inter_candidates(frames[2], [frames[1], frames[0]], cfg)
        n_mb, n_cand = cset.mv.shape[:2]
        chan = np.empty((n_mb, n_cand))
        chan[:, :-1] = rng.uniform(0, 20, (n_mb, n_cand - 1))
        chan[:, -1] = rng.uniform(0, 20, n_mb)
        pc = PlaneCandidates(cset=cset, chan=chan)
        cols = pc.chan
        valid = rng.random((n_mb, n_cand)) < 0.8
        valid[:, -1] = True                 # INTRA stays available
        lam = float(rng.uniform(0.0, 0.1))
        sel = select_plane(frames[2], pc, cols, lam, valid=valid)
        chosen, costs = oracles.oracle_select(cset.distortion, cols, cset.bits,
                                              lam, valid)
        assert sel.chosen_col.tolist() == chosen
        assert sel.cost.tolist() == costs

    def test_planned_full_delivery_zeroes_every_channel_column(self):
        frames = drifting_planes(9, n_frames=3)
        grid = (2, 2)
        tr = ExpectedErrorTracker(grid, planned_receive_prob=1.0, gamma=0.9)
        enc0 = intra_frame(frames[0], 10).enc
        tr.push_frame(enc0.modes, enc0.ref_dist, enc0.mv,
                      innovation_term(frames[0], None))
        cfg = CodecConfig(quant_step=10, search_range=4, ref_window=2)
        delta = innovation_term(frames[1], frames[0])
        pc = build_plane_candidates(
            build_inter_candidates(frames[1], [frames[0]], cfg), tr, 1, delta)
        assert (pc.chan == 0.0).all()

    @pytest.mark.parametrize("step", [2, 10])
    def test_plane_is_labelled_with_its_build_step(self, step):
        frames = drifting_planes(3)
        tr = ExpectedErrorTracker((2, 2), planned_receive_prob=0.9, gamma=0.9)
        sel0 = intra_frame(frames[0], step)
        enc0, rec0 = sel0.enc, sel0.recon
        tr.push_frame(enc0.modes, enc0.ref_dist, enc0.mv,
                      innovation_term(frames[0], None))
        cfg = CodecConfig(quant_step=step, search_range=4, ref_window=1)
        pc = build_plane_candidates(build_inter_candidates(frames[1], [rec0],
                                                           cfg),
                                    tr, 1, innovation_term(frames[1], rec0))
        sel = select_plane(frames[1], pc,
                           pc.chan, 0.01)
        assert pc.cset.quant_step == step
        assert sel.enc.quant_step == step
        # a loss-free decode rebuilds exactly what the encoder reconstructed
        dec, _ = decode_plane(sel.enc, [rec0], rec0,
                              np.ones(pc.n_mb, dtype=bool))
        assert np.array_equal(dec, sel.recon)


class TestReactiveTaint:
    GRID = (1, 2)

    def _seed_frames(self, taint_mid=True):
        rt = ReactiveTaint(self.GRID)
        intra = np.array([MODE_INTRA, MODE_INTRA], dtype=np.uint8)
        bases = np.array([[200, 0], [90, 0]], dtype=np.int16)
        # the taint ignores the innovation it is handed
        rt.push_frame(intra, np.zeros(2, dtype=np.uint8), bases, np.zeros(2))
        rt.set_frame_outcome(0, np.ones(2, dtype=bool))
        skip = np.array([MODE_SKIP, MODE_SKIP], dtype=np.uint8)
        rt.push_frame(skip, np.ones(2, dtype=np.uint8),
                      np.zeros((2, 2), dtype=np.int16), np.zeros(2))
        rt.set_frame_outcome(1, np.array([not taint_mid, True]))
        return rt

    def test_clean_history_has_no_taint(self):
        rt = self._seed_frames(taint_mid=False)
        assert all(not t.any() for t in rt.lattice())

    def test_known_loss_taints_its_block(self):
        rt = self._seed_frames()
        lat = rt.lattice()
        assert lat[1].tolist() == [True, False]

    def test_prediction_spreads_and_intra_clears(self):
        rt = self._seed_frames()
        modes = np.array([MODE_INTRA, MODE_INTER], dtype=np.uint8)
        # block 1 predicts 4 columns from the left, reaching the lost block
        mv = np.array([[128, 0], [4, 0]], dtype=np.int16)
        rt.push_frame(modes, np.array([0, 1], dtype=np.uint8), mv, np.zeros(2))
        lat = rt.lattice()
        assert lat[2].tolist() == [False, True]

    def test_unknown_outcomes_propagate_but_add_nothing(self):
        rt = self._seed_frames()
        skip = np.array([MODE_SKIP, MODE_SKIP], dtype=np.uint8)
        rt.push_frame(skip, np.ones(2, dtype=np.uint8),
                      np.zeros((2, 2), dtype=np.int16), np.zeros(2))
        lat = rt.lattice()
        assert lat[2].tolist() == [True, False]

    def test_valid_candidates_respect_the_lattice(self):
        rt = self._seed_frames()
        cset = CandidateSet(
            mode_col=np.array([MODE_SKIP, MODE_INTER, MODE_INTER, MODE_INTRA],
                              dtype=np.uint8),
            ref_col=np.array([1, 1, 1, 0], dtype=np.int16),
            mv=np.array([[[0, 0], [0, 0], [0, 0], [200, 0]],
                         [[0, 0], [0, 0], [16, 0], [90, 0]]], dtype=np.int16),
            bits=np.ones((2, 4), dtype=np.int64),
            distortion=np.zeros((2, 4)),
            recon=np.zeros((2, 4, 16, 16), dtype=np.uint8),
            coeffs=np.zeros((2, 4, 16, 16), dtype=np.int32), quant_step=10)
        # what build_plane_candidates charges against the taint at frame 2
        chan = rt.candidate_errors(2, cset, np.zeros(2))
        assert chan[:, -1].tolist() == [0.0, 0.0]
        valid = rt.valid_candidates(PlaneCandidates(cset=cset, chan=chan))
        # block 0 sits on the lost region: no reference escapes it
        assert valid[0].tolist() == [False, False, False, True]
        # block 1 is clean unless the motion vector reaches across
        assert valid[1].tolist() == [True, True, False, True]

    def test_reactive_plan_masks_what_overlaps_the_lattice(self,
                                                          replay_setup):
        # with delivery planned certain, no attenuation and zero innovation,
        # a candidate's expected error is its overlap with the taint lattice
        cfg, orig, trace = replay_setup
        stream = encode_stream(cfg, orig, "reactive", trace)
        state = pipeline.EncoderState(cfg, orig, "reactive", trace)
        masked = 0
        for t in range(len(stream.frames)):
            state.learn(t)
            if t:
                plan = state.plan(t)
                for key in PLANE_ORDER:
                    pc, rt = plan.pcs[key], state.trackers[key]
                    lattice = rt.lattice()
                    shape = pc.chan.shape
                    overlap = expected_errors(
                        [m.astype(np.float64) for m in lattice], t,
                        np.broadcast_to(pc.cset.mode_col, shape),
                        np.broadcast_to(pc.cset.ref_col, shape), pc.cset.mv,
                        np.zeros(pc.n_mb), 1.0, 1.0, rt.grid)
                    assert np.array_equal(plan.valid[key][:, :-1],
                                          overlap[:, :-1] == 0.0)
                    assert plan.valid[key][:, -1].all()
                    assert (pc.chan[:, -1] == 0.0).all()
                    assert (plan.cols[key] == 0.0).all()
                    masked += int((overlap > 0.0).sum())
            state.commit(t, stream.frames[t],
                         {key: stream.recon[key][t] for key in PLANE_ORDER})
        assert masked > 0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_lattice_matches_the_boolean_oracle(self, seed):
        rng = np.random.default_rng(seed)
        hb, wb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        grid, n_mb = (hb, wb), hb * wb
        n_frames = int(rng.integers(1, 10))
        rows, cols = np.divmod(np.arange(n_mb), wb)
        rt = ReactiveTaint(grid)
        decisions, lost = [], []
        # each known outcome arrives after its frame, possibly much later
        reveal = {f: int(rng.integers(f, n_frames + 2))
                  for f in range(n_frames) if rng.random() < 0.6}
        outcomes = {f: rng.random(n_mb) < 0.7 for f in reveal}
        for t in range(n_frames):
            modes = rng.choice([MODE_INTRA, MODE_INTER, MODE_SKIP],
                               n_mb).astype(np.uint8)
            ref_dist = rng.integers(1, 4, n_mb).astype(np.uint8)
            ref_dist[modes == MODE_INTRA] = 0
            # any predictor position inside the frame
            pr = rng.integers(0, (hb - 1) * 16 + 1, n_mb)
            pc = rng.integers(0, (wb - 1) * 16 + 1, n_mb)
            mv = np.stack([cols * 16 - pc, rows * 16 - pr], axis=1)
            mv[modes == MODE_INTRA] = [[int(rng.integers(0, 256)), 0]]
            mv = mv.astype(np.int16)
            rt.push_frame(modes, ref_dist, mv, rng.uniform(0, 5, n_mb))
            decisions.append((modes, ref_dist, mv))
            lost.append(None)
            for f in sorted(f for f, at in reveal.items() if at == t):
                rt.set_frame_outcome(f, outcomes[f])
                lost[f] = ~outcomes[f]
            want = oracles.oracle_taint_lattice(decisions, lost, grid)
            got = rt.lattice()
            assert [g.tolist() for g in got] == [w.tolist() for w in want]

    def test_long_one_pixel_chain_stays_tainted(self):
        # block 3 predicts through a 1x1-pixel self-overlap (weight 1/256)
        # every frame; unclamped, its support underflows to 0 at frame 136
        rt = ReactiveTaint((2, 2))
        intra = np.full(4, MODE_INTRA, dtype=np.uint8)
        bases = np.zeros((4, 2), dtype=np.int16)
        for t in range(160):
            if t < 2:
                rt.push_frame(intra, np.zeros(4, dtype=np.uint8), bases,
                              np.zeros(4))
                rt.set_frame_outcome(t, np.array([True, True, True, t == 0]))
                continue
            modes = np.array([MODE_INTRA] * 3 + [MODE_INTER], dtype=np.uint8)
            ref_dist = np.array([0, 0, 0, 1], dtype=np.uint8)
            mv = np.array([[0, 0]] * 3 + [[15, 15]], dtype=np.int16)
            rt.push_frame(modes, ref_dist, mv, np.zeros(4))
        lat = rt.lattice()
        assert len(lat) == 160
        assert all(lat[t].tolist() == [False, False, False, True]
                   for t in range(1, 160))


class TestLambdaControl:
    def test_geometric_walk_reaches_the_band(self):
        calls = []

        def run(lam):
            calls.append(lam)
            return int(round(200.0 / lam)), f"run{len(calls)}"

        res = tune_to_band(run, 1.0, 100.0, 0.05, 8)
        assert res.in_band and not res.infeasible
        assert res.bits == 102
        assert res.trials == 4
        assert res.lam == pytest.approx(1.25 ** 3)
        assert res.payload == "run4"

    def test_bracket_bisects_in_log_space(self):
        calls = []

        def run(lam):
            calls.append(lam)
            return (1000 if lam < 2.0 else 50), None

        res = tune_to_band(run, 1.0, 100.0, 0.05, 8)
        assert not res.in_band and not res.infeasible
        assert res.bits == 50
        # once both sides are seen the next lambda is the geometric mean
        first_high = next(l for l in calls if l >= 2.0)
        i = calls.index(first_high)
        assert calls[i + 1] == pytest.approx(
            float(np.sqrt(calls[i - 1] * calls[i])))

    def test_unreachable_budget_is_flagged_infeasible(self):
        res = tune_to_band(lambda lam: (10 ** 6, None), 1.0, 100.0, 0.05, 8)
        assert res.infeasible and not res.in_band
        assert res.lam == 1.0e12
        assert res.bits == 10 ** 6
        assert res.trials == 9

    def test_trial_budget_is_respected(self):
        count = [0]

        def run(lam):
            count[0] += 1
            return 10 ** 6, None

        tune_to_band(run, 1.0, 100.0, 0.05, 5)
        assert count[0] == 6        # five trials plus the feasibility probe


def replay_frame(cfg, orig, mode, trace, stream, t_star):
    """Rebuild the encoder's state at one instant from its recorded frames and
    reconstructions alone, then plan and select that frame again."""
    state = pipeline.EncoderState(cfg, orig, mode, trace)
    for t in range(t_star):
        state.learn(t)
        state.commit(t, stream.frames[t],
                     {key: stream.recon[key][t] for key in PLANE_ORDER})
    state.learn(t_star)
    plan = state.plan(t_star)
    return plan.select(stream.lambdas[t_star]), plan.cols, plan.caps, plan.members


@pytest.fixture(scope="module")
def replay_setup(micro_scene):
    cfg = ExperimentConfig(scene=micro_scene.spec, setups=("rfc", "arps"),
                           loss_rates=(0.2,), seeds=(11,), rtt=2)
    orig = {}
    for view, frames in ((0, micro_scene.left), (1, micro_scene.right)):
        orig[(view, Component.TEXTURE)] = [f.texture.samples for f in frames]
        orig[(view, Component.DEPTH)] = [f.disparity.samples for f in frames]
    n_mb = (micro_scene.spec.height // 16) * (micro_scene.spec.width // 16)
    schedule = build_schedule(micro_scene.spec.frame_count,
                              cfg.packets_for(Component.TEXTURE, n_mb),
                              cfg.packets_for(Component.DEPTH, n_mb))
    trace = make_iid_trace(11, 0.2, schedule, frozenset({0}))
    return cfg, orig, trace


class TestDecisionReplay:
    @pytest.mark.parametrize("mode", ["reactive", "independent", "cross"])
    def test_recorded_state_reproduces_the_decisions(self, replay_setup, mode):
        cfg, orig, trace = replay_setup
        stream = encode_stream(cfg, orig, mode, trace)
        t_star = 5
        sels, extras, caps, members = replay_frame(cfg, orig, mode, trace,
                                                   stream, t_star)
        for key in PLANE_ORDER:
            sel = sels[key]
            enc = stream.frames[t_star][key]
            rec = stream.records[t_star][key]
            assert np.array_equal(sel.enc.modes, enc.modes)
            assert np.array_equal(sel.enc.ref_dist, enc.ref_dist)
            assert np.array_equal(sel.enc.mv, enc.mv)
            assert np.array_equal(sel.enc.coeffs, enc.coeffs)
            assert np.array_equal(sel.recon, stream.recon[key][t_star])
            assert np.array_equal(sel.bits, rec.bits)
            assert np.array_equal(sel.cost, rec.cost)
            assert np.array_equal(sel.channel, rec.channel)

    def test_reactive_stream_charges_nothing(self, replay_setup):
        cfg, orig, trace = replay_setup
        stream = encode_stream(cfg, orig, "reactive", trace)
        for rec_t in stream.records:
            for rec in rec_t.values():
                assert (rec.channel == 0.0).all()
                assert (rec.chan_error == 0.0).all()

    def test_cross_members_never_pay_more_than_the_opposing_cap(self,
                                                                replay_setup):
        cfg, orig, trace = replay_setup
        stream = encode_stream(cfg, orig, "cross", trace)
        _, extras, caps, members = replay_frame(cfg, orig, "cross", trace,
                                                stream, 5)
        for v in (0, 1):
            cols = extras[(v, Component.TEXTURE)]
            m = members[v]
            assert (cols[m] <= caps[v][m, None] + 1e-12).all()
            assert np.isfinite(cols).all()


class TestIntraBuildCount:
    def test_intra_candidates_built_once_per_coded_plane(self, replay_setup,
                                                         monkeypatch):
        cfg, orig, trace = replay_setup
        counts = {"select": 0}
        # shared memory, so builds in a forked candidate helper count too
        intra = multiprocessing.get_context("fork").Value("i", 0)

        def counted(key, func):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return func(*args, **kwargs)
            return wrapper

        def counted_intra(*args, **kwargs):
            with intra.get_lock():
                intra.value += 1
            return build_intra_candidates(*args, **kwargs)

        # `from .codec import f` binds f separately in every importing module
        holders = [mod for name, mod in sorted(sys.modules.items())
                   if (name == "fvstream" or name.startswith("fvstream."))
                   and getattr(mod, "build_intra_candidates", None)
                   is build_intra_candidates]
        assert "fvstream.codec" in {mod.__name__ for mod in holders}
        for mod in holders:
            monkeypatch.setattr(mod, "build_intra_candidates", counted_intra)
        monkeypatch.setattr(pipeline, "select_plane",
                            counted("select", pipeline.select_plane))

        baseline = encode_stream(cfg, orig, "reactive", trace)
        assert intra.value == sum(len(frame) for frame in baseline.frames)
        intra.value, counts["select"] = 0, 0
        targets = [float(b) for b in baseline.bits_per_frame]
        stream = encode_stream(cfg, orig, "cross", trace, frame_targets=targets)
        planes = sum(len(frame) for frame in stream.frames)
        assert intra.value == planes
        # the lambda loop re-selected planes without rebuilding INTRA
        assert counts["select"] > planes
