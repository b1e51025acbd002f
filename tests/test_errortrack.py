"""Expected-error recursion on the sender and actual tracking on the receiver."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvstream.channel import Component, lost_mb_mask
from fvstream.codec import (MODE_INTER, MODE_INTRA, MODE_SKIP, PLANE_ORDER,
                            CandidateSet, CodecError, EncodedPlane,
                            parse_stream, predictor_blocks)
from fvstream.errortrack import (DecoderTracker, ExpectedErrorTracker,
                                 TrackingError, cross_view_states,
                                 expected_errors, footprint_state_sum,
                                 innovation_term)
from fvstream.optimizer import ReactiveTaint
from fvstream.pipeline import decode_stream
from fvstream.synthesis import warp_view

import oracles


def flat(value, shape=(16, 16)):
    return np.full(shape, value, dtype=np.uint8)


def make_enc(modes, ref_dist, mv, grid, step=10):
    n_mb = grid[0] * grid[1]
    return EncodedPlane(modes=np.asarray(modes, dtype=np.uint8),
                        ref_dist=np.asarray(ref_dist, dtype=np.uint8),
                        mv=np.asarray(mv, dtype=np.int16),
                        coeffs=np.zeros((n_mb, 16, 16), dtype=np.int32),
                        quant_step=step, grid=grid)


def random_decisions(rng, grid, frame_count, max_ref=3, mv_range=4):
    """Valid per-frame (modes, ref_dist, mv, delta) tuples; frame 0 all intra."""
    hb, wb = grid
    n_mb = hb * wb
    frames = []
    for t in range(frame_count):
        modes = np.empty(n_mb, dtype=np.uint8)
        ref_dist = np.zeros(n_mb, dtype=np.uint8)
        mv = np.zeros((n_mb, 2), dtype=np.int16)
        for m in range(n_mb):
            r0, c0 = (m // wb) * 16, (m % wb) * 16
            if t == 0:
                modes[m] = MODE_INTRA
                mv[m] = (int(rng.integers(0, 256)), 0)
                continue
            pick = rng.random()
            if pick < 0.2:
                modes[m] = MODE_INTRA
                mv[m] = (int(rng.integers(0, 256)), 0)
            elif pick < 0.5:
                modes[m] = MODE_SKIP
                ref_dist[m] = 1
            else:
                modes[m] = MODE_INTER
                ref_dist[m] = int(rng.integers(1, min(t, max_ref) + 1))
                dx_lo = max(-mv_range, c0 - (wb * 16 - 16))
                dx_hi = min(mv_range, c0)
                dy_lo = max(-mv_range, r0 - (hb * 16 - 16))
                dy_hi = min(mv_range, r0)
                mv[m] = (int(rng.integers(dx_lo, dx_hi + 1)),
                         int(rng.integers(dy_lo, dy_hi + 1)))
        delta = rng.uniform(0.0, 6.0, n_mb)
        frames.append((modes, ref_dist, mv, delta))
    return frames


def state_sum_weights(m, mv, grid):
    """footprint_state_sum over one-hot states: the overlap weight of every
    block under the predictor of block m, zero weights dropped."""
    n_mb = grid[0] * grid[1]
    one = np.array([1]), np.array([mv[0]]), np.array([mv[1]]), np.array([m])
    got = {k: float(footprint_state_sum(np.eye(n_mb)[k][None], *one, grid)[0])
           for k in range(n_mb)}
    return {k: w for k, w in got.items() if w != 0.0}


class TestFootprint:
    @pytest.mark.example
    def test_quarter_offset_weights(self):
        # mv (-4, 0) on a 1x2 grid: 3/4 of the predictor stays home
        out = state_sum_weights(0, (-4, 0), (1, 2))
        assert out == {0: 0.75, 1: 0.25}

    def test_zero_motion_is_identity(self):
        assert state_sum_weights(3, (0, 0), (2, 2)) == {3: 1.0}

    def test_predictor_must_stay_inside(self):
        # the footprint assumes an in-frame predictor; the decoder's gather
        # rejects any other before a tracker reads the record
        refs = np.zeros((1, 16, 32), dtype=np.uint8)
        with pytest.raises(CodecError):
            predictor_blocks(refs, 1, np.array([[4, 0]]), np.array([0]), (1, 2))

    @given(st.integers(0, 5), st.integers(-8, 8), st.integers(-8, 8))
    def test_matches_pixel_counting(self, m, dx, dy):
        grid = (2, 3)
        try:
            want = oracles.footprint_weights(m, (dx, dy), grid)
        except ValueError:      # the predictor leaves the frame
            return
        got = state_sum_weights(m, (dx, dy), grid)
        assert got == want
        assert sum(got.values()) == 1.0

    def test_state_sum_matches_weights(self):
        rng = np.random.default_rng(17)
        grid = (2, 3)
        states = rng.uniform(0, 20, (2, 6))
        dist = np.array([1, 2, 1, 1, 2, 1], dtype=np.int64)
        dx = np.array([0, -3, 2, 0, -5, 1], dtype=np.int64)
        dy = np.array([0, -5, -3, 9, 0, 7], dtype=np.int64)
        got = footprint_state_sum(states, dist, dx, dy, np.arange(6), grid)
        for m in range(6):
            want = sum(w * states[dist[m] - 1, r] for r, w in
                       oracles.footprint_weights(m, (dx[m], dy[m]), grid).items())
            assert got[m] == pytest.approx(want, abs=1e-12)


def columns(*cols):
    """(n_mb, k) decisions from k per-block columns."""
    return np.stack([np.asarray(c) for c in cols], axis=1)


class TestPropagation:
    @pytest.mark.example
    def test_weighted_inheritance_with_decay(self):
        # footprints 0.75/0.25 over errors (8, 0) at gamma 0.9 -> 5.4; with
        # certain delivery the step is e_plus alone
        modes, ref = columns([MODE_INTER, MODE_SKIP]), columns([1, 1])
        got = expected_errors([np.array([8.0, 0.0])], 1, modes, ref,
                              np.array([[[-4, 0]], [[0, 0]]]), np.zeros(2),
                              1.0, 0.9, (1, 2))[:, 0]
        assert got[0] == pytest.approx(5.4, rel=1e-12)
        assert got[1] == pytest.approx(0.9 * 0.0, abs=1e-15)

    def test_intra_resets_and_ignores_its_wire_slot(self):
        # the intra mv slot carries a base level, never a displacement
        modes, ref = columns([MODE_INTRA, MODE_SKIP]), columns([0, 1])
        got = expected_errors([np.array([50.0, 50.0])], 1, modes, ref,
                              np.array([[[217, 0]], [[0, 0]]]), np.zeros(2),
                              1.0, 0.9, (1, 2))[:, 0]
        assert got[0] == 0.0
        assert got[1] == pytest.approx(45.0)

    @pytest.mark.example
    def test_candidate_blend(self):
        # e_plus 5.4 from the state two frames back, e_minus 5.4 + 2 = 7.4
        # from the last one, p 0.95 -> 5.5
        states = [np.array([8.0, 0.0]), np.array([5.4, 0.0])]
        mv = np.zeros((2, 2, 2), dtype=np.int64)
        mv[0, 0] = (-4, 0)
        modes = np.full((2, 2), MODE_INTER)
        got = expected_errors(states, 2, modes, np.full((2, 2), 2), mv,
                              np.array([2.0, 0.0]), 0.95, 0.9, (1, 2))
        assert got[0, 0] == pytest.approx(0.95 * 5.4 + 0.05 * 7.4, rel=1e-12)
        assert got[0, 0] == pytest.approx(5.5, rel=1e-12)

    def test_intra_candidate_column(self):
        prev = np.array([5.4, 1.0])
        delta = np.array([2.0, 1.0])
        mv = np.zeros((2, 1, 2), dtype=np.int64)
        got = expected_errors([prev], 1, columns([MODE_INTRA] * 2),
                              columns([0, 0]), mv, delta, 0.95, 0.9, (1, 2))
        want = (1.0 - 0.95) * (prev + delta)
        assert np.allclose(got[:, 0], want, atol=1e-15)
        assert got[0, 0] == pytest.approx(0.05 * 7.4, rel=1e-12)

    def test_full_delivery_leaves_no_concealment_term(self):
        mv = np.zeros((2, 1, 2), dtype=np.int64)
        mv[:, 0, 0] = 150                   # a base level, not a displacement
        got = expected_errors([np.array([4.0, 9.0])], 1,
                              columns([MODE_INTRA] * 2), columns([0, 0]), mv,
                              np.array([1.0, 2.0]), 1.0, 0.9, (1, 2))
        assert (got == 0.0).all()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40)
    def test_candidate_columns_equal_single_decision_steps(self, seed):
        # k decisions at once give, column by column, what k single-decision
        # steps give: the candidates and the tracker share one step
        rng = np.random.default_rng(seed)
        grid = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        n_mb, t = grid[0] * grid[1], int(rng.integers(1, 5))
        frames = random_decisions(rng, grid, t + 4)
        states = [rng.uniform(0, 20, n_mb) for _ in range(t)]
        cols = [frames[int(f)] for f in rng.integers(1, t + 4, 5)]
        modes = columns(*(c[0] for c in cols))
        # any reference distance up to 3, frames before 0 included
        ref = np.where(modes == MODE_INTRA, 0, rng.integers(1, 4, modes.shape))
        mv = np.stack([c[2] for c in cols], axis=1)
        delta = rng.uniform(0, 6, n_mb)
        p = rng.uniform(0, 1, (n_mb, 1)) if rng.random() < 0.5 else 0.9
        got = expected_errors(states, t, modes, ref, mv, delta, p, 0.9, grid)
        for k in range(modes.shape[1]):
            one = expected_errors(states, t, modes[:, k:k + 1],
                                  ref[:, k:k + 1], mv[:, k:k + 1], delta, p,
                                  0.9, grid)
            assert np.array_equal(got[:, k:k + 1], one)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40)
    def test_single_decision_steps_follow_the_replayed_recursion(self, seed):
        rng = np.random.default_rng(seed)
        grid = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        n_mb = grid[0] * grid[1]
        frames = random_decisions(rng, grid, int(rng.integers(1, 7)))
        probs = [np.where(rng.random(n_mb) < 0.5, rng.random(n_mb),
                          rng.random(n_mb) < 0.8) for _ in frames]
        states = []
        for t, (modes, ref_dist, mv, delta) in enumerate(frames):
            states.append(expected_errors(
                states, t, modes[:, None], ref_dist[:, None], mv[:, None],
                delta, probs[t][:, None], 0.8, grid)[:, 0])
        want = oracles.replay_recursion(frames, probs, 0.8, grid)
        for t in range(len(frames)):
            assert np.allclose(states[t], want[t], rtol=1e-12, atol=1e-12)


class TestInnovation:
    def test_first_frame_measures_against_mid_gray(self):
        got = innovation_term(flat(100), None)
        assert got.tolist() == [28.0]

    def test_mean_absolute_difference_per_block(self):
        cur = np.zeros((16, 32), dtype=np.uint8)
        prev = cur.copy()
        cur[:, 16:] = 4
        got = innovation_term(cur, prev)
        assert got.tolist() == [0.0, 4.0]


class TestExpectedErrorTracker:
    def test_matches_blended_reference_recursion(self):
        rng = np.random.default_rng(23)
        grid = (2, 2)
        frames = random_decisions(rng, grid, 6)
        tr = ExpectedErrorTracker(grid, planned_receive_prob=0.8, gamma=0.9)
        for modes, ref_dist, mv, delta in frames:
            tr.push_frame(modes, ref_dist, mv, delta)
        probs = [np.full(4, 0.8) for _ in frames]
        want = oracles.replay_recursion(frames, probs, 0.9, grid)
        for t in range(6):
            assert np.allclose(tr.state(t), want[t], atol=1e-12)

    def test_outcome_rewrite_matches_binary_replay(self):
        rng = np.random.default_rng(29)
        grid = (2, 2)
        frames = random_decisions(rng, grid, 5)
        tr = ExpectedErrorTracker(grid, planned_receive_prob=0.7, gamma=1.0)
        for modes, ref_dist, mv, delta in frames:
            tr.push_frame(modes, ref_dist, mv, delta)
        received = [rng.random(4) < 0.8 for _ in frames]
        for t, mask in enumerate(received):
            tr.set_frame_outcome(t, mask)
        want = oracles.replay_recursion(
            frames, [m.astype(np.float64) for m in received], 1.0, grid)
        for t in range(5):
            assert np.allclose(tr.state(t), want[t], atol=1e-12)

    def test_partial_knowledge_blends_planned_and_known(self):
        rng = np.random.default_rng(31)
        grid = (1, 2)
        frames = random_decisions(rng, grid, 4)
        tr = ExpectedErrorTracker(grid, planned_receive_prob=0.6, gamma=0.9)
        for modes, ref_dist, mv, delta in frames:
            tr.push_frame(modes, ref_dist, mv, delta)
        lost0 = np.array([False, True])
        tr.set_frame_outcome(1, ~lost0)
        probs = [np.full(2, 0.6), (~lost0).astype(np.float64),
                 np.full(2, 0.6), np.full(2, 0.6)]
        want = oracles.replay_recursion(frames, probs, 0.9, grid)
        for t in range(4):
            assert np.allclose(tr.state(t), want[t], atol=1e-12)

    def test_clean_channel_tracks_zero_forever(self):
        rng = np.random.default_rng(37)
        grid = (2, 2)
        frames = random_decisions(rng, grid, 6)
        tr = ExpectedErrorTracker(grid, planned_receive_prob=0.5, gamma=0.9)
        for t, (modes, ref_dist, mv, delta) in enumerate(frames):
            tr.push_frame(modes, ref_dist, mv, delta)
            tr.set_frame_outcome(t, np.ones(4, dtype=bool))
        for t in range(6):
            assert (tr.state(t) == 0.0).all()

    def test_reference_states_pad_with_zeros(self):
        # at frame 1 a candidate three frames back reads an all-zero state,
        # one frame back the tracked one
        tr = ExpectedErrorTracker((1, 1), 0.9, gamma=0.9)
        tr.push_frame(np.array([MODE_INTRA]), np.array([0]),
                      np.array([[128, 0]]), np.array([3.0]))
        cset = CandidateSet(
            mode_col=np.array([MODE_SKIP, MODE_SKIP, MODE_INTRA],
                              dtype=np.uint8),
            ref_col=np.array([1, 3, 0], dtype=np.int16),
            mv=np.zeros((1, 3, 2), dtype=np.int16),
            bits=np.ones((1, 3), dtype=np.int64), distortion=np.zeros((1, 3)),
            recon=np.zeros((1, 3, 16, 16), dtype=np.uint8),
            coeffs=np.zeros((1, 3, 16, 16), dtype=np.int32), quant_step=10)
        chan = tr.candidate_errors(1, cset, np.zeros(1))
        e_minus = (1.0 - 0.9) * tr.state(0)[0]
        assert tr.state(0)[0] == pytest.approx(0.3)
        assert chan[0, 0] == 0.9 * (0.9 * tr.state(0)[0]) + e_minus
        assert chan[0, 1] == 0.9 * 0.0 + e_minus
        assert chan[0, 2] == e_minus

    def test_rejects_bad_parameters_and_unknown_frames(self):
        with pytest.raises(TrackingError):
            ExpectedErrorTracker((1, 1), 1.5, gamma=0.9)
        with pytest.raises(TrackingError):
            ExpectedErrorTracker((1, 1), 0.5, gamma=0.0)
        tr = ExpectedErrorTracker((1, 1), 0.5, gamma=0.9)
        with pytest.raises(TrackingError):
            tr.set_frame_outcome(0, np.ones(1, dtype=bool))

    def test_planned_states_match_monte_carlo(self):
        rng = np.random.default_rng(41)
        grid = (2, 2)
        frames = random_decisions(rng, grid, 5, max_ref=2)
        p = 0.8
        tr = ExpectedErrorTracker(grid, planned_receive_prob=p, gamma=1.0)
        for modes, ref_dist, mv, delta in frames:
            tr.push_frame(modes, ref_dist, mv, delta)
        mc = oracles.mc_decoder_mean(frames, p, 1.0, grid, trials=6000, seed=77)
        for t in range(5):
            tol = np.maximum(0.05 * np.abs(tr.state(t)), 0.12)
            assert (np.abs(tr.state(t) - mc[t]) <= tol).all()


class TestOutcomeSkip:
    """An outcome equal to the delivery probabilities a frame already
    assumes re-propagates nothing; any other recomputes frames t..end."""

    GRID = (2, 2)
    TRACKERS = [("taint", 1.0), ("tracker", 1.0), ("tracker", 0.92)]

    def _tracker(self, kind, p):
        if kind == "taint":
            return ReactiveTaint(self.GRID)
        return ExpectedErrorTracker(self.GRID, p, gamma=0.9)

    def _pushed(self, kind, p):
        tr = self._tracker(kind, p)
        for frame in random_decisions(np.random.default_rng(43), self.GRID, 6):
            tr.push_frame(*frame)
        # a known loss gives the later states something to carry
        tr.set_frame_outcome(1, np.array([True, False, True, True]))
        return tr

    @staticmethod
    def _spy(tracker):
        """The frames tracker recomputes from now on."""
        calls, compute = [], tracker._compute_state

        def spy(t):
            calls.append(t)
            return compute(t)
        tracker._compute_state = spy
        return calls

    @pytest.mark.parametrize("kind, p", TRACKERS)
    def test_the_assumed_outcome_recomputes_nothing(self, kind, p):
        tr = self._pushed(kind, p)
        before = [tr.state(t).tobytes() for t in range(6)]
        calls = self._spy(tr)
        # frame 3 as planned, and frame 1's loss learned a second time
        planned = np.ones(4, dtype=bool) if p == 1.0 else np.full(4, p)
        tr.set_frame_outcome(3, planned)
        tr.set_frame_outcome(1, np.array([True, False, True, True]))
        assert calls == []
        assert [tr.state(t).tobytes() for t in range(6)] == before

    @pytest.mark.parametrize("kind, p, received", [
        *[(kind, p, [True, True, False, True]) for kind, p in TRACKERS],
        # planned at 0.92, even a fully received frame is news
        ("tracker", 0.92, [True] * 4)])
    def test_a_new_outcome_recomputes_from_its_frame(self, kind, p, received):
        tr = self._pushed(kind, p)
        calls = self._spy(tr)
        outcome = np.array(received)
        tr.set_frame_outcome(3, outcome)
        assert calls == [3, 4, 5]
        # the same states as a tracker that knew both outcomes all along
        twin = self._tracker(kind, p)
        for t, frame in enumerate(
                random_decisions(np.random.default_rng(43), self.GRID, 6)):
            twin.push_frame(*frame)
            if t == 3:
                twin.set_frame_outcome(1, np.array([True, False, True, True]))
                twin.set_frame_outcome(3, outcome)
        for t in range(6):
            assert tr.state(t).tobytes() == twin.state(t).tobytes()


def track(tracker, frames):
    """Feed frames of (planes, records, received), each keyed by plane, to a
    DecoderTracker with every plane's decoded frames 0..t, as decode_stream
    holds them."""
    decoded = {key: [] for key in PLANE_ORDER}
    for t, (planes, encoded, received) in enumerate(frames):
        for key in PLANE_ORDER:
            decoded[key].append(planes[key])
        tracker.update_frame(t, decoded, encoded, received)
    return tracker


def random_receiver_frames(rng, grid, frame_count):
    """Decoded planes, valid records and loss masks of all four planes.
    Textures are flat per block, one base level plus an offset that drifts
    from frame to frame, so a warp from the opposing view can rescue a lost
    block; one frame loses texture blocks in both views."""
    hb, wb = grid
    n_mb = hb * wb
    shape = (hb * 16, wb * 16)
    base = rng.integers(0, 200, grid)
    records = {key: random_decisions(rng, grid, frame_count)
               for key in PLANE_ORDER}
    both = int(rng.integers(0, frame_count))
    frames = []
    for t in range(frame_count):
        planes, encoded, received = {}, {}, {}
        common = rng.random(n_mb) < 0.7
        for key in PLANE_ORDER:
            if key[1] == Component.TEXTURE:
                level = base + rng.integers(0, 40, grid)
                planes[key] = level.repeat(16, 0).repeat(16, 1).astype(np.uint8)
            else:
                planes[key] = rng.integers(0, 6, shape).astype(np.uint8)
            modes, ref_dist, mv, _ = records[key][t]
            encoded[key] = make_enc(modes, ref_dist, mv, grid)
            lost = rng.random(n_mb) < 0.4
            if t == both and key[1] == Component.TEXTURE:
                lost |= common
            received[key] = ~lost
        frames.append((planes, encoded, received))
    return frames


class TestDecoderTracker:
    GRID = (1, 1)

    def _frame(self, tex_value, mode, base=0, tex_ok=True, dep_ok=True,
               disp_value=8):
        """All four planes flat, coded alike, with texture and depth
        received or lost in both views."""
        if mode == MODE_INTRA:
            enc = make_enc([MODE_INTRA], [0], [[base, 0]], self.GRID)
        else:
            enc = make_enc([MODE_SKIP], [1], [[0, 0]], self.GRID)
        planes = {key: flat(disp_value if key[1] else tex_value)
                  for key in PLANE_ORDER}
        received = {key: np.array([dep_ok if key[1] else tex_ok])
                    for key in PLANE_ORDER}
        return planes, dict.fromkeys(PLANE_ORDER, enc), received

    @pytest.mark.example
    def test_loss_chain_decays_geometrically_then_resets(self):
        """delta 10 at the loss, then gamma 0.9 per received copy: 10, 9, 8.1;
        an intra refresh drops it to exactly zero."""
        # both texture planes lost at frame 2: no cross-view rescue is
        # available
        tr = track(DecoderTracker(self.GRID, gamma=0.9, eta=1.0), [
            self._frame(100, MODE_INTRA, 100),
            self._frame(110, MODE_INTRA, 110),
            self._frame(110, MODE_SKIP, tex_ok=False),
            self._frame(110, MODE_SKIP),
            self._frame(110, MODE_SKIP),
            self._frame(110, MODE_INTRA, 110)])
        for view in (0, 1):
            assert tr.state(view, 0, 0).tolist() == [0.0]
            assert tr.state(view, 0, 1).tolist() == [0.0]
            assert tr.state(view, 0, 2)[0] == pytest.approx(10.0, abs=1e-12)
            assert tr.state(view, 0, 3)[0] == pytest.approx(9.0, rel=1e-12)
            assert tr.state(view, 0, 4)[0] == pytest.approx(8.1, rel=1e-12)
            assert tr.state(view, 0, 5)[0] == 0.0

    @pytest.mark.parametrize("step,want", [(0, 0.0), (5, 5.0)])
    def test_loss_delta_follows_decoded_history(self, step, want):
        tr = track(DecoderTracker(self.GRID, gamma=0.9, eta=1.0), [
            self._frame(100, MODE_INTRA, 100),
            self._frame(100 + step, MODE_INTRA, 100 + step),
            self._frame(100 + step, MODE_SKIP, tex_ok=False)])
        assert tr.state(0, 0, 2)[0] == pytest.approx(want, abs=1e-12)

    def test_delta_is_zero_before_two_decoded_frames(self):
        # every plane lost at frames 0 and 1: however much the content
        # changes, no two earlier decoded frames exist to measure it
        tr = track(DecoderTracker(self.GRID, gamma=0.9, eta=1.0), [
            self._frame(100, MODE_INTRA, 100, tex_ok=False, dep_ok=False,
                        disp_value=3),
            self._frame(180, MODE_SKIP, tex_ok=False, dep_ok=False,
                        disp_value=20)])
        for t in (0, 1):
            for key in PLANE_ORDER:
                assert tr.state(*key, t).tolist() == [0.0]

    def test_delta_is_the_innovation_between_two_decoded_frames(self):
        # depth is lost everywhere at frame 2: each block's state is the
        # co-located innovation from decoded frame 0 to 1, whatever frame 2
        # decodes to
        grid = (1, 2)
        rng = np.random.default_rng(43)
        disp = [rng.integers(0, 40, (16, 32)).astype(np.uint8)
                for _ in range(3)]
        intra = make_enc([MODE_INTRA] * 2, [0] * 2, [[0, 0]] * 2, grid)
        ok = {key: np.ones(2, dtype=bool) for key in PLANE_ORDER}
        lost = {key: ok[key] & (key[1] == Component.TEXTURE)
                for key in PLANE_ORDER}
        frames = [({key: disp[t] if key[1] else flat(100, (16, 32))
                    for key in PLANE_ORDER},
                   dict.fromkeys(PLANE_ORDER, intra), ok if t < 2 else lost)
                  for t in range(3)]
        tr = track(DecoderTracker(grid, gamma=0.9, eta=1.0), frames)
        want = innovation_term(disp[1], disp[0])
        assert want.min() > 0.0
        for view in (0, 1):
            assert np.array_equal(tr.state(view, 1, 2), want)

    def test_disparity_never_uses_the_cross_view_estimate(self):
        # depth lost while textures are clean: the history delta applies as is
        tr = track(DecoderTracker(self.GRID, gamma=0.9, eta=1.0), [
            self._frame(100, MODE_INTRA, 100, disp_value=8),
            self._frame(100, MODE_INTRA, 100, disp_value=12),
            self._frame(100, MODE_SKIP, dep_ok=False, disp_value=12)])
        assert tr.state(0, 1, 2)[0] == pytest.approx(4.0, abs=1e-12)

    def test_cross_view_rescue_when_opposing_view_is_clean(self):
        """A lost block whose content the clean opposing view still shows
        gets its delta from the warp instead of stale history."""
        grid = (1, 4)
        h, w = 16, 64
        bg = np.tile(np.arange(w, dtype=np.uint8), (h, 1))
        disp = np.full((h, w), 4, dtype=np.uint8)
        enc = make_enc([MODE_INTRA] * 4, [0] * 4, [[0, 0]] * 4, grid)
        skip = make_enc([MODE_SKIP] * 4, [1] * 4, [[0, 0]] * 4, grid)

        def planes(l_tex):
            # the right view shows world column j + 4 at column j
            r_tex = np.roll(l_tex, -4, axis=1)
            return {(0, 0): l_tex, (0, 1): disp, (1, 0): r_tex, (1, 1): disp}

        encs = dict.fromkeys(PLANE_ORDER, enc)
        skips = dict.fromkeys(PLANE_ORDER, skip)
        ok = {k: np.ones(4, dtype=bool) for k in encs}
        shifted = (bg.astype(np.int64) + 9).astype(np.uint8)
        lost_left = dict(ok)
        lost_left[(0, 0)] = np.zeros(4, dtype=bool)
        # decoded left texture under concealment repeats frame 1
        tr = track(DecoderTracker(grid, gamma=0.9, eta=1.0), [
            (planes(bg), encs, ok), (planes(shifted), encs, ok),
            (planes(shifted), skips, lost_left)])
        # history alone would say delta = 9; the clean warp shows the content
        # did not change, so every covered block drops back to zero
        assert tr.state(1, 0, 2).tolist() == [0.0] * 4
        assert tr.state(0, 0, 2).tolist() == [0.0] * 4

    @given(st.integers(0, 10 ** 6))
    @example(22)    # lost blocks in block rows 0 and 2 of 4, none in row 1
    def test_cross_view_pass_matches_the_full_plane_block_loop(self, seed):
        # the pass warps only the block rows that hold a lost block; the
        # oracle warps the whole plane and walks the lost blocks one by one
        rng = np.random.default_rng(seed)
        grid = (int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        n_mb, shape = grid[0] * grid[1], (grid[0] * 16, grid[1] * 16)
        view, eta = int(rng.integers(0, 2)), float(rng.uniform(0.5, 2.0))
        # the opposing view's decoded planes
        opp = (rng.integers(0, 256, shape).astype(np.uint8),
               rng.integers(0, 24, shape).astype(np.uint8))
        state, opp_state = rng.uniform(0, 20, n_mb), rng.uniform(0, 20, n_mb)
        prev_tex = rng.integers(0, 256, shape).astype(np.uint8)
        prev_state = rng.uniform(0, 20, n_mb)
        lost = rng.random(n_mb) < rng.uniform(0.1, 0.9)
        got = cross_view_states(view, state, opp_state, opp, eta, prev_tex,
                                prev_state, lost, grid,
                                DecoderTracker.MIN_COVERAGE)
        want = oracles.oracle_cross_view_states(
            state, opp_state, warp_view(*opp, 1 - view, float(view), eta),
            prev_tex, prev_state, lost, grid, DecoderTracker.MIN_COVERAGE)
        assert np.array_equal(got, want)

    @given(st.integers(0, 10 ** 6))
    @example(0)     # view 0's rescue drops it below view 1 once
    @settings(max_examples=60)
    def test_matches_the_history_copying_oracle(self, seed):
        """Bit-identical states, frame by frame, to the earlier tracker; view
        1's rescue reads view 0's state from before view 0's own rescue."""
        rng = np.random.default_rng(seed)
        grid = (int(rng.integers(1, 3)), int(rng.integers(1, 4)))
        frames = random_receiver_frames(rng, grid, int(rng.integers(1, 7)))
        gamma, eta = float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.5, 2.0))
        got = DecoderTracker(grid, gamma, eta)
        want = oracles.OracleDecoderTracker(grid, gamma, eta)
        decoded = {key: [] for key in PLANE_ORDER}
        for t, (planes, encoded, received) in enumerate(frames):
            for key in PLANE_ORDER:
                decoded[key].append(planes[key])
            got.update_frame(t, decoded, encoded, received)
            want.update_frame(t, planes, encoded, received)
            for key in PLANE_ORDER:
                assert np.array_equal(got.state(*key, t), want.state(*key, t))

    def test_frame_index_must_advance_in_order(self):
        planes, encoded, received = self._frame(0, MODE_INTRA)
        tr = DecoderTracker(self.GRID, gamma=0.9, eta=1.0)
        with pytest.raises(TrackingError):
            tr.update_frame(1, {key: [planes[key]] * 2 for key in PLANE_ORDER},
                            encoded, received)

    def test_lost_records_are_never_read(self, lossy_micro_stream):
        # a lost frame-3 texture record whose vector points 30000 columns
        # away must leave the receiver exactly as a valid record does
        cfg, stream, blob, trace = lossy_micro_stream
        key = (0, Component.TEXTURE)
        assert lost_mb_mask(trace, 3, *key, 4)[0]
        _, _, _, valid = parse_stream(blob)
        _, _, _, bad = parse_stream(blob)
        bad[3][key].mv[0] = (30000, 0)
        want = decode_stream(cfg, dataclasses.replace(stream, frames=valid), trace)
        got = decode_stream(cfg, dataclasses.replace(stream, frames=bad), trace)
        for view in (0, 1):
            for comp in (0, 1):
                for t in range(len(valid)):
                    assert np.array_equal(got.tracker.state(view, comp, t),
                                          want.tracker.state(view, comp, t))
                    assert np.array_equal(got.planes[(view, comp)][t],
                                          want.planes[(view, comp)][t])
