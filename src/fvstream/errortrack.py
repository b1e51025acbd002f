"""Recursive per-macroblock error tracking on both ends of the channel.

Error unit is mean absolute intensity difference per pixel of a macroblock.
A received block inherits the attenuated, overlap-weighted error of the
region its predictor came from (zero for INTRA); a lost block is concealed
by the co-located block of the previous frame, so its error is the previous
error plus the frame-to-frame innovation delta:

    e_plus  = 0                     if INTRA
            = gamma * sum_k a_k * e[tau, k]   otherwise
    e_minus = e[t-1, m] + delta
    e[t, m] = p * e_plus + (1 - p) * e_minus

One function, expected_errors, takes this step for k decisions per block.
The sender runs it in expectation with p the per-packet delivery
probability, overridden by 0/1 once feedback for a frame arrives: with k = 1
over the decisions it made, and with one column per candidate while it
selects.  The receiver runs it with k = 1 and the actual outcomes, and
estimates delta from what it has decoded: the co-located innovation between
the previous two decoded frames (zero before two frames are decoded), or for
the lost texture blocks a warp from the opposing view when that view is
strictly more reliable.  Disparity planes never use the cross-view estimate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PLANE_ORDER
from .codec import MODE_INTRA, CandidateSet, EncodedPlane
from .frames import MB_SIZE
from .synthesis import warp_view


class TrackingError(ValueError):
    """Invalid tracker usage."""


# ---------------------------------------------------------------------------
# shared primitives
# ---------------------------------------------------------------------------

def footprint_state_sum(states_by_dist: np.ndarray, dist: np.ndarray,
                        dx: np.ndarray, dy: np.ndarray, mb_index: np.ndarray,
                        grid: tuple[int, int]) -> np.ndarray:
    """Overlap-weighted sum of prior error states under each predictor.

    states_by_dist: (D, n_mb) with row d-1 the state at distance d; dist, dx,
    dy, mb_index: equal-length int arrays; every predictor must lie inside
    the frame.  A predictor covers up to four blocks, summed in the order
    top-left, top-right, bottom-left, bottom-right, with zero-weight terms
    contributing exact zeros, so results are bit-stable.
    """
    hb, wb = grid
    pr = (mb_index // wb) * MB_SIZE - dy
    pc = (mb_index % wb) * MB_SIZE - dx
    br0, fr = np.divmod(pr, MB_SIZE)
    bc0, fc = np.divmod(pc, MB_SIZE)
    br1 = np.minimum(br0 + 1, hb - 1)
    bc1 = np.minimum(bc0 + 1, wb - 1)
    frf = fr.astype(np.float64)
    fcf = fc.astype(np.float64)
    area = float(MB_SIZE * MB_SIZE)
    w_tl = (MB_SIZE - frf) * (MB_SIZE - fcf) / area
    w_tr = (MB_SIZE - frf) * fcf / area
    w_bl = frf * (MB_SIZE - fcf) / area
    w_br = frf * fcf / area
    row = dist - 1
    s = w_tl * states_by_dist[row, br0 * wb + bc0]
    s = s + w_tr * states_by_dist[row, br0 * wb + bc1]
    s = s + w_bl * states_by_dist[row, br1 * wb + bc0]
    s = s + w_br * states_by_dist[row, br1 * wb + bc1]
    return s


def innovation_term(cur_plane: np.ndarray, prev_plane: np.ndarray | None
                    ) -> np.ndarray:
    """Per-MB mean absolute frame-to-frame change (vs mid-gray before frame 0)."""
    cur = cur_plane.astype(np.int64)
    prev = np.full_like(cur, 128) if prev_plane is None else prev_plane.astype(np.int64)
    h, w = cur.shape
    hb, wb = h // MB_SIZE, w // MB_SIZE
    diff = np.abs(cur - prev)
    sums = diff.reshape(hb, MB_SIZE, wb, MB_SIZE).sum(axis=(1, 3))
    return (sums / float(MB_SIZE * MB_SIZE)).reshape(hb * wb)


def expected_errors(states: list[np.ndarray], t: int, modes: np.ndarray,
                    ref_dist: np.ndarray, mv: np.ndarray, delta: np.ndarray,
                    p, gamma: float, grid: tuple[int, int]) -> np.ndarray:
    """One step of the recursion: e[t] of every block under k decisions each.

    states holds the states of the frames before t (states past the start
    count as zero); modes and ref_dist are (n_mb, k), mv is (n_mb, k, 2) and
    delta is (n_mb,).  p is the delivery probability, planned or known 0/1:
    a scalar, or an (n_mb, 1) column with one per block.  Returns (n_mb, k).
    Only e_plus depends on the decision, and it is zero for INTRA, whose mv
    slot holds a base level.
    """
    n_mb = modes.shape[0]
    rows, cols = np.nonzero(modes != MODE_INTRA)
    dist = ref_dist[rows, cols].astype(np.int64)
    depth = int(dist.max()) if dist.size else 0
    refs = np.zeros((depth, n_mb))
    for d in range(1, min(depth, t) + 1):
        refs[d - 1] = states[t - d]
    e_plus = np.zeros(modes.shape)
    e_plus[rows, cols] = gamma * footprint_state_sum(
        refs, dist, mv[rows, cols, 0].astype(np.int64),
        mv[rows, cols, 1].astype(np.int64), rows, grid)
    prev = states[t - 1] if t >= 1 else np.zeros(n_mb)
    return p * e_plus + (1.0 - p) * (prev + delta)[:, None]


# ---------------------------------------------------------------------------
# sender-side expectation lattice
# ---------------------------------------------------------------------------

@dataclass
class _FrameRecord:
    modes: np.ndarray
    ref_dist: np.ndarray
    mv: np.ndarray
    delta: np.ndarray
    p: np.ndarray               # per-MB delivery probability currently assumed


class ExpectedErrorTracker:
    """Expected decoder error per MB for one (view, component) stream.

    States are pushed one frame at a time with the final coding decisions.
    Delivery outcomes learned later rewrite the affected frame's
    probabilities to 0/1 and re-propagate everything newer.
    """

    def __init__(self, grid: tuple[int, int], planned_receive_prob: float,
                 gamma: float):
        if not 0.0 <= planned_receive_prob <= 1.0:
            raise TrackingError("planned_receive_prob must be in [0, 1]")
        if not 0.0 < gamma <= 1.0:
            raise TrackingError("gamma must be in (0, 1]")
        self.grid = grid
        self.n_mb = grid[0] * grid[1]
        self.gamma = gamma
        self.p_plan = planned_receive_prob
        self._frames: list[_FrameRecord] = []
        self._states: list[np.ndarray] = []

    @property
    def frame_count(self) -> int:
        return len(self._frames)

    def state(self, t: int) -> np.ndarray:
        return self._states[t]

    def candidate_errors(self, t: int, cset: CandidateSet,
                         delta: np.ndarray) -> np.ndarray:
        """(n_mb, n_cand) expected error of frame t under every candidate of
        cset, at the planned delivery probability."""
        shape = cset.mv.shape[:2]
        return expected_errors(self._states, t,
                               np.broadcast_to(cset.mode_col, shape),
                               np.broadcast_to(cset.ref_col, shape), cset.mv,
                               delta, self.p_plan, self.gamma, self.grid)

    def _compute_state(self, t: int) -> np.ndarray:
        rec = self._frames[t]
        return expected_errors(self._states, t, rec.modes[:, None],
                               rec.ref_dist[:, None], rec.mv[:, None],
                               rec.delta, rec.p[:, None], self.gamma,
                               self.grid)[:, 0]

    def push_frame(self, modes: np.ndarray, ref_dist: np.ndarray,
                   mv: np.ndarray, delta: np.ndarray) -> None:
        t = len(self._frames)
        self._frames.append(_FrameRecord(
            modes=np.asarray(modes), ref_dist=np.asarray(ref_dist),
            mv=np.asarray(mv), delta=np.asarray(delta, dtype=np.float64),
            p=np.full(self.n_mb, self.p_plan)))
        self._states.append(np.zeros(self.n_mb))
        self._states[t] = self._compute_state(t)

    def set_frame_outcome(self, t: int, received: np.ndarray) -> None:
        """Replace frame t's assumed probabilities with known 0/1 outcomes.

        An outcome equal to the probabilities already assumed (a fully
        received frame planned with p = 1) would recompute every state as it
        is, so nothing is re-propagated.
        """
        if not 0 <= t < len(self._frames):
            raise TrackingError(f"no frame {t} pushed yet")
        rec = self._frames[t]
        p = np.asarray(received, dtype=np.float64)
        if np.array_equal(p, rec.p):
            return
        rec.p = p
        for f in range(t, len(self._frames)):
            self._states[f] = self._compute_state(f)


# ---------------------------------------------------------------------------
# receiver-side tracking
# ---------------------------------------------------------------------------

def cross_view_states(view: int, state: np.ndarray, opp_state: np.ndarray,
                      opp_planes: tuple[np.ndarray, np.ndarray], eta: float,
                      prev_tex: np.ndarray, prev_state: np.ndarray,
                      lost: np.ndarray, grid: tuple[int, int],
                      min_coverage: int) -> np.ndarray:
    """Texture states of one view after the cross-view delta estimate.

    opp_planes are the opposing view's decoded (texture, disparity), warped
    onto this view.  A lost block with at least min_coverage covered pixels,
    whose covered pixels all map to opposing blocks of error below the
    block's own state, is re-tracked as prev_state + the mean |warped -
    prev_tex| over its covered pixels; every other block keeps its state.
    Only the block rows that hold a lost block are warped: warp_view treats
    each row on its own, and no other row is read.
    """
    wb = grid[1]
    lost_mb = np.flatnonzero(lost)
    br, bc = np.divmod(lost_mb, wb)
    rows, row_of = np.unique(br, return_inverse=True)
    pix = (rows[:, None] * MB_SIZE + np.arange(MB_SIZE)).ravel()
    warped = warp_view(opp_planes[0][pix], opp_planes[1][pix], 1 - view,
                       float(view), eta)

    def per_block(plane: np.ndarray, at: np.ndarray) -> np.ndarray:
        # (lost blocks, 256) gathered at block rows `at` of (-1, 16, wb, 16)
        return (plane.reshape(-1, MB_SIZE, wb, MB_SIZE)[at, :, bc, :]
                .reshape(lost_mb.size, MB_SIZE * MB_SIZE))

    covered = per_block(warped.covered, row_of)
    n_cov = covered.sum(axis=1)
    # the warp is horizontal: a pixel's source block shares its block row
    src_mb = ((br * wb)[:, None]
              + np.maximum(per_block(warped.src_col, row_of), 0) // MB_SIZE)
    worst = np.where(covered, opp_state[src_mb], -np.inf).max(axis=1)
    # integer differences: the sums are exact in any order
    diff = np.abs(per_block(warped.value, row_of).astype(np.int64)
                  - per_block(prev_tex, br).astype(np.int64))
    delta = np.where(covered, diff, 0).sum(axis=1) / np.maximum(n_cov, 1)
    rescue = (n_cov >= min_coverage) & (worst < state[lost_mb])
    out = state.copy()
    out[lost_mb[rescue]] = prev_state[lost_mb[rescue]] + delta[rescue]
    return out


class DecoderTracker:
    """Receiver-side error states for all four planes of a stereo stream."""

    #: minimum warped pixels inside a block for the cross-view delta estimate
    MIN_COVERAGE = (MB_SIZE * MB_SIZE) // 2

    def __init__(self, grid: tuple[int, int], gamma: float, eta: float):
        self.grid = grid
        self.n_mb = grid[0] * grid[1]
        self.gamma = gamma
        self.eta = eta
        self._states: dict[tuple[int, int], list[np.ndarray]] = {
            key: [] for key in PLANE_ORDER}

    def state(self, view: int, component: int, t: int) -> np.ndarray:
        return self._states[(view, component)][t]

    def update_frame(self, t: int,
                     decoded: dict[tuple[int, int], list[np.ndarray]],
                     encoded: dict[tuple[int, int], EncodedPlane],
                     received: dict[tuple[int, int], np.ndarray]) -> None:
        """Advance all four planes to frame t.

        decoded holds each plane's decoder reconstructions of frames 0..t,
        keyed by (view, component); component 0 is texture, 1 is disparity.
        Every plane is tracked with the co-located innovation between its
        two previous decoded frames as delta.  Texture then gets a second
        pass that upgrades the delta of lost blocks from the opposing view's
        warped texture when that view, as tracked before this pass, is
        strictly more reliable and covers at least half the block.
        """
        done = len(self._states[(0, 0)])
        if t != done:
            raise TrackingError(f"expected frame {done}, got {t}")
        for key in PLANE_ORDER:
            dec, rcv, enc = decoded[key], received[key], encoded[key]
            delta = (innovation_term(dec[t - 1], dec[t - 2]) if t >= 2
                     else np.zeros(self.n_mb))
            # the decoder never reads the record of a lost block, so neither
            # do we: such a row propagates as INTRA and carries no weight
            self._states[key].append(expected_errors(
                self._states[key], t,
                np.where(rcv, enc.modes, MODE_INTRA)[:, None],
                np.where(rcv, enc.ref_dist, 0)[:, None], enc.mv[:, None],
                delta, rcv[:, None].astype(np.float64), self.gamma,
                self.grid)[:, 0])

        tracked = [self._states[(view, 0)][t] for view in (0, 1)]
        for view in (0, 1):
            lost = ~received[(view, 0)]
            if not lost.any():
                continue
            opp = 1 - view
            series = self._states[(view, 0)]
            if t >= 1:
                prev_tex, prev_state = decoded[(view, 0)][t - 1], series[t - 1]
            else:
                prev_tex = np.full_like(decoded[(view, 0)][0], 128)
                prev_state = np.zeros(self.n_mb)
            series[t] = cross_view_states(
                view, tracked[view], tracked[opp],
                (decoded[(opp, 0)][t], decoded[(opp, 1)][t]), self.eta,
                prev_tex, prev_state, lost, self.grid, self.MIN_COVERAGE)
