"""Hand-rolled reference computations for the derived behaviour checks.

Everything here sticks to the plainest formulation available (explicit
loops, Counter-based entropy, Fraction arithmetic) so a disagreement with
the vectorized implementations actually means something.  The oracle
warp, worst-case and curvature kernels are the package's earlier,
sort- and gather-based versions, and the oracle receiver tracker its earlier
history-copying one, kept as bit-exact references.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fvstream.codec import (INTRA_BASE_BITS, MODE_BITS, MODE_INTER, MODE_INTRA,
                            MODE_SKIP, SKIP_BITS, CandidateSet, CodecConfig,
                            CodecError, EncodedPlane, _DCT4, _displacements,
                            apply_residual, build_inter_candidates,
                            code_against_prediction, exp_golomb_signed_bits,
                            motion_search, plane_blocks, predictor_blocks)
from fvstream.errortrack import (TrackingError, expected_errors,
                                 footprint_state_sum, innovation_term)
from fvstream.frames import MB_SIZE
from fvstream.sensitivity import SensitivityParams
from fvstream.synthesis import (SynthesisError, WarpedView, shift_factor,
                                warp_view)

MB = 16


# --- rate model -------------------------------------------------------------

def exp_golomb_signed_len(v: int) -> int:
    """Signed order-0 exp-Golomb code length."""
    u = 2 * v - 1 if v > 0 else -2 * v
    return 2 * (u + 1).bit_length() - 1


def entropy_bits(symbols) -> int:
    """Ceil of the zero-order empirical entropy of the symbols, in bits."""
    syms = [int(s) for s in symbols]
    n = len(syms)
    total = 0.0
    for c in Counter(syms).values():
        total += c * (math.log2(n) - math.log2(c))
    # tiny slack so exact power-of-two distributions do not round up
    return math.ceil(total - 1e-9)


def entropy_exact(symbols) -> float:
    syms = [int(s) for s in symbols]
    n = len(syms)
    return sum(c * (math.log2(n) - math.log2(c)) for c in Counter(syms).values())


@dataclass(frozen=True)
class BlockDecision:
    """Coding choice for one macroblock."""

    mode: int
    ref_distance: int = 0          # t - tau, at least 1 for INTER and SKIP
    mv: tuple[int, int] = (0, 0)   # (dx, dy) content displacement
    intra_base: int = 128          # flat predictor level, INTRA only

    def __post_init__(self) -> None:
        if self.mode not in (MODE_INTRA, MODE_INTER, MODE_SKIP):
            raise CodecError(f"unknown mode {self.mode}")
        if self.mode == MODE_INTRA and self.ref_distance != 0:
            raise CodecError("intra blocks carry no reference")
        if self.mode == MODE_INTRA and not 0 <= self.intra_base <= 255:
            raise CodecError("intra base level must fit in 8 bits")
        if self.mode in (MODE_INTER, MODE_SKIP) and self.ref_distance < 1:
            raise CodecError("inter and skip blocks need a reference distance >= 1")
        if self.mode == MODE_SKIP and self.mv != (0, 0):
            raise CodecError("skip implies zero motion")


def decision_bits(decision: BlockDecision, residual_bit_count: int) -> int:
    """Total rate of one macroblock under the bit accounting model."""
    if decision.mode == MODE_SKIP:
        return SKIP_BITS
    if decision.mode == MODE_INTRA:
        return MODE_BITS + INTRA_BASE_BITS + int(residual_bit_count)
    dx, dy = decision.mv
    mv_bits = int(exp_golomb_signed_bits(np.array([dx, dy])).sum())
    return MODE_BITS + decision.ref_distance + mv_bits + int(residual_bit_count)


# --- transform --------------------------------------------------------------

def tiles(blocks: np.ndarray) -> np.ndarray:
    """(N, 16, 16) -> (N*16, 4, 4), tile (bi, bj) of block n at n*16 + bi*4 + bj."""
    n = blocks.shape[0]
    return (blocks.reshape(n, 4, 4, 4, 4)
                  .transpose(0, 1, 3, 2, 4)
                  .reshape(n * 16, 4, 4))


def untile(t: np.ndarray) -> np.ndarray:
    """Inverse of tiles."""
    n = t.shape[0] // 16
    return (t.reshape(n, 4, 4, 4, 4)
                 .transpose(0, 1, 3, 2, 4)
                 .reshape(n, 16, 16))


def tile_dct16(blocks) -> np.ndarray:
    """dct16 as one batched 4x4 matmul pair per tile: _DCT4 @ t @ _DCT4.T."""
    return untile(_DCT4 @ tiles(np.asarray(blocks, dtype=np.float64)) @ _DCT4.T)


def tile_idct16(coeffs) -> np.ndarray:
    """idct16 per tile: _DCT4.T @ t @ _DCT4."""
    return untile(_DCT4.T @ tiles(np.asarray(coeffs, dtype=np.float64)) @ _DCT4)


# --- motion search ----------------------------------------------------------

def block_sad(cur_block, ref_plane, top: int, left: int, mv) -> int:
    """SAD of one block against its predictor at (top - dy, left - dx)."""
    dx, dy = (int(v) for v in mv)
    pred = np.asarray(ref_plane, dtype=np.int64)[top - dy:top - dy + MB,
                                                 left - dx:left - dx + MB]
    return int(np.abs(np.asarray(cur_block, dtype=np.int64) - pred).sum())


def naive_best_mv(cur_block, ref_plane, top: int, left: int, search_range: int):
    """Exhaustive full-overlap SAD search, ties by (|dx|+|dy|, dy, dx).

    Returns ((dx, dy), sad) with the predictor taken at (top-dy, left-dx).
    """
    h, w = ref_plane.shape
    cur = np.asarray(cur_block, dtype=np.int64)
    ref = np.asarray(ref_plane, dtype=np.int64)
    best_key = None
    best = None
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            pr, pc = top - dy, left - dx
            if pr < 0 or pc < 0 or pr + MB > h or pc + MB > w:
                continue
            sad = int(np.abs(cur - ref[pr:pr + MB, pc:pc + MB]).sum())
            key = (sad, abs(dx) + abs(dy), dy, dx)
            if best_key is None or key < best_key:
                best_key, best = key, ((dx, dy), sad)
    return best


def per_displacement_search(cur: np.ndarray, refs: np.ndarray, search_range: int
                            ) -> np.ndarray:
    """motion_search as a compare per displacement: each displacement's
    block SADs replace the running best where strictly lower, so a tie
    keeps the earlier displacement in displacement_order."""
    H, W = cur.shape
    R = refs.shape[0]
    hb, wb = H // MB, W // MB
    disps, table = _displacements(search_range)
    best_sad = np.full((R, hb, wb), np.iinfo(np.int32).max, dtype=np.int32)
    best_k = np.zeros((R, hb, wb), dtype=np.int32)
    for k, (dx, dy) in enumerate(disps):
        i0, i1 = max(0, -(-dy // MB)), min(hb, hb + dy // MB)
        j0, j1 = max(0, -(-dx // MB)), min(wb, wb + dx // MB)
        if i0 >= i1 or j0 >= j1:
            continue
        r0, r1, c0, c1 = i0 * MB, i1 * MB, j0 * MB, j1 * MB
        a = cur[r0:r1, c0:c1]
        b = refs[:, r0 - dy:r1 - dy, c0 - dx:c1 - dx]
        diff = np.maximum(a, b) - np.minimum(a, b)
        colsum = diff.reshape(R, i1 - i0, MB, c1 - c0).sum(2, dtype=np.uint16)
        sad = colsum.reshape(R, i1 - i0, j1 - j0, MB).sum(3, dtype=np.int32)
        best = best_sad[:, i0:i1, j0:j1]
        better = sad < best
        np.copyto(best, sad, where=better)
        np.copyto(best_k[:, i0:i1, j0:j1], k, where=better)
    return table[best_k.reshape(R, -1)]


# --- single-block coding -----------------------------------------------------

def intra_base_level(orig_block) -> int:
    """Transmitted flat-predictor level: the rounded block mean, clipped to 8 bits."""
    return int(np.clip(np.rint(np.asarray(orig_block, dtype=np.float64).mean()),
                       0, 255))


def code_intra_block(orig_block, step: int):
    """Code one block INTRA; returns (q, recon, bits, distortion, base)."""
    base = intra_base_level(orig_block)
    pred = np.full((1, MB, MB), float(base))
    q, rec, rbits, dist = code_against_prediction(
        pred, np.asarray(orig_block, dtype=np.float64)[None], step)
    return (q[0], rec[0], MODE_BITS + INTRA_BASE_BITS + int(rbits[0]),
            float(dist[0]), base)


def candidate_search(plane, mb_index: int, refs, cfg) -> list[dict]:
    """Candidate list for a single macroblock, in selection order.

    A per-block view of the batched path's motion columns, then the INTRA
    candidate coded block by block, last.
    """
    out = []
    if refs:
        cset = build_inter_candidates(plane, refs[:cfg.ref_window], cfg)
        for c in range(cset.mode_col.size - 1):
            out.append({
                "decision": BlockDecision(int(cset.mode_col[c]),
                                          int(cset.ref_col[c]),
                                          (int(cset.mv[mb_index, c, 0]),
                                           int(cset.mv[mb_index, c, 1]))),
                "bits": int(cset.bits[mb_index, c]),
                "distortion": float(cset.distortion[mb_index, c]),
                "recon": cset.recon[mb_index, c],
                "coeffs": cset.coeffs[mb_index, c],
            })
    orig = plane_blocks(plane)[mb_index].astype(np.float64)
    q, rec, ibits, idist, base = code_intra_block(orig, cfg.quant_step)
    out.append({
        "decision": BlockDecision(MODE_INTRA, intra_base=base),
        "bits": ibits,
        "distortion": idist,
        "recon": rec,
        "coeffs": q,
    })
    return out


def oracle_inter_candidates(cur: np.ndarray, refs: list[np.ndarray],
                            cfg: CodecConfig) -> CandidateSet:
    """Search and trial-code every candidate of one plane, INTRA last, one
    column at a time: the batched path's reference.

    refs[d-1] is the reconstructed plane at distance d; the list is already
    limited to the frames available inside the reference window, and may be
    empty.
    """
    h, w = cur.shape
    grid = (h // MB_SIZE, w // MB_SIZE)
    n_mb = grid[0] * grid[1]
    n_refs = len(refs)
    n_cand = 2 + 2 * n_refs if refs else 1

    mode_col = np.empty(n_cand, dtype=np.uint8)
    ref_col = np.empty(n_cand, dtype=np.int16)
    mv = np.zeros((n_mb, n_cand, 2), dtype=np.int16)
    bits = np.empty((n_mb, n_cand), dtype=np.int64)
    distortion = np.empty((n_mb, n_cand))
    recon = np.empty((n_mb, n_cand, MB_SIZE, MB_SIZE), dtype=np.uint8)
    coeffs = np.zeros((n_mb, n_cand, MB_SIZE, MB_SIZE), dtype=np.int16)

    # last column: INTRA, coded block by block, its base level riding the
    # mv slot
    mode_col[-1], ref_col[-1] = MODE_INTRA, 0
    for m, block in enumerate(plane_blocks(cur)):
        (coeffs[m, -1], recon[m, -1], bits[m, -1], distortion[m, -1],
         mv[m, -1, 0]) = code_intra_block(block, cfg.quant_step)

    if refs:
        ref_stack = np.stack(refs)
        best_mv = motion_search(cur, ref_stack, cfg.search_range)
        orig_blocks = plane_blocks(cur).astype(np.float64)

        # column 0: SKIP
        coloc0 = plane_blocks(refs[0])
        mode_col[0] = MODE_SKIP
        ref_col[0] = 1
        bits[:, 0] = SKIP_BITS
        recon[:, 0] = coloc0
        distortion[:, 0] = np.abs(coloc0.astype(np.float64)
                                  - orig_blocks).mean(axis=(1, 2))

    for d in range(1, n_refs + 1):
        cz, cb = 2 * d - 1, 2 * d
        mode_col[cz] = mode_col[cb] = MODE_INTER
        ref_col[cz] = ref_col[cb] = d
        mv[:, cb, :] = best_mv[d - 1]

        coloc = plane_blocks(refs[d - 1]).astype(np.float64)
        q, rec, rbits, dist = code_against_prediction(coloc, orig_blocks,
                                                      cfg.quant_step)
        # a searched (0, 0) vector repeats the zero-motion prediction: code
        # only the moved blocks and copy the rest
        moved = np.flatnonzero(best_mv[d - 1].any(axis=1))
        coeffs[:, cz] = coeffs[:, cb] = q
        recon[:, cz] = recon[:, cb] = rec
        distortion[:, cz] = distortion[:, cb] = dist
        rbits_b = rbits.copy()
        if moved.size:
            searched = predictor_blocks(ref_stack, d, best_mv[d - 1, moved],
                                        moved, grid)
            (coeffs[moved, cb], recon[moved, cb], rbits_b[moved],
             distortion[moved, cb]) = code_against_prediction(
                searched, orig_blocks[moved], cfg.quant_step)
        for col, rb in ((cz, rbits), (cb, rbits_b)):
            mv_bits = exp_golomb_signed_bits(mv[:, col, :]).sum(axis=1)
            bits[:, col] = MODE_BITS + d + mv_bits + rb

    return CandidateSet(mode_col=mode_col, ref_col=ref_col, mv=mv, bits=bits,
                        distortion=distortion, recon=recon, coeffs=coeffs,
                        quant_step=cfg.quant_step)


# --- per-block decoding -----------------------------------------------------

def block_decision(enc: EncodedPlane, m: int) -> BlockDecision:
    """The decision record of block m (an INTRA mv slot carries the base)."""
    mode = int(enc.modes[m])
    if mode == MODE_INTRA:
        return BlockDecision(MODE_INTRA, intra_base=int(enc.mv[m, 0]))
    return BlockDecision(mode, int(enc.ref_dist[m]),
                         (int(enc.mv[m, 0]), int(enc.mv[m, 1])))


def conceal_block(prev_plane, mb_r: int, mb_c: int) -> np.ndarray:
    """Temporal copy concealment; mid-gray for a first frame without history."""
    if prev_plane is None:
        return np.full((MB, MB), 128, dtype=np.uint8)
    r0, c0 = mb_r * MB, mb_c * MB
    return prev_plane[r0:r0 + MB, c0:c0 + MB].copy()


def reconstruct_block(decision: BlockDecision, qcoeffs, refs, step: int,
                      mb_r: int, mb_c: int) -> np.ndarray:
    """Rebuild one block from its decision, validating the reference access."""
    r0, c0 = mb_r * MB, mb_c * MB
    if decision.mode == MODE_INTRA:
        pred = np.full((1, MB, MB), float(decision.intra_base))
        return apply_residual(pred, np.asarray(qcoeffs)[None], step)[0]
    if decision.ref_distance > len(refs):
        raise CodecError(
            f"reference distance {decision.ref_distance} outside the buffer "
            f"({len(refs)} planes)")
    ref = refs[decision.ref_distance - 1]
    if decision.mode == MODE_SKIP:
        return ref[r0:r0 + MB, c0:c0 + MB].copy()
    dx, dy = decision.mv
    pr, pc = r0 - dy, c0 - dx
    h, w = ref.shape
    if pr < 0 or pc < 0 or pr + MB > h or pc + MB > w:
        raise CodecError(f"motion vector {decision.mv} leaves the frame")
    pred = ref[pr:pr + MB, pc:pc + MB].astype(np.float64)
    return apply_residual(pred[None], np.asarray(qcoeffs)[None], step)[0]


def oracle_decode_plane(enc: EncodedPlane, refs, conceal_source, received):
    """Decode one plane block by block in raster order, concealing losses."""
    hb, wb = enc.grid
    out = np.empty((hb * MB, wb * MB), dtype=np.uint8)
    concealed = np.zeros(hb * wb, dtype=bool)
    for m in range(hb * wb):
        mb_r, mb_c = divmod(m, wb)
        r0, c0 = mb_r * MB, mb_c * MB
        if not received[m]:
            block = conceal_block(conceal_source, mb_r, mb_c)
            concealed[m] = True
        else:
            block = reconstruct_block(block_decision(enc, m), enc.coeffs[m],
                                      refs, enc.quant_step, mb_r, mb_c)
        out[r0:r0 + MB, c0:c0 + MB] = block
    return out, concealed


# --- expected-error recursion -----------------------------------------------

def footprint_weights(mb_index: int, mv, grid) -> dict[int, float]:
    """Per-pixel count of where a block's predictor lands, as fractions."""
    hb, wb = grid
    r0 = (mb_index // wb) * MB
    c0 = (mb_index % wb) * MB
    dx, dy = int(mv[0]), int(mv[1])
    counts: Counter = Counter()
    for i in range(MB):
        for j in range(MB):
            pr, pc = r0 + i - dy, c0 + j - dx
            if not (0 <= pr < hb * MB and 0 <= pc < wb * MB):
                raise ValueError("predictor pixel outside the frame")
            counts[(pr // MB) * wb + (pc // MB)] += 1
    return {m: n / 256.0 for m, n in counts.items()}


def mc_decoder_mean(frames, p_receive: float, gamma: float, grid,
                    trials: int, seed: int, protected_frames=()):
    """Monte-Carlo mean of the receiver error recursion under iid reception.

    frames is a list of (modes, ref_dist, mv, delta) tuples, one per coded
    frame; every block is received independently with probability p_receive,
    except in protected_frames where delivery is certain.  Returns one
    (n_mb,) mean array per frame.
    """
    rng = np.random.default_rng(seed)
    n_mb = grid[0] * grid[1]
    hist: list[np.ndarray] = []
    means = []
    for modes, ref_dist, mv, delta in frames:
        t = len(hist)
        e_plus = np.zeros((trials, n_mb))
        for m in range(n_mb):
            if modes[m] == MODE_INTRA:
                continue
            src = hist[t - int(ref_dist[m])]
            acc = np.zeros(trials)
            for ref_mb, wgt in footprint_weights(m, mv[m], grid).items():
                acc += wgt * src[:, ref_mb]
            e_plus[:, m] = gamma * acc
        prev = hist[-1] if hist else np.zeros((trials, n_mb))
        e_minus = prev + np.asarray(delta, dtype=np.float64)[None, :]
        if t in protected_frames:
            got = np.ones((trials, n_mb), dtype=bool)
        else:
            got = rng.random((trials, n_mb)) < p_receive
        cur = np.where(got, e_plus, e_minus)
        hist.append(cur)
        means.append(cur.mean(axis=0))
    return means


def replay_recursion(frames, receive_prob, gamma: float, grid):
    """Deterministic error recursion for known per-frame delivery odds.

    receive_prob[t] is a per-MB array of delivery probabilities (0/1 for a
    known outcome); returns the state after each frame.
    """
    n_mb = grid[0] * grid[1]
    hist: list[np.ndarray] = []
    for t, (modes, ref_dist, mv, delta) in enumerate(frames):
        e_plus = np.zeros(n_mb)
        for m in range(n_mb):
            if modes[m] == MODE_INTRA:
                continue
            src = hist[t - int(ref_dist[m])]
            e_plus[m] = gamma * sum(w * src[r] for r, w
                                    in footprint_weights(m, mv[m], grid).items())
        prev = hist[-1] if hist else np.zeros(n_mb)
        e_minus = prev + np.asarray(delta, dtype=np.float64)
        p = np.asarray(receive_prob[t], dtype=np.float64)
        hist.append(p * e_plus + (1.0 - p) * e_minus)
    return hist


def oracle_taint_lattice(decisions, lost, grid) -> list[np.ndarray]:
    """Boolean loss-taint mask per frame, built from frame 0.

    decisions[f] is (modes, ref_dist, mv); lost[f] is the per-MB lost mask
    of a frame with a known outcome, or None while it is unknown.  A block
    is tainted when known lost, or when it is INTER/SKIP and its predictor
    overlaps a tainted block of its reference frame.
    """
    n_mb = grid[0] * grid[1]
    out: list[np.ndarray] = []
    idx = np.arange(n_mb)
    for f, (modes, ref_dist, mv) in enumerate(decisions):
        taint = (np.asarray(lost[f], dtype=bool).copy()
                 if lost[f] is not None else np.zeros(n_mb, dtype=bool))
        inter = modes != MODE_INTRA
        if f > 0 and inter.any():
            depth = int(ref_dist[inter].max())
            stack = np.zeros((depth, n_mb))
            for d in range(1, depth + 1):
                if f - d >= 0:
                    stack[d - 1] = out[f - d].astype(np.float64)
            dist = np.where(inter, ref_dist, 1).astype(np.int64)
            # intra mv slots hold base levels, not displacements
            dx = np.where(inter, mv[:, 0], 0).astype(np.int64)
            dy = np.where(inter, mv[:, 1], 0).astype(np.int64)
            overlap = footprint_state_sum(stack, dist, dx, dy, idx, grid)
            taint |= inter & (overlap > 0.0)
        out.append(taint)
    return out


def oracle_cross_view_states(state, opp_state, warped, prev_tex, prev_state,
                             lost, grid, min_coverage: int) -> np.ndarray:
    """The receiver's cross-view pass, one lost block at a time, over the
    opposing view warped as a whole plane."""
    hb, wb = grid
    src_mb_err = np.repeat(np.repeat(np.asarray(opp_state, dtype=np.float64)
                                     .reshape(hb, wb), MB, axis=0), MB, axis=1)
    src_err_at_t = np.where(
        warped.covered,
        np.take_along_axis(src_mb_err, np.clip(warped.src_col, 0,
                                               src_mb_err.shape[1] - 1), axis=1),
        0.0)
    final = np.array(state, dtype=np.float64)
    for m in np.flatnonzero(lost):
        r0 = (m // wb) * MB
        c0 = (m % wb) * MB
        sl = np.s_[r0:r0 + MB, c0:c0 + MB]
        cov = warped.covered[sl]
        n_cov = int(cov.sum())
        if n_cov < min_coverage:
            continue
        if float(src_err_at_t[sl][cov].max()) >= float(state[m]):
            continue
        diff = np.abs(warped.value[sl].astype(np.float64)
                      - prev_tex[sl].astype(np.float64))
        delta1 = float(diff[cov].sum() / n_cov)
        final[m] = prev_state[m] + delta1
    return final



# --- receiver tracking ------------------------------------------------------

def estimate_delta_history(dec_prev: np.ndarray | None,
                           dec_prevprev: np.ndarray | None,
                           grid: tuple[int, int]) -> np.ndarray:
    """Per-MB receiver delta from decoded history (no cross-view term).

    Co-located mean absolute difference of the two previous decoded frames.
    With fewer than two frames of history no co-located pair exists anywhere,
    so the spatial-neighbor fallback averages an empty set: zero everywhere.
    """
    if dec_prev is None or dec_prevprev is None:
        return np.zeros(grid[0] * grid[1])
    return innovation_term(dec_prev, dec_prevprev)


class OracleDecoderTracker:
    """The package's earlier receiver tracker, which keeps its own copy of
    the last two decoded frames and takes frame t's planes alone."""

    #: minimum warped pixels inside a block for the cross-view delta estimate
    MIN_COVERAGE = (MB_SIZE * MB_SIZE) // 2

    def __init__(self, grid: tuple[int, int], gamma: float, eta: float):
        self.grid = grid
        self.n_mb = grid[0] * grid[1]
        self.gamma = gamma
        self.eta = eta
        self._states: dict[tuple[int, int], list[np.ndarray]] = {
            (v, comp): [] for v in (0, 1) for comp in (0, 1)}
        self._history: dict[tuple[int, int], list[np.ndarray]] = {
            (v, comp): [] for v in (0, 1) for comp in (0, 1)}

    def state(self, view: int, component: int, t: int) -> np.ndarray:
        return self._states[(view, int(component))][t]

    def frame_count(self) -> int:
        return len(self._states[(0, 0)])

    def _prev_decoded(self, view: int, comp: int, back: int) -> np.ndarray | None:
        series = self._history[(view, comp)]
        return series[-back] if len(series) >= back else None

    def _track_plane(self, view: int, comp: int, t: int, enc: EncodedPlane,
                     received: np.ndarray, delta: np.ndarray) -> np.ndarray:
        # the decoder never reads the record of a lost block, so neither do
        # we: such a row propagates as INTRA and carries no weight below
        modes = np.where(received, enc.modes, MODE_INTRA)[:, None]
        ref_dist = np.where(received, enc.ref_dist, 0)[:, None]
        return expected_errors(self._states[(view, comp)], t, modes, ref_dist,
                               enc.mv[:, None], delta,
                               received[:, None].astype(np.float64),
                               self.gamma, self.grid)[:, 0]

    def update_frame(self, t: int,
                     decoded: dict[tuple[int, int], np.ndarray],
                     encoded: dict[tuple[int, int], EncodedPlane],
                     received: dict[tuple[int, int], np.ndarray]) -> None:
        """Advance all four planes to frame t.

        decoded holds the frame-t decoder reconstructions keyed by
        (view, component); component 0 is texture, 1 is disparity.
        Disparity planes are tracked first (history rules only); texture
        then gets a second pass that upgrades delta estimates of lost blocks
        from the opposing view's warped texture when that view is strictly
        more reliable and covers at least half the block.
        """
        if t != self.frame_count():
            raise TrackingError(f"expected frame {self.frame_count()}, got {t}")

        for view in (0, 1):
            key = (view, 1)
            delta = estimate_delta_history(self._prev_decoded(view, 1, 1),
                                           self._prev_decoded(view, 1, 2),
                                           self.grid)
            self._states[key].append(self._track_plane(view, 1, t, encoded[key],
                                                       received[key], delta))

        # texture pass A: history-based deltas for both views
        pass_a: dict[int, np.ndarray] = {}
        for view in (0, 1):
            delta = estimate_delta_history(self._prev_decoded(view, 0, 1),
                                           self._prev_decoded(view, 0, 2),
                                           self.grid)
            pass_a[view] = self._track_plane(view, 0, t, encoded[(view, 0)],
                                             received[(view, 0)], delta)

        # texture pass B: cross-view delta for lost blocks where the
        # opposing view is strictly more reliable
        for view in (0, 1):
            final = pass_a[view]
            lost = ~received[(view, 0)]
            if lost.any():
                opp = 1 - view
                warped = warp_view(decoded[(opp, 0)], decoded[(opp, 1)], opp,
                                   float(view), self.eta)
                prev_tex = self._prev_decoded(view, 0, 1)
                if prev_tex is None:
                    prev_tex = np.full(decoded[(view, 0)].shape, 128,
                                       dtype=np.uint8)
                prev_state = (self._states[(view, 0)][t - 1] if t >= 1
                              else np.zeros(self.n_mb))
                final = oracle_cross_view_states(
                    pass_a[view], pass_a[opp], warped, prev_tex, prev_state,
                    lost, self.grid, self.MIN_COVERAGE)
            self._states[(view, 0)].append(final)

        for view in (0, 1):
            for comp in (0, 1):
                hist = self._history[(view, comp)]
                hist.append(decoded[(view, comp)].copy())
                if len(hist) > 2:
                    del hist[0]

# --- disparity sensitivity --------------------------------------------------

def pixel_profiles(own_texture: np.ndarray, own_disparity: np.ndarray,
                   opp_texture: np.ndarray, source_view: int, eta: float,
                   max_deviation: int) -> np.ndarray:
    """Per-pixel |own - opposing| mismatch for every disparity offset.

    Returns (2*max_deviation + 1, H, W); index k holds the profile at
    eps = k - max_deviation.  Mapped columns are clamped to the frame.
    """
    h, w = own_texture.shape
    own = own_texture.astype(np.float64)
    opp = opp_texture.astype(np.float64)
    disp = own_disparity.astype(np.float64)
    cols = np.broadcast_to(np.arange(w, dtype=np.int64), (h, w))
    sign = -1 if source_view == 0 else 1
    out = np.empty((2 * max_deviation + 1, h, w))
    for k, eps in enumerate(range(-max_deviation, max_deviation + 1)):
        shift = np.rint((disp + eps) * eta).astype(np.int64)
        mapped = np.clip(cols + sign * shift, 0, w - 1)
        out[k] = np.abs(own - np.take_along_axis(opp, mapped, axis=1))
    return out


def first_crossing(crossed: np.ndarray) -> np.ndarray:
    """Index (1-based) of the first True along axis 0; 0 when none."""
    any_cross = crossed.any(axis=0)
    first = crossed.argmax(axis=0) + 1
    return np.where(any_cross, first, 0)


def oracle_curvature_map(own_texture: np.ndarray, own_disparity: np.ndarray,
                         opp_texture: np.ndarray, source_view: int, eta: float,
                         params: SensitivityParams) -> np.ndarray:
    """curvature_map from the full (2n+1, H, W) profile stack."""
    h, w = own_texture.shape
    hb, wb = h // MB_SIZE, w // MB_SIZE
    n = params.max_deviation
    prof = pixel_profiles(own_texture, own_disparity, opp_texture, source_view,
                          eta, n)
    crossed = prof >= params.threshold
    b_pos = first_crossing(crossed[n + 1:])
    b_neg = first_crossing(crossed[:n][::-1])
    any_side = (b_pos > 0) | (b_neg > 0)
    b = np.minimum(np.where(b_pos > 0, b_pos, n + 1),
                   np.where(b_neg > 0, b_neg, n + 1))
    a_pix = np.where(any_side, (2.0 * params.threshold) / (b * b).astype(np.float64),
                     0.0)
    sums = a_pix.reshape(hb, MB_SIZE, wb, MB_SIZE).sum(axis=(1, 3))
    return (sums / float(MB_SIZE * MB_SIZE)).reshape(hb * wb)


def block_profile(own_texture, own_disparity, opp_texture, source_view: int,
                  eta: float, mb_index: int, max_deviation: int) -> np.ndarray:
    """Mean mismatch profile of one macroblock over eps in [-max, max]."""
    wb = own_texture.shape[1] // MB
    r0 = (mb_index // wb) * MB
    c0 = (mb_index % wb) * MB
    prof = pixel_profiles(own_texture, own_disparity, opp_texture, source_view,
                          eta, max_deviation)
    block = prof[:, r0:r0 + MB, c0:c0 + MB]
    return block.sum(axis=(1, 2)) / float(MB * MB)


def brute_profile(own_tex, own_disp, opp_tex, view: int, eta: float,
                  max_dev: int, r: int, c: int) -> np.ndarray:
    """d(eps) for one pixel over eps in [-max_dev, max_dev]."""
    w = own_tex.shape[1]
    sign = -1 if view == 0 else 1
    vals = []
    for eps in range(-max_dev, max_dev + 1):
        shift = int(np.rint((float(own_disp[r, c]) + eps) * eta))
        mapped = min(max(c + sign * shift, 0), w - 1)
        vals.append(abs(float(own_tex[r, c]) - float(opp_tex[r, mapped])))
    return np.array(vals)


def brute_pixel_curvature(profile, threshold: float, max_dev: int) -> float:
    """Parabola coefficient from the nearest threshold crossing, either side."""
    center = max_dev
    b_pos = b_neg = 0
    for i in range(1, max_dev + 1):
        if profile[center + i] >= threshold:
            b_pos = i
            break
    for i in range(1, max_dev + 1):
        if profile[center - i] >= threshold:
            b_neg = i
            break
    sides = [b for b in (b_pos, b_neg) if b > 0]
    if not sides:
        return 0.0
    b = min(sides)
    return 2.0 * threshold / float(b * b)


# --- warping and blending ---------------------------------------------------

def oracle_warp_view(texture: np.ndarray, disparity: np.ndarray,
                     source_view: int, position: float,
                     eta: float = 1.0) -> WarpedView:
    """warp_view as a lexsort z-buffer: larger disparity wins a target,
    then smaller source column."""
    if source_view not in (0, 1):
        raise SynthesisError("source_view must be 0 or 1")
    h, w = texture.shape
    factor = shift_factor(source_view, position, eta)
    shift = np.rint(disparity.astype(np.float64) * factor).astype(np.int64)
    cols = np.broadcast_to(np.arange(w, dtype=np.int64), (h, w))
    tcol = cols - shift if source_view == 0 else cols + shift

    inframe = (tcol >= 0) & (tcol < w)
    rows = np.broadcast_to(np.arange(h, dtype=np.int64)[:, None], (h, w))
    src_r = rows[inframe]
    src_c = cols[inframe]
    tgt = src_r * w + tcol[inframe]
    disp = disparity.astype(np.int64)[inframe]

    # per target: larger disparity wins, then smaller source column
    order = np.lexsort((src_c, -disp, tgt))
    tgt_sorted = tgt[order]
    first = np.ones(tgt_sorted.shape[0], dtype=bool)
    first[1:] = tgt_sorted[1:] != tgt_sorted[:-1]
    win = order[first]

    covered = np.zeros(h * w, dtype=bool)
    value = np.zeros(h * w, dtype=np.uint8)
    out_disp = np.zeros(h * w, dtype=np.int64)
    out_src = np.full(h * w, -1, dtype=np.int64)
    covered[tgt_sorted[first]] = True
    value[tgt_sorted[first]] = texture[inframe][win]
    out_disp[tgt_sorted[first]] = disp[win]
    out_src[tgt_sorted[first]] = src_c[win]
    return WarpedView(covered=covered.reshape(h, w),
                      value=value.reshape(h, w),
                      disparity=out_disp.reshape(h, w),
                      src_col=out_src.reshape(h, w))


def oracle_expand_block_values(values, grid: tuple[int, int]) -> np.ndarray:
    """Per-MB values repeated to per-pixel resolution, rows then columns."""
    m = np.asarray(values, dtype=np.float64).reshape(grid)
    return np.repeat(np.repeat(m, MB_SIZE, axis=0), MB_SIZE, axis=1)


def oracle_worst_case_distortion_map(texture: np.ndarray,
                                     block_texture_error: np.ndarray,
                                     block_disparity_error: np.ndarray,
                                     factor: float) -> np.ndarray:
    """worst_case_distortion_map by clamped gathers at every offset, both
    signs, up to the largest radius."""
    h, w = texture.shape
    grid = (h // MB_SIZE, w // MB_SIZE)
    e_pix = oracle_expand_block_values(block_texture_error, grid)
    eps_pix = oracle_expand_block_values(block_disparity_error, grid)
    radius = np.ceil(eps_pix * factor).astype(np.int64)
    x = texture.astype(np.float64)
    d = e_pix.copy()
    max_r = int(radius.max()) if radius.size else 0
    cols = np.broadcast_to(np.arange(w, dtype=np.int64), (h, w))
    for off in range(1, max_r + 1):
        for sgn in (-1, 1):
            l = cols + sgn * off
            ok = (l >= 0) & (l < w) & (off <= radius)
            lc = np.clip(l, 0, w - 1)
            xg = np.take_along_axis(x, lc, axis=1)
            eg = np.take_along_axis(e_pix, lc, axis=1)
            cand = eg + np.abs(xg - x)
            d = np.where(ok, np.maximum(d, cand), d)
    return d


def brute_warp(texture, disparity, view: int, position: float, eta: float):
    """Forward warp with explicit z-buffering.

    Larger disparity wins a target pixel; ties go to the smaller source
    column.  Returns (covered, value, disparity, src_col) arrays.
    """
    h, w = texture.shape
    covered = np.zeros((h, w), dtype=bool)
    value = np.zeros((h, w), dtype=np.int64)
    out_disp = np.zeros((h, w), dtype=np.int64)
    src_col = np.full((h, w), -1, dtype=np.int64)
    factor = position * eta if view == 0 else (1.0 - position) * eta
    for i in range(h):
        for j in range(w):
            d = int(disparity[i, j])
            shift = int(np.rint(d * factor))
            tc = j - shift if view == 0 else j + shift
            if not 0 <= tc < w:
                continue
            if covered[i, tc]:
                if d < out_disp[i, tc]:
                    continue
                if d == out_disp[i, tc] and j > src_col[i, tc]:
                    continue
            covered[i, tc] = True
            value[i, tc] = texture[i, j]
            out_disp[i, tc] = d
            src_col[i, tc] = j
    return covered, value, out_disp, src_col


def _round_half_up(x):
    return np.floor(x + 0.5)


def blend_standard(left, right, position: float):
    """Distance-weighted blend; returns (plane, hole mask)."""
    v = position
    x0 = left.value.astype(np.float64)
    x1 = right.value.astype(np.float64)
    both = left.covered & right.covered
    mixed = _round_half_up((1.0 - v) * x0 + v * x1)
    plane = np.where(both, mixed,
                     np.where(left.covered, x0,
                              np.where(right.covered, x1, 0.0)))
    holes = ~(left.covered | right.covered)
    return plane.astype(np.uint8), holes


def fraction_weights(d0, d1, c):
    """Exact normalized reliability pair."""
    d0, d1, c = Fraction(d0), Fraction(d1), Fraction(c)
    r0 = d1 + c
    r1 = d0 + c
    s = r0 + r1
    return r0 / s, r1 / s


def brute_correspondence(texture, disparity, view: int, eta: float):
    """Block membership and sorted (block, opposing block) pairs from a
    full-baseline warp."""
    h, w = texture.shape
    wb = w // MB
    n_mb = (h // MB) * wb
    position = 1.0 if view == 0 else 0.0
    covered, _, _, src_col = brute_warp(texture, disparity, view, position, eta)
    counts = Counter()
    pairs = set()
    for i in range(h):
        for tc in range(w):
            if not covered[i, tc]:
                continue
            sc = int(src_col[i, tc])
            smb = (i // MB) * wb + sc // MB
            tmb = (i // MB) * wb + tc // MB
            counts[smb] += 1
            pairs.add((smb, tmb))
    member = np.array([counts.get(m, 0) >= (MB * MB) // 2 for m in range(n_mb)])
    return member, sorted(pairs)


# --- rate-distortion selection ----------------------------------------------

def oracle_select(dsrc_cols, chan_cols, bits_cols, lam: float, valid=None):
    """Per-block argmin of (dsrc + chan) + lam * bits, first minimum wins.

    All inputs are (n_mb, n_cols) with the INTRA column last; returns
    (chosen columns, chosen costs) as plain Python lists.
    """
    n_mb, n_cols = np.asarray(dsrc_cols).shape
    chosen, costs = [], []
    for m in range(n_mb):
        best_k, best_cost = None, None
        for k in range(n_cols):
            if valid is not None and not valid[m][k]:
                continue
            cost = (float(dsrc_cols[m][k]) + float(chan_cols[m][k])) \
                + lam * float(bits_cols[m][k])
            if best_cost is None or cost < best_cost:
                best_k, best_cost = k, cost
        if best_k is None:
            best_k, best_cost = 0, float("inf")
        chosen.append(best_k)
        costs.append(best_cost)
    return chosen, costs


def oracle_texture_columns(chan, mode: str, member=None, penalty_fixed=None,
                           cap=None):
    """Channel-term columns for a texture plane, one row per block."""
    n_mb, n_cand = np.asarray(chan).shape
    out = [[0.0] * n_cand for _ in range(n_mb)]
    for m in range(n_mb):
        for k in range(n_cand):
            e = float(chan[m][k])
            if mode == "independent":
                out[m][k] = e
            else:
                if member[m]:
                    out[m][k] = min(e + float(penalty_fixed[m]), float(cap[m]))
                else:
                    out[m][k] = e
    return out


def oracle_depth_columns(chan, mode: str, curvature, member=None,
                         error_fixed=None, cap=None):
    """Channel-term columns for a depth plane under the quadratic penalty."""
    n_mb, n_cand = np.asarray(chan).shape
    out = [[0.0] * n_cand for _ in range(n_mb)]
    for m in range(n_mb):
        a = float(curvature[m])
        for k in range(n_cand):
            eps = float(chan[m][k])
            if mode == "independent":
                out[m][k] = 0.5 * a * eps * eps
            else:
                if member[m]:
                    out[m][k] = min(float(error_fixed[m]) + 0.5 * a * eps * eps,
                                    float(cap[m]))
                else:
                    out[m][k] = 0.5 * a * eps * eps
    return out


def oracle_opposing_cap(member, covering, opp_error_prev, opp_penalty_prev,
                        delta_tex):
    """Worst covering-block fallback value, one entry per block."""
    n_mb = len(member)
    out = []
    for m in range(n_mb):
        if not member[m]:
            out.append(float("inf"))
            continue
        worst = max(float(opp_error_prev[k]) + float(opp_penalty_prev[k])
                    for k in covering[m])
        out.append(worst + float(delta_tex[m]))
    return out
