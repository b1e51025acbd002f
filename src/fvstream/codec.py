"""Simplified block codec: 16x16 macroblocks, three modes, per-block
reference picture selection.

Modes are INTRA (flat prediction at an explicitly transmitted base level),
INTER (integer motion vector into any reference frame within the window) and
SKIP (reference t-1, zero motion, no residual).  Residuals go through a 4x4
orthonormal DCT per tile and uniform scalar quantization.  The rate model
counts, per macroblock:

    mode            2 bits
    INTRA base      8 bits (the flat predictor level)
    INTER reference unary in the frame distance (distance d costs d bits)
    INTER motion    signed exp-Golomb length per component
    residual        empirical zero-order entropy of the 256 quantized
                    coefficients, rounded up to whole bits

so SKIP costs exactly 2 bits and an INTER block into t-1 with zero motion and
zero residual costs 2 + 1 + 2 = 5 bits.  Every kernel works on (N, 16, 16)
stacks of blocks, never on a single block.  Encoder and decoder share one
batched reconstruction path, whole planes at a time: `predictor_blocks`
gathers the motion-compensated predictors and `apply_residual` adds the
dequantized residuals, so without losses the two stay bit identical.

`build_inter_candidates` fills one CandidateSet per plane, one column per
option: SKIP, per reference distance a zero-motion and a searched INTER
column, then INTRA (alone without references); ties keep the first column.
Every column but SKIP is coded through one path: INTRA's flat predictor
(`build_intra_candidates`) is one more predictor beside the INTER ones.  A
trial coding is a pure function of (source block, predictor, step), so the
path runs one trial per distinct (block, predictor) per plane across
frames, not per frame.  A column copies the trial of an earlier column of
its block with the same predictor, or the trial that the plane's
TrialRecord holds from the previous build for the same source block and
predictor; only its header bits are its own.  This is conditional
replenishment, applied to the encoder's own trials.

A motion vector is the displacement of scene content: mv (dx, dy) predicts
the block at (row - dy, col - dx) of the reference frame.  The search emits
only vectors whose predictor lies fully inside the frame.
"""
from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from functools import cache

import numpy as np

from .channel import PLANE_ORDER, Component
from .frames import MB_SIZE

MODE_INTRA = 0
MODE_INTER = 1
MODE_SKIP = 2

MODE_BITS = 2
SKIP_BITS = MODE_BITS

# Intra blocks predict from a flat plane at a transmitted 8-bit level.  The
# predictor uses no neighboring samples on purpose: a decoder holding
# corrupted neighbors still rebuilds the block exactly, so an intra refresh
# always lands clean.
INTRA_BASE_BITS = 8

STREAM_MAGIC = b"FVBS"
STREAM_VERSION = 1

# Odd per-word weights of a predictor's fingerprint: equal predictors always
# share one, and a fingerprint match is compared word for word before use.
_FINGERPRINT = np.random.default_rng(1).integers(
    0, 2 ** 62, MB_SIZE * MB_SIZE // 8, dtype=np.uint64) * 2 + 1


class CodecError(ValueError):
    """Invalid codec configuration, decision or bitstream."""


@dataclass(frozen=True)
class CodecConfig:
    quant_step: int
    search_range: int
    ref_window: int

    def __post_init__(self) -> None:
        if self.quant_step < 1:
            raise CodecError("quant_step must be at least 1")
        if not 1 <= self.search_range <= 64:
            raise CodecError("search_range must be in [1, 64]")
        if not 1 <= self.ref_window <= 16:
            raise CodecError("ref_window must be in [1, 16]")


# ---------------------------------------------------------------------------
# transforms and quantization
# ---------------------------------------------------------------------------

def _dct_matrix(n: int = 4) -> np.ndarray:
    k = np.arange(n)[:, None]
    x = np.arange(n)[None, :]
    m = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * x + 1) * k / (2 * n))
    m[0, :] = np.sqrt(1.0 / n)
    return m


_DCT4 = _dct_matrix(4)


def _tile_transform(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(m @ tile) @ m.T for every 4x4 tile of (N, 16, 16) blocks, as two
    plane-wide products: m over the rows of every tile, then m.T over the
    columns.  Each element is the 4-term dot product of a per-tile matmul."""
    n = len(x)
    a = (np.asarray(x, dtype=np.float64).reshape(n, 4, 4, MB_SIZE)
         .transpose(2, 0, 1, 3).reshape(4, n * 64))   # rows (i), cols (n, bi, c)
    b = (m @ a).reshape(4, n, 4, 4, 4).transpose(1, 2, 0, 3, 4)
    return (b.reshape(n * 64, 4) @ m.T).reshape(n, MB_SIZE, MB_SIZE)


def dct16(blocks: np.ndarray) -> np.ndarray:
    """Tile-wise 4x4 DCT of (N, 16, 16) blocks; output keeps the tile layout."""
    return _tile_transform(blocks, _DCT4)


def idct16(coeffs: np.ndarray) -> np.ndarray:
    return _tile_transform(coeffs, _DCT4.T)


def quantize(coeffs: np.ndarray, step: int) -> np.ndarray:
    """Uniform scalar quantization to int16, the bitstream's coefficient
    type.  A residual within [-255, 255] gives |q| <= 1020 at step 1; a value
    outside int16 raises CodecError instead of wrapping."""
    q = np.rint(np.asarray(coeffs, dtype=np.float64) / step)
    if q.size and not (-32768 <= q.min() and q.max() <= 32767):
        raise CodecError("quantized coefficient outside int16")
    return q.astype(np.int16)


def dequantize(qcoeffs: np.ndarray, step: int) -> np.ndarray:
    return np.asarray(qcoeffs, dtype=np.float64) * step


def apply_residual(pred: np.ndarray, qcoeffs: np.ndarray, step: int) -> np.ndarray:
    """Reconstruct (N, 16, 16) blocks from predictions and quantized coeffs."""
    res = idct16(dequantize(qcoeffs, step))
    return np.clip(np.rint(pred + res), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# rate model
# ---------------------------------------------------------------------------

def exp_golomb_signed_bits(values) -> np.ndarray:
    """Code length of the signed exp-Golomb code, elementwise."""
    v = np.asarray(values, dtype=np.int64)
    u = np.where(v > 0, 2 * v - 1, -2 * v)
    floor_log2 = np.frexp((u + 1).astype(np.float64))[1] - 1
    return (2 * floor_log2 + 1).astype(np.int64)


def residual_bits(qcoeffs: np.ndarray) -> np.ndarray:
    """Empirical zero-order entropy of quantized coefficients, in whole bits:
    (N, 16, 16) blocks in, (N,) int64 out."""
    n = qcoeffs.shape[0]
    m = MB_SIZE * MB_SIZE
    s = np.sort(qcoeffs.reshape(n, m), axis=1)     # int16 sorts fastest
    newrun = np.ones((n, m), dtype=bool)
    newrun[:, 1:] = s[:, 1:] != s[:, :-1]
    starts = np.flatnonzero(newrun.ravel())
    lengths = np.diff(np.append(starts, n * m)).astype(np.float64)
    contrib = lengths * (np.log2(float(m)) - np.log2(lengths))
    rows = starts // m
    sums = np.bincount(rows, weights=contrib, minlength=n)
    return np.ceil(sums).astype(np.int64)


# ---------------------------------------------------------------------------
# motion search
# ---------------------------------------------------------------------------

def displacement_order(search_range: int) -> list[tuple[int, int]]:
    """Candidate displacements sorted by the deterministic tie-break key."""
    return sorted(((dx, dy)
                   for dy in range(-search_range, search_range + 1)
                   for dx in range(-search_range, search_range + 1)),
                  key=lambda d: (abs(d[0]) + abs(d[1]), d[1], d[0]))


@cache
def _displacements(search_range: int
                   ) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """displacement_order and its read-only (n, 2) int16 table, built once
    per search range: the sort alone costs 24-68 us a call."""
    order = tuple(displacement_order(search_range))
    table = np.array(order, dtype=np.int16)
    table.flags.writeable = False
    return order, table


# motion search holds every chunk's column sums within this many bytes
_SEARCH_CHUNK_BYTES = 1 << 20


def motion_search(cur: np.ndarray, refs: np.ndarray, search_range: int
                  ) -> np.ndarray:
    """Exhaustive SAD search for every macroblock against every reference.

    cur: (H, W) uint8 samples; refs: (R, H, W) stacked uint8 reference planes.
    Returns the best vectors, (R, n_mb, 2) int16 as (dx, dy).  A tie keeps
    the first minimum in displacement_order: the smallest |dx|+|dy|, then
    smallest dy, then smallest dx.  Displacements whose predictor leaves the
    frame are never selected.  Displacements are searched in chunks whose
    column-sum table stays within _SEARCH_CHUNK_BYTES (1 MiB; at least one
    displacement a chunk), so memory does not grow with the search range.
    """
    H, W = cur.shape
    R = refs.shape[0]
    hb, wb = H // MB_SIZE, W // MB_SIZE
    disps, table = _displacements(search_range)
    per = max(1, _SEARCH_CHUNK_BYTES // (R * hb * W * 2))    # per chunk
    colsums = np.empty((min(per, len(disps)), R, hb, W), dtype=np.uint16)
    best_sad = np.full((R, hb, wb), np.iinfo(np.int32).max, dtype=np.int32)
    best_k = np.zeros((R, hb, wb), dtype=np.intp)
    for k0 in range(0, len(disps), per):
        chunk = colsums[:len(disps) - k0]
        # 65535 marks an out-of-frame predictor: its 16 columns sum past
        # any real SAD (at most 256 * 255 = 65,280)
        chunk.fill(65535)
        for k, (dx, dy) in enumerate(disps[k0:k0 + per]):
            # only the block rows and columns whose predictor lies in the frame
            i0, i1 = max(0, -(-dy // MB_SIZE)), min(hb, hb + dy // MB_SIZE)
            j0, j1 = max(0, -(-dx // MB_SIZE)), min(wb, wb + dx // MB_SIZE)
            if i0 >= i1 or j0 >= j1:
                continue
            r0, r1, c0, c1 = i0 * MB_SIZE, i1 * MB_SIZE, j0 * MB_SIZE, j1 * MB_SIZE
            a = cur[r0:r1, c0:c1]
            b = refs[:, r0 - dy:r1 - dy, c0 - dx:c1 - dx]
            diff = np.maximum(a, b) - np.minimum(a, b)   # exact |a - b| in uint8
            # a column of 16 rows sums to at most 16 * 255, inside uint16
            diff.reshape(R, i1 - i0, MB_SIZE, c1 - c0).sum(
                2, dtype=np.uint16, out=chunk[k, :, i0:i1, c0:c1])
        sad = chunk.reshape(len(chunk), R, hb, wb, MB_SIZE).sum(4, dtype=np.int32)
        first = sad.argmin(axis=0)     # the chunk's first minimum
        low = np.take_along_axis(sad, first[None], axis=0)[0]
        better = low < best_sad        # strict: an earlier chunk keeps a tie
        np.copyto(best_sad, low, where=better)
        np.copyto(best_k, first + k0, where=better)

    return table[best_k.reshape(R, -1)]


# ---------------------------------------------------------------------------
# candidate construction
# ---------------------------------------------------------------------------

def plane_blocks(plane: np.ndarray) -> np.ndarray:
    """Raster-order (n_mb, 16, 16) blocks (a view if the plane is one block high or wide)."""
    h, w = plane.shape
    hb, wb = h // MB_SIZE, w // MB_SIZE
    return (plane.reshape(hb, MB_SIZE, wb, MB_SIZE)
                 .transpose(0, 2, 1, 3)
                 .reshape(hb * wb, MB_SIZE, MB_SIZE))


def assemble_plane(blocks: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Inverse of plane_blocks: raster-order blocks back into one plane."""
    hb, wb = grid
    return (blocks.reshape(hb, wb, MB_SIZE, MB_SIZE)
                  .transpose(0, 2, 1, 3)
                  .reshape(hb * MB_SIZE, wb * MB_SIZE))


def mb_origins(grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    hb, wb = grid
    idx = np.arange(hb * wb)
    return (idx // wb) * MB_SIZE, (idx % wb) * MB_SIZE


def predictor_blocks(ref_stack: np.ndarray, dist, mv: np.ndarray,
                     mbs: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Gather the (len(mbs), 16, 16) motion-compensated predictors.

    Block mbs[i] predicts from ref_stack[dist[i] - 1] (dist may be one
    scalar distance) displaced by mv[i] = (dx, dy).  A predictor that leaves
    the frame raises CodecError.
    """
    mb_r0, mb_c0 = mb_origins(grid)
    top = mb_r0[mbs] - mv[:, 1]
    left = mb_c0[mbs] - mv[:, 0]
    h, w = ref_stack.shape[1:]
    outside = (top < 0) | (left < 0) | (top > h - MB_SIZE) | (left > w - MB_SIZE)
    if outside.any():
        k = int(np.flatnonzero(outside)[0])
        raise CodecError(f"block {int(mbs[k])}: motion vector {mv[k].tolist()} "
                         f"leaves the frame")
    # every 16x16 window of every reference, as a view of the stack;
    # checked above: a negative window index would wrap, not raise
    stack = np.ascontiguousarray(ref_stack)
    s_ref, s_row, s_col = stack.strides
    windows = np.ndarray((len(stack), h - MB_SIZE + 1, w - MB_SIZE + 1,
                          MB_SIZE, MB_SIZE), stack.dtype, stack, 0,
                         (s_ref, s_row, s_col, s_row, s_col))
    return windows[np.asarray(dist) - 1, top, left]


@dataclass
class CandidateSet:
    """Per-macroblock coding options for one plane, one column per option.

    Column order fixes the selection tie-break: SKIP first, then for each
    reference distance in increasing order a zero-motion column followed by
    the searched best-motion column, and INTRA last.  The INTRA column has
    reference distance 0 and carries its base level in the mv slot, as the
    bitstream does.  Without references INTRA is the only column.
    """

    mode_col: np.ndarray        # (n_cand,) uint8
    ref_col: np.ndarray         # (n_cand,) int16 reference distance
    mv: np.ndarray              # (n_mb, n_cand, 2) int16 (dx, dy)
    bits: np.ndarray            # (n_mb, n_cand) int64
    distortion: np.ndarray      # (n_mb, n_cand) mean-abs reconstruction error
    recon: np.ndarray           # (n_mb, n_cand, 16, 16) uint8
    coeffs: np.ndarray          # (n_mb, n_cand, 16, 16) int16 quantized
    quant_step: int             # step every column was coded at


def code_against_prediction(pred: np.ndarray, orig: np.ndarray, step: int
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quantize the residual of float64 (N, 16, 16) blocks `orig` against
    their predictions; return (q, recon, rbits, distortion)."""
    q = quantize(dct16(orig - pred), step)
    recon = apply_residual(pred, q, step)
    dist = np.abs(recon.astype(np.float64) - orig).mean(axis=(1, 2))
    return q, recon, residual_bits(q), dist


def _check_planes(shape: tuple[int, ...], refs: list[np.ndarray],
                  **others: np.ndarray | None) -> None:
    """Raise CodecError naming the first plane that is not uint8 of `shape`:
    one of `others` (by keyword, None skipped), or refs[d-1], the reference
    at distance d."""
    named = [(key.replace("_", " "), plane) for key, plane in others.items()
             if plane is not None]
    named += [(f"reference at distance {d}", ref)
              for d, ref in enumerate(refs, 1)]
    for name, plane in named:
        if plane.dtype != np.uint8 or plane.shape != shape:
            raise CodecError(f"{name} is {plane.dtype} of shape {plane.shape}, "
                             f"expected uint8 of shape {shape}")


def _stow(buf: np.ndarray | None, new: np.ndarray, rows: int) -> np.ndarray:
    """Copy new to the front of buf, an array of `rows` rows shaped like
    new's, and return buf; a fresh one if buf has another shape.  A
    TrialRecord keeps its arrays in place so: a fresh set every build
    fragmented the heap and raised an encode's peak RSS."""
    shape = (rows,) + new.shape[1:]
    if buf is None or buf.shape != shape:
        buf = np.empty(shape, new.dtype)
    buf[:len(new)] = new
    return buf


@dataclass
class TrialRecord:
    """One plane's trial codings from its previous build_inter_candidates
    call, which refreshes it in place; empty until the first build.

    It keeps only that build's distinct rows: per block the first coded
    column of each predictor, INTRA's flat one included.  slot[b, j] is the
    row of block b's coded column j, or -1 where that column repeats an
    earlier one; the first n_rows rows of preds and rows hold them.
    """

    step: int = 0
    blocks: np.ndarray | None = None    # (n_mb, 16, 16) uint8 source blocks
    slot: np.ndarray | None = None      # (n_mb, 2R + 1) int64
    n_rows: int = 0
    preds: np.ndarray | None = None     # (n_mb * (2R + 1), 16, 16) uint8
    rows: tuple = ()                    # their (q, recon, rbits, distortion)


def build_inter_candidates(cur: np.ndarray, refs: list[np.ndarray],
                           cfg: CodecConfig, record: TrialRecord | None = None
                           ) -> CandidateSet:
    """Search and trial-code every candidate of one plane, INTRA last.

    refs[d-1] is the reconstructed plane at distance d; the list is already
    limited to the frames available inside the reference window, and may be
    empty.  record, when given, is the plane's TrialRecord: a block whose
    source equals the record's copies the trials the record holds for it,
    and the record is refreshed with this build's trials.  A record of
    another shape or step is not read.
    """
    shape = np.shape(cur)
    if len(shape) != 2 or not all(shape) or shape[0] % MB_SIZE or shape[1] % MB_SIZE:
        raise CodecError(f"source plane of shape {shape} is not a positive "
                         f"multiple of {MB_SIZE}")
    _check_planes(shape, refs, source_plane=cur)
    grid = (shape[0] // MB_SIZE, shape[1] // MB_SIZE)
    n_mb = grid[0] * grid[1]
    n_refs = len(refs)
    n_col = 2 * n_refs + 1              # the coded columns: all but SKIP
    n_cand = n_col + 1 if refs else 1
    step = cfg.quant_step
    record = TrialRecord() if record is None else record
    blocks = plane_blocks(cur)
    orig_blocks = blocks.astype(np.float64)
    same = (np.zeros(n_mb, dtype=bool)
            if record.blocks is None or record.step != step
            or record.blocks.shape != blocks.shape
            else (record.blocks == blocks).all(axis=(1, 2)))

    mode_col = np.empty(n_cand, dtype=np.uint8)
    ref_col = np.empty(n_cand, dtype=np.int16)
    mv = np.zeros((n_mb, n_cand, 2), dtype=np.int16)
    bits = np.empty((n_mb, n_cand), dtype=np.int64)
    distortion = np.empty((n_mb, n_cand))
    recon = np.empty((n_mb, n_cand, MB_SIZE, MB_SIZE), dtype=np.uint8)
    coeffs = np.zeros((n_mb, n_cand, MB_SIZE, MB_SIZE), dtype=np.int16)

    # the coded columns, one (n_mb * n_col, 16, 16) predictor stack: per
    # reference distance a zero-motion, then the searched INTER column, and
    # INTRA last, its base level riding the mv slot
    coded, inter = slice(n_cand - n_col, None), slice(1, -1)
    mode_col[inter], mode_col[-1] = MODE_INTER, MODE_INTRA
    ref_col[inter], ref_col[-1] = np.repeat(np.arange(1, n_refs + 1), 2), 0
    preds = np.empty((n_mb, n_col, MB_SIZE, MB_SIZE), dtype=np.uint8)
    mv[:, -1, 0], preds[:, -1] = build_intra_candidates(cur)
    if refs:
        ref_stack = np.stack(refs)
        mv[:, 2:-1:2] = motion_search(cur, ref_stack,
                                      cfg.search_range).transpose(1, 0, 2)
        preds[:, :-1] = predictor_blocks(
            ref_stack, np.tile(ref_col[inter], n_mb), mv[:, inter].reshape(-1, 2),
            np.repeat(np.arange(n_mb), n_col - 1), grid).reshape(
                n_mb, n_col - 1, MB_SIZE, MB_SIZE)
        # column 0: SKIP, the zero-motion prediction from distance 1 as is
        mode_col[0], ref_col[0], bits[:, 0] = MODE_SKIP, 1, SKIP_BITS
        recon[:, 0] = preds[:, 0]
        distortion[:, 0] = np.abs(recon[:, 0] - orig_blocks).mean(axis=(1, 2))
    preds = preds.reshape(-1, MB_SIZE, MB_SIZE)

    # one trial per distinct (block, predictor).  Column j of block b
    # copies the coding of the first equal entry in its pool: the record's
    # rows of b if b is unchanged, then b's columns; it is coded if that
    # entry is itself.  An entry indexes `table` (the record's predictors,
    # then this build's) and the coding rows alike.
    reuse = same.any()
    n_old = record.n_rows if reuse else 0
    table = np.concatenate([record.preds[:n_old], preds]) if reuse else preds
    cols = n_old + np.arange(n_mb * n_col).reshape(n_mb, n_col)
    pool = np.concatenate(
        [np.where(same[:, None], record.slot, -1) if reuse else cols[:, :0],
         cols], axis=1)
    # fingerprints narrow each pool to candidates; a column's first
    # candidate is compared word for word, and dropped if it differs
    words = table.reshape(len(table), -1).view(np.uint64)
    fp = (words * _FINGERPRINT).sum(axis=1)
    match = (fp[cols][:, :, None] == fp[pool][:, None]) & (pool >= 0)[:, None]
    while True:
        first = match.argmax(axis=2)
        src = np.take_along_axis(pool, first, axis=1)
        wrong = (words[src] != words[cols]).any(axis=2)
        if not wrong.any():
            break
        match[wrong, first[wrong]] = False
    new = src == cols
    trials = code_against_prediction(
        preds[new.ravel()], orig_blocks[np.flatnonzero(new) // n_col], step)
    rows = ([np.concatenate([old[:n_old], a])
             for old, a in zip(record.rows, trials)] if reuse else trials)
    row_of = np.arange(len(table))
    row_of[n_old:] = n_old + np.cumsum(new) - 1
    take = row_of[src]
    q, rec, rbits, dist = (a[take] for a in rows)
    coeffs[:, coded], recon[:, coded], distortion[:, coded] = q, rec, dist
    # columns that share a trial keep their own header bits
    bits[:, coded] = MODE_BITS + rbits
    bits[:, inter] += (ref_col[inter]
                       + exp_golomb_signed_bits(mv[:, inter]).sum(axis=2))
    bits[:, -1] += INTRA_BASE_BITS

    # the record keeps each block's first column of every predictor
    keep = (take[:, :, None] == take[:, None]).argmax(axis=2) == np.arange(n_col)
    record.step = step
    record.blocks = _stow(record.blocks, blocks, n_mb)
    record.slot = np.where(keep, np.cumsum(keep).reshape(n_mb, n_col) - 1, -1)
    record.n_rows = int(keep.sum())
    record.preds = _stow(record.preds, preds[keep.ravel()], n_mb * n_col)
    record.rows = tuple(_stow(old, a[take[keep]], n_mb * n_col)
                        for old, a in zip(record.rows or [None] * 4, rows))
    return CandidateSet(mode_col=mode_col, ref_col=ref_col, mv=mv, bits=bits,
                        distortion=distortion, recon=recon, coeffs=coeffs,
                        quant_step=step)


def build_intra_candidates(plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The INTRA candidate of every block: (base, predictor), the (n_mb,)
    int16 base levels and their flat (n_mb, 16, 16) uint8 predictors."""
    blocks = plane_blocks(plane)
    base = np.clip(np.rint(blocks.mean(axis=(1, 2))), 0, 255).astype(np.int16)
    return base, np.repeat(base.astype(np.uint8), MB_SIZE * MB_SIZE).reshape(
        blocks.shape)


# ---------------------------------------------------------------------------
# encoded frames and decoding
# ---------------------------------------------------------------------------

@dataclass
class EncodedPlane:
    """Coded representation of one plane: per-MB decisions plus coefficients."""

    modes: np.ndarray       # (n_mb,) uint8
    ref_dist: np.ndarray    # (n_mb,) uint8, 0 for intra
    mv: np.ndarray          # (n_mb, 2) int16 (dx, dy); (base, 0) for intra
    coeffs: np.ndarray      # (n_mb, 16, 16) int16, tiled quantized coefficients
    quant_step: int
    grid: tuple[int, int]


def decode_plane(enc: EncodedPlane, refs: list[np.ndarray],
                 conceal_source: np.ndarray | None,
                 received: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode one plane, concealing lost macroblocks.

    refs[d-1] is the decoder's own reconstruction at distance d; lost blocks
    copy from `conceal_source` (the previous decoded frame) or fill with 128
    when there is none.  Only the records of received blocks are read, and
    a malformed one raises CodecError, as does a reference or concealment
    plane that is not uint8 of the grid's size.  Returns (plane,
    concealed_mask).
    """
    n_mb = enc.grid[0] * enc.grid[1]
    _check_planes((enc.grid[0] * MB_SIZE, enc.grid[1] * MB_SIZE), refs,
                  concealment_source=conceal_source)
    received = np.asarray(received, dtype=bool)
    if conceal_source is None:
        blocks = np.full((n_mb, MB_SIZE, MB_SIZE), 128, dtype=np.uint8)
    else:
        blocks = plane_blocks(conceal_source).copy()

    rcv = np.flatnonzero(received)
    modes = enc.modes[rcv]

    def reject(bad: np.ndarray, idx: np.ndarray, what: str) -> None:
        if bad.any():
            raise CodecError(f"block {int(idx[bad][0])}: {what}")

    reject((modes < MODE_INTRA) | (modes > MODE_SKIP), rcv, "unknown mode")
    intra = rcv[modes == MODE_INTRA]
    base = enc.mv[intra, 0].astype(np.float64)     # the mv slot carries the level
    reject((base < 0) | (base > 255), intra, "intra base level outside 8 bits")
    moved = rcv[modes != MODE_INTRA]                # INTER and SKIP use a reference
    dist = enc.ref_dist[moved].astype(np.int64)
    mv = enc.mv[moved].astype(np.int64)
    reject((dist < 1) | (dist > len(refs)), moved,
           f"reference distance outside the buffer ({len(refs)} planes)")
    reject((enc.modes[moved] == MODE_SKIP) & mv.any(axis=1), moved,
           "skip implies zero motion")

    pred = np.empty((n_mb, MB_SIZE, MB_SIZE))
    pred[intra] = base[:, None, None]
    if moved.size:
        pred[moved] = predictor_blocks(np.stack(refs), dist, mv, moved, enc.grid)
    # a block with no nonzero coefficient decodes to its prediction, whole
    # samples in [0, 255], as a SKIP block does: no inverse transform
    bare = (modes == MODE_SKIP) | ~enc.coeffs[rcv].any(axis=(1, 2))
    skip, coded = rcv[bare], rcv[~bare]
    blocks[skip] = pred[skip]
    blocks[coded] = apply_residual(pred[coded], enc.coeffs[coded], enc.quant_step)
    return assemble_plane(blocks, enc.grid), ~received


# ---------------------------------------------------------------------------
# bitstream container
# ---------------------------------------------------------------------------
#
# Field order of the container (all little endian):
#   magic           4 bytes  b"FVBS"
#   version         u8
#   width, height   u16, u16
#   frame_count     u16
#   quant_step      u16      (texture planes)
#   depth_step      u16      (depth planes)
#   per frame, planes in the order (view 0 texture, view 0 depth,
#   view 1 texture, view 1 depth); per plane, macroblocks in raster order:
#     mode          u8
#     ref_dist      u8
#     mvx, mvy      i16, i16  (for INTRA the mvx slot carries the base level)
#     coefficients  256 x i16 (omitted for SKIP)
# The header takes 15 bytes and a record 6 or 518, so every record starts at
# an odd byte.  The parser finds the record starts in one scan, then gathers
# the headers, and each plane's coefficients from an <i2 view at byte 1.

def serialize_stream(width: int, height: int, quant_step: int,
                     frames: list[dict[tuple[int, Component], EncodedPlane]],
                     depth_quant_step: int) -> bytes:
    header = {"width": width, "height": height, "frame_count": len(frames),
              "quant_step": quant_step, "depth_step": depth_quant_step}
    for name, value in header.items():
        if not 0 <= value <= 0xFFFF:
            raise CodecError(f"{name} {value} does not fit the u16 header field")
    # what the parser would reject is refused here
    if not (width and height) or width % MB_SIZE or height % MB_SIZE:
        raise CodecError(f"frame size {width}x{height} is not a positive "
                         f"multiple of {MB_SIZE}")
    grid = (height // MB_SIZE, width // MB_SIZE)
    n_mb = grid[0] * grid[1]
    buf = bytearray()
    buf += STREAM_MAGIC
    buf += struct.pack("<BHHHHH", STREAM_VERSION, *header.values())
    for t, frame in enumerate(frames):
        for key in PLANE_ORDER:
            enc, where = frame[key], f"frame {t} view {key[0]} {key[1].label}"
            step = depth_quant_step if key[1] == Component.DEPTH else quant_step
            if enc.quant_step != step:
                raise CodecError(f"{where}: quant_step {enc.quant_step} is not "
                                 f"the header's {step}")
            shapes = (enc.modes.shape, enc.ref_dist.shape, enc.mv.shape,
                      enc.coeffs.shape)
            if tuple(enc.grid) != grid or shapes != (
                    (n_mb,), (n_mb,), (n_mb, 2), (n_mb, MB_SIZE, MB_SIZE)):
                raise CodecError(f"{where}: block grid {tuple(enc.grid)} with "
                                 f"arrays {shapes} is not the header's {grid}")
            for name, lo, hi in (("modes", 0, MODE_SKIP), ("ref_dist", 0, 255),
                                 ("mv", -32768, 32767), ("coeffs", -32768, 32767)):
                vals = getattr(enc, name)
                if vals.size and not lo <= vals.min() <= vals.max() <= hi:
                    raise CodecError(f"{where}: {name} outside [{lo}, {hi}] "
                                     f"cannot be serialized")
            for m in range(n_mb):
                buf += struct.pack("<BBhh", int(enc.modes[m]), int(enc.ref_dist[m]),
                                   int(enc.mv[m, 0]), int(enc.mv[m, 1]))
                if enc.modes[m] != MODE_SKIP:
                    buf += enc.coeffs[m].astype("<i2").tobytes()
    return bytes(buf)


def parse_stream(data: bytes
                 ) -> tuple[int, int, int, list[dict[tuple[int, Component], EncodedPlane]]]:
    if data[:4] != STREAM_MAGIC:
        raise CodecError("bad stream magic")
    pos = 4 + struct.calcsize("<BHHHHH")
    if len(data) < pos:
        raise CodecError(f"truncated stream header ({len(data)} bytes)")
    version, width, height, frame_count, quant_step, depth_quant_step = \
        struct.unpack_from("<BHHHHH", data, 4)
    if version != STREAM_VERSION:
        raise CodecError(f"unsupported stream version {version}")
    if not (quant_step and depth_quant_step):
        raise CodecError(f"quantizer steps {quant_step}/{depth_quant_step} "
                         f"must be at least 1")
    if not (width and height) or width % MB_SIZE or height % MB_SIZE:
        raise CodecError(f"frame size {width}x{height} is not a positive "
                         f"multiple of {MB_SIZE}")
    grid = (height // MB_SIZE, width // MB_SIZE)
    n_mb = grid[0] * grid[1]
    n_rec = frame_count * len(PLANE_ORDER) * n_mb
    if len(data) < pos + n_rec * 6:
        raise CodecError(f"truncated stream ({len(data)} bytes)")
    starts, end = array("q"), len(data)
    while len(starts) < n_rec and pos + 6 <= end:
        starts.append(pos)
        pos += 6 if data[pos] == MODE_SKIP else 518
    if len(starts) < n_rec or pos > end:    # a record or its coefficients cut
        cut = starts[-1] + 6 if pos > end else pos
        raise CodecError(f"truncated stream at byte {cut} of {end}")
    starts = np.frombuffer(starts, np.int64).reshape(-1, len(PLANE_ORDER), n_mb)
    windows = np.lib.stride_tricks.sliding_window_view
    heads = windows(np.frombuffer(data, dtype=np.uint8), 6)[starts]
    if (heads[..., 0] > MODE_SKIP).any():
        raise CodecError("unknown mode byte in stream")
    if pos != end:
        raise CodecError("trailing bytes in stream")
    # word k sits at byte 1 + 2k; a stream under 256 words codes no block
    words = np.frombuffer(data, dtype="<i2", count=(end - 1) // 2, offset=1)
    tiles = windows(words, min(words.size, MB_SIZE * MB_SIZE))
    frames, steps = [], {Component.TEXTURE: quant_step,
                         Component.DEPTH: depth_quant_step}
    for head_t, at_t in zip(heads, starts):
        frames.append({})
        for key, head, at in zip(PLANE_ORDER, head_t, at_t):
            coeffs = np.zeros((n_mb, MB_SIZE, MB_SIZE), dtype=np.int16)
            coded = np.flatnonzero(head[:, 0] != MODE_SKIP)
            coeffs[coded] = tiles[(at[coded] + 5) // 2].reshape(-1, MB_SIZE,
                                                                 MB_SIZE)
            frames[-1][key] = EncodedPlane(
                modes=head[:, 0].copy(), ref_dist=head[:, 1].copy(),
                mv=head[:, 2:].copy().view("<i2"), coeffs=coeffs, grid=grid,
                quant_step=steps[key[1]])
    return width, height, quant_step, frames
