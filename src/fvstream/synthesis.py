"""Depth-image-based rendering of a virtual view between two captured views.

Pixels of the left view (view 0) shift left by round(Y*v*eta) columns toward
a virtual position v in [0, 1]; right-view pixels shift right by
round(Y*(1-v)*eta).  Colliding pixels resolve by larger disparity (nearer
object), which needs no tie-break: pixels of one row with equal disparity
shift alike and never collide.  So a keyed z-buffer, one max per target
pixel over keys that pack (disparity, source column), names each winner
whole.  Holes fill along rows from the background.

One blend weights the two contributions by distance (1-v, v) modulated by
per-pixel reliabilities derived from worst-case distortion bounds of both.
Equal distortions give equal reliabilities, and there (everywhere when no
tracked errors are given) it is the distance-weighted blend bit for bit, so
only the pixels whose two distortions differ are modulated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import MB_SIZE


class SynthesisError(ValueError):
    """Invalid synthesis parameters."""


@dataclass(frozen=True)
class SynthesisParams:
    position: float = 0.5       # virtual view position v in [0, 1]
    eta: float = 1.0            # pixel shift per disparity level at full baseline
    reliability_c: float = 1.0  # additive constant keeping weights finite

    def __post_init__(self) -> None:
        if not 0.0 <= self.position <= 1.0:
            raise SynthesisError("position must lie in [0, 1]")
        if not 0 < self.eta < math.inf:
            raise SynthesisError("eta must be positive and finite")
        if not 0 < self.reliability_c < math.inf:
            raise SynthesisError("reliability_c must be positive and finite")


def shift_factor(source_view: int, position: float, eta: float) -> float:
    """Columns of shift per disparity level for the given source view."""
    return position * eta if source_view == 0 else (1.0 - position) * eta


@dataclass
class WarpedView:
    """One view forward-warped to the virtual position."""

    covered: np.ndarray    # (H, W) bool
    value: np.ndarray      # (H, W) uint8, 0 where not covered
    disparity: np.ndarray  # (H, W) int64, 0 where not covered
    src_col: np.ndarray    # (H, W) int64, -1 where not covered


def warp_view(texture: np.ndarray, disparity: np.ndarray, source_view: int,
              position: float, eta: float = 1.0) -> WarpedView:
    """Forward-warp one view to the virtual position with a keyed z-buffer.

    Each source pixel's key is its disparity shifted left past the column
    bits, OR'd with its source column.  Only one source holds a target's
    largest disparity, so one max over the keys landing on a target gives
    both the winning disparity and its column, and the value follows from
    one gather.  Keys are int32 while they fit and int64 beyond.
    """
    if source_view not in (0, 1):
        raise SynthesisError("source_view must be 0 or 1")
    if texture.dtype != np.uint8 or disparity.dtype != np.uint8:
        raise SynthesisError("warp_view takes uint8 planes")
    if texture.shape != disparity.shape:
        raise SynthesisError("warp_view takes planes of one shape")
    h, w = texture.shape
    factor = shift_factor(source_view, position, eta)
    # a shift past the width lands out of frame like one of the width itself
    shift = np.clip(np.rint(np.arange(256, dtype=np.float64) * factor),
                    -w, w).astype(np.int32)
    # 8 disparity bits above the column bits
    bits = w.bit_length()
    key_t, ukey_t = ((np.int32, np.uint32) if bits <= 23
                     else (np.int64, np.uint64))
    cols = np.arange(w, dtype=key_t)
    step = shift.take(disparity)
    tcol = cols - step if source_view == 0 else cols + step
    rows = np.arange(h, dtype=np.intp)[:, None] * w
    # out-of-frame sources (negative columns wrap high) land on a spare slot
    tgt = np.where(tcol.view(ukey_t) < w, rows + tcol, h * w)
    key = (disparity.astype(key_t) << bits) | cols
    best = np.full(h * w + 1, -1, dtype=key_t)
    np.maximum.at(best, tgt.ravel(), key.ravel())
    best = best[:-1].reshape(h, w)
    # -1 (uncovered) unpacks to disparity 0 and column -1
    out_disp = np.maximum(best >> bits, 0)
    src_col = (best - (out_disp << bits)).astype(np.int64)
    covered = best >= 0
    # column -1 reads a neighbor (or the plane's last pixel), then zeroed
    return WarpedView(covered=covered,
                      value=texture.ravel().take(rows + src_col) * covered,
                      disparity=out_disp.astype(np.int64), src_col=src_col)


def fill_holes(plane: np.ndarray, holes: np.ndarray,
               disparity: np.ndarray) -> np.ndarray:
    """Fill holes per row from the nearest covered neighbor on the
    smaller-disparity side; rows with no covered pixel become 128."""
    out = plane.copy()
    rows = np.flatnonzero(holes.any(axis=1))
    hole, w = holes[rows], plane.shape[1]
    # the nearest covered column at or left of each pixel (-1: none) and at
    # or right of it (w: none), the left one on equal disparity
    cols = np.arange(w)
    left = np.maximum.accumulate(np.where(hole, -1, cols), axis=1)
    right = np.minimum.accumulate(np.where(hole, w, cols)[:, ::-1],
                                  axis=1)[:, ::-1]
    left_at = rows[:, None] * w + np.maximum(left, 0)
    right_at = rows[:, None] * w + np.minimum(right, w - 1)
    use_left = (left >= 0) & ((right == w) | (disparity.take(left_at)
                                              <= disparity.take(right_at)))
    out[rows] = np.where(use_left, plane.take(left_at), plane.take(right_at))
    out[rows[hole.all(axis=1)]] = 128
    return out


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5)


def reliability_weights(d0, d1, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized per-pixel reliabilities from worst-case distortions."""
    d0 = np.asarray(d0, dtype=np.float64)
    d1 = np.asarray(d1, dtype=np.float64)
    den = d0 + d1 + c
    raw0 = (d1 + c) / den
    raw1 = (d0 + c) / den
    s = raw0 + raw1
    return raw0 / s, raw1 / s


def blend(left: WarpedView, right: WarpedView, position: float,
          d0_target, d1_target, reliability_c: float
          ) -> tuple[np.ndarray, np.ndarray]:
    """Reliability-modulated, distance-weighted blend.

    d0_target / d1_target are the per-target-pixel (or scalar) worst-case
    distortions of the two contributions.  Returns (plane, holes).
    Equal finite distortions give equal reliabilities, and there the
    distance-weighted value is used unchanged, so the modulated blend is
    evaluated only where both views cover a pixel and the distortions
    differ; IEEE arithmetic is exact per element, so the subset changes no
    bit.
    """
    v = position
    x0 = left.value.astype(np.float64)
    x1 = right.value.astype(np.float64)
    both = left.covered & right.covered
    # an uncovered pixel's value is 0, so the sum is the one covered value
    plane = np.where(both, _round_half_up((1.0 - v) * x0 + v * x1), x0 + x1)
    differ = np.not_equal(d0_target, d1_target)
    if differ.any():
        at = both & differ
        _, d0, d1 = np.broadcast_arrays(at, d0_target, d1_target)
        r0, r1 = reliability_weights(d0[at], d1[at], reliability_c)
        keep = r0 != r1
        at = np.flatnonzero(at)[keep]
        w0, w1 = (1.0 - v) * r0[keep], v * r1[keep]
        with np.errstate(invalid="ignore", divide="ignore"):
            plane.ravel()[at] = _round_half_up(
                (w0 * x0.ravel()[at] + w1 * x1.ravel()[at]) / (w0 + w1))
    holes = ~(left.covered | right.covered)
    return plane.astype(np.uint8), holes


def _block_values(values: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Per-MB values as a float64 grid, checked for their count and NaN."""
    hb, wb = grid
    m = np.asarray(values, dtype=np.float64)
    if m.size != hb * wb:
        raise SynthesisError(f"{m.size} block values for a {hb}x{wb} grid")
    if np.isnan(m).any():
        raise SynthesisError("block values must not be NaN")
    return m.reshape(grid)


def expand_block_values(values: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Per-MB values repeated to a fresh per-pixel plane."""
    return _block_values(values, grid).repeat(MB_SIZE, 1).repeat(MB_SIZE, 0)


def worst_case_distortion_map(texture: np.ndarray, block_texture_error: np.ndarray,
                              block_disparity_error: np.ndarray,
                              factor: float) -> np.ndarray:
    """Per-source-pixel worst-case intensity distortion of a warped pixel.

    Scans the columns the pixel could have come from had its disparity been
    off by up to the block's tracked disparity error: the radius (in target
    columns) is ceil(eps * factor), with factor the view's shift per
    disparity level (0 at factor 0).  Each scanned column contributes its
    block's texture error plus the intensity difference against the pixel
    itself.  Only the block rows holding a block of radius 1 or more scan.
    """
    if texture.dtype != np.uint8:
        raise SynthesisError("worst_case_distortion_map takes a uint8 texture")
    h, w = texture.shape
    if h % MB_SIZE or w % MB_SIZE:
        raise SynthesisError(f"tracked errors need whole {MB_SIZE}x{MB_SIZE} "
                             f"blocks, not a {h}x{w} plane")
    grid = (h // MB_SIZE, w // MB_SIZE)
    e_pix = expand_block_values(block_texture_error, grid)
    eps = _block_values(block_disparity_error, grid)
    # a radius past the width reaches every column, as one of the width does
    radius = np.ceil(np.clip(eps * factor, 0, w)) if factor else np.zeros(grid)
    rows = np.flatnonzero(radius.max(axis=1, initial=0) >= 1)
    if not rows.size:
        return e_pix
    planes = e_pix.reshape(grid[0], MB_SIZE, w)
    x = texture.reshape(planes.shape)[rows].astype(np.int16)
    e, d = planes[rows], planes[rows]
    reach = np.repeat(radius[rows], MB_SIZE, axis=1)[:, None, :]
    # column c looks at c + off (the left part of the frame) and at c - off
    # (the right part), at one |difference|; the max is exact in any order
    for off in range(1, min(int(radius.max()), w - 1) + 1):
        diff = np.abs(x[..., off:] - x[..., :-off])
        ok = reach >= off
        np.maximum(d[..., :-off], e[..., off:] + diff, out=d[..., :-off],
                   where=ok[..., :-off])
        np.maximum(d[..., off:], e[..., :-off] + diff, out=d[..., off:],
                   where=ok[..., off:])
    planes[rows] = d
    return e_pix


def gather_at_targets(source_map: np.ndarray, warped: WarpedView) -> np.ndarray:
    """Pull a per-source-pixel map to the warp's target grid (0 where uncovered)."""
    h, w = source_map.shape
    # an uncovered pixel's column -1 reads a neighbor, which is then dropped
    vals = source_map.take(np.arange(h)[:, None] * w + warped.src_col)
    return np.where(warped.covered, vals, 0.0)


@dataclass
class WarpedPair:
    """Both views warped to the virtual position once, for any number of
    blends, with the source textures the reliability maps scan."""

    textures: tuple[np.ndarray, np.ndarray]
    warped: tuple[WarpedView, WarpedView]


def warp_pair(left_texture: np.ndarray, left_disparity: np.ndarray,
              right_texture: np.ndarray, right_disparity: np.ndarray,
              params: SynthesisParams) -> WarpedPair:
    """The warp half of synthesize_view."""
    if left_texture.shape != right_texture.shape:
        raise SynthesisError("the two views must have one shape")
    return WarpedPair(
        textures=(left_texture, right_texture),
        warped=(warp_view(left_texture, left_disparity, 0, params.position,
                          params.eta),
                warp_view(right_texture, right_disparity, 1, params.position,
                          params.eta)))


def blend_pair(pair: WarpedPair, params: SynthesisParams,
               left_errors: tuple[np.ndarray, np.ndarray] | None = None,
               right_errors: tuple[np.ndarray, np.ndarray] | None = None
               ) -> np.ndarray:
    """The blend half of synthesize_view."""
    if (left_errors is None) != (right_errors is None):
        raise SynthesisError("tracked errors must be given for both views "
                             "or neither")
    wl, wr = pair.warped
    d0_t = d1_t = 0.0
    if left_errors is not None:
        (tl, tr), v, eta = pair.textures, params.position, params.eta
        d0_t = gather_at_targets(worst_case_distortion_map(
            tl, *left_errors, shift_factor(0, v, eta)), wl)
        d1_t = gather_at_targets(worst_case_distortion_map(
            tr, *right_errors, shift_factor(1, v, eta)), wr)
    plane, holes = blend(wl, wr, params.position, d0_t, d1_t,
                         params.reliability_c)
    if not holes.any():
        return plane
    # an uncovered pixel's disparity is 0
    return fill_holes(plane, holes, np.maximum(wl.disparity, wr.disparity))


def synthesize_view(left_texture: np.ndarray, left_disparity: np.ndarray,
                    right_texture: np.ndarray, right_disparity: np.ndarray,
                    params: SynthesisParams,
                    left_errors: tuple[np.ndarray, np.ndarray] | None = None,
                    right_errors: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> np.ndarray:
    """Full synthesis of the virtual view from two decoded views; returns
    the (H, W) uint8 plane with its holes filled.

    left_errors / right_errors are per-MB (texture error, disparity error)
    pairs from receiver-side tracking, given for both views or neither.
    Without them both contributions count as equally reliable.  To blend
    one pair of views several ways, warp it once (warp_pair) and blend it
    each way (blend_pair).
    """
    return blend_pair(warp_pair(left_texture, left_disparity, right_texture,
                                right_disparity, params),
                      params, left_errors, right_errors)


# ---------------------------------------------------------------------------
# cross-view correspondence at the block level
# ---------------------------------------------------------------------------

@dataclass
class CorrespondenceSets:
    """Block-level visibility of one view inside the opposing view.

    member[m] is True when at least half of the block's pixels land in-frame
    and survive z-buffering in the opposing view.  (src[i], tgt[i]) are the
    unique (block, opposing block) pairs linked by a surviving pixel, sorted.
    """

    member: np.ndarray
    src: np.ndarray
    tgt: np.ndarray


def correspondence_sets(texture: np.ndarray, disparity: np.ndarray,
                        source_view: int, eta: float) -> CorrespondenceSets:
    """Warp a view onto the opposing one and collect per-MB coverage."""
    position = 1.0 if source_view == 0 else 0.0
    w = warp_view(texture, disparity, source_view, position, eta)
    h, width = texture.shape
    wb = width // MB_SIZE
    n_mb = (h // MB_SIZE) * wb

    rows, tcols = np.nonzero(w.covered)
    src_cols = w.src_col[rows, tcols]
    src_mb = (rows // MB_SIZE) * wb + src_cols // MB_SIZE
    tgt_mb = (rows // MB_SIZE) * wb + tcols // MB_SIZE

    counts = np.bincount(src_mb, minlength=n_mb)
    member = counts >= (MB_SIZE * MB_SIZE) // 2
    pairs = np.unique(src_mb * n_mb + tgt_mb)
    return CorrespondenceSets(member=member, src=pairs // n_mb,
                              tgt=pairs % n_mb)
