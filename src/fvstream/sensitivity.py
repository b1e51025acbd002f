"""How sensitive the synthesized view is to disparity errors, per block.

For a pixel of one view, shifting its disparity by eps moves its cross-view
correspondence; the resulting intensity mismatch d(eps) grows away from
eps = 0.  Each pixel gets a parabola 0.5 * a * eps^2 fitted through the
nearest threshold crossings of its profile on either side (apex pinned at
zero, the sharper side kept); blocks average their pixels' curvatures.  The
penalty for an expected disparity error eps is then g = 0.5 * a * eps^2.

Flat content never crosses the threshold and gets a = 0 exactly.

The nearer crossing is found by scanning outward, storing no profile: at
d = 1, 2, ... the pixels still scanning test eps = +d and -d, and those that
cross stop with b = d.  The mismatch of uint8 planes is an integer, so it is
compared with ceil(threshold).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import MB_SIZE


class SensitivityError(ValueError):
    """Invalid sensitivity parameters."""


@dataclass(frozen=True)
class SensitivityParams:
    threshold: float = 5.0      # intensity units per pixel
    max_deviation: int = 16     # disparity levels scanned on each side

    def __post_init__(self) -> None:
        if not 0 < self.threshold < math.inf:
            raise SensitivityError("threshold must be positive and finite")
        if self.max_deviation < 1:
            raise SensitivityError("max_deviation must be at least 1")


def curvature_map(own_texture: np.ndarray, own_disparity: np.ndarray,
                  opp_texture: np.ndarray, source_view: int, eta: float,
                  params: SensitivityParams) -> np.ndarray:
    """Per-MB curvature a for one view, from its texture and disparity planes."""
    if any(p.dtype != np.uint8 for p in (own_texture, own_disparity, opp_texture)):
        raise SensitivityError("curvature_map takes uint8 planes")
    h, w = own_texture.shape
    n = params.max_deviation
    # an integer mismatch reaches the threshold exactly when it reaches this
    need = math.ceil(params.threshold)
    # signed shift at disparity v = level + eps; past +-w all clamp alike
    sign = -1 if source_view == 0 else 1
    shift = np.clip(sign * np.rint(np.arange(-n, 256 + n, dtype=np.float64)
                                   * eta).astype(np.int64), -w, w)
    pad = int(np.abs(shift).max())
    # rows padded with their edge values: a padded gather is a clamped one
    opp = np.pad(opp_texture.astype(np.int16), ((0, 0), (pad, pad)),
                 mode="edge").ravel()
    pix = np.arange(h * w, dtype=np.int64)      # the pixels still scanning
    start = (pix // w) * (w + 2 * pad) + pix % w + pad
    own = own_texture.astype(np.int16).ravel()
    level = own_disparity.astype(np.int64).ravel() + n
    b = np.full(h * w, n + 1, dtype=np.int64)
    for dist in range(1, n + 1):
        crossed = np.abs(own - opp[start + shift[level + dist]]) >= need
        crossed |= np.abs(own - opp[start + shift[level - dist]]) >= need
        b[pix[crossed]] = dist
        pix, start, own, level = (x[~crossed] for x in (pix, start, own, level))
        if pix.size == 0:
            break
    a_pix = np.where(b <= n, 2.0 * params.threshold / (b * b), 0.0)
    sums = a_pix.reshape(h // MB_SIZE, MB_SIZE, -1, MB_SIZE).sum(axis=(1, 3))
    return (sums / float(MB_SIZE * MB_SIZE)).ravel()


def g_eval(a: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Quadratic penalty 0.5 * a * eps^2, elementwise."""
    return 0.5 * a * eps * eps
