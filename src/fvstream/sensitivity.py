"""How sensitive the synthesized view is to disparity errors, per block.

For a pixel of one view, shifting its disparity by eps moves its cross-view
correspondence; the resulting intensity mismatch d(eps) grows away from
eps = 0.  Each pixel gets a parabola 0.5 * a * eps^2 fitted through the
nearest threshold crossings of its profile on either side (apex pinned at
zero, the sharper side kept); blocks average their pixels' curvatures.  The
penalty for an expected disparity error eps is then g = 0.5 * a * eps^2.

Flat content never crosses the threshold and gets a = 0 exactly.
"""
from __future__ import annotations

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
        if self.threshold <= 0:
            raise SensitivityError("threshold must be positive")
        if self.max_deviation < 1:
            raise SensitivityError("max_deviation must be at least 1")


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


def _first_crossing(crossed: np.ndarray) -> np.ndarray:
    """Index (1-based) of the first True along axis 0; 0 when none."""
    any_cross = crossed.any(axis=0)
    first = crossed.argmax(axis=0) + 1
    return np.where(any_cross, first, 0)


def curvature_map(own_texture: np.ndarray, own_disparity: np.ndarray,
                  opp_texture: np.ndarray, source_view: int, eta: float,
                  params: SensitivityParams) -> np.ndarray:
    """Per-MB curvature a for one view, from its texture and disparity planes."""
    h, w = own_texture.shape
    hb, wb = h // MB_SIZE, w // MB_SIZE
    n = params.max_deviation
    prof = pixel_profiles(own_texture, own_disparity, opp_texture, source_view,
                          eta, n)
    crossed = prof >= params.threshold
    b_pos = _first_crossing(crossed[n + 1:])
    b_neg = _first_crossing(crossed[:n][::-1])
    any_side = (b_pos > 0) | (b_neg > 0)
    b = np.minimum(np.where(b_pos > 0, b_pos, n + 1),
                   np.where(b_neg > 0, b_neg, n + 1))
    a_pix = np.where(any_side, (2.0 * params.threshold) / (b * b).astype(np.float64),
                     0.0)
    sums = a_pix.reshape(hb, MB_SIZE, wb, MB_SIZE).sum(axis=(1, 3))
    return (sums / float(MB_SIZE * MB_SIZE)).reshape(hb * wb)


def g_eval(a: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Quadratic penalty 0.5 * a * eps^2, elementwise."""
    return 0.5 * a * eps * eps
