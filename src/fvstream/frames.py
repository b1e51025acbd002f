"""Frame containers, 8-bit plane I/O and quality metrics.

Planes are stored as numpy uint8 arrays of shape (height, width) with both
dimensions positive multiples of the macroblock size.  Texture planes hold
luma intensities, disparity planes hold per-pixel horizontal shifts at unit
baseline (the disparity scale factor is applied at synthesis time).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MB_SIZE = 16
PSNR_CAP_DB = 99.0


class PlaneError(ValueError):
    """Malformed plane data, view frame or plane file."""


def _validated_samples(samples) -> np.ndarray:
    arr = np.asarray(samples)
    if arr.ndim != 2:
        raise PlaneError(f"plane must be 2-D, got shape {arr.shape}")
    h, w = arr.shape
    if h <= 0 or w <= 0 or h % MB_SIZE or w % MB_SIZE:
        raise PlaneError(
            f"plane dimensions must be positive multiples of {MB_SIZE}, got {w}x{h}"
        )
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer):
            raise PlaneError(f"plane samples must be integers, got dtype {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() > 255):
            raise PlaneError("plane samples outside [0, 255]")
        arr = arr.astype(np.uint8)
    return arr


@dataclass(eq=False)
class FramePlane:
    """One 8-bit sample grid, macroblock aligned."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = _validated_samples(self.samples)


@dataclass(eq=False)
class ViewFrame:
    """Texture plus aligned disparity for one captured view at one instant."""

    view_id: int
    frame_index: int
    texture: FramePlane
    disparity: FramePlane

    def __post_init__(self) -> None:
        if self.view_id not in (0, 1):
            raise PlaneError(f"view_id must be 0 or 1, got {self.view_id}")
        if self.frame_index < 0:
            raise PlaneError("frame_index must be nonnegative")
        if self.texture.samples.shape != self.disparity.samples.shape:
            raise PlaneError(
                "texture and disparity dimensions differ: "
                f"{self.texture.samples.shape} vs {self.disparity.samples.shape}"
            )


def _as_samples(plane) -> np.ndarray:
    if isinstance(plane, FramePlane):
        return plane.samples
    return np.asarray(plane)


def mse(a, b) -> float:
    x = _as_samples(a).astype(np.float64)
    y = _as_samples(b).astype(np.float64)
    if x.shape != y.shape:
        raise PlaneError(f"shape mismatch {x.shape} vs {y.shape}")
    return float(np.mean((x - y) ** 2))


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB for 8-bit planes, capped for identical input."""
    err = mse(a, b)
    if err <= 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * np.log10(255.0 * 255.0 / err))


# ---------------------------------------------------------------------------
# plane file I/O
# ---------------------------------------------------------------------------

def save_pgm(path, plane) -> None:
    """Write a plane as binary PGM (P5, maxval 255)."""
    arr = _as_samples(plane)
    if arr.dtype != np.uint8:
        arr = _validated_samples(arr)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def _read_pgm_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    # Tokenizer for the PGM header: whitespace separated fields, '#' comments
    # run to end of line.
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise PlaneError("truncated PGM header")
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise PlaneError("truncated PGM comment")
            pos = nl + 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    return tokens, pos


def _header_count(token: bytes, what: str, path) -> int:
    # ASCII digits only: int() would also take signs and underscores
    if token[:1] in (b"+", b"-"):
        raise PlaneError(f"signed PGM {what} {token!r} in {path}")
    if not token.isdigit():
        raise PlaneError(f"bad PGM {what} {token!r} in {path}")
    try:
        return int(token)
    except ValueError as exc:       # past int()'s digit limit
        raise PlaneError(f"PGM {what} too long in {path}") from exc


def load_pgm(path) -> FramePlane:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, pos = _read_pgm_tokens(data, 4)
    if tokens[0] != b"P5":
        raise PlaneError(f"not a binary PGM file: {path}")
    w, h, maxval = (_header_count(tok, what, path) for tok, what in
                    zip(tokens[1:], ("width", "height", "maxval")))
    if maxval != 255:
        raise PlaneError(f"unsupported PGM maxval {maxval}, expected 255")
    pos += 1  # single whitespace byte after maxval
    payload = data[pos:pos + w * h]
    if len(payload) != w * h:
        raise PlaneError(f"PGM payload truncated in {path}")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
    return FramePlane(arr.copy())
