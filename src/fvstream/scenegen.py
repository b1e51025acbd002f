"""Synthetic Lambertian stereo scene generation.

A scene is a stack of fronto-parallel layers: a background plus rectangular
objects, each at a constant disparity.  Both captured views and the withheld
virtual-view reference are painted from the same world description, so
corresponding pixels carry identical intensities by construction.  Disparity
values are pixel shifts at unit baseline: the right view shows world column
j + d at its column j, a virtual view at position v shifts by rint(d * v).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .frames import MB_SIZE, FramePlane, ViewFrame


class SceneSpecError(ValueError):
    """Invalid scene description."""


TEXTURE_KINDS = ("flat", "gradient", "checker", "noise")


@dataclass(frozen=True)
class TextureSpec:
    """Deterministic texture pattern, evaluated as a pure function of (row, col)."""

    kind: str = "flat"
    value: int = 128            # flat
    base: float = 128.0         # gradient
    row_slope: float = 0.0
    col_slope: float = 0.0
    cell: int = 8               # checker
    low: int = 64
    high: int = 192
    seed: int = 0               # noise

    def __post_init__(self) -> None:
        if self.kind not in TEXTURE_KINDS:
            raise SceneSpecError(f"unknown texture kind {self.kind!r}")
        if self.kind == "checker" and self.cell <= 0:
            raise SceneSpecError("checker cell size must be positive")
        for name in ("value", "low", "high"):
            if not 0 <= getattr(self, name) <= 255:
                raise SceneSpecError(f"texture {name} outside [0, 255]")

    def sample(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self.kind == "flat":
            return np.full(np.broadcast(rows, cols).shape, self.value, dtype=np.uint8)
        if self.kind == "gradient":
            vals = self.base + self.row_slope * rows + self.col_slope * cols
            return np.clip(np.rint(vals), 0, 255).astype(np.uint8)
        if self.kind == "checker":
            cellmask = ((rows // self.cell) + (cols // self.cell)) % 2
            return np.where(cellmask == 0, self.low, self.high).astype(np.uint8)
        return _hash_noise(rows, cols, self.seed)


def _hash_noise(rows: np.ndarray, cols: np.ndarray, seed: int) -> np.ndarray:
    # Position-keyed integer hash, so the pattern is pure and identical in
    # every view regardless of the painted window.
    i = rows.astype(np.uint64)
    j = cols.astype(np.uint64)
    h = (i * np.uint64(0x9E3779B97F4A7C15)
         ^ j * np.uint64(0xC2B2AE3D27D4EB4F)
         ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * np.uint64(0x165667B19E3779F9))
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(29)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(32)
    return (h & np.uint64(0xFF)).astype(np.uint8)


@dataclass(frozen=True)
class ObjectSpec:
    """Rectangular scene object with a per-frame trajectory.

    ``row``/``col`` anchor the top-left corner in left-view (world)
    coordinates at frame 0; ``offsets[t]`` is the integer (drow, dcol)
    displacement applied at frame t.
    """

    height: int
    width: int
    row: int
    col: int
    disparity: int
    texture: TextureSpec
    offsets: tuple[tuple[int, int], ...]

    def position(self, t: int) -> tuple[int, int]:
        dr, dc = self.offsets[t]
        return self.row + dr, self.col + dc


@dataclass(frozen=True)
class SyntheticSceneSpec:
    width: int
    height: int
    frame_count: int
    background_disparity: int
    background_texture: TextureSpec
    objects: tuple[ObjectSpec, ...] = ()

    def __post_init__(self) -> None:
        validate_scene(self)


def validate_scene(spec: SyntheticSceneSpec) -> None:
    if spec.width <= 0 or spec.height <= 0 or spec.width % MB_SIZE or spec.height % MB_SIZE:
        raise SceneSpecError(
            f"scene dimensions must be positive multiples of {MB_SIZE}, "
            f"got {spec.width}x{spec.height}"
        )
    if spec.frame_count <= 0:
        raise SceneSpecError("frame_count must be positive")
    if not 0 <= spec.background_disparity <= 255:
        raise SceneSpecError("background disparity outside [0, 255]")
    for idx, obj in enumerate(spec.objects):
        if obj.height <= 0 or obj.width <= 0:
            raise SceneSpecError(f"object {idx} has nonpositive size")
        if not 0 <= obj.disparity <= 255:
            raise SceneSpecError(f"object {idx} disparity outside [0, 255]")
        if obj.disparity <= spec.background_disparity:
            raise SceneSpecError(
                f"object {idx} disparity {obj.disparity} must exceed the "
                f"background disparity {spec.background_disparity}"
            )
        if len(obj.offsets) != spec.frame_count:
            raise SceneSpecError(
                f"object {idx} has {len(obj.offsets)} offsets for "
                f"{spec.frame_count} frames"
            )
        for t in range(spec.frame_count):
            r, c = obj.position(t)
            if r < 0 or c < 0 or r + obj.height > spec.height or c + obj.width > spec.width:
                raise SceneSpecError(
                    f"object {idx} leaves the frame at t={t} (top-left {r},{c})"
                )


def _paint_view(spec: SyntheticSceneSpec, t: int, position: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Render texture and disparity planes for a view at the given position.

    position 0 is the left camera, 1 the right camera, values in between are
    virtual viewpoints.  A layer at disparity d is drawn shifted left by
    rint(d * position) columns relative to its world placement.
    """
    h, w = spec.height, spec.width
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]

    bg_shift = int(np.rint(spec.background_disparity * position))
    texture = np.broadcast_to(
        spec.background_texture.sample(rows, cols + bg_shift), (h, w)
    ).copy()
    disparity = np.full((h, w), spec.background_disparity, dtype=np.uint8)

    for obj in sorted(enumerate(spec.objects), key=lambda io: (io[1].disparity, io[0])):
        ob = obj[1]
        r0, c0 = ob.position(t)
        shift = int(np.rint(ob.disparity * position))
        vc0 = c0 - shift
        ra, rb = max(r0, 0), min(r0 + ob.height, h)
        ca, cb = max(vc0, 0), min(vc0 + ob.width, w)
        if ra >= rb or ca >= cb:
            continue
        loc_rows = np.arange(ra, rb)[:, None] - r0
        loc_cols = np.arange(ca, cb)[None, :] - vc0
        texture[ra:rb, ca:cb] = ob.texture.sample(loc_rows, loc_cols)
        disparity[ra:rb, ca:cb] = ob.disparity

    return texture, disparity


def generate_synthetic_stereo(spec: SyntheticSceneSpec, position: float = 0.5
                              ) -> tuple[list[ViewFrame], list[ViewFrame], list[FramePlane]]:
    """Build the left view, right view and withheld virtual-view reference.

    Returns (left_frames, right_frames, truth) with the truth rendered at
    the virtual view position from the same world description.
    """
    left: list[ViewFrame] = []
    right: list[ViewFrame] = []
    truth: list[FramePlane] = []
    for t in range(spec.frame_count):
        ltex, ldisp = _paint_view(spec, t, 0.0)
        rtex, rdisp = _paint_view(spec, t, 1.0)
        mtex, _ = _paint_view(spec, t, position)
        left.append(ViewFrame(0, t, FramePlane(ltex), FramePlane(ldisp)))
        right.append(ViewFrame(1, t, FramePlane(rtex), FramePlane(rdisp)))
        truth.append(FramePlane(mtex))
    return left, right, truth


# ---------------------------------------------------------------------------
# JSON scene descriptions
# ---------------------------------------------------------------------------

_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
               "str | None": (str, type(None)), "object": dict, "list": list}


def json_is(value, kind: str) -> bool:
    """Whether a decoded JSON value has the named type."""
    # bool subclasses int, but a JSON true is no number; json.load also
    # takes NaN and Infinity, which no field can use
    return (isinstance(value, _JSON_TYPES[kind])
            and (kind == "bool") == isinstance(value, bool)
            and not (isinstance(value, float) and not math.isfinite(value)))


def json_field_message(what: str, name: str, kind: str, value) -> str:
    """One wording for a mistyped JSON field; names NaN and Infinity as such."""
    got = (json.dumps(value) if isinstance(value, float)
           and not math.isfinite(value) else type(value).__name__)
    return f"{what} field {name!r} must be {kind}, got {got}"


_SCENE_FIELDS = {"width": "int", "height": "int", "frame_count": "int",
                 "background": "object", "objects": "list"}
_BACKGROUND_FIELDS = {"disparity": "int", "texture": "object"}
_OBJECT_FIELDS = {"height": "int", "width": "int", "row": "int", "col": "int",
                  "disparity": "int", "texture": "object",
                  "trajectory": "object"}
_TRAJECTORY_FIELDS = {"kind": "str", "velocity": "list", "offsets": "list"}
_TEXTURE_FIELDS = {f.name: f.type for f in fields(TextureSpec)}


def _checked(d, what: str, schema: dict[str, str],
             required: tuple[str, ...] = ()) -> dict:
    """d itself, once it is an object holding the required fields and only
    fields of the schema, each of its JSON type."""
    if not isinstance(d, dict):
        raise SceneSpecError(f"{what} must be an object, got {type(d).__name__}")
    extra = set(d) - set(schema)
    if extra:
        raise SceneSpecError(f"unknown {what} fields {sorted(extra)}")
    for name in required:
        if name not in d:
            raise SceneSpecError(f"missing {what} field {name!r}")
    for name, value in d.items():
        if not json_is(value, schema[name]):
            raise SceneSpecError(json_field_message(what, name, schema[name],
                                                    value))
    return d


def _int_pair(value, what: str) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2
            and all(json_is(x, "int") for x in value)):
        raise SceneSpecError(f"{what} must be a pair of integers")
    return value[0], value[1]


def _texture_from_dict(d) -> TextureSpec:
    return TextureSpec(**_checked(d, "texture", _TEXTURE_FIELDS))


def _offsets_from_dict(traj, frame_count: int) -> tuple[tuple[int, int], ...]:
    traj = _checked(traj, "trajectory", _TRAJECTORY_FIELDS)
    kind = traj.get("kind", "static")
    if kind == "static":
        return tuple((0, 0) for _ in range(frame_count))
    if kind == "linear":
        vr, vc = _int_pair(traj.get("velocity", [0, 0]), "trajectory velocity")
        return tuple((vr * t, vc * t) for t in range(frame_count))
    if kind == "offsets":
        if "offsets" not in traj:
            raise SceneSpecError("trajectory kind 'offsets' needs an offsets list")
        return tuple(_int_pair(o, "trajectory offset") for o in traj["offsets"])
    raise SceneSpecError(f"unknown trajectory kind {kind!r}")


def scene_from_dict(d) -> SyntheticSceneSpec:
    d = _checked(d, "scene", _SCENE_FIELDS, ("width", "height", "frame_count"))
    bg = _checked(d.get("background", {}), "background", _BACKGROUND_FIELDS)
    objects = []
    for od in d.get("objects", []):
        od = _checked(od, "object", _OBJECT_FIELDS,
                      ("height", "width", "row", "col", "disparity"))
        objects.append(ObjectSpec(
            height=od["height"], width=od["width"], row=od["row"],
            col=od["col"], disparity=od["disparity"],
            texture=_texture_from_dict(od.get("texture", {})),
            offsets=_offsets_from_dict(od.get("trajectory", {}),
                                       d["frame_count"])))
    return SyntheticSceneSpec(
        width=d["width"], height=d["height"], frame_count=d["frame_count"],
        background_disparity=bg.get("disparity", 0),
        background_texture=_texture_from_dict(bg.get("texture", {})),
        objects=tuple(objects))


def _triangle_offsets(frame_count: int, step: int, swing: int, axis: int
                      ) -> tuple[tuple[int, int], ...]:
    """Bouncing linear motion: advance by `step` per frame, reverse at +-swing."""
    offs = []
    pos, direction = 0, 1
    for _ in range(frame_count):
        offs.append((pos, 0) if axis == 0 else (0, pos))
        nxt = pos + direction * step
        if abs(nxt) > swing:
            direction = -direction
            nxt = pos + direction * step
        pos = nxt
    return tuple(offs)


def default_scene_spec(width: int = 128, height: int = 128, frame_count: int = 60
                       ) -> SyntheticSceneSpec:
    """Stock desk-scale scene: two moving objects over a textured background.

    Object interiors are flat or smoothly graded so synthesized-view
    distortion is dominated by the disparity edges, while the boundaries
    carry strong intensity steps for the block matcher to lock onto.
    """
    return SyntheticSceneSpec(
        width=width,
        height=height,
        frame_count=frame_count,
        background_disparity=2,
        background_texture=TextureSpec(kind="gradient", base=90.0, row_slope=0.0,
                                       col_slope=0.5),
        objects=(
            ObjectSpec(
                height=40, width=40, row=20, col=24, disparity=4,
                texture=TextureSpec(kind="gradient", base=150.0, row_slope=0.8,
                                    col_slope=0.0),
                offsets=_triangle_offsets(frame_count, step=1, swing=12, axis=0),
            ),
            ObjectSpec(
                height=48, width=48, row=64, col=56, disparity=8,
                texture=TextureSpec(kind="flat", value=210),
                offsets=_triangle_offsets(frame_count, step=2, swing=16, axis=1),
            ),
        ),
    )
