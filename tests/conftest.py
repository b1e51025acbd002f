"""Shared scene fixtures, an in-process encoder state, the hypothesis profile
and the acceptance summary."""
from __future__ import annotations

import multiprocessing
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from fvstream.channel import Component, build_schedule, make_iid_trace
from fvstream import pipeline
from fvstream.codec import serialize_stream
from fvstream.pipeline import ExperimentConfig, encode_stream
from fvstream.scenegen import (ObjectSpec, SyntheticSceneSpec, TextureSpec,
                               default_scene_spec, generate_synthetic_stereo)

settings.register_profile(
    "suite", deadline=None, max_examples=30,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_process_left():
    """No test leaves a child process of the suite running, passed or not."""
    yield
    assert multiprocessing.active_children() == []


def encoder_state(cfg, orig, mode: str, trace) -> pipeline.EncoderState:
    """An EncoderState that builds every candidate set in this process when
    plan reads it, as encode_stream does before a helper starts."""
    build = pipeline._builds_here(cfg, orig)
    return pipeline.EncoderState(cfg, orig, mode, trace,
                                 lambda requests: partial(build, requests))


def bounce(frame_count: int, step: int, swing: int, axis: int):
    """Back-and-forth integer motion staying within +-swing of the anchor."""
    offs, pos, direction = [], 0, 1
    for _ in range(frame_count):
        offs.append((pos, 0) if axis == 0 else (0, pos))
        nxt = pos + direction * step
        if abs(nxt) > swing:
            direction = -direction
            nxt = pos + direction * step
        pos = nxt
    return tuple(offs)


def scene64_spec(frame_count: int = 30) -> SyntheticSceneSpec:
    """Two objects over a graded background, 64x64: one occluder at high
    disparity, one textured mover; small enough for fast coding tests."""
    return SyntheticSceneSpec(
        width=64, height=64, frame_count=frame_count,
        background_disparity=2,
        background_texture=TextureSpec(kind="gradient", base=100.0, col_slope=0.5),
        objects=(
            ObjectSpec(height=24, width=24, row=8, col=6, disparity=6,
                       texture=TextureSpec(kind="gradient", base=160.0,
                                           row_slope=0.5),
                       offsets=bounce(frame_count, 1, 6, axis=0)),
            ObjectSpec(height=16, width=16, row=40, col=36, disparity=10,
                       texture=TextureSpec(kind="flat", value=220),
                       offsets=bounce(frame_count, 1, 8, axis=1)),
        ),
    )


def micro_scene_spec(frame_count: int = 8) -> SyntheticSceneSpec:
    """Smallest legal scene (2x2 macroblocks) for pipeline and CLI runs."""
    return SyntheticSceneSpec(
        width=32, height=32, frame_count=frame_count,
        background_disparity=2,
        background_texture=TextureSpec(kind="gradient", base=80.0, col_slope=1.0),
        objects=(
            ObjectSpec(height=12, width=12, row=4, col=4, disparity=6,
                       texture=TextureSpec(kind="flat", value=200),
                       offsets=bounce(frame_count, 1, 4, axis=1)),
        ),
    )


def side_scene_spec(frame_count: int = 8) -> SyntheticSceneSpec:
    """One mover confined to the left half; the right half stays clean
    background, so its blocks can be corrupted without touching any
    disocclusion fill."""
    return SyntheticSceneSpec(
        width=64, height=64, frame_count=frame_count,
        background_disparity=2,
        background_texture=TextureSpec(kind="gradient", base=90.0, col_slope=0.5),
        objects=(
            ObjectSpec(height=24, width=24, row=20, col=4, disparity=6,
                       texture=TextureSpec(kind="gradient", base=170.0,
                                           row_slope=0.5),
                       offsets=bounce(frame_count, 1, 4, axis=0)),
        ),
    )


def _render(spec: SyntheticSceneSpec) -> SimpleNamespace:
    left, right, truth = generate_synthetic_stereo(spec)
    return SimpleNamespace(spec=spec, left=left, right=right, truth=truth)


@pytest.fixture(scope="session")
def default_scene():
    return _render(default_scene_spec())


@pytest.fixture(scope="session")
def scene64():
    return _render(scene64_spec())


@pytest.fixture(scope="session")
def micro_scene():
    return _render(micro_scene_spec())


@pytest.fixture(scope="session")
def side_scene():
    return _render(side_scene_spec())


@pytest.fixture(scope="session")
def lossy_micro_stream(micro_scene):
    """The micro scene coded in cross mode for a loss-0.3 trace whose seed 1
    loses texture block 0 of view 0 at frame 3; returns (config, encoded
    stream, serialized bitstream, trace)."""
    spec = micro_scene.spec
    cfg = ExperimentConfig(scene=spec, setups=("arps",), loss_rates=(0.3,),
                           seeds=(1,), rtt=2)
    orig = {}
    for view, frames in ((0, micro_scene.left), (1, micro_scene.right)):
        orig[(view, Component.TEXTURE)] = [f.texture.samples for f in frames]
        orig[(view, Component.DEPTH)] = [f.disparity.samples for f in frames]
    trace = make_iid_trace(1, 0.3, build_schedule(spec.frame_count, 4, 4),
                           frozenset({0}))
    stream = encode_stream(cfg, orig, "cross", trace)
    blob = serialize_stream(spec.width, spec.height, cfg.quant_step,
                            stream.frames, cfg.depth_quant_step)
    return cfg, stream, blob, trace


# ---------------------------------------------------------------------------
# acceptance bookkeeping
# ---------------------------------------------------------------------------

_ACCEPTANCE: dict[int, dict] = {}
_EXAMPLE_NODES: list[str] = []
_ACCEPTANCE_COLLECTED = False


def record_criterion(num: int, name: str, passed: bool, detail: str = "") -> None:
    """Stash a criterion verdict so the summary prints even when it fails."""
    _ACCEPTANCE[num] = {"name": name, "passed": bool(passed), "detail": detail}


def pytest_collection_modifyitems(config, items):
    global _ACCEPTANCE_COLLECTED
    for it in items:
        if it.get_closest_marker("example") is not None:
            _EXAMPLE_NODES.append(it.nodeid)
        if it.get_closest_marker("acceptance") is not None:
            _ACCEPTANCE_COLLECTED = True


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE and not _ACCEPTANCE_COLLECTED:
        return
    failed = set()
    uncollected = set()
    for key in ("failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", None)
            if nodeid:
                failed.add(nodeid)
                if isinstance(rep, pytest.CollectReport):
                    uncollected.add(nodeid)
    # criterion 9 verdict folds in the outcome of every pinned example check;
    # a module that failed to collect may hold pins that never ran
    if 9 in _ACCEPTANCE:
        bad = sorted(n for n in _EXAMPLE_NODES if n in failed)
        entry = _ACCEPTANCE[9]
        entry["passed"] = (entry["passed"] and bool(_EXAMPLE_NODES) and not bad
                           and not uncollected)
        entry["detail"] = (entry["detail"]
                           + f", {len(_EXAMPLE_NODES)} example checks"
                           + (f", {len(bad)} failed" if bad else "")
                           + (", not collected: " + ", ".join(sorted(uncollected))
                              if uncollected else ""))
    terminalreporter.section("acceptance criteria")
    for num in range(1, 11):
        e = _ACCEPTANCE.get(num)
        if e is None:
            terminalreporter.write_line(f"ACCEPTANCE {num:2d} (not run): FAIL")
            continue
        status = "PASS" if e["passed"] else "FAIL"
        line = f"ACCEPTANCE {num:2d} {e['name']}: {status}"
        if e["detail"]:
            line += f"  [{e['detail']}]"
        terminalreporter.write_line(line)
