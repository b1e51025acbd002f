"""Smoke tests of the benchmark on a 32x32, 8-frame scene.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

run.import_fvstream()

import fvstream  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def micro_scene(frame_count: int = 8) -> fvstream.SyntheticSceneSpec:
    tex = fvstream.TextureSpec
    return fvstream.SyntheticSceneSpec(
        width=32, height=32, frame_count=frame_count,
        background_disparity=2,
        background_texture=tex(kind="gradient", base=80.0, col_slope=1.0),
        objects=(fvstream.ObjectSpec(
            height=12, width=12, row=4, col=4, disparity=6,
            texture=tex(kind="flat", value=200),
            offsets=workloads.bounce(frame_count, 1, 4, axis=1)),),
    )


def small(name: str, tmp_path: Path, seed: int = 3):
    return workloads.make_workload(name, seed, tmp_path, scene=micro_scene())


def units_of(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_metrics_match_benchmark_json(name, tmp_path):
    result, details = run.run_workload(small(name, tmp_path), 0.0, trace=False)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert units_of(result["metrics"]) == want
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 and details["failed_frac"] == 0.0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # reported, but not bounded: see README.md
    assert (details["psnr_gain_db"] is None) == (name == "long-feedback")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_prints_every_layer_metric(name, tmp_path):
    result, details = run.run_workload(small(name, tmp_path), 0.0, trace=True,
                                       spans_path=tmp_path / "spans.json")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units_of(result["metrics"]) == want
    assert sorted(want) == sorted(layers.per_layer_names())
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="ascii"))
    assert spans["spans"] and result["correct"]
    # unit 0 is the untraced warm-up; each later unit also runs traced
    assert ({span[4] for span in spans["spans"]}
            == set(range(1, details["units"] + 1)))
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "receiver-replay":
        assert m["codec.motion_search.calls"] == 0
        assert m["codec.parse_stream.calls"] == 1
    else:
        assert m["codec.motion_search.calls"] > 0
    if name == "long-feedback":
        assert m["optimizer.tune_to_band.calls"] == 0
        assert m["optimizer.taint_frames_walked"] > 0
    if name == "matched-rate":
        assert m["optimizer.lambda_trials_per_frame"] >= 1.0
        assert m["codec.intra_builds_per_plane"] >= 1.0


def test_corrupted_artifact_counts_as_failed(tmp_path):
    wl = small("matched-rate", tmp_path)
    unit = wl.unit

    def corrupting_unit(i):
        cfg, report = unit(i)
        perframe = (Path(cfg.output_root) / "rate_0.080000" / "seed_3" / "arps"
                    / "perframe.csv")
        lines = perframe.read_text(encoding="ascii").splitlines()
        lines[2] = "1,nan,0,0"
        perframe.write_text("\n".join(lines) + "\n", encoding="ascii")
        return cfg, report

    wl.unit = corrupting_unit
    result, details = run.run_workload(wl, 0.0, trace=False)
    assert not result["correct"]
    assert (result["failed"], result["attempted"]) == (1, 2)
    assert details["failed_frac"] == 0.5


def test_corrupted_bitstream_counts_as_failed(tmp_path):
    wl = small("receiver-replay", tmp_path)
    setup = wl.setup

    def corrupting_setup():
        setup()
        data = bytearray(wl.bitstream)
        # header is 15 bytes, then MB 0's 6-byte decision and its DC
        # coefficient; frame 0 is all INTRA, so the block has coefficients
        data[21] ^= 0x01
        wl.bitstream = bytes(data)

    wl.setup = corrupting_setup
    result, details = run.run_workload(wl, 0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == wl.min_units + 1
    assert details["failed_frac"] == 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matched-rate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_clock_calibrates_during_work_and_restores_the_signal():
    handler = signal.getsignal(signal.SIGALRM)
    clock = hostspeed.HostClock()
    assert clock.time(lambda: time.sleep(1.2) or "done") == "done"
    # before, twice during (at 0.5 s and 1.0 s), after
    assert len(clock.calibrations) == 4
    assert 1.0 < clock.raw < 1.25
    assert clock.scaled == pytest.approx(
        clock.raw * hostspeed.REF_PASS_S / statistics.fmean(clock.calibrations))
    assert signal.getsignal(signal.SIGALRM) is handler

    with pytest.raises(ZeroDivisionError):
        clock.time(lambda: 1 / 0)
    assert clock.scaled is not None and clock.raw >= 0.0
    assert signal.getsignal(signal.SIGALRM) is handler

    clock.time(lambda: time.sleep(0.01), sample=False)
    assert clock.scaled is None and len(clock.calibrations) == 6
