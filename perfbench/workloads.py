"""The benchmark's three workloads.

Each workload builds its inputs from the seed it is given, runs one unit of
work per `unit()` call through fvstream's public API, and checks every unit's
outputs in `check()`, outside the timed region.  Why these three, and why the
full experiment grids are not workloads, is in README.md.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import shutil
from pathlib import Path

import numpy as np

import fvstream
from fvstream import pipeline
from fvstream.channel import Component


def bounce(frame_count: int, step: int, swing: int, axis: int):
    """Back-and-forth integer motion within +-swing of the anchor."""
    offs, pos, direction = [], 0, 1
    for _ in range(frame_count):
        offs.append((pos, 0) if axis == 0 else (0, pos))
        nxt = pos + direction * step
        if abs(nxt) > swing:
            direction = -direction
            nxt = pos + direction * step
        pos = nxt
    return tuple(offs)


def scene64_spec(frame_count: int) -> fvstream.SyntheticSceneSpec:
    """64x64 scene with two movers: a high-disparity occluder and a textured
    block (the geometry of the test suite's scene64)."""
    tex = fvstream.TextureSpec
    return fvstream.SyntheticSceneSpec(
        width=64, height=64, frame_count=frame_count,
        background_disparity=2,
        background_texture=tex(kind="gradient", base=100.0, col_slope=0.5),
        objects=(
            fvstream.ObjectSpec(height=24, width=24, row=8, col=6, disparity=6,
                                texture=tex(kind="gradient", base=160.0,
                                            row_slope=0.5),
                                offsets=bounce(frame_count, 1, 6, axis=0)),
            fvstream.ObjectSpec(height=16, width=16, row=40, col=36,
                                disparity=10,
                                texture=tex(kind="flat", value=220),
                                offsets=bounce(frame_count, 1, 8, axis=1)),
        ),
    )


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative path and content of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _mean(values) -> float:
    return float(np.mean(np.asarray(values, dtype=np.float64)))


class RunWorkload:
    """One `run_experiment` per unit over a single (rate, seed) pair.

    A unit writes a complete artifact tree; the check reads it back and
    hashes it, and every later unit of the run must hash the same.
    """

    min_units = 1

    def __init__(self, scene: fvstream.SyntheticSceneSpec,
                 setups: tuple[str, ...], loss_rate: float, rtt: int,
                 seed: int, work_dir: Path):
        self.scene = scene
        self.setups = setups
        self.loss_rate = loss_rate
        self.rtt = rtt
        self.seed = seed
        self.work_dir = work_dir
        self.items_per_unit = len(setups)
        self.frames_per_unit = len(setups) * scene.frame_count
        self.digest: str | None = None
        self.report: fvstream.ExperimentReport | None = None

    def setup(self) -> None:
        fvstream.generate_synthetic_stereo(self.scene)

    def unit(self, i: int):
        cfg = fvstream.ExperimentConfig(
            scene=self.scene, setups=self.setups,
            loss_rates=(self.loss_rate,), seeds=(self.seed,), rtt=self.rtt,
            output_root=str(self.work_dir / f"unit{i}"))
        return cfg, pipeline.run_experiment(cfg)

    def check(self, i: int, out) -> tuple[int, int, list[str]]:
        """(cells attempted, cells failed, problems) for one unit."""
        cfg, report = out
        root = Path(cfg.output_root)
        problems = {s: self._check_cell(root, s) for s in self.setups}
        failed = {s for s, errs in problems.items() if errs}
        digest = tree_digest(root)
        shutil.rmtree(root)
        if self.digest is None:
            self.digest, self.report = digest, report
        elif digest != self.digest:
            failed = set(self.setups)
            problems["tree"] = [f"unit {i} artifact tree differs from unit 0"]
        flat = [f"{key}: {msg}" for key, errs in problems.items() for msg in errs]
        return len(self.setups), len(failed), flat

    def _check_cell(self, root: Path, setup: str) -> list[str]:
        frames = self.scene.frame_count
        errs = []
        try:
            with open(root / "report.csv", encoding="ascii") as fh:
                rows = [r for r in csv.DictReader(fh) if r["setup"] == setup
                        and int(r["seed"]) == self.seed
                        and math.isclose(float(r["loss_rate"]), self.loss_rate)]
            if len(rows) != 1:
                errs.append(f"{len(rows)} report.csv rows")
            elif int(rows[0]["frame_count"]) != frames:
                errs.append(f"report.csv frame_count {rows[0]['frame_count']}")
            perframe = (root / f"rate_{self.loss_rate:.6f}" / f"seed_{self.seed}"
                        / setup / "perframe.csv")
            with open(perframe, encoding="ascii") as fh:
                lines = list(csv.DictReader(fh))
            if len(lines) != frames:
                errs.append(f"perframe.csv has {len(lines)} rows, want {frames}")
            for row in lines:
                if not math.isfinite(float(row["psnr"])) or int(row["bits"]) <= 0:
                    errs.append(f"frame {row['frame']}: psnr {row['psnr']}, "
                                f"bits {row['bits']}")
        except (OSError, KeyError, ValueError) as exc:
            errs.append(f"unreadable artifact: {exc!r}")
        return errs

    def verify(self) -> tuple[int, int, list[str]]:
        return 0, 0, []

    def quality(self) -> dict:
        cells = self.report.cells
        by_setup = {c.setup: c for c in cells}
        # the pipeline codes every non-baseline setup against rfc's spend
        tuned = [c for c in cells if c.setup != "rfc"] or cells
        gain = (by_setup["arps"].mean_psnr - by_setup["rfc"].mean_psnr
                if {"rfc", "arps"} <= set(by_setup) else None)
        return {
            "psnr_db": _mean([c.mean_psnr for c in cells]),
            "psnr_gain_db": gain,
            "in_band_frac": _mean([b for c in tuned for b in c.in_band[1:]]),
            "digests": {"artifact_tree": self.digest},
        }


class ReceiverReplay:
    """Encode once in set-up, then replay the bitstream over seeded traces.

    The encoder runs in cross mode with the round trip past the last frame,
    so it never reacts to a trace and one bitstream serves every replay.  A
    replay parses the bitstream, decodes it over one loss trace and
    synthesizes the middle view with both blends.  The run cycles through
    REPLAY_TRACES traces; a trace replayed again must give the same bytes.
    """

    loss_rate = 0.15
    min_units = 8
    items_per_unit = 1
    REPLAY_TRACES = 8

    def __init__(self, scene: fvstream.SyntheticSceneSpec, seed: int):
        self.scene = scene
        self.seed = seed
        self.trace_seeds = [seed * self.REPLAY_TRACES + k
                            for k in range(self.REPLAY_TRACES)]
        self.frames_per_unit = scene.frame_count
        self.bitstream_digests: list[str] = []
        self.replays: dict[int, tuple[str, float, float]] = {}

    def setup(self) -> None:
        left, right, truth = fvstream.generate_synthetic_stereo(self.scene)
        orig = {}
        for view, frames in ((0, left), (1, right)):
            orig[(view, Component.TEXTURE)] = [f.texture.samples for f in frames]
            orig[(view, Component.DEPTH)] = [f.disparity.samples for f in frames]
        s = self.scene
        cfg = fvstream.ExperimentConfig(scene=s, setups=("arps",),
                                        loss_rates=(self.loss_rate,),
                                        seeds=(self.seed,), rtt=s.frame_count)
        n_mb = (s.height // 16) * (s.width // 16)
        schedule = fvstream.build_schedule(
            s.frame_count, cfg.packets_for(Component.TEXTURE, n_mb),
            cfg.packets_for(Component.DEPTH, n_mb))
        trace = fvstream.make_iid_trace(self.seed, self.loss_rate, schedule,
                                        frozenset({0}))
        stream = pipeline.encode_stream(cfg, orig, "cross", trace)
        bitstream = fvstream.serialize_stream(s.width, s.height, cfg.quant_step,
                                              stream.frames,
                                              cfg.depth_quant_step)
        self.bitstream_digests.append(hashlib.sha256(bitstream).hexdigest())
        self.cfg, self.schedule, self.truth = cfg, schedule, truth
        self.stream, self.bitstream = stream, bitstream

    def _replay(self, trace):
        _, _, _, frames = fvstream.parse_stream(self.bitstream)
        parsed = dataclasses.replace(self.stream, frames=frames)
        dec = pipeline.decode_stream(self.cfg, parsed, trace)
        synth = {blend: pipeline.synthesize_sequence(self.cfg, dec, blend,
                                                     self.truth)
                 for blend in ("standard", "adaptive")}
        return frames, dec, synth

    def unit(self, i: int):
        k = i % self.REPLAY_TRACES
        trace = fvstream.make_iid_trace(self.trace_seeds[k], self.loss_rate,
                                        self.schedule, frozenset({0}))
        return k, self._replay(trace)

    def _round_trip_errors(self, frames) -> list[str]:
        errs = []
        if len(frames) != len(self.stream.frames):
            return [f"parsed {len(frames)} frames of {len(self.stream.frames)}"]
        for t, (got_t, want_t) in enumerate(zip(frames, self.stream.frames)):
            for key, want in want_t.items():
                got = got_t[key]
                same = (got.quant_step == want.quant_step
                        and tuple(got.grid) == tuple(want.grid)
                        and all(np.array_equal(getattr(got, f), getattr(want, f))
                                for f in ("modes", "ref_dist", "mv", "coeffs")))
                if not same:
                    errs.append(f"frame {t} plane {key}: parsed plane differs")
        return errs

    def check(self, i: int, out) -> tuple[int, int, list[str]]:
        k, (frames, _, synth) = out
        errs = self._round_trip_errors(frames)
        h = hashlib.sha256()
        means = {}
        for blend, (planes, scores) in synth.items():
            if len(scores) != self.scene.frame_count or not all(
                    math.isfinite(s) for s in scores):
                errs.append(f"{blend}: bad PSNR list")
            for plane in planes:
                h.update(np.ascontiguousarray(plane).tobytes())
            means[blend] = _mean(scores)
        record = (h.hexdigest(), means["standard"], means["adaptive"])
        if k not in self.replays:
            self.replays[k] = record
        elif record != self.replays[k]:
            errs.append(f"replay {i} of trace {k} differs from its first replay")
        return 1, int(bool(errs)), errs

    def verify(self) -> tuple[int, int, list[str]]:
        """Every set-up must have encoded the same bitstream, and a loss-free
        replay must decode to the encoder's own reconstruction."""
        clean = fvstream.make_iid_trace(self.seed, 0.0, self.schedule,
                                        frozenset({0}))
        _, dec, _ = self._replay(clean)
        errs = [f"plane {key} frame {t} differs from the encoder's recon"
                for key, planes in self.stream.recon.items()
                for t, plane in enumerate(planes)
                if not np.array_equal(dec.planes[key][t], plane)][:5]
        if len(set(self.bitstream_digests)) != 1:
            errs.append("repeated set-ups encoded different bitstreams")
        return 1, int(bool(errs)), errs

    def quality(self) -> dict:
        first = [self.replays[k] for k in sorted(self.replays)]
        std = _mean([r[1] for r in first])
        adp = _mean([r[2] for r in first])
        h = hashlib.sha256("".join(r[0] for r in first).encode("ascii"))
        return {
            "psnr_db": (std + adp) / 2.0,
            "psnr_gain_db": adp - std,
            "in_band_frac": _mean(self.stream.in_band[1:]),
            "digests": {"bitstream": self.bitstream_digests[-1],
                        "replays": h.hexdigest()},
        }


WORKLOADS = ("matched-rate", "long-feedback", "receiver-replay")


def make_workload(name: str, seed: int, work_dir: Path,
                  scene: fvstream.SyntheticSceneSpec | None = None):
    """Build a workload; `scene` replaces its scene (the smoke tests use it)."""
    if name == "matched-rate":
        return RunWorkload(scene or fvstream.default_scene_spec(),
                           ("rfc", "arps"), 0.08, 4, seed, work_dir)
    if name == "long-feedback":
        return RunWorkload(scene or scene64_spec(240), ("rfc",), 0.05, 4,
                           seed, work_dir)
    if name == "receiver-replay":
        return ReceiverReplay(scene or fvstream.default_scene_spec(), seed)
    raise ValueError(f"unknown workload {name!r} (choose from {WORKLOADS})")
