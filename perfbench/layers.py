"""Which fvstream functions the traced run wraps, and the per-layer metrics.

Every function in LAYERS reports `<name>.s` (inclusive seconds),
`<name>.self_s` (seconds minus its traced children) and `<name>.calls`, all
per unit of work, so a faster layer shows as fewer seconds and not as more
units squeezed into the same run time.  The ratios are counted by observers
from the arguments and return values of the wrapped calls.
"""
from __future__ import annotations

import importlib
from pathlib import Path

from tracer import Tracer

#: (metric prefix, module, attribute; "Class.method" for methods)
LAYERS = (
    ("codec.motion_search", "fvstream.codec", "motion_search"),
    ("codec.build_inter_candidates", "fvstream.codec", "build_inter_candidates"),
    ("codec.build_intra_candidates", "fvstream.codec", "build_intra_candidates"),
    ("codec.decode_plane", "fvstream.codec", "decode_plane"),
    ("codec.parse_stream", "fvstream.codec", "parse_stream"),
    ("optimizer.build_plane_candidates", "fvstream.optimizer",
     "build_plane_candidates"),
    ("optimizer.select_plane", "fvstream.optimizer", "select_plane"),
    ("optimizer.tune_to_band", "fvstream.optimizer", "tune_to_band"),
    ("optimizer.ReactiveTaint.valid_candidates", "fvstream.optimizer",
     "ReactiveTaint.valid_candidates"),
    ("errortrack.ExpectedErrorTracker.set_frame_outcome", "fvstream.errortrack",
     "ExpectedErrorTracker.set_frame_outcome"),
    ("errortrack.DecoderTracker.update_frame", "fvstream.errortrack",
     "DecoderTracker.update_frame"),
    ("sensitivity.curvature_map", "fvstream.sensitivity", "curvature_map"),
    ("synthesis.correspondence_sets", "fvstream.synthesis", "correspondence_sets"),
    ("synthesis.synthesize_view", "fvstream.synthesis", "synthesize_view"),
    ("channel.lost_mb_mask", "fvstream.channel", "lost_mb_mask"),
    ("pipeline.encode_stream", "fvstream.pipeline", "encode_stream"),
    ("pipeline.decode_stream", "fvstream.pipeline", "decode_stream"),
    ("pipeline.synthesize_sequence", "fvstream.pipeline", "synthesize_sequence"),
)

#: spans recorded for nesting (and the spans file) but not reported alone
CONTEXT_SPANS = (
    ("pipeline.run_experiment", "fvstream.pipeline", "run_experiment"),
    ("scenegen.generate_synthetic_stereo", "fvstream.scenegen",
     "generate_synthetic_stereo"),
    ("channel.make_iid_trace", "fvstream.channel", "make_iid_trace"),
    ("optimizer.ReactiveTaint.lattice", "fvstream.optimizer",
     "ReactiveTaint.lattice"),
)

#: ratio and count metrics and their units (README.md says what each counts)
RATIOS = {
    "codec.duplicate_trial_frac": "fraction",
    "codec.intra_builds_per_plane": "builds/plane",
    "codec.candidate_bytes": "B",
    "codec.concealed_frac": "fraction",
    "codec.parse_mb_per_s": "blocks/s",
    "optimizer.lambda_trials_per_frame": "trials/frame",
    "optimizer.taint_frames_walked": "frames/call",
    "errortrack.frames_repropagated": "frames/call",
    "pipeline.artifact_io_s": "s",
    "pipeline.artifact_bytes": "B",
}


class Counters:
    """Sums the observers collect during the traced units."""

    def __init__(self) -> None:
        self.searched_cols = 0
        self.zero_searched_cols = 0
        self.candidate_bytes = 0
        self.planes_coded = 0
        self.tune_trials = 0
        self.lattice_frames = 0
        self.repropagated = 0
        self.mb_decoded = 0
        self.mb_concealed = 0
        self.mb_parsed = 0
        self.artifact_bytes = 0

    def on_inter_candidates(self, args, kwargs, cset) -> None:
        # column order: SKIP, then per reference (zero motion, searched best)
        searched = cset.mv[:, 2::2, :]
        self.searched_cols += searched.shape[0] * searched.shape[1]
        self.zero_searched_cols += int((searched == 0).all(axis=2).sum())
        self.candidate_bytes = max(self.candidate_bytes,
                                   cset.recon.nbytes + cset.coeffs.nbytes)

    def on_encode_stream(self, args, kwargs, stream) -> None:
        self.planes_coded += sum(len(frame) for frame in stream.frames)

    def on_tune(self, args, kwargs, result) -> None:
        self.tune_trials += result.trials

    def on_lattice(self, args, kwargs, lattice) -> None:
        self.lattice_frames += len(lattice)

    def on_set_frame_outcome(self, args, kwargs, _) -> None:
        tracker, t = args[0], (args[1] if len(args) > 1 else kwargs["t"])
        self.repropagated += tracker.frame_count - t

    def on_decode_plane(self, args, kwargs, out) -> None:
        concealed = out[1]
        self.mb_decoded += concealed.size
        self.mb_concealed += int(concealed.sum())

    def on_parse(self, args, kwargs, out) -> None:
        self.mb_parsed += sum(plane.modes.size for frame in out[3]
                              for plane in frame.values())

    def on_run_experiment(self, args, kwargs, report) -> None:
        root = Path(args[0].output_root)
        self.artifact_bytes += sum(p.stat().st_size for p in root.rglob("*")
                                   if p.is_file())


def _target(module: str, attr: str):
    holder = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        holder = getattr(holder, cls)
    return holder, attr


def install(tracer: Tracer, counters: Counters) -> None:
    observers = {
        "codec.build_inter_candidates": counters.on_inter_candidates,
        "codec.decode_plane": counters.on_decode_plane,
        "codec.parse_stream": counters.on_parse,
        "optimizer.tune_to_band": counters.on_tune,
        "optimizer.ReactiveTaint.lattice": counters.on_lattice,
        "errortrack.ExpectedErrorTracker.set_frame_outcome":
            counters.on_set_frame_outcome,
        "pipeline.encode_stream": counters.on_encode_stream,
        "pipeline.run_experiment": counters.on_run_experiment,
    }
    for name, module, attr in LAYERS + CONTEXT_SPANS:
        holder, attr = _target(module, attr)
        tracer.install(holder, attr, name, observers.get(name))


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, counters: Counters, units: int
                  ) -> dict[str, dict]:
    """Per-layer metrics, per unit of work, as {name: {value, unit}}."""
    out: dict[str, dict] = {}
    for name, _, _ in LAYERS:
        out[f"{name}.s"] = {"value": tracer.total_s.get(name, 0.0) / units,
                            "unit": "s"}
        out[f"{name}.self_s"] = {"value": tracer.self_s.get(name, 0.0) / units,
                                 "unit": "s"}
        out[f"{name}.calls"] = {"value": tracer.calls.get(name, 0) / units,
                                "unit": "count"}
    c = counters
    values = {
        "codec.duplicate_trial_frac": _ratio(c.zero_searched_cols,
                                             c.searched_cols),
        "codec.intra_builds_per_plane": _ratio(
            tracer.calls.get("codec.build_intra_candidates", 0), c.planes_coded),
        "codec.candidate_bytes": float(c.candidate_bytes),
        "codec.concealed_frac": _ratio(c.mb_concealed, c.mb_decoded),
        "codec.parse_mb_per_s": _ratio(
            c.mb_parsed, tracer.total_s.get("codec.parse_stream", 0.0)),
        "optimizer.lambda_trials_per_frame": _ratio(
            c.tune_trials, tracer.calls.get("optimizer.tune_to_band", 0)),
        "optimizer.taint_frames_walked": _ratio(
            c.lattice_frames,
            tracer.calls.get("optimizer.ReactiveTaint.valid_candidates", 0)),
        "errortrack.frames_repropagated": _ratio(
            c.repropagated, tracer.calls.get(
                "errortrack.ExpectedErrorTracker.set_frame_outcome", 0)),
        "pipeline.artifact_io_s": tracer.self_s.get(
            "pipeline.run_experiment", 0.0) / units,
        "pipeline.artifact_bytes": c.artifact_bytes / units,
    }
    for name, value in values.items():
        out[name] = {"value": float(value), "unit": RATIOS[name]}
    return out


def per_layer_names() -> list[str]:
    names = [f"{n}.{suffix}" for n, _, _ in LAYERS
             for suffix in ("s", "self_s", "calls")]
    return names + list(RATIOS) + ["trace.overhead_s", "trace.overhead_frac"]
