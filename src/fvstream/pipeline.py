"""End-to-end experiment driver.

One cell = (setup, loss rate, seed): encode both views with the setup's
selection mode, push the packets through the recorded loss trace, decode with
concealment, track errors at the receiver, synthesize the middle view, and
score it against the withheld ground truth.  All setups of a (rate, seed)
pair share one trace, and the feedback-only baseline's per-frame bits are
the matched-rate targets of the others.  When a pair holds the baseline and
a tuned setup, the baseline is coded in a forked worker process that sends
each frame's bits as it commits them, while this process codes the tuned
setups against them: frame t only needs the baseline's frame t.

Within a frame, the four planes' candidate searches read only the source and
the reconstructions up to t - 1, so they are independent of each other.
When the CPUs this process may use outnumber the encodes it runs at once (1,
or 2 beside the baseline's worker), each encode forks a stateless helper
that builds view 1's candidate sets while the encode builds view 0's.
Selection, lambda tuning and commit stay in the encode, so the helper
changes no byte of any artifact.

Everything here is deterministic: fixed seeds, fixed iteration order, fixed
text formatting of every artifact.
"""
from __future__ import annotations

import math
import multiprocessing
import os
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .channel import (PLANE_ORDER, Component, LossTrace, build_schedule,
                      lost_mb_mask, make_iid_trace, save_trace)
from .codec import (CandidateSet, CodecConfig, CodecError, EncodedPlane,
                    build_inter_candidates, decode_plane)
from .errortrack import (DecoderTracker, ExpectedErrorTracker, innovation_term)
from .frames import FramePlane, ViewFrame, psnr, save_pgm
from .optimizer import (OPTIMIZER_MODES, PlaneCandidates, PlaneSelection,
                        ReactiveTaint, build_plane_candidates, cross_cap,
                        opposing_cap, select_plane, step1_minimum,
                        tune_to_band)
from .scenegen import (SyntheticSceneSpec, default_scene_spec,
                       generate_synthetic_stereo, json_field_message,
                       json_is, scene_from_dict)
from .sensitivity import (SensitivityError, SensitivityParams, curvature_map,
                          g_eval)
from .synthesis import (SynthesisError, SynthesisParams, correspondence_sets,
                        synthesize_view)

SETUPS = ("rfc", "rps1", "rps2", "arps")

#: per setup: (selection mode, blend mode)
SETUP_MODES = {
    "rfc": ("reactive", "standard"),
    "rps1": ("independent", "standard"),
    "rps2": ("cross", "standard"),
    "arps": ("cross", "adaptive"),
}

MODE_NAMES = {0: "intra", 1: "inter", 2: "skip"}

OUTPUT_ROOT_ENV = "FVSTREAM_OUTPUT_ROOT"


class HarnessError(ValueError):
    """Invalid experiment configuration or report usage."""


def _fmt(x: float) -> str:
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    scene: SyntheticSceneSpec = field(default_factory=default_scene_spec)
    setups: tuple[str, ...] = SETUPS
    loss_rates: tuple[float, ...] = (0.02, 0.05, 0.08)
    seeds: tuple[int, ...] = (101, 202, 303, 404, 505)
    rtt: int = 4
    position: float = 0.5
    eta: float = 1.0
    reliability_c: float = 1.0
    threshold: float = 5.0
    max_deviation: int = 16
    gamma: float = 1.0
    quant_step: int = 10
    depth_quant_step: int = 2   # disparity errors shift pixels; code depth finer
    search_range: int = 4
    depth_search_range: int = 2
    ref_window: int = 5
    packets_texture: int = 12
    packets_depth: int = 4
    rate_band: float = 0.05
    base_lambda: float = 0.008
    max_lambda_trials: int = 8
    protect_first_frame: bool = True
    output_root: str | None = None

    def __post_init__(self) -> None:
        if not self.setups:
            raise HarnessError("need at least one setup")
        for s in self.setups:
            if s not in SETUPS:
                raise HarnessError(f"unknown setup {s!r} (choose from {SETUPS})")
        if len(set(self.setups)) != len(self.setups):
            raise HarnessError("duplicate setups")
        if not self.loss_rates:
            raise HarnessError("need at least one loss rate")
        for r in self.loss_rates:
            if not 0.0 <= r <= 1.0:
                raise HarnessError(f"loss rate {r} outside [0, 1]")
        # each rate and seed names one directory of the artifact tree
        if len({_fmt(r) for r in self.loss_rates}) != len(self.loss_rates):
            raise HarnessError("duplicate loss rates (at 6 decimals)")
        if not self.seeds:
            raise HarnessError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise HarnessError("duplicate seeds")
        if min(self.seeds) < 0:
            raise HarnessError("seeds must be nonnegative")
        if self.rtt < 0:
            raise HarnessError("rtt must be nonnegative")
        if not (0 < self.rate_band < math.inf
                and 0 < self.base_lambda < math.inf):
            raise HarnessError("rate_band and base_lambda must be positive "
                               "and finite")
        if self.max_lambda_trials < 1:
            raise HarnessError("max_lambda_trials must be at least 1")
        if min(self.packets_texture, self.packets_depth) < 1:
            raise HarnessError("packets_texture and packets_depth must be "
                               "at least 1")
        if not 0.0 < self.gamma <= 1.0:
            raise HarnessError("gamma must be in (0, 1]")
        # the parameter objects every run reads; not fields, so the JSON
        # schema is the fields above
        try:
            self.codecs = {
                Component.TEXTURE: CodecConfig(self.quant_step,
                                               self.search_range,
                                               self.ref_window),
                Component.DEPTH: CodecConfig(self.depth_quant_step,
                                             self.depth_search_range,
                                             self.ref_window)}
            self.sensitivity = SensitivityParams(self.threshold,
                                                 self.max_deviation)
            self.synthesis = SynthesisParams(self.position, self.eta,
                                             self.reliability_c)
        except (CodecError, SensitivityError, SynthesisError) as exc:
            raise HarnessError(f"config: {exc}") from None

    def packets_for(self, component: Component, n_mb: int) -> int:
        want = (self.packets_texture if component == Component.TEXTURE
                else self.packets_depth)
        return min(want, n_mb)          # tiny frames: fewer packets than MBs

    def loss_trace(self, seed: int, rate: float) -> LossTrace:
        """The iid loss trace of one (rate, seed) pair over the scene's
        packet schedule; frame 0 is never lost when protect_first_frame."""
        n_mb = (self.scene.height // 16) * (self.scene.width // 16)
        schedule = build_schedule(self.scene.frame_count,
                                  self.packets_for(Component.TEXTURE, n_mb),
                                  self.packets_for(Component.DEPTH, n_mb))
        protected = frozenset({0}) if self.protect_first_frame else frozenset()
        return make_iid_trace(seed, rate, schedule, protected)


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise HarnessError("config must be a JSON object")
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    extra = set(d) - set(known)
    if extra:
        raise HarnessError(f"unknown config fields {sorted(extra)}")
    kw = dict(d)
    for name, value in d.items():
        kind = known[name]
        if name == "scene":
            kw[name] = scene_from_dict(value)
        elif kind.startswith("tuple["):
            item = kind[len("tuple["):-len(", ...]")]
            if not (isinstance(value, list)
                    and all(json_is(x, item) for x in value)):
                raise HarnessError(f"config field {name!r} must be a list "
                                   f"of {item}")
            kw[name] = tuple(value)
        elif not json_is(value, kind):
            raise HarnessError(json_field_message("config", name, kind, value))
    return ExperimentConfig(**kw)


def resolve_output_root(cfg: ExperimentConfig) -> Path:
    if cfg.output_root:
        return Path(cfg.output_root)
    env = os.environ.get(OUTPUT_ROOT_ENV)
    if env:
        return Path(env)
    return Path("fvstream-out")


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

@dataclass
class EncodedStream:
    mode: str
    frames: list[dict[tuple[int, Component], EncodedPlane]]
    records: list[dict[tuple[int, Component], PlaneSelection]]
    recon: dict[tuple[int, Component], list[np.ndarray]]
    bits_per_frame: list[int]
    lambdas: list[float]
    in_band: list[bool]
    infeasible: list[bool]


def _plane_lists(left: list[ViewFrame], right: list[ViewFrame]
                 ) -> dict[tuple[int, Component], list[np.ndarray]]:
    out: dict[tuple[int, Component], list[np.ndarray]] = {}
    for view, frames_ in ((0, left), (1, right)):
        out[(view, Component.TEXTURE)] = [f.texture.samples for f in frames_]
        out[(view, Component.DEPTH)] = [f.disparity.samples for f in frames_]
    return out


@dataclass
class FramePlan:
    """What one frame's selection needs, per plane: candidates, channel
    columns and (reactive only) valid masks.  Cross mode also keeps each
    view's opposing cap and correspondence membership."""

    orig: dict[tuple[int, Component], np.ndarray]
    pcs: dict[tuple[int, Component], PlaneCandidates]
    cols: dict[tuple[int, Component], np.ndarray]
    valid: dict[tuple[int, Component], np.ndarray]
    caps: dict[int, np.ndarray]
    members: dict[int, np.ndarray]

    def select(self, lam: float) -> dict[tuple[int, Component], PlaneSelection]:
        return {key: select_plane(self.orig[key], self.pcs[key], self.cols[key],
                                  lam, self.valid.get(key))
                for key in PLANE_ORDER}


#: one frame's candidate builds: (t, plane, references), and their results
BuildRequests = list[tuple[int, tuple[int, Component], list[np.ndarray]]]
Builder = Callable[[BuildRequests], dict[tuple[int, Component], CandidateSet]]


def _build_candidates(cfg: ExperimentConfig, orig: dict,
                      requests: BuildRequests
                      ) -> dict[tuple[int, Component], CandidateSet]:
    """Each requested plane's candidate set, built in this process."""
    return {key: build_inter_candidates(orig[key][t], refs, cfg.codecs[key[1]])
            for t, key, refs in requests}


class EncoderState:
    """The sender's state under one selection mode, advanced frame by frame.

    Holds the reconstructions, one tracker per plane, the innovation per
    plane and frame, and one curvature map per reconstructed view.  Frame t
    runs learn(t), then plan(t) and a selection, then commit(t, ...).
    build, when given, builds plan's candidate sets in place of this
    process (encode_stream passes its helper's).
    """

    def __init__(self, cfg: ExperimentConfig, orig: dict, mode: str,
                 trace: LossTrace, build: Builder | None = None):
        if mode not in OPTIMIZER_MODES:
            raise HarnessError(f"unknown selection mode {mode!r}")
        h, w = orig[(0, Component.TEXTURE)][0].shape
        self.cfg, self.orig, self.mode, self.trace = cfg, orig, mode, trace
        self.grid = (h // 16, w // 16)
        self.n_mb = self.grid[0] * self.grid[1]
        # the reactive baseline tracks the support of the same recursion
        self.trackers = {key: (ReactiveTaint(self.grid) if mode == "reactive"
                               else ExpectedErrorTracker(
                                   self.grid, 1.0 - trace.loss_rate, cfg.gamma))
                         for key in PLANE_ORDER}
        self.recon: dict[tuple[int, Component], list[np.ndarray]] = {
            key: [] for key in PLANE_ORDER}
        self.delta: dict[tuple[int, Component], list[np.ndarray]] = {
            key: [] for key in PLANE_ORDER}
        self.curv: dict[int, dict[int, np.ndarray]] = {0: {}, 1: {}}
        self.build = build or (lambda requests: _build_candidates(
            cfg, orig, requests))

    def learn(self, t: int) -> None:
        """The outcome of frame t - max(rtt, 1) arrives as frame t is coded."""
        f = t - max(self.cfg.rtt, 1)
        if f >= 0:
            for key in PLANE_ORDER:
                self.trackers[key].set_frame_outcome(
                    f, ~lost_mb_mask(self.trace, f, *key, self.n_mb))

    def innovation(self, key: tuple[int, Component], t: int) -> np.ndarray:
        """Frame t's innovation against the previous reconstruction; zero for
        the reactive taint, which ignores it."""
        series = self.delta[key]
        if len(series) == t:
            if self.mode == "reactive":
                series.append(np.zeros(self.n_mb))
            else:
                series.append(innovation_term(
                    self.orig[key][t], self.recon[key][t - 1] if t else None))
        return series[t]

    def curvature(self, view: int, k: int) -> np.ndarray:
        """Curvature map of view's reconstruction k."""
        if k not in self.curv[view]:
            self.curv[view][k] = curvature_map(
                self.recon[(view, Component.TEXTURE)][k],
                self.recon[(view, Component.DEPTH)][k],
                self.recon[(1 - view, Component.TEXTURE)][k], view,
                self.cfg.eta, self.cfg.sensitivity)
        return self.curv[view][k]

    def plan(self, t: int) -> FramePlan:
        """Candidates and channel terms of frame t under the mode.

        Frame 0 has no references: its candidates are INTRA alone, planned
        with zero expected error and no channel term.
        """
        cfg, recon, trackers = self.cfg, self.recon, self.trackers
        orig = {key: self.orig[key][t] for key in PLANE_ORDER}
        csets = self.build([(t, key, [recon[key][t - d] for d in range(
            1, min(cfg.ref_window, t) + 1)]) for key in PLANE_ORDER])
        if t == 0:
            zeros = np.zeros((self.n_mb, 1))
            pcs = {key: PlaneCandidates(cset=csets[key], chan=zeros)
                   for key in PLANE_ORDER}
            return FramePlan(orig=orig, pcs=pcs,
                             cols=dict.fromkeys(PLANE_ORDER, zeros), valid={},
                             caps={}, members={})
        pcs = {key: build_plane_candidates(csets[key], trackers[key], t,
                                           self.innovation(key, t))
               for key in PLANE_ORDER}
        cols, valid, caps, members = {}, {}, {}, {}
        for v in (0, 1):
            tex, dep = (v, Component.TEXTURE), (v, Component.DEPTH)
            if self.mode == "reactive":
                # no channel term, only references free of known taint
                for key in (tex, dep):
                    cols[key] = np.zeros_like(pcs[key].chan)
                    valid[key] = trackers[key].valid_candidates(pcs[key])
                continue
            curv = self.curvature(v, t - 1)
            cols[tex] = pcs[tex].chan
            cols[dep] = g_eval(curv[:, None], pcs[dep].chan)
            if self.mode == "cross":
                o = 1 - v
                corr = correspondence_sets(recon[tex][t - 1], recon[dep][t - 1],
                                           v, cfg.eta)
                # state t-1 meets the map of reconstruction t-2 (0 at t=1):
                # the golden digests pin this pairing
                opp_pen = g_eval(self.curvature(o, max(t - 2, 0)),
                                 trackers[(o, Component.DEPTH)].state(t - 1))
                opp_err = trackers[(o, Component.TEXTURE)].state(t - 1)
                caps[v] = opposing_cap(corr, opp_err, opp_pen,
                                       self.innovation(tex, t))
                members[v] = corr.member
                # two steps: texture against the depth error-minimizer, then
                # depth against the texture's
                tex_val = step1_minimum(pcs[tex])
                dep_val = step1_minimum(pcs[dep])
                cols[tex] = cross_cap(cols[tex], g_eval(curv, dep_val),
                                      caps[v], corr.member)
                cols[dep] = cross_cap(cols[dep], tex_val, caps[v], corr.member)
        return FramePlan(orig=orig, pcs=pcs, cols=cols, valid=valid,
                         caps=caps, members=members)

    def commit(self, t: int, frame: dict[tuple[int, Component], EncodedPlane],
               recon: dict[tuple[int, Component], np.ndarray]) -> None:
        """Push frame t's final decisions and reconstructions."""
        for key in PLANE_ORDER:
            enc = frame[key]
            delta = self.innovation(key, t)
            self.recon[key].append(recon[key])
            self.trackers[key].push_frame(enc.modes, enc.ref_dist, enc.mv, delta)
            if t == 0 and self.cfg.protect_first_frame:
                self.trackers[key].set_frame_outcome(
                    0, np.ones(self.n_mb, dtype=bool))


def _select_frame(plan: FramePlan, lam: float, target: float | None,
                  cfg: ExperimentConfig):
    """Select every plane at lam, or with target, drive the frame's bits into
    the band by adjusting lam: (selections, lam, bits, in band, infeasible).
    The plan's candidates are freed on return, before the next frame's."""
    def run(lam_trial: float):
        sels = plan.select(lam_trial)
        return sum(s.total_bits for s in sels.values()), sels

    if target is None:
        bits, sels = run(lam)
        return sels, lam, bits, True, False
    tuned = tune_to_band(run, lam, target, cfg.rate_band, cfg.max_lambda_trials)
    return tuned.payload, tuned.lam, tuned.bits, tuned.in_band, tuned.infeasible


def _receive(conn, proc, what: str):
    """The next message from a forked process; an exception it sent is
    raised here, and its death raises HarnessError with its exit code."""
    try:
        msg = conn.recv()
    except EOFError:
        proc.join()
        raise HarnessError(f"{what} exited with code {proc.exitcode} "
                           f"before its work was done") from None
    if isinstance(msg, BaseException):
        raise msg
    return msg


def _candidate_helper(conn, encoder_end, cfg: ExperimentConfig,
                      orig: dict) -> None:
    """Forked helper body: answer each frame's build requests with their
    candidate sets, or with the exception that stopped it.  It ends when the
    encoder closes its end of the pipe."""
    encoder_end.close()    # this copy would hide the encoder's close
    try:
        while True:
            try:
                requests = conn.recv()
            except EOFError:
                break
            conn.send(_build_candidates(cfg, orig, requests))
    except Exception as exc:     # re-raised by the encoder
        conn.send(exc)
    conn.close()


@contextmanager
def _candidate_builder(cfg: ExperimentConfig, orig: dict,
                       encodes: int) -> Iterator[Builder | None]:
    """The builder of an encode's candidate sets, or None to build here.

    When the CPUs this process may use outnumber the encodes running at
    once, a forked helper builds view 1's planes while the builder builds
    view 0's.  The helper is terminated if the encode raises, and joined
    either way.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus <= encodes:
        yield None
        return
    ctx = multiprocessing.get_context("fork")
    conn, helper_end = ctx.Pipe()
    helper = ctx.Process(target=_candidate_helper, daemon=True,
                         args=(helper_end, conn, cfg, orig))
    helper.start()
    helper_end.close()

    def build(requests: BuildRequests):
        # one message per frame: two sends in a row could each fill the
        # pipe while the helper blocks sending its first answer
        conn.send([r for r in requests if r[1][0] == 1])
        csets = _build_candidates(cfg, orig,
                                  [r for r in requests if r[1][0] != 1])
        csets.update(_receive(conn, helper, "candidate helper"))
        return csets

    try:
        yield build
    except BaseException:
        helper.terminate()
        raise
    finally:
        conn.close()
        helper.join()


def encode_stream(cfg: ExperimentConfig, orig: dict, mode: str,
                  trace: LossTrace, frame_targets: Sequence[float] | None = None,
                  publish: Callable[[int], object] | None = None,
                  encodes: int = 1) -> EncodedStream:
    """Encode both views frame by frame under one selection mode.

    frame_targets, when given, are per-frame bit budgets (the baseline's
    spend) driven to within the configured band by lambda adjustment; entry
    t is read only when frame t is coded.  publish, when given, receives
    each frame's bits as soon as the frame is committed.

    encodes is how many encodes the caller runs at once, this one included.
    When os.sched_getaffinity(0) holds more CPUs than that, a forked helper
    builds view 1's candidate sets (codec.build_inter_candidates) while this
    process builds view 0's; everything else runs here, so the stream is
    the same either way.  An exception the helper raises is raised here, a
    helper that dies raises HarnessError with its exit code, and the helper
    is terminated if this process raises and joined before this returns.
    """
    with _candidate_builder(cfg, orig, encodes) as build:
        state = EncoderState(cfg, orig, mode, trace, build)
        out = EncodedStream(mode=mode, frames=[], records=[],
                            recon=state.recon, bits_per_frame=[], lambdas=[],
                            in_band=[], infeasible=[])
        lam = cfg.base_lambda
        for t in range(len(orig[(0, Component.TEXTURE)])):
            state.learn(t)
            # frame 0 is all INTRA: no budget can move it
            target = (None if frame_targets is None or t == 0
                      else float(frame_targets[t]))
            sels, lam, bits_t, band_ok, infeas = _select_frame(
                state.plan(t), lam, target, cfg)
            frame = {key: sel.enc for key, sel in sels.items()}
            state.commit(t, frame,
                         {key: sel.recon for key, sel in sels.items()})
            out.frames.append(frame)
            out.records.append(sels)
            out.bits_per_frame.append(int(bits_t))
            if publish is not None:
                publish(int(bits_t))
            out.lambdas.append(lam)
            out.in_band.append(bool(band_ok))
            out.infeasible.append(bool(infeas))
    return out


# ---------------------------------------------------------------------------
# decoding and synthesis
# ---------------------------------------------------------------------------

@dataclass
class DecodedStream:
    planes: dict[tuple[int, Component], list[np.ndarray]]
    tracker: DecoderTracker
    lost_packets: list[int]


def decode_stream(cfg: ExperimentConfig, stream: EncodedStream,
                  trace: LossTrace) -> DecodedStream:
    """Receiver side: decode with concealment and track per-MB errors."""
    grid = (cfg.scene.height // 16, cfg.scene.width // 16)
    n_mb = grid[0] * grid[1]
    decoded: dict[tuple[int, Component], list[np.ndarray]] = {key: [] for key in PLANE_ORDER}
    tracker = DecoderTracker(grid, cfg.gamma, cfg.eta)
    lost_counts = []
    for t in range(len(stream.frames)):
        lost_counts.append(sum(sum(trace.lost_flags(t, *key))
                               for key in PLANE_ORDER))
        rcv_t = {}
        for key in PLANE_ORDER:
            rcv = ~lost_mb_mask(trace, t, *key, n_mb)
            enc = stream.frames[t][key]
            if tuple(enc.grid) != grid:
                raise CodecError(f"frame {t}: block grid {tuple(enc.grid)} "
                                 f"differs from the scene's {grid}")
            depth_refs = min(cfg.ref_window, t)
            refs = [decoded[key][t - d] for d in range(1, depth_refs + 1)]
            conceal = decoded[key][t - 1] if t >= 1 else None
            plane, _ = decode_plane(enc, refs, conceal, rcv)
            decoded[key].append(plane)
            rcv_t[key] = rcv
        tracker.update_frame(t, decoded, stream.frames[t], rcv_t)

    return DecodedStream(planes=decoded, tracker=tracker,
                         lost_packets=lost_counts)


def synthesize_sequence(cfg: ExperimentConfig, dec: DecodedStream,
                        blend: str, truth: list[FramePlane]
                        ) -> tuple[list[np.ndarray], list[float]]:
    """Synthesize the middle view per frame and score against ground truth;
    an "adaptive" blend weighs the views by their tracked errors."""
    if blend not in ("standard", "adaptive"):
        raise HarnessError(f"unknown blend {blend!r}")
    planes = []
    scores = []
    T = len(dec.planes[(0, Component.TEXTURE)])
    for t in range(T):
        le = re = None
        if blend == "adaptive":
            le = (dec.tracker.state(0, 0, t), dec.tracker.state(0, 1, t))
            re = (dec.tracker.state(1, 0, t), dec.tracker.state(1, 1, t))
        plane = synthesize_view(dec.planes[(0, Component.TEXTURE)][t],
                                dec.planes[(0, Component.DEPTH)][t],
                                dec.planes[(1, Component.TEXTURE)][t],
                                dec.planes[(1, Component.DEPTH)][t],
                                cfg.synthesis, le, re)
        planes.append(plane)
        scores.append(psnr(truth[t].samples, plane))
    return planes, scores


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CellResult:
    setup: str
    loss_rate: float
    seed: int
    frame_psnr: list[float]         # as written to disk (6 decimals)
    frame_bits: list[int]
    frame_lost_packets: list[int]
    # per-frame flags of a run; None when loaded, as the tree keeps counts
    in_band: list[bool] | None
    infeasible: list[bool] | None

    @property
    def total_bits(self) -> int:
        return int(sum(self.frame_bits))

    @property
    def mean_psnr(self) -> float:
        return float(np.mean(np.asarray(self.frame_psnr)))


@dataclass
class ExperimentReport:
    setups: tuple[str, ...]
    loss_rates: tuple[float, ...]
    seeds: tuple[int, ...]
    cells: list[CellResult] = field(default_factory=list)

    def cell(self, setup: str, loss_rate: float, seed: int) -> CellResult:
        for c in self.cells:
            if (c.setup, c.loss_rate, c.seed) == (setup, loss_rate, seed):
                return c
        raise HarnessError(f"no cell ({setup}, {loss_rate}, {seed})")


def compare_setups(report: ExperimentReport) -> tuple[str, str]:
    """Per-rate summary vs the feedback baseline: (CSV text, aligned text).

    Averages are over seeds of per-cell frame averages; the max gain is the
    largest single-frame PSNR advantage over the baseline across all seeds.
    """
    if "rfc" not in report.setups:
        raise HarnessError("comparison needs the rfc baseline in the report")
    if len(report.setups) < 2:
        raise HarnessError("comparison needs at least one setup besides rfc")

    rows = []
    for rate in report.loss_rates:
        for setup in report.setups:
            means = []
            bits = []
            max_gain = -np.inf
            for seed in report.seeds:
                cell = report.cell(setup, rate, seed)
                base = report.cell("rfc", rate, seed)
                n, n_base = len(cell.frame_psnr), len(base.frame_psnr)
                if not 0 < n == n_base:
                    raise HarnessError(f"cell ({setup}, {rate}, {seed}) holds "
                                       f"{n} frames, rfc {n_base}")
                means.append(cell.mean_psnr)
                bits.append(cell.total_bits)
                gain = np.max(np.asarray(cell.frame_psnr)
                              - np.asarray(base.frame_psnr))
                max_gain = max(max_gain, float(gain))
            rows.append((rate, setup, float(np.mean(np.asarray(means))),
                         max_gain, float(np.mean(np.asarray(bits)))))

    csv_lines = ["loss_rate,setup,avg_psnr,max_gain_vs_rfc,avg_bits"]
    for rate, setup, avg, gain, avg_bits in rows:
        csv_lines.append(f"{_fmt(rate)},{setup},{_fmt(avg)},{_fmt(gain)},"
                         f"{_fmt(avg_bits)}")

    header = (f"{'loss_rate':>10} {'setup':>6} {'avg_psnr':>12} "
              f"{'max_gain':>12} {'avg_bits':>14}")
    txt_lines = [header, "-" * len(header)]
    for rate, setup, avg, gain, avg_bits in rows:
        txt_lines.append(f"{_fmt(rate):>10} {setup:>6} {_fmt(avg):>12} "
                         f"{_fmt(gain):>12} {_fmt(avg_bits):>14}")
    return "\n".join(csv_lines) + "\n", "\n".join(txt_lines) + "\n"


def emit_plot_data(report: ExperimentReport, out_dir) -> list[Path]:
    """One two-column (frame, PSNR) text file per cell."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for cell in report.cells:
        name = f"{cell.setup}_rate_{_fmt(cell.loss_rate)}_seed_{cell.seed}.dat"
        path = out / name
        with open(path, "w", encoding="ascii") as fh:
            for t, p in enumerate(cell.frame_psnr):
                fh.write(f"{t} {_fmt(p)}\n")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

REPORT_FIELDS = ("setup", "loss_rate", "seed", "mean_psnr", "total_bits",
                 "frame_count", "frames_in_band", "frames_infeasible")


def _pair_dir(root: Path, rate: float, seed: int) -> Path:
    """Directory of one (rate, seed) pair; its setups are subdirectories."""
    return root / f"rate_{_fmt(rate)}" / f"seed_{seed}"


def _write_cell(cell_dir: Path, stream: EncodedStream, cell: CellResult,
                synth: list[np.ndarray]) -> None:
    cell_dir.mkdir(parents=True, exist_ok=True)
    with open(cell_dir / "decisions.csv", "w", encoding="ascii") as fh:
        fh.write("frame,view,component,mb,mode,ref,mvx,mvy,bits,dbar,d\n")
        for t, rec_t in enumerate(stream.records):
            for key in PLANE_ORDER:
                view, comp = key
                enc = stream.frames[t][key]
                rec = rec_t[key]
                for m in range(enc.modes.shape[0]):
                    fh.write(f"{t},{view},{comp.label},{m},"
                             f"{MODE_NAMES[int(enc.modes[m])]},"
                             f"{int(enc.ref_dist[m])},{int(enc.mv[m, 0])},"
                             f"{int(enc.mv[m, 1])},{int(rec.bits[m])},"
                             f"{_fmt(float(rec.chan_error[m]))},"
                             f"{_fmt(float(rec.channel[m]))}\n")
    with open(cell_dir / "perframe.csv", "w", encoding="ascii") as fh:
        fh.write("frame,psnr,bits,packets_lost\n")
        for t in range(len(cell.frame_psnr)):
            fh.write(f"{t},{_fmt(cell.frame_psnr[t])},{cell.frame_bits[t]},"
                     f"{cell.frame_lost_packets[t]}\n")
    frames_dir = cell_dir / "frames"
    frames_dir.mkdir(exist_ok=True)
    for t, plane in enumerate(synth):
        save_pgm(frames_dir / f"synth_{t:04d}.pgm", plane)


def _code_mode(cfg: ExperimentConfig, mode: str, setups: list[str],
               orig: dict, truth: list[FramePlane], trace: LossTrace,
               pair: Path, targets: Sequence[float] | None = None,
               publish: Callable[[int], object] | None = None,
               encodes: int = 1) -> list[CellResult]:
    """Code the cells of one selection mode in a (rate, seed) pair: encode
    and decode once, then synthesize, score and write each setup's cell."""
    stream = encode_stream(cfg, orig, mode, trace, targets, publish, encodes)
    dec = decode_stream(cfg, stream, trace)
    cells = []
    for setup in setups:
        synth, scores = synthesize_sequence(cfg, dec, SETUP_MODES[setup][1],
                                            truth)
        cell = CellResult(
            setup=setup, loss_rate=trace.loss_rate, seed=trace.seed,
            frame_psnr=[float(_fmt(s)) for s in scores],
            frame_bits=list(stream.bits_per_frame),
            frame_lost_packets=list(dec.lost_packets),
            in_band=list(stream.in_band),
            infeasible=list(stream.infeasible))
        _write_cell(pair / setup, stream, cell, synth)
        cells.append(cell)
    return cells


def _reactive_worker(conn, *args) -> None:
    """Forked worker body: code the reactive cells, sending each frame's bits
    as it is committed, then the cells, or the exception that stopped it."""
    try:
        cells = _code_mode(*args, publish=conn.send, encodes=2)
    except Exception as exc:     # re-raised by the parent
        conn.send(exc)
    else:
        conn.send(cells)
    conn.close()


class _StreamedTargets:
    """The reactive cell's per-frame bits as its worker commits them.

    Reading frame t blocks until the worker has sent it.  An exception the
    worker sent is raised here, in the parent.
    """

    def __init__(self, conn, worker) -> None:
        self.conn, self.worker = conn, worker
        self.bits: list[int] = []
        self.cells: list[CellResult] | None = None

    def _receive(self) -> None:
        msg = _receive(self.conn, self.worker, "rfc worker")
        if isinstance(msg, int):
            self.bits.append(msg)
        else:
            self.cells = msg

    def __getitem__(self, t: int) -> int:
        while len(self.bits) <= t:
            self._receive()
        return self.bits[t]

    def result(self) -> list[CellResult]:
        while self.cells is None:
            self._receive()
        return self.cells


def _code_pair(cfg: ExperimentConfig, setups: list[str], orig: dict,
               truth: list[FramePlane], trace: LossTrace, pair: Path
               ) -> dict[str, CellResult]:
    """Code every setup of one (rate, seed) pair; the cells by setup.

    With the reactive baseline and a tuned mode, the baseline runs in a
    forked worker and the tuned modes code here against its streamed bits.
    Otherwise no mode has targets, and each runs here in turn.  The worker
    is not daemonic, so that its encode may fork a candidate helper.
    """
    modes: dict[str, list[str]] = {}
    for setup in setups:
        modes.setdefault(SETUP_MODES[setup][0], []).append(setup)
    tuned = [m for m in modes if m != "reactive"]
    if "reactive" not in modes or not tuned:
        return {c.setup: c for m, group in modes.items()
                for c in _code_mode(cfg, m, group, orig, truth, trace, pair)}
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_reactive_worker, args=(
        send, cfg, "reactive", modes["reactive"], orig, truth, trace, pair))
    worker.start()
    send.close()
    targets = _StreamedTargets(recv, worker)
    try:
        cells = [c for m in tuned for c in _code_mode(
            cfg, m, modes[m], orig, truth, trace, pair, targets, encodes=2)]
        cells += targets.result()
    except BaseException:
        worker.terminate()
        raise
    finally:
        worker.join()
        recv.close()
    return {c.setup: c for c in cells}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every (setup, rate, seed) cell and write the artifact tree.

    In a pair that holds rfc and a tuned setup, rfc's cell is coded and
    written by a forked worker process, which streams its per-frame bits to
    the tuned setups coded here.  If the worker raises, its exception is
    raised here; if this process raises, the worker is terminated.  Either
    way no worker is left running when this returns or raises.  report.csv,
    the summary and the plot series are written here, in setup order.

    Every encode also forks a candidate helper for view 1's planes when the
    CPUs this process may use (os.sched_getaffinity) outnumber the encodes
    its pair runs at once: 1, or 2 beside the rfc worker.  On 2 CPUs that
    is every pair without a forked rfc worker.  The helper's errors come
    back as the worker's do (encode_stream), and it changes no artifact
    byte.
    """
    root = resolve_output_root(cfg)
    root.mkdir(parents=True, exist_ok=True)

    left, right, truth = generate_synthetic_stereo(cfg.scene)
    orig = _plane_lists(left, right)

    ordered = [s for s in SETUPS if s in cfg.setups]
    report = ExperimentReport(setups=tuple(ordered),
                              loss_rates=cfg.loss_rates, seeds=cfg.seeds)

    for rate in cfg.loss_rates:
        for seed in cfg.seeds:
            trace = cfg.loss_trace(seed, rate)
            pair = _pair_dir(root, rate, seed)
            pair.mkdir(parents=True, exist_ok=True)
            save_trace(pair / "trace.txt", trace)
            cells = _code_pair(cfg, ordered, orig, truth, trace, pair)
            report.cells.extend(cells[setup] for setup in ordered)

    with open(root / "report.csv", "w", encoding="ascii") as fh:
        fh.write(",".join(REPORT_FIELDS) + "\n")
        for cell in report.cells:
            fh.write(f"{cell.setup},{_fmt(cell.loss_rate)},{cell.seed},"
                     f"{_fmt(cell.mean_psnr)},{cell.total_bits},"
                     f"{len(cell.frame_psnr)},{sum(cell.in_band)},"
                     f"{sum(cell.infeasible)}\n")

    if "rfc" in ordered and len(ordered) > 1:
        csv_text, aligned = compare_setups(report)
        (root / "summary.csv").write_text(csv_text, encoding="ascii")
        (root / "summary.txt").write_text(aligned, encoding="ascii")

    emit_plot_data(report, root / "plot")
    return report


def load_report(root) -> ExperimentReport:
    """Rebuild a report from an artifact tree.

    The tree keeps per-cell counts, not per-frame flags, so a loaded cell's
    in_band and infeasible are None.  A report.csv row that lacks a field,
    or whose frame_count or total_bits disagree with its perframe.csv,
    raises HarnessError.
    """
    root = Path(root)
    try:
        lines = (root / "report.csv").read_text(encoding="ascii").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise HarnessError(f"cannot read report.csv under {root}: {exc}") from None
    setups: list[str] = []
    rates: list[float] = []
    seeds: list[int] = []
    cells: list[CellResult] = []
    for n, line in enumerate(lines[1:], start=2):
        where = f"report.csv line {n}"
        row = line.split(",")
        if len(row) != len(REPORT_FIELDS):
            raise HarnessError(f"{where}: {len(row)} fields, expected "
                               f"{len(REPORT_FIELDS)}")
        setup = row[0]
        try:
            rate, seed, total_bits, frame_count = (
                float(row[1]), int(row[2]), int(row[4]), int(row[5]))
            per = _pair_dir(root, rate, seed) / setup / "perframe.csv"
            frames = [r.split(",") for r in
                      per.read_text(encoding="ascii").splitlines()[1:]]
            frame_psnr = [float(f[1]) for f in frames]
            frame_bits = [int(f[2]) for f in frames]
            frame_lost = [int(f[3]) for f in frames]
        except (ValueError, IndexError) as exc:
            raise HarnessError(f"{where}: {exc}") from None
        cell = CellResult(setup=setup, loss_rate=rate, seed=seed,
                          frame_psnr=frame_psnr, frame_bits=frame_bits,
                          frame_lost_packets=frame_lost,
                          in_band=None, infeasible=None)
        if (len(frames), cell.total_bits) != (frame_count, total_bits):
            raise HarnessError(f"{where}: frame_count {frame_count} and "
                               f"total_bits {total_bits} disagree with {per}")
        for seen, value in ((setups, setup), (rates, rate), (seeds, seed)):
            if value not in seen:
                seen.append(value)
        cells.append(cell)
    return ExperimentReport(setups=tuple(setups), loss_rates=tuple(rates),
                            seeds=tuple(seeds), cells=cells)
