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
Each encode forks a helper for view 1's candidate sets at the first frame at
which the CPUs this process may use outnumber the encodes running: frame 0
when it runs alone, and beside the baseline's worker the frame after the
worker's cells arrive.  The fork hands the helper view 1's trial records
(codec.TrialRecord), so its builds continue where this process's stopped.
Frame t + 1's requests go out as soon as frame t's reconstructions are
committed, so the helper builds while the encode pushes its trackers, learns
the delayed outcomes, computes the terms that need no candidate set and
builds view 0's sets.  Selection, lambda tuning and commit stay in the
encode, so the helper changes no byte of any artifact, whenever it starts.
_forked starts both processes.

The receiver is one step per committed frame (Receiver): decode the four
planes with concealment, track their per-MB errors if the adaptive blend
reads them, then warp the decoded views once and blend them for every blend
the mode's setups need.  When an encode has a helper, the receiver runs
there.  It first catches up on the frames committed before the fork, which
the fork hands over too; after that, frame t rides on the message that asks
for frame t + 1's sets.  The helper answers the builds first and starts a
receiver step only while no request has begun to arrive, because the encode
waits on the sets; the frames left at the end are stepped before the result
returns.  Without a helper the receiver runs after the encode, once the
encoder's state is freed.  decode_stream runs the same step with no blend,
and synthesize_sequence runs its synthesis for one blend.

Everything here is deterministic: fixed seeds, fixed iteration order, fixed
text formatting of every artifact.
"""
from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .channel import (PLANE_ORDER, Component, LossTrace, build_schedule,
                      lost_mb_mask, make_iid_trace, save_trace)
from .codec import (CandidateSet, CodecConfig, CodecError, EncodedPlane,
                    TrialRecord, build_inter_candidates, decode_plane)
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
from .synthesis import (SynthesisError, SynthesisParams, blend_pair,
                        correspondence_sets, warp_pair)

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
        if self.output_root == "":
            raise HarnessError("output_root must not be empty")
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
    #: the receiver's result, when encode_stream was given one
    reception: Reception | None = None


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
CandidateSets = dict[tuple[int, Component], CandidateSet]
#: takes one frame's requests and returns a handle that yields their sets;
#: a builder holds the trial records of the planes it builds
Builder = Callable[[BuildRequests], Callable[[], CandidateSets]]


def _builds_here(cfg: ExperimentConfig, orig: dict
                 ) -> Callable[[BuildRequests], CandidateSets]:
    """A function that builds each requested plane's candidate set in this
    process, against (and refreshing) the plane's trial record, which it
    holds."""
    records: dict[tuple[int, Component], TrialRecord] = {}
    return lambda requests: {
        key: build_inter_candidates(orig[key][t], refs, cfg.codecs[key[1]],
                                    records.setdefault(key, TrialRecord()))
        for t, key, refs in requests}


class EncoderState:
    """The sender's state under one selection mode, advanced frame by frame.

    Holds the reconstructions, one tracker per plane, the innovation per
    plane and frame, and one curvature map per reconstructed view.  Frame t
    runs learn(t), then plan(t) and a selection, then commit(t, ...).
    build builds plan's candidate sets (encode_stream passes its
    _CandidateBuilder's).  A builder holds the trial records of the planes
    it builds, so the state holds none.  commit(t) hands frame t + 1's
    requests to the builder before it pushes the trackers, so a helper
    builds them during the pushes, learn(t + 1) and the part of plan(t + 1)
    that needs no candidate set.
    """

    def __init__(self, cfg: ExperimentConfig, orig: dict, mode: str,
                 trace: LossTrace, build: Builder):
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
        self.build = build
        # (t + 1, its handle) once commit(t) has sent frame t + 1's requests
        self.pending: tuple[int, Callable[[], CandidateSets]] | None = None

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

    def request(self, t: int) -> Callable[[], CandidateSets]:
        """Hand frame t's candidate builds to the builder; their handle."""
        depth = min(self.cfg.ref_window, t)
        return self.build([(t, key, [self.recon[key][t - d]
                                     for d in range(1, depth + 1)])
                           for key in PLANE_ORDER])

    def plan(self, t: int) -> FramePlan:
        """Candidates and channel terms of frame t under the mode.

        Frame 0 has no references: its candidates are INTRA alone, planned
        with zero expected error and no channel term.  The terms that need
        no candidate set are computed before the sets are read.  plan sends
        its own requests unless commit(t - 1) sent them.
        """
        cfg, recon, trackers = self.cfg, self.recon, self.trackers
        orig = {key: self.orig[key][t] for key in PLANE_ORDER}
        pending, self.pending = self.pending, None
        sets = (pending[1] if pending is not None and pending[0] == t
                else self.request(t))
        if t == 0:
            csets = sets()
            zeros = np.zeros((self.n_mb, 1))
            pcs = {key: PlaneCandidates(cset=csets[key], chan=zeros)
                   for key in PLANE_ORDER}
            return FramePlan(orig=orig, pcs=pcs,
                             cols=dict.fromkeys(PLANE_ORDER, zeros), valid={},
                             caps={}, members={})
        delta = {key: self.innovation(key, t) for key in PLANE_ORDER}
        curv, caps, members = {}, {}, {}
        for v in (0, 1) if self.mode != "reactive" else ():
            curv[v] = self.curvature(v, t - 1)
            if self.mode == "cross":
                o, tex, dep = 1 - v, (v, Component.TEXTURE), (v, Component.DEPTH)
                corr = correspondence_sets(recon[tex][t - 1], recon[dep][t - 1],
                                           v, cfg.eta)
                # state t-1 meets the map of reconstruction t-2 (0 at t=1):
                # the golden digests pin this pairing
                opp_pen = g_eval(self.curvature(o, max(t - 2, 0)),
                                 trackers[(o, Component.DEPTH)].state(t - 1))
                opp_err = trackers[(o, Component.TEXTURE)].state(t - 1)
                caps[v] = opposing_cap(corr, opp_err, opp_pen, delta[tex])
                members[v] = corr.member
        csets = sets()
        pcs = {key: build_plane_candidates(csets[key], trackers[key], t,
                                           delta[key])
               for key in PLANE_ORDER}
        cols, valid = {}, {}
        for v in (0, 1):
            tex, dep = (v, Component.TEXTURE), (v, Component.DEPTH)
            if self.mode == "reactive":
                # no channel term, only references free of known taint
                for key in (tex, dep):
                    cols[key] = np.zeros_like(pcs[key].chan)
                    valid[key] = trackers[key].valid_candidates(pcs[key])
                continue
            cols[tex] = pcs[tex].chan
            cols[dep] = g_eval(curv[v][:, None], pcs[dep].chan)
            if self.mode == "cross":
                # two steps: texture against the depth error-minimizer, then
                # depth against the texture's
                tex_val = step1_minimum(pcs[tex])
                dep_val = step1_minimum(pcs[dep])
                cols[tex] = cross_cap(cols[tex], g_eval(curv[v], dep_val),
                                      caps[v], members[v])
                cols[dep] = cross_cap(cols[dep], tex_val, caps[v], members[v])
        return FramePlan(orig=orig, pcs=pcs, cols=cols, valid=valid,
                         caps=caps, members=members)

    def commit(self, t: int, frame: dict[tuple[int, Component], EncodedPlane],
               recon: dict[tuple[int, Component], np.ndarray]) -> None:
        """Push frame t's final decisions and reconstructions, after handing
        frame t + 1's candidate builds to the builder."""
        for key in PLANE_ORDER:
            self.recon[key].append(recon[key])
        if t + 1 < len(self.orig[(0, Component.TEXTURE)]):
            self.pending = (t + 1, self.request(t + 1))
        for key in PLANE_ORDER:
            enc = frame[key]
            self.trackers[key].push_frame(enc.modes, enc.ref_dist, enc.mv,
                                          self.innovation(key, t))
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


@contextmanager
def _forked(what: str, body: Callable[..., None], *args
            ) -> Iterator[tuple[Callable[[object], None], Callable[[], object],
                                Callable[[], bool]]]:
    """Run body(conn, *args) in a forked process; yield (send, receive, poll).

    The one contract of every process this module starts.  The fork context
    shares the parent's arrays copy-on-write, and one duplex pipe joins the
    two ends.  The process is not daemonic, so body may fork in turn.
    receive() returns the next message; it raises an Exception that body
    raised, or HarnessError with the exit code if the pipe ends first.
    poll() says, without blocking, whether a message (or the end) has
    started to arrive; receive() may still block for the rest of it.
    send(msg) raises the same if the process has ended.  If the with-block
    raises, the process is terminated; either way it is joined before the
    block is left.
    """
    import multiprocessing      # used nowhere else in the package
    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe()

    def run() -> None:
        conn.close()    # this copy would hide the parent's close
        try:
            body(child_end, *args)
        except Exception as exc:     # raised again by receive()
            child_end.send(exc)

    proc = ctx.Process(target=run)
    proc.start()
    child_end.close()

    def receive():
        try:
            msg = conn.recv()
        except EOFError:
            proc.join()
            raise HarnessError(f"{what} exited with code {proc.exitcode} "
                               f"before its work was done") from None
        if isinstance(msg, BaseException):
            raise msg
        return msg

    def send(msg) -> None:
        try:
            conn.send(msg)
        except OSError:     # the process has ended: what it sent says why
            receive()
            raise HarnessError(f"{what} stopped reading before its work "
                               f"was done") from None

    try:
        yield send, receive, conn.poll
    except BaseException:
        proc.terminate()
        raise
    finally:
        conn.close()
        proc.join()


#: the frames an encoder committed, in order, for a receiver
Committed = list[tuple[int, dict[tuple[int, Component], EncodedPlane]]]


def _candidate_helper(conn, build: Callable[[BuildRequests], CandidateSets],
                      receiver: Callable[[], Receiver] | None,
                      backlog: Committed) -> None:
    """Helper body.  The fork hands it the encoder's own build function,
    which holds view 1's trial records, and the frames committed before the
    fork, so no trial is coded again and no frame crosses twice.  Each
    message holds one frame's view-1 build requests and the frames
    committed since the last message.  The helper answers the requests
    first, because the encoder waits for them.  Its receiver then steps
    through the committed frames one at a time, but only while no message
    has started to arrive (conn.poll()), so a build waits for at most the
    step in progress.  A message without requests is the last: the receiver
    steps through the rest, and its result is the answer."""
    rx = receiver() if receiver is not None else None
    backlog = deque(backlog)
    while True:
        try:
            requests, committed = conn.recv()
        except EOFError:
            return
        backlog.extend(committed)
        if requests is None:
            break
        conn.send(build(requests))
        while backlog and not conn.poll():
            rx.step(*backlog.popleft())
    for t, frame in backlog:
        rx.step(t, frame)
    conn.send(None if rx is None else rx.result())


class _CandidateBuilder:
    """The encoder's builder (Builder) and the feed of its receiver.

    Until a CPU is free, every plane is built here and the committed frames
    wait.  At the first build at which free() holds, fork(build, receiver,
    backlog) starts the helper (_candidate_helper) and gives its (send,
    receive, poll); from then on the helper builds view 1 and receives.
    One message per frame, sent only once the previous answer is read: two
    sends in a row could each fill the pipe while the helper blocks sending
    its first answer.
    """

    def __init__(self, cfg: ExperimentConfig, orig: dict,
                 receiver: Callable[[], Receiver] | None,
                 free: Callable[[], bool], fork: Callable[..., tuple]) -> None:
        self.here = _builds_here(cfg, orig)
        self.receiver, self.free, self.fork = receiver, free, fork
        self.backlog: Committed = []
        self.helper: tuple[Callable[[object], None], Callable[[], object],
                           Callable[[], bool]] | None = None

    def commit(self, t: int, frame: dict[tuple[int, Component], EncodedPlane]
               ) -> None:
        """Frame t waits for the receiver: the helper's, or finish()."""
        if self.receiver is not None:
            self.backlog.append((t, frame))

    def build(self, requests: BuildRequests) -> Callable[[], CandidateSets]:
        if self.helper is None and self.free():
            self.helper = self.fork(self.here, self.receiver, self.backlog)
            self.backlog = []
        if self.helper is None:
            return partial(self.here, requests)
        send, receive, _ = self.helper
        send(([r for r in requests if r[1][0] == 1], self.backlog))
        self.backlog = []

        def sets() -> CandidateSets:
            csets = self.here([r for r in requests if r[1][0] != 1])
            csets.update(receive())
            return csets
        return sets

    def finish(self) -> Reception | None:
        """The receiver's result, once it has stepped through every frame:
        the helper's, or one run here once the trial records are freed."""
        if self.helper is not None:
            send, receive, _ = self.helper
            send((None, self.backlog))
            return receive()
        self.here = None
        if self.receiver is None:
            return None
        rx = self.receiver()
        for t, frame in self.backlog:
            rx.step(t, frame)
        return rx.result()


@contextmanager
def _candidate_builder(cfg: ExperimentConfig, orig: dict,
                       encodes: Callable[[], int],
                       receiver: Callable[[], Receiver] | None = None
                       ) -> Iterator[_CandidateBuilder]:
    """The encoder's builder, which forks its helper (_forked) at the first
    frame at which the CPUs this process may use outnumber encodes(), the
    encodes running (see encode_stream)."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ExitStack() as stack:
        yield _CandidateBuilder(
            cfg, orig, receiver, lambda: cpus > encodes(),
            lambda *state: stack.enter_context(_forked(
                "candidate helper", _candidate_helper, *state)))


def encode_stream(cfg: ExperimentConfig, orig: dict, mode: str,
                  trace: LossTrace, frame_targets: Sequence[float] | None = None,
                  publish: Callable[[int], object] | None = None,
                  encodes: Callable[[], int] = lambda: 1,
                  receiver: Callable[[], Receiver] | None = None
                  ) -> EncodedStream:
    """Encode both views frame by frame under one selection mode.

    frame_targets, when given, are per-frame bit budgets (the baseline's
    spend) driven to within the configured band by lambda adjustment; entry
    t is read only when frame t is coded.  publish, when given, receives
    each frame's bits as soon as the frame is committed.

    encodes() is how many encodes run at the moment, this one included; it
    is read once per frame until a helper starts.  At the first frame at
    which os.sched_getaffinity(0) holds more CPUs than that (frame 0 when
    this encode runs alone, the frame after the rfc worker's cells arrive
    beside it), a helper (_forked) takes over view 1's candidate sets with
    their trial records, and this process does everything else, so the
    stream is the same whenever the helper starts, or if none does.  The
    helper builds frame t + 1's sets during frame t's tracker pushes
    (commit), frame t + 1's delayed outcomes (learn), its terms that need no
    candidate set and view 0's builds (plan).

    receiver, when given, makes the Receiver that runs on every committed
    frame, and the stream's reception is its result.  With a helper, the
    receiver runs there: it catches up on the frames committed before the
    fork, and then each message that asks for frame t + 1's sets carries
    frame t.  It starts a step only while no build request has begun to
    arrive, and the frames left over at the end are stepped before its
    result returns.  Without a helper, the receiver runs here after the
    encode, once the encoder's state is freed.
    """
    with _candidate_builder(cfg, orig, encodes, receiver) as builder:
        state = EncoderState(cfg, orig, mode, trace, builder.build)
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
            builder.commit(t, frame)
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
        del state       # its trackers
        out.reception = builder.finish()
    return out


# ---------------------------------------------------------------------------
# the receiver
# ---------------------------------------------------------------------------

@dataclass
class DecodedStream:
    planes: dict[tuple[int, Component], list[np.ndarray]]
    tracker: DecoderTracker
    lost_packets: list[int]


def _synthesize_frame(cfg: ExperimentConfig, dec: DecodedStream, t: int,
                      blends: Iterable[str]) -> dict[str, np.ndarray]:
    """Frame t's middle view under each blend: the decoded views are warped
    once, and an "adaptive" blend weighs them by their tracked errors."""
    pair = warp_pair(*(dec.planes[key][t] for key in PLANE_ORDER),
                     cfg.synthesis)
    out = {}
    for blend in blends:
        errors = ([(dec.tracker.state(view, 0, t), dec.tracker.state(view, 1, t))
                   for view in (0, 1)] if blend == "adaptive" else [None, None])
        out[blend] = blend_pair(pair, cfg.synthesis, *errors)
    return out


@dataclass
class Reception:
    """What a receiver made of a stream: the packets lost per frame, and
    per blend the synthesized planes and their PSNRs."""

    lost_packets: list[int]
    synth: dict[str, tuple[list[np.ndarray], list[float]]]


class Receiver:
    """The receiver, one committed frame per step: decode frame t's four
    planes with concealment, track their per-MB errors when a blend reads
    them, then synthesize the middle view under every blend and score it
    against the truth."""

    def __init__(self, cfg: ExperimentConfig, trace: LossTrace,
                 blends: Sequence[str] = (),
                 truth: Sequence[FramePlane] = ()) -> None:
        grid = (cfg.scene.height // 16, cfg.scene.width // 16)
        self.cfg, self.trace, self.truth = cfg, trace, truth
        self.dec = DecodedStream(planes={key: [] for key in PLANE_ORDER},
                                 tracker=DecoderTracker(grid, cfg.gamma,
                                                        cfg.eta),
                                 lost_packets=[])
        self.synth: dict[str, tuple[list[np.ndarray], list[float]]] = {
            blend: ([], []) for blend in blends}
        # only the adaptive blend reads the tracked errors, and
        # decode_stream's receiver, which blends nothing, returns them
        self.tracks = not blends or "adaptive" in blends

    def step(self, t: int, frame: dict[tuple[int, Component], EncodedPlane]
             ) -> None:
        cfg, dec, decoded = self.cfg, self.dec, self.dec.planes
        grid = dec.tracker.grid
        n_mb = grid[0] * grid[1]
        dec.lost_packets.append(sum(sum(self.trace.lost_flags(t, *key))
                                    for key in PLANE_ORDER))
        rcv_t = {}
        for key in PLANE_ORDER:
            rcv = ~lost_mb_mask(self.trace, t, *key, n_mb)
            enc = frame[key]
            if tuple(enc.grid) != grid:
                raise CodecError(f"frame {t}: block grid {tuple(enc.grid)} "
                                 f"differs from the scene's {grid}")
            depth_refs = min(cfg.ref_window, t)
            refs = [decoded[key][t - d] for d in range(1, depth_refs + 1)]
            conceal = decoded[key][t - 1] if t >= 1 else None
            plane, _ = decode_plane(enc, refs, conceal, rcv)
            decoded[key].append(plane)
            rcv_t[key] = rcv
        if self.tracks:
            dec.tracker.update_frame(t, decoded, frame, rcv_t)
        if not self.synth:      # decode_stream's receiver warps nothing
            return
        for blend, plane in _synthesize_frame(cfg, dec, t, self.synth).items():
            planes, scores = self.synth[blend]
            planes.append(plane)
            scores.append(psnr(self.truth[t].samples, plane))

    def result(self) -> Reception:
        return Reception(lost_packets=self.dec.lost_packets, synth=self.synth)


def decode_stream(cfg: ExperimentConfig, stream: EncodedStream,
                  trace: LossTrace) -> DecodedStream:
    """Receiver side: decode with concealment and track per-MB errors (the
    receiver's step with no blend)."""
    rx = Receiver(cfg, trace)
    for t, frame in enumerate(stream.frames):
        rx.step(t, frame)
    return rx.dec


def synthesize_sequence(cfg: ExperimentConfig, dec: DecodedStream,
                        blend: str, truth: list[FramePlane]
                        ) -> tuple[list[np.ndarray], list[float]]:
    """Synthesize the middle view per frame and score against ground truth;
    an "adaptive" blend weighs the views by their tracked errors (the
    receiver's synthesis, one blend at a time)."""
    if blend not in ("standard", "adaptive"):
        raise HarnessError(f"unknown blend {blend!r}")
    planes = [_synthesize_frame(cfg, dec, t, [blend])[blend]
              for t in range(len(dec.planes[(0, Component.TEXTURE)]))]
    return planes, [psnr(truth[t].samples, p) for t, p in enumerate(planes)]


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
                enc, rec = stream.frames[t][key], rec_t[key]
                head = f"{t},{key[0]},{key[1].label},"
                # columns as Python scalars: numpy scalars format at half
                # the speed
                fh.writelines(
                    f"{head}{m},{MODE_NAMES[mode]},{ref},{mvx},{mvy},{bits},"
                    f"{_fmt(dbar)},{_fmt(d)}\n"
                    for m, (mode, ref, (mvx, mvy), bits, dbar, d) in enumerate(
                        zip(enc.modes.tolist(), enc.ref_dist.tolist(),
                            enc.mv.tolist(), rec.bits.tolist(),
                            rec.chan_error.tolist(), rec.channel.tolist())))
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
               encodes: Callable[[], int] = lambda: 1) -> list[CellResult]:
    """Code the cells of one selection mode in a (rate, seed) pair: encode
    once and receive once, synthesizing every blend the setups need, then
    write each setup's cell."""
    blends = list(dict.fromkeys(SETUP_MODES[setup][1] for setup in setups))
    stream = encode_stream(cfg, orig, mode, trace, targets, publish, encodes,
                           partial(Receiver, cfg, trace, blends, truth))
    rx = stream.reception
    cells = []
    for setup in setups:
        synth, scores = rx.synth[SETUP_MODES[setup][1]]
        cell = CellResult(
            setup=setup, loss_rate=trace.loss_rate, seed=trace.seed,
            frame_psnr=[float(_fmt(s)) for s in scores],
            frame_bits=list(stream.bits_per_frame),
            frame_lost_packets=list(rx.lost_packets),
            in_band=list(stream.in_band),
            infeasible=list(stream.infeasible))
        _write_cell(pair / setup, stream, cell, synth)
        cells.append(cell)
    return cells


class _StreamedTargets:
    """The reactive cell's per-frame bits as its worker (_forked) commits
    them, then its cells.  Reading frame t blocks until the worker has sent
    it; running() reads only what has arrived."""

    def __init__(self, receive: Callable[[], object],
                 poll: Callable[[], bool]) -> None:
        self.receive, self.poll = receive, poll
        self.bits: list[int] = []
        self.cells: list[CellResult] | None = None

    def _read(self) -> None:
        msg = self.receive()
        if isinstance(msg, int):
            self.bits.append(msg)
        else:
            self.cells = msg

    def __getitem__(self, t: int) -> int:
        while len(self.bits) <= t:
            self._read()
        return self.bits[t]

    def running(self) -> int:
        """The encodes running now: the caller's, and the worker's until
        its cells have arrived."""
        while self.cells is None and self.poll():
            self._read()
        return 1 if self.cells is not None else 2

    def result(self) -> list[CellResult]:
        while self.cells is None:
            self._read()
        return self.cells


def _code_pair(cfg: ExperimentConfig, setups: list[str], orig: dict,
               truth: list[FramePlane], trace: LossTrace, pair: Path
               ) -> dict[str, CellResult]:
    """Code every setup of one (rate, seed) pair; the cells by setup.

    With the reactive baseline and a tuned mode, the baseline runs in a
    forked worker (_forked) and the tuned modes code here against its
    streamed bits; a tuned encode counts the worker as running until its
    cells arrive.  Otherwise no mode has targets, and each runs here in
    turn.
    """
    modes: dict[str, list[str]] = {}
    for setup in setups:
        modes.setdefault(SETUP_MODES[setup][0], []).append(setup)
    tuned = [m for m in modes if m != "reactive"]
    if "reactive" not in modes or not tuned:
        return {c.setup: c for m, group in modes.items()
                for c in _code_mode(cfg, m, group, orig, truth, trace, pair)}
    with _forked("rfc worker", lambda conn: conn.send(_code_mode(
            cfg, "reactive", modes["reactive"], orig, truth, trace, pair,
            publish=conn.send, encodes=lambda: 2))) as (_, receive, poll):
        targets = _StreamedTargets(receive, poll)
        cells = [c for m in tuned for c in _code_mode(
            cfg, m, modes[m], orig, truth, trace, pair, targets,
            encodes=targets.running)]
        cells += targets.result()
    return {c.setup: c for c in cells}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every (setup, rate, seed) cell and write the artifact tree.

    A pair that holds rfc and a tuned setup codes rfc in a forked worker
    (_code_pair), and each encode may fork a candidate helper
    (encode_stream).  Both follow _forked, so no process outlives this call,
    and neither changes an artifact byte.  report.csv, the summary and the
    plot series are written here, in setup order.
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
