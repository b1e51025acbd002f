"""End-to-end experiment driver.

One cell = (setup, loss rate, seed): encode both views with the setup's
selection mode, push the packets through the recorded loss trace, decode with
concealment, track errors at the receiver, synthesize the middle view, and
score it against the withheld ground truth.  All setups of a (rate, seed)
cell share one trace, and the feedback-only baseline runs first so its
per-frame bits define the matched-rate targets for the others.

Everything here is deterministic: fixed seeds, fixed iteration order, fixed
text formatting of every artifact.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .channel import (Component, LossTrace, build_schedule, lost_mb_mask,
                      make_iid_trace, save_trace)
from .codec import (PLANE_ORDER, CodecConfig, CodecError, EncodedPlane,
                    build_inter_candidates, build_intra_candidates,
                    decode_plane)
from .errortrack import (DecoderTracker, ExpectedErrorTracker, innovation_term)
from .frames import FramePlane, ViewFrame, psnr, save_pgm
from .optimizer import (PlaneCandidates, ReactiveTaint, build_plane_candidates,
                        code_plane_all_intra, depth_channel_columns,
                        g_eval, opposing_cap, select_plane, step1_minimum,
                        texture_channel_columns, tune_to_band)
from .scenegen import (SyntheticSceneSpec, default_scene_spec,
                       generate_synthetic_stereo, scene_from_dict)
from .sensitivity import SensitivityParams, curvature_map
from .synthesis import SynthesisParams, correspondence_sets, synthesize_view

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
        if not self.seeds:
            raise HarnessError("need at least one seed")
        if self.rtt < 0:
            raise HarnessError("rtt must be nonnegative")
        if self.ref_window < 1:
            raise HarnessError("ref_window must be at least 1")
        if self.rate_band <= 0 or self.base_lambda <= 0:
            raise HarnessError("rate_band and base_lambda must be positive")

    def codec_config(self, component: Component) -> CodecConfig:
        if component == Component.TEXTURE:
            return CodecConfig(quant_step=self.quant_step,
                               search_range=self.search_range,
                               ref_window=self.ref_window)
        return CodecConfig(quant_step=self.depth_quant_step,
                           search_range=self.depth_search_range,
                           ref_window=self.ref_window)

    def packets_for(self, component: Component, n_mb: int) -> int:
        want = (self.packets_texture if component == Component.TEXTURE
                else self.packets_depth)
        return min(want, n_mb)          # tiny frames: fewer packets than MBs


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise HarnessError("config must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    extra = set(d) - known
    if extra:
        raise HarnessError(f"unknown config fields {sorted(extra)}")
    kw = dict(d)
    if "scene" in kw:
        kw["scene"] = scene_from_dict(kw["scene"])
    for name in ("setups", "loss_rates", "seeds"):
        if name in kw:
            kw[name] = tuple(kw[name])
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
class PlaneRecord:
    """Per-MB bookkeeping of one encoded plane, for reports and oracles."""

    bits: np.ndarray
    dsrc: np.ndarray
    chan_error: np.ndarray      # expected tracked error of the chosen option
    channel: np.ndarray         # channel distortion term charged in the cost
    cost: np.ndarray | None     # chosen Lagrangian cost (None for frame 0)


@dataclass
class EncodedStream:
    mode: str
    frames: list[dict[tuple[int, Component], EncodedPlane]]
    records: list[dict[tuple[int, Component], PlaneRecord]]
    recon: dict[tuple[int, Component], list[np.ndarray]]
    bits_per_frame: list[int]
    lambdas: list[float]
    in_band: list[bool]
    infeasible: list[bool]
    targets: list[float]


def _plane_lists(left: list[ViewFrame], right: list[ViewFrame]
                 ) -> dict[tuple[int, Component], list[np.ndarray]]:
    out: dict[tuple[int, Component], list[np.ndarray]] = {}
    for view, frames_ in ((0, left), (1, right)):
        out[(view, Component.TEXTURE)] = [f.texture.samples for f in frames_]
        out[(view, Component.DEPTH)] = [f.disparity.samples for f in frames_]
    return out


def encode_stream(cfg: ExperimentConfig, orig: dict, mode: str,
                  trace: LossTrace,
                  frame_targets: list[float] | None = None) -> EncodedStream:
    """Encode both views frame by frame under one selection mode.

    frame_targets, when given, are per-frame bit budgets (the baseline's
    spend) driven to within the configured band by lambda adjustment.
    """
    h, w = orig[(0, Component.TEXTURE)][0].shape
    grid = (h // 16, w // 16)
    n_mb = grid[0] * grid[1]
    T = len(orig[(0, Component.TEXTURE)])
    p_plan = 1.0 - trace.loss_rate
    sens = SensitivityParams(threshold=cfg.threshold,
                             max_deviation=cfg.max_deviation)
    needs_tracking = mode in ("independent", "cross")

    # the reactive baseline tracks the support of the same recursion
    trackers = {key: (ExpectedErrorTracker(grid, p_plan, cfg.gamma)
                      if needs_tracking else ReactiveTaint(grid))
                for key in PLANE_ORDER}
    packets = {key: cfg.packets_for(key[1], n_mb) for key in PLANE_ORDER}
    curv: dict[int, list[np.ndarray]] = {0: [], 1: []}

    recon: dict[tuple[int, Component], list[np.ndarray]] = {key: [] for key in PLANE_ORDER}
    frames_out: list[dict] = []
    records_out: list[dict] = []
    bits_out: list[int] = []
    lambdas: list[float] = []
    in_band: list[bool] = []
    infeasible: list[bool] = []
    targets_used: list[float] = []
    lam = cfg.base_lambda

    for t in range(T):
        # the outcome of frame t - max(rtt, 1) arrives as frame t is coded
        f = t - max(cfg.rtt, 1)
        if f >= 0:
            for key in PLANE_ORDER:
                trackers[key].set_frame_outcome(
                    f, ~lost_mb_mask(trace, f, *key, n_mb, packets[key]))

        if t == 0:
            frame = {}
            rec = {}
            total = 0
            for key in PLANE_ORDER:
                enc, rc, bits_mb = code_plane_all_intra(
                    orig[key][0], cfg.codec_config(key[1]).quant_step)
                frame[key] = enc
                recon[key].append(rc)
                total += int(bits_mb.sum())
                diff = np.abs(orig[key][0].astype(np.float64)
                              - rc.astype(np.float64))
                dsrc = diff.reshape(grid[0], 16, grid[1], 16).mean(axis=(1, 3))
                rec[key] = PlaneRecord(bits=bits_mb, dsrc=dsrc.ravel(),
                                       chan_error=np.zeros(n_mb),
                                       channel=np.zeros(n_mb), cost=None)
                trackers[key].push_frame(
                    enc.modes, enc.ref_dist, enc.mv,
                    innovation_term(orig[key][0], None) if needs_tracking else None)
                if cfg.protect_first_frame:
                    trackers[key].set_frame_outcome(0, np.ones(n_mb, dtype=bool))
            frames_out.append(frame)
            records_out.append(rec)
            bits_out.append(total)
            lambdas.append(lam)
            in_band.append(True)
            infeasible.append(False)
            targets_used.append(float(total))
            if needs_tracking:
                for v in (0, 1):
                    curv[v].append(curvature_map(
                        recon[(v, Component.TEXTURE)][0],
                        recon[(v, Component.DEPTH)][0],
                        recon[(1 - v, Component.TEXTURE)][0], v, cfg.eta, sens))
            continue

        depth_refs = min(cfg.ref_window, t)
        refs = {key: [recon[key][t - d] for d in range(1, depth_refs + 1)]
                for key in PLANE_ORDER}
        # the reactive taint ignores the innovation
        delta = {key: innovation_term(orig[key][t], recon[key][t - 1])
                 if needs_tracking else None for key in PLANE_ORDER}

        pcs: dict = {}
        extras: dict = {}
        valids: dict = {}
        for key in PLANE_ORDER:
            ccfg = cfg.codec_config(key[1])
            if needs_tracking:
                pcs[key] = build_plane_candidates(orig[key][t], refs[key], ccfg,
                                                  trackers[key], t, delta[key],
                                                  p_plan)
                continue
            # reactive: no channel term, only references free of known taint
            cset = build_inter_candidates(orig[key][t], refs[key], ccfg)
            pcs[key] = PlaneCandidates(
                cset=cset, chan=np.zeros((n_mb, cset.n_candidates)),
                chan_intra=np.zeros(n_mb),
                intra=build_intra_candidates(orig[key][t], ccfg.quant_step),
                quant_step=ccfg.quant_step)
            extras[key] = np.zeros((n_mb, cset.n_candidates + 1))
            valids[key] = trackers[key].valid_candidates(cset, t)

        if needs_tracking:
            for v in (0, 1):
                curv[v].append(curvature_map(
                    recon[(v, Component.TEXTURE)][t - 1],
                    recon[(v, Component.DEPTH)][t - 1],
                    recon[(1 - v, Component.TEXTURE)][t - 1], v, cfg.eta, sens))
            if mode == "independent":
                for key in PLANE_ORDER:
                    if key[1] == Component.TEXTURE:
                        extras[key] = texture_channel_columns(pcs[key],
                                                              "independent")
                    else:
                        extras[key] = depth_channel_columns(
                            pcs[key], "independent", curv[key[0]][t])
            else:
                caps = {}
                tex_val = {}
                dep_val = {}
                for v in (0, 1):
                    _, tex_val[v] = step1_minimum(pcs[(v, Component.TEXTURE)])
                    _, dep_val[v] = step1_minimum(pcs[(v, Component.DEPTH)])
                for v in (0, 1):
                    o = 1 - v
                    corr = correspondence_sets(
                        recon[(v, Component.TEXTURE)][t - 1],
                        recon[(v, Component.DEPTH)][t - 1], v, cfg.eta)
                    opp_err = trackers[(o, Component.TEXTURE)].state(t - 1)
                    opp_pen = g_eval(curv[o][t - 1],
                                     trackers[(o, Component.DEPTH)].state(t - 1))
                    caps[v] = opposing_cap(corr, opp_err, opp_pen,
                                           delta[(v, Component.TEXTURE)])
                    gfix = g_eval(curv[v][t], dep_val[v])
                    extras[(v, Component.TEXTURE)] = texture_channel_columns(
                        pcs[(v, Component.TEXTURE)], "cross",
                        member=corr.member, penalty_fixed=gfix, cap=caps[v])
                    extras[(v, Component.DEPTH)] = depth_channel_columns(
                        pcs[(v, Component.DEPTH)], "cross", curv[v][t],
                        member=corr.member, error_fixed=tex_val[v],
                        cap=caps[v])

        def run(lam_trial: float):
            sels = {key: select_plane(orig[key][t], pcs[key], extras[key],
                                      lam_trial, valids.get(key))
                    for key in PLANE_ORDER}
            return sum(s.total_bits for s in sels.values()), sels

        if frame_targets is not None:
            tuned = tune_to_band(run, lam, frame_targets[t], cfg.rate_band,
                                 cfg.max_lambda_trials)
            lam = tuned.lam
            bits_t, sels = tuned.bits, tuned.payload
            band_ok, infeas = tuned.in_band, tuned.infeasible
            targets_used.append(float(frame_targets[t]))
        else:
            bits_t, sels = run(lam)
            band_ok, infeas = True, False
            targets_used.append(float(bits_t))

        frame = {}
        rec = {}
        for key in PLANE_ORDER:
            sel = sels[key]
            frame[key] = sel.enc
            recon[key].append(sel.recon)
            rec[key] = PlaneRecord(bits=sel.bits, dsrc=sel.dsrc,
                                   chan_error=sel.chan_error,
                                   channel=sel.channel, cost=sel.cost)
            trackers[key].push_frame(sel.enc.modes, sel.enc.ref_dist,
                                     sel.enc.mv, delta[key])
        frames_out.append(frame)
        records_out.append(rec)
        bits_out.append(int(bits_t))
        lambdas.append(lam)
        in_band.append(bool(band_ok))
        infeasible.append(bool(infeas))

    return EncodedStream(mode=mode, frames=frames_out, records=records_out,
                         recon=recon, bits_per_frame=bits_out, lambdas=lambdas,
                         in_band=in_band, infeasible=infeasible,
                         targets=targets_used)


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
    first = stream.recon[(0, Component.TEXTURE)][0]
    grid = (first.shape[0] // 16, first.shape[1] // 16)
    n_mb = grid[0] * grid[1]
    T = len(stream.frames)
    packets = {key: cfg.packets_for(key[1], n_mb) for key in PLANE_ORDER}

    decoded: dict[tuple[int, Component], list[np.ndarray]] = {key: [] for key in PLANE_ORDER}
    tracker = DecoderTracker(grid, cfg.gamma, cfg.eta)
    lost_counts = [0] * T
    for pid, lost in trace.entries:
        if lost and pid.frame_index < T:
            lost_counts[pid.frame_index] += 1

    for t in range(T):
        rcv_t = {}
        dec_t = {}
        for key in PLANE_ORDER:
            view, comp = key
            rcv = ~lost_mb_mask(trace, t, view, comp, n_mb, packets[key])
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
            dec_t[key] = plane
        tracker.update_frame(t, dec_t, stream.frames[t], rcv_t)

    return DecodedStream(planes=decoded, tracker=tracker,
                         lost_packets=lost_counts)


def synthesize_sequence(cfg: ExperimentConfig, dec: DecodedStream,
                        blend: str, truth: list[FramePlane]
                        ) -> tuple[list[np.ndarray], list[float]]:
    """Synthesize the middle view per frame and score against ground truth."""
    params = SynthesisParams(position=cfg.position, eta=cfg.eta,
                             reliability_c=cfg.reliability_c, mode=blend)
    planes = []
    scores = []
    T = len(dec.planes[(0, Component.TEXTURE)])
    for t in range(T):
        le = re = None
        if blend == "adaptive":
            le = (dec.tracker.state(0, 0, t), dec.tracker.state(0, 1, t))
            re = (dec.tracker.state(1, 0, t), dec.tracker.state(1, 1, t))
        res = synthesize_view(dec.planes[(0, Component.TEXTURE)][t],
                              dec.planes[(0, Component.DEPTH)][t],
                              dec.planes[(1, Component.TEXTURE)][t],
                              dec.planes[(1, Component.DEPTH)][t],
                              params, le, re)
        planes.append(res.plane)
        scores.append(psnr(truth[t].samples, res.plane))
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
    lambdas: list[float]
    in_band: list[bool]
    infeasible: list[bool]

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


def _run_setup_cell(cfg: ExperimentConfig, setup: str, orig: dict,
                    truth: list[FramePlane], trace: LossTrace,
                    targets: list[float] | None,
                    shared: dict) -> tuple[EncodedStream, DecodedStream,
                                           list[np.ndarray], list[float]]:
    """Encode/decode once per selection mode, synthesize per setup."""
    sel_mode, blend = SETUP_MODES[setup]
    if sel_mode not in shared:
        stream = encode_stream(cfg, orig, sel_mode, trace,
                               None if setup == "rfc" else targets)
        dec = decode_stream(cfg, stream, trace)
        shared[sel_mode] = (stream, dec)
    stream, dec = shared[sel_mode]
    synth, scores = synthesize_sequence(cfg, dec, blend, truth)
    return stream, dec, synth, scores


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every (setup, rate, seed) cell and write the artifact tree."""
    root = resolve_output_root(cfg)
    root.mkdir(parents=True, exist_ok=True)

    left, right, truth = generate_synthetic_stereo(cfg.scene)
    orig = _plane_lists(left, right)
    n_mb = (cfg.scene.height // 16) * (cfg.scene.width // 16)
    schedule = build_schedule(
        cfg.scene.frame_count,
        cfg.packets_for(Component.TEXTURE, n_mb),
        cfg.packets_for(Component.DEPTH, n_mb))
    protected = frozenset({0}) if cfg.protect_first_frame else frozenset()

    # baseline first: its spend is the matched-rate target for the others
    ordered = [s for s in SETUPS if s in cfg.setups]
    report = ExperimentReport(setups=tuple(ordered),
                              loss_rates=cfg.loss_rates, seeds=cfg.seeds)

    for rate in cfg.loss_rates:
        for seed in cfg.seeds:
            trace = make_iid_trace(seed, rate, schedule, protected)
            pair_dir = root / f"rate_{_fmt(rate)}" / f"seed_{seed}"
            pair_dir.mkdir(parents=True, exist_ok=True)
            save_trace(pair_dir / "trace.txt", trace)

            targets: list[float] | None = None
            shared: dict = {}
            for setup in ordered:
                stream, dec, synth, scores = _run_setup_cell(
                    cfg, setup, orig, truth, trace, targets, shared)
                if setup == "rfc":
                    targets = [float(b) for b in stream.bits_per_frame]
                cell = CellResult(
                    setup=setup, loss_rate=rate, seed=seed,
                    frame_psnr=[float(_fmt(s)) for s in scores],
                    frame_bits=list(stream.bits_per_frame),
                    frame_lost_packets=list(dec.lost_packets),
                    lambdas=list(stream.lambdas),
                    in_band=list(stream.in_band),
                    infeasible=list(stream.infeasible))
                report.cells.append(cell)
                _write_cell(pair_dir / setup, stream, cell, synth)

    with open(root / "report.csv", "w", encoding="ascii") as fh:
        fh.write("setup,loss_rate,seed,mean_psnr,total_bits,frame_count,"
                 "frames_in_band,frames_infeasible\n")
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
