"""Command-line front end: scene generation, traces, experiments, reports.

All subcommands read a JSON config document (same schema as
ExperimentConfig) and accept a few direct overrides; exit code 0 on
success, 1 on any diagnosed failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .channel import ChannelError, save_trace
from .codec import CodecError
from .frames import PlaneError, save_pgm
from .pipeline import (ExperimentConfig, HarnessError, compare_setups,
                       config_from_dict, emit_plot_data, load_report,
                       resolve_output_root, run_experiment)
from .scenegen import SceneSpecError, generate_synthetic_stereo

_ERRORS = (HarnessError, SceneSpecError, ChannelError, CodecError, PlaneError,
           OSError)


def _parse_list(flag: str, text: str, kind) -> tuple:
    if not text:
        raise HarnessError(f"{flag}: empty list")
    out = []
    for x in text.split(","):
        try:
            out.append(kind(x))
        except ValueError:
            raise HarnessError(f"{flag}: cannot read {x!r} as {kind.__name__}") from None
    return tuple(out)


def _load_config(args) -> ExperimentConfig:
    data = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        # not JSON, not UTF-8, an oversized integer, nested too deep
        except (ValueError, RecursionError) as exc:
            raise HarnessError(f"config {args.config}: {exc}") from None
    cfg = config_from_dict(data)
    updates = {}
    if getattr(args, "setups", None) is not None:
        updates["setups"] = _parse_list("--setups", args.setups, str)
    if getattr(args, "rates", None) is not None:
        updates["loss_rates"] = _parse_list("--rates", args.rates, float)
    if getattr(args, "seeds", None) is not None:
        updates["seeds"] = _parse_list("--seeds", args.seeds, int)
    if getattr(args, "output_root", None) is not None:
        updates["output_root"] = args.output_root
    if getattr(args, "base_lambda", None) is not None:
        updates["base_lambda"] = args.base_lambda
    if getattr(args, "rtt", None) is not None:
        updates["rtt"] = args.rtt
    if updates:
        from dataclasses import replace
        cfg = replace(cfg, **updates)
    return cfg


def _cmd_generate(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    left, right, truth = generate_synthetic_stereo(cfg.scene, cfg.position)
    for t in range(cfg.scene.frame_count):
        save_pgm(out / f"left_tex_{t:04d}.pgm", left[t].texture)
        save_pgm(out / f"left_disp_{t:04d}.pgm", left[t].disparity)
        save_pgm(out / f"right_tex_{t:04d}.pgm", right[t].texture)
        save_pgm(out / f"right_disp_{t:04d}.pgm", right[t].disparity)
        save_pgm(out / f"truth_{t:04d}.pgm", truth[t])
    print(f"wrote {5 * cfg.scene.frame_count} planes to {out}")
    return 0


def _cmd_trace(args) -> int:
    cfg = _load_config(args)
    trace = cfg.loss_trace(args.seed, args.rate)
    save_trace(args.out, trace)
    lost = sum(1 for _, l in trace.entries if l)
    print(f"wrote {len(trace.entries)} packet outcomes ({lost} lost) to {args.out}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    report = run_experiment(cfg)
    root = resolve_output_root(cfg)
    print(f"{len(report.cells)} cells -> {root}")
    for cell in report.cells:
        print(f"  {cell.setup} rate={cell.loss_rate:g} seed={cell.seed} "
              f"psnr={cell.mean_psnr:.3f} bits={cell.total_bits}")
    return 0


def _cmd_compare(args) -> int:
    report = load_report(args.root)
    csv_text, aligned = compare_setups(report)
    out = Path(args.root)
    (out / "summary.csv").write_text(csv_text, encoding="ascii")
    (out / "summary.txt").write_text(aligned, encoding="ascii")
    print(aligned, end="")
    return 0


def _cmd_plotdata(args) -> int:
    report = load_report(args.root)
    out_dir = Path(args.out) if args.out else Path(args.root) / "plot"
    written = emit_plot_data(report, out_dir)
    print(f"wrote {len(written)} series to {out_dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvstream",
        description="Loss-resilient stereo streaming simulator with "
                    "free-viewpoint synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="JSON config document")

    p = sub.add_parser("generate", help="render the synthetic scene to PGM planes")
    add_config(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("trace", help="draw a packet loss trace")
    add_config(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--out", required=True, help="trace file path")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("run", help="run the full experiment grid")
    add_config(p)
    p.add_argument("--setups", help="comma list, e.g. rfc,arps")
    p.add_argument("--rates", help="comma list of loss rates")
    p.add_argument("--seeds", help="comma list of seeds")
    p.add_argument("--output-root", help="artifact tree root")
    p.add_argument("--base-lambda", type=float)
    p.add_argument("--rtt", type=int)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="summarize an artifact tree vs the baseline")
    p.add_argument("--root", required=True, help="artifact tree root")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("plotdata", help="emit per-frame PSNR series files")
    p.add_argument("--root", required=True, help="artifact tree root")
    p.add_argument("--out", help="series directory (default <root>/plot)")
    p.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
