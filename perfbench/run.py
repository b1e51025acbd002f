"""Run one fvstream benchmark workload and print its metrics.

    python3 perfbench/run.py --workload matched-rate --seed 1 --seconds 20 --trace 0

Set-up runs at least SETUP_REPEATS times, and more while a cheap set-up
has not yet added up to SETUP_MIN_S; the median is reported.  The timed phase
then runs units of work until the next unit would pass --seconds (at least
the workload's minimum number of units), checks every unit's outputs
outside the timer, and reports the median unit time.  Every set-up and unit
time is scaled to a reference host speed by calibrations taken before,
during and after it (hostspeed.py); the raw times go to the details.  With
--trace 1 the
process first runs one untimed warm-up unit, then every untraced unit is
repeated under the span tracer, and the per-layer metrics, in raw seconds,
are printed instead of the end-to-end ones.

The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it, and a file under .perfbench-out/, hold the machine,
the artifact digests and the other details of the run.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

import hostspeed
import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3      # at least this many set-ups, and
SETUP_MIN_S = 1.0      # more until this much set-up time is measured


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_fvstream(root: Path = ROOT):
    """Import fvstream from the checkout's own source tree, never elsewhere."""
    src = root / "src"
    if not (src / "fvstream" / "__init__.py").is_file():
        raise BenchError(f"no fvstream sources under {src}")
    sys.path.insert(0, str(src))
    import fvstream
    if Path(fvstream.__file__).resolve().parent != (src / "fvstream").resolve():
        raise BenchError(f"fvstream imported from {fvstream.__file__}, not {src}")
    return fvstream


# ---------------------------------------------------------------------------
# machine
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            threads = next((int(line.split()[1]) for line in fh
                            if line.startswith("Threads:")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "process_threads": threads,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, outcome: tuple[int, int, list[str]]) -> None:
        attempted, failed, problems = outcome
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def run_unit(wl, i: int, tally: Tally, clock: hostspeed.HostClock,
             sample: bool = True) -> None:
    """Run unit i under the clock, then check it outside the clock."""
    try:
        out = clock.time(lambda: wl.unit(i), sample)
        tally.add(wl.check(i, out))
    except Exception:   # a failing unit is counted, and the run goes on
        tally.add((wl.items_per_unit, wl.items_per_unit,
                   [traceback.format_exc(limit=3)]))


def timed_units(wl, seconds: float, tally: Tally, clock: hostspeed.HostClock,
                tracer=None, counters=None
                ) -> tuple[list[float], list[float], list[float]]:
    """Run untraced units until the workload's minimum is met and one more
    median-length unit would pass `seconds`; return the untraced times raw
    and at the reference host speed, and the traced times raw.

    With a tracer, an untimed first unit takes the warm-up of a fresh
    process, and then every untraced unit is repeated with the same index
    under the tracer, without calibrations, so both halves of a pair do the
    same work at about the same host speed.
    """
    raw: list[float] = []
    scaled: list[float] = []
    traced: list[float] = []
    i = 0
    if tracer is not None:
        run_unit(wl, i, tally, clock, sample=False)
        i += 1
    while (len(raw) < wl.min_units
           or sum(raw) + statistics.median(raw) <= seconds):
        run_unit(wl, i, tally, clock)
        raw.append(clock.raw)
        scaled.append(clock.scaled)
        if tracer is not None:
            tracer.unit = i
            layers.install(tracer, counters)
            try:
                run_unit(wl, i, tally, clock, sample=False)
            finally:
                tracer.uninstall()
            traced.append(clock.raw)
        i += 1
    return raw, scaled, traced


def run_workload(wl, seconds: float, trace: bool, spans_path: Path | None = None
                 ) -> tuple[dict, dict]:
    """Measure one workload; return (result line, details)."""
    clock = hostspeed.HostClock()
    setup_raw: list[float] = []
    setup_times: list[float] = []
    while (len(setup_raw) < SETUP_REPEATS
           or sum(setup_raw) < SETUP_MIN_S and len(setup_raw) < 50):
        clock.time(wl.setup)
        setup_raw.append(clock.raw)
        setup_times.append(clock.scaled)

    tally = Tally()
    tracer, counters = (Tracer(), layers.Counters()) if trace else (None, None)
    raw, times, traced = timed_units(wl, seconds, tally, clock, tracer,
                                     counters)
    tally.add(wl.verify())
    wall = statistics.median(times)
    details = {"units": len(times), "unit_s": raw, "unit_ref_s": times,
               "setup_s": setup_raw, "setup_ref_s": setup_times,
               "calibration_s": clock.calibrations,
               "reference_pass_s": hostspeed.REF_PASS_S}

    if trace:
        if spans_path is not None:
            tracer.write_spans(spans_path)
        untraced = statistics.median(raw)
        overhead = statistics.median(traced) - untraced
        metrics = layers.layer_metrics(tracer, counters, len(traced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": overhead / untraced,
                                          "unit": "fraction"}
        details["traced_unit_s"] = traced
    else:
        quality = wl.quality()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "frames_per_s": {"value": wl.frames_per_unit / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "psnr_db": {"value": quality["psnr_db"], "unit": "dB"},
            "in_band_frac": {"value": quality["in_band_frac"],
                             "unit": "fraction"},
        }
        details["psnr_gain_db"] = quality["psnr_gain_db"]
        details["digests"] = quality["digests"]

    details["failed_frac"] = tally.failed / tally.attempted
    details["problems"] = tally.problems[:20]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    try:
        import_fvstream()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work_dir = OUT_DIR / tag
    try:
        wl = workloads.make_workload(args.workload, args.seed, work_dir)
    except ValueError as exc:
        parser.error(str(exc))
    result, details = run_workload(wl, args.seconds, bool(args.trace),
                                   work_dir / "spans.json")
    details.update(workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   machine=machine_info())
    work_dir.mkdir(parents=True, exist_ok=True)
    (work_dir / "result.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1) + "\n",
        encoding="ascii")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
