#!/usr/bin/env python3
"""Benchmark of the `pmp` workloads, run in-process from a source checkout.

Run from the repository root (it imports `src/pompeiu` as it is there):

    python3 perfbench/run.py --workload solve_grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The load is a closed loop with one caller: each pass starts when the
previous one ends.  With `--trace 0` a run reports the end-to-end metrics:

  setup_s      median wall time of fresh interpreters that import pompeiu.cli
               and build its parser
  run_s        median wall time of one workload pass
  peak_rss_mb  ru_maxrss of a fresh process that runs one pass
  err_digits   -log10 of the largest relative error against the exact
               reference, capped at the float64 floor (13 digits)

With `--trace 1` it times untraced passes, then traced passes, and reports
the per-layer metrics of the traced ones (see tracing.py), including
trace.overhead_ratio; the spans are written to .bench_trace/.  Every pass is
checked against its reference and must repeat the first pass's output bit
for bit.  Human-readable lines (fail_ratio among them) come first; the last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
TRACE_DIR = ".bench_trace"
WORKLOAD_NAMES = ("solve_grid", "export_mixed", "polydisc_tensor", "crosscheck")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0, help="timed seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def source_dir() -> Path:
    """`src` of the checkout the benchmark is run from; exits if absent."""
    src = Path.cwd() / "src"
    if not (src / "pompeiu" / "__init__.py").is_file():
        print("error: src/pompeiu not found; run from the root of a pompeiu checkout",
              file=sys.stderr)
        sys.exit(2)
    return src


# ---------------------------------------------------------------------------
# Fresh-process measurements
# ---------------------------------------------------------------------------

def setup_seconds(src: Path) -> float:
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "from pompeiu import cli; cli.build_parser()")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb(workload: str, seed: int) -> float:
    """ru_maxrss of a fresh process that runs one pass.

    Linux carries a parent's peak RSS into a child across fork and exec, so
    this is called while the benchmark process is still small (before it
    imports numpy), which keeps that floor far below any workload's peak.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--one-pass"], check=True, timeout=170, capture_output=True, text=True)
    return float(proc.stdout.split()[-1])


def one_pass(workload) -> None:
    """Body of the fresh process behind peak_rss_mb."""
    import resource
    workload.run_pass()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------

class Ledger:
    """Checks every pass: scores it and compares it with the first pass."""

    def __init__(self, workload, score):
        self.workload = workload
        self.score = score
        self.expected = None
        self.mismatches = 0

    def record(self, outputs) -> None:
        self.score.merge(self.workload.check(outputs))
        fingerprint = self.workload.fingerprint(outputs)
        if self.expected is None:
            self.expected = fingerprint
        elif fingerprint != self.expected:
            self.mismatches += 1


def timed_passes(ledger: Ledger, seconds: float, min_passes: int, keep=None) -> list[float]:
    """Passes back to back, each started only if it should end by the deadline."""
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < min_passes or time.perf_counter() + times[-1] <= deadline:
        start = time.perf_counter()
        outputs = ledger.workload.run_pass()
        times.append(time.perf_counter() - start)
        ledger.record(outputs)
        if keep is not None:
            keep.extend(outputs)
    return times


def tail_note(times: list[float]) -> str:
    """Median, plus the highest percentile with ten passes beyond it."""
    n = len(times)
    note = f"median of {n} passes"
    if n >= 20:
        q = 100.0 * (1.0 - 10.0 / n)
        note += f"; p{q:.0f} {statistics.quantiles(times, n=100)[int(q) - 1]:.4f} s"
    else:
        note += "; too few passes for a tail percentile"
    return note


def run_plain(workload, seconds: float, score, setup: float, rss: float) -> dict:
    ledger = Ledger(workload, score)
    times = timed_passes(ledger, seconds, MIN_PASSES)
    run_s = statistics.median(times)
    print(f"  setup_s      {setup:.4f} s   (median of {SETUP_REPEATS} fresh interpreters)")
    print(f"  run_s        {run_s:.4f} s   ({tail_note(times)})")
    print(f"  peak_rss_mb  {rss:.1f} MB   (fresh process, one pass)")
    metrics = {"setup_s": (setup, "s"), "run_s": (run_s, "s"),
               "peak_rss_mb": (rss, "MB"), "err_digits": (score.digits, "digits")}
    return {"metrics": metrics, "mismatches": ledger.mismatches}


def run_traced(workload, seed: int, seconds: float, score) -> dict:
    import tracing
    ledger = Ledger(workload, score)
    plain = timed_passes(ledger, seconds / 2, MIN_TRACE_PASSES)
    tracer = tracing.Tracer()
    invocations = []
    installation = tracing.install(tracer)
    try:
        traced = timed_passes(ledger, seconds / 2, MIN_TRACE_PASSES, keep=invocations)
    finally:
        installation.restore()
    hits = sum(getattr(o, "cache_hits", 0) for o in invocations)
    misses = sum(getattr(o, "cache_misses", 0) for o in invocations)
    overhead = statistics.median(traced) / statistics.median(plain)
    layers = tracing.layer_metrics(tracer.spans, len(traced), hits, misses, overhead)
    split = tracing.layer_self_times(tracer.spans, len(traced))
    print(f"  median pass {statistics.median(traced):.4f} s traced ({len(traced)} passes), "
          f"{statistics.median(plain):.4f} s untraced ({len(plain)}); "
          f"self seconds per traced pass by layer:")
    for layer, seconds_ in sorted(split.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<12} {seconds_:.4f} s")
    out_dir = Path.cwd() / TRACE_DIR
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{workload.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "passes": len(traced),
                   "spans": [asdict(s) for s in tracer.spans]}, fh)
    metrics = {key: (layers[key], unit) for key, (unit, _) in tracing.LAYER_METRICS.items()}
    return {"metrics": metrics, "mismatches": ledger.mismatches}


def run_workload(name: str, seed: int, seconds: float, trace: int, fresh) -> dict:
    import workloads
    workload = workloads.WORKLOADS[name](seed)
    score = workloads.Score()
    print(f"workload {name} seed {seed}: closed loop, one caller, "
          f"PMP_THREADS={workload.threads}, {'traced' if trace else 'untraced'}")
    if trace:
        result = run_traced(workload, seed, seconds, score)
    else:
        result = run_plain(workload, seconds, score, *fresh)
    fail_ratio = score.failed / score.attempted
    print(f"  err_digits   {score.digits:.4f} digits (floor {workloads.FLOOR_DIGITS:g})")
    print(f"  fail_ratio   {fail_ratio:.6g} ratio ({score.failed} of {score.attempted} "
          "operations)")
    if result["mismatches"]:
        print(f"  {result['mismatches']} passes did not repeat the first pass's output")
    return {"correct": score.failed == 0 and result["mismatches"] == 0,
            "attempted": score.attempted, "failed": score.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = source_dir()
    seed = args.seed % (1 << 63)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    fresh = {name: (setup_seconds(src), peak_rss_mb(name, seed))
             for name in names if not (args.trace or args.one_pass)}
    sys.path.insert(0, str(src))
    if args.one_pass:
        import workloads
        one_pass(workloads.WORKLOADS[args.workload](seed))
        return 0
    results = {name: run_workload(name, seed, args.seconds, args.trace, fresh.get(name))
               for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{key}": value for name, r in results.items()
                              for key, value in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
