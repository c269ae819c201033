"""The workload process: build one workload, run whole rounds of its ops,
check every output, and print one JSON line for run.py.

Run through run.py, which starts this file in a fresh interpreter with the
BLAS thread count pinned and funcjohn imported from the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import funcjohn

import refs
import workloads
from tracer import SPAN_METRICS, Tracer, metric_unit

ROOT = Path(__file__).resolve().parent.parent


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(ops, seconds: float, trace: bool):
    """Whole rounds of the op list: at least one, and another only while it
    is expected to end within `seconds` of the first op, judged by the
    round before it.  In a traced run every op runs twice in a row,
    untraced and then traced, so that the seconds of the two passes give
    the tracing overhead; a plain run never installs the tracer."""
    tracer = Tracer() if trace else None
    result = {"first_op_at": None, "attempted": 0, "failed": 0,
              "problems": [], "peak_rss_mib": 0.0,
              "op_seconds": {op.name: [] for op in ops}, "layers": []}
    passes = (False, True) if trace else (False,)
    result["pass_seconds"] = dict.fromkeys(passes, 0.0)
    while True:
        round_start = time.monotonic()
        if trace:
            tracer.reset()
        for op in ops:
            if result["first_op_at"] is None:
                result["first_op_at"] = time.monotonic()
            for traced in passes:
                result["attempted"] += 1
                if traced:
                    tracer.install()
                start = time.perf_counter()
                try:
                    out = op.run()
                except Exception:  # counted as a failed op, reported below
                    result["failed"] += 1
                    result["problems"].append(
                        f"{op.name} raised:\n{traceback.format_exc()}")
                    continue
                finally:
                    elapsed = time.perf_counter() - start
                    if traced:
                        tracer.uninstall()
                result["peak_rss_mib"] = max(result["peak_rss_mib"],
                                             _rss_mib())
                result["pass_seconds"][traced] += elapsed
                if not traced:
                    result["op_seconds"][op.name].append(elapsed)
                try:
                    op.check(out)
                except refs.CheckFailed as exc:
                    result["problems"].append(f"{op.name}: {exc}")
                except Exception:  # an output the check cannot even read
                    result["problems"].append(
                        f"{op.name} check raised:\n{traceback.format_exc()}")
        if trace:
            result["layers"].append(tracer.metrics())
        now = time.monotonic()
        if now + (now - round_start) - result["first_op_at"] > seconds:
            break
    if tracer is not None:
        result["missing"] = tracer.missing
    return result


def summarize(result, trace: bool) -> dict:
    """Each op's seconds are its median over the rounds, so a burst of
    machine noise in one round does not carry into the figures."""
    if trace:
        metrics = {name: statistics.median(r[name] for r in result["layers"])
                   for name in SPAN_METRICS}
        seconds = result["pass_seconds"]
        metrics["trace.overhead_pct"] = 100.0 * (seconds[True] / seconds[False]
                                                 - 1.0)
        metrics["trace.missing_hooks"] = float(len(result["missing"]))
        units = {name: metric_unit(name) for name in metrics}
        units["trace.overhead_pct"] = "%"
    else:
        per_op = [statistics.median(v) for v in result["op_seconds"].values()
                  if v]
        metrics = {"wall_s": sum(per_op),
                   "op_median_s": statistics.median(per_op),
                   "peak_rss_mb": result["peak_rss_mib"]}
        units = {"wall_s": "s", "op_median_s": "s", "peak_rss_mb": "MiB"}
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(funcjohn.__file__).resolve().parents:
        print(f"funcjohn imported from {funcjohn.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, workdir)
        result = run_rounds(ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in result["problems"]:
        print(line, file=sys.stderr)
    for name in result.get("missing", ()):
        print(f"trace hook missing: {name}", file=sys.stderr)
    for name, times in result["op_seconds"].items():
        if times:
            print(f"{name:42s} {statistics.median(times):9.4f} s",
                  file=sys.stderr)
    checks_failed = len(result["problems"]) - result["failed"]
    print(json.dumps({
        "first_op_at": result["first_op_at"],
        "correct": checks_failed == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": summarize(result, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
