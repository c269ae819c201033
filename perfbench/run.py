"""funcjohn benchmark: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload john_bump --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in a child interpreter
(measure.py) that imports funcjohn from the checkout's src/, with the BLAS
thread count pinned to one.  setup_s runs from the moment the child is
started to its first timed op.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics (the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("john_bump", "john_smooth", "certify_corpus")
CHILD_TIMEOUT_S = 170
# one BLAS thread: results are identical with one and two threads, and two
# concurrent solver processes on a two-core machine slow each other severely
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "funcjohn" / "__init__.py").is_file():
        print(f"no funcjohn sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    started = time.monotonic()  # system-wide clock, shared with the child
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"workload process exited with {proc.returncode}",
              file=sys.stderr)
        return 3
    child = json.loads(lines[-1])
    metrics = child["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": child["first_op_at"] - started,
                               "unit": "s"}, **metrics}
    print("workload process ran with "
          + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"ops attempted {child['attempted']}, failed {child['failed']}, "
          f"outputs correct: {child['correct']}")
    print(json.dumps({"correct": child["correct"],
                      "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
