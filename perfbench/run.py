"""dispest benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload grid|queries|oracle|montecarlo \
        --seed N --seconds T --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones (ops_per_s, op_p50_s,
op_p90_s, peak_rss_mb, setup_s); with --trace 1 they are the per-layer ones
from a run with timing spans installed.  See perfbench/README.md.

This file uses only the standard library.  The load runs in one child
process (worker.py); set-up is timed on SETUP_SAMPLES further fresh
interpreters, one after another, and reported as their median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("grid", "queries", "oracle", "montecarlo")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150


def _worker(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _setup_sample(workload: str, seed: int) -> dict:
    """Fresh interpreter to the moment the first op could start, in seconds."""
    spawned = time.monotonic()
    proc = _worker(["--workload", workload, "--seed", str(seed), "--setup-only"])
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip() or f"exit {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"setup_s": report["ready"] - spawned, "import_s": report["import_s"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dispest", "__init__.py")):
        return _fail(f"no dispest sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)

    try:
        samples = [_setup_sample(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return _fail(f"set-up failed: {exc}")

    result_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    try:
        proc = _worker(["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", repr(args.seconds), "--trace", str(args.trace),
                        "--result", result_path])
    except subprocess.TimeoutExpired:
        return _fail("workload run timed out")
    if proc.returncode != 0:
        return _fail(f"workload run failed: {proc.stderr.strip()}")
    with open(result_path) as fh:
        run = json.load(fh)
    for kind, message in sorted(run["errors"].items()):
        print(f"perfbench: {kind}: {message}", file=sys.stderr)

    if args.trace:
        metrics = run["layers"]
        metrics["setup.import_s"] = {
            "value": statistics.median(s["import_s"] for s in samples), "unit": "s"}
    else:
        d = sorted(run["durations"])
        metrics = {
            "ops_per_s": {"value": len(d) / sum(d), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(d), "unit": "s"},
            "op_p90_s": {"value": statistics.quantiles(d, n=10)[8], "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in samples),
                        "unit": "s"},
        }
    summary = {"correct": run["correct"], "attempted": run["attempted"],
               "failed": run["failed"], "metrics": metrics}
    with open(result_path, "w") as fh:
        json.dump({**run, "setup_samples": samples, "summary": summary}, fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
