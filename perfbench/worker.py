"""One benchmark process: import dispest, build a workload's inputs, run it.

    python3 perfbench/worker.py --workload W --seed S --setup-only
        prints {"ready": <time.monotonic() when the first op could start>,
        "import_s": ...} and exits; run.py times fresh interpreters with it.
    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
        --result PATH
        repeats the workload's round of operations until T seconds have
        passed, checks every output and writes the per-op times, the counts
        and (traced) the per-layer metrics to PATH as JSON.

dispest is imported from the src/ directory of the checkout this file sits
in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _import_dispest() -> float:
    started = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import dispest  # noqa: F401  (the import is what is timed)
    elapsed = time.perf_counter() - started
    if not os.path.abspath(dispest.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"dispest was imported from {dispest.__file__}, not {SRC}")
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    import_s = _import_dispest()
    import workloads
    ops = workloads.build(args.workload, args.seed, os.path.join(OUT, "figures"))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "import_s": import_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    durations, kinds, errors = [], [], {}
    attempted = failed = rounds = bytes_out = 0
    correct = True
    started = time.perf_counter()
    while rounds == 0 or time.perf_counter() - started < args.seconds:
        for op in ops:
            root = tracer.root(f"op.{op.kind}") if tracer else None
            t0 = time.perf_counter()
            try:
                out = op.call()
                exc = None
            except Exception as err:  # a failed operation is counted, not fatal
                exc = err
            t1 = time.perf_counter()
            if tracer:
                tracer.close(root)
            attempted += 1
            durations.append(t1 - t0)
            kinds.append(op.kind)
            if exc is not None:
                failed += 1
                errors.setdefault(op.kind, f"{type(exc).__name__}: {exc}")
                continue
            if isinstance(out, str):
                bytes_out += len(out.encode())
            message = op.check(out)
            if message:
                correct = False
                errors.setdefault(op.kind, f"wrong output: {message}")
        rounds += 1

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "round_ops": len(ops), "attempted": attempted,
        "failed": failed, "correct": correct, "errors": errors,
        "import_s": import_s, "wall_s": time.perf_counter() - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "durations": durations, "kinds": kinds,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer, attempted, bytes_out)
        result["trace_file"] = os.path.splitext(args.result)[0] + ".spans.json.gz"
        tracer.dump(result["trace_file"])
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
