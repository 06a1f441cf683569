"""Command-line front end: bounds, simulations, sweeps and figure data.

Every emitted JSON record and CSV file embeds the full configuration needed
to reproduce it (seeded runs bit-exactly, analytic values to rounding).
Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from itertools import islice

import numpy as np

from . import __version__
from .bounds import (BoundQuery, RLDUnavailableError, _column, bound_most_informative,
                     check_in_range, scaling_factors)
from .montecarlo import EstimationConfig, run_baseline_heterodyne, run_scheme, thread_count


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit_record(command: str, config: dict, results: dict, started: float) -> dict:
    return {
        "tool": "dispest",
        "version": __version__,
        "command": command,
        "config": config,
        "results": results,
        "wall_time_s": time.perf_counter() - started,
    }


def finite(text: str) -> float:
    """argparse type: a finite real number (rejects nan and +-inf)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not finite")
    return value


def _write_csv(path, header_cols, rows, command: str, config: dict):
    """Write a commented header and one line per row, every number as %.17g
    (the same text as format(float(x), ".17g"), so values round-trip), to the
    file name path, an open text file, or standard output if path is None.
    Rows are formatted and written 4096 at a time, so that the text of a long
    table, such as a per-shot dump, is never held whole."""
    row_fmt = ",".join(["%.17g"] * len(header_cols)) + "\n"
    rows = iter(rows)
    with (nullcontext(path or sys.stdout) if path is None or hasattr(path, "write")
          else open(path, "w")) as fh:
        fh.write(f"# tool: dispest {__version__}\n# command: {command}\n"
                 f"# config: {json.dumps(config, sort_keys=True)}\n"
                 + ",".join(header_cols) + "\n")
        while block := list(islice(rows, 4096)):
            fh.write("".join([row_fmt % tuple(row) for row in block]))


@contextmanager
def _file_on_success(path: str):
    """A text file opened before the block runs, so that a path that cannot
    be written fails before any sampling.  A new or regular file is written
    under a temporary name beside it and renamed onto the path only when the
    block succeeds, so a failed run leaves no file and an existing one as it
    was; anything else, such as /dev/null, is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            yield fh
        return
    path = os.path.realpath(path)   # a symlink's target takes the file, not the link
    if os.path.exists(path):
        open(path, "a").close()   # an existing file that cannot be written fails here
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x")
    except OSError as exc:   # name the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _numbers(text: str, count: int, option: str) -> list[float]:
    try:
        values = [finite(x) for x in text.split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise UsageError(f"{option} expects {count} comma-separated finite numbers")
    return values


def _parse_weight(text: str) -> np.ndarray:
    g11, g12, g22 = _numbers(text, 3, "--G")
    return np.array([[g11, g12], [g12, g22]])


def _probe_query(args, r: float = 0.0, weight=None, shots: int = 1) -> BoundQuery:
    kind = args.probe.replace("-", "_")
    if kind == "tmst_asym":
        if args.N1 is None or args.N2 is None:
            raise UsageError("--probe tmst-asym needs --N1 and --N2")
        if args.N is not None:
            raise UsageError("--N conflicts with --N1/--N2")
        n, n2 = args.N1, args.N2
    else:
        if args.N1 is not None or args.N2 is not None:
            raise UsageError("--N1/--N2 are only valid with --probe tmst-asym")
        n, n2 = (args.N if args.N is not None else 0.0), None
    try:
        return BoundQuery(kind=kind, r=r, N=n, N2=n2, delta=args.delta,
                          weight=weight, shots=shots)
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_bounds(args) -> int:
    started = time.perf_counter()
    query = _probe_query(args, args.r if args.r is not None else 0.0,
                         _parse_weight(args.G) if args.G else None, args.M)
    report = bound_most_informative(query)
    config = {
        "probe": args.probe, "r": query.r, "N": query.N, "N2": query.N2,
        "delta": query.delta, "M": query.shots,
        "G": args.G,
    }
    results = vars(report)  # the record's fields in order; read, not changed
    if args.format == "csv":
        cols = [k for k, v in results.items() if isinstance(v, (int, float))]
        _write_csv(None, cols, [[results[k] for k in cols]], "bounds", config)
    else:
        print(json.dumps(_emit_record("bounds", config, results, started), indent=2))
    return 0


def _parse_scaling(text: str) -> str | float:
    if text in ("none", "coherent", "optimal"):
        return text
    if text.startswith("K="):
        try:
            return finite(text[2:])
        except ValueError:
            pass
    raise UsageError("--scaling must be none, coherent, optimal or K=<value>")


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    if args.baseline and (args.r is not None or args.N is not None):
        raise UsageError("--baseline conflicts with --r/--N")
    if not args.baseline and (args.r is None or args.N is None):
        raise UsageError("simulate needs --r and --N (or --baseline)")
    jitter = tuple(_numbers(args.jitter, 2, "--jitter")) if args.jitter else None
    try:
        cfg = EstimationConfig(
            shots=args.shots, seed=args.seed, r=args.r, N=args.N, N2=args.N2,
            q0=args.q0, p0=args.p0, prior_delta=args.prior_delta,
            scaling=_parse_scaling(args.scaling), jitter=jitter, workers=args.workers)
    except ValueError as exc:
        raise UsageError(str(exc))
    # B_MI before the run, so that a bound out of range exits 3 before sampling
    bound = _column("b_mi", cfg.kind, cfg.r or 0.0, cfg.N or 0.0, cfg.N2, cfg.prior_delta)
    runner = run_baseline_heterodyne if args.baseline else run_scheme
    config = {
        "baseline": args.baseline, "r": cfg.r, "N": cfg.N, "N2": cfg.N2,
        "shots": cfg.shots, "seed": cfg.seed, "q0": cfg.q0, "p0": cfg.p0,
        "prior_delta": cfg.prior_delta, "scaling": args.scaling,
        "jitter": list(cfg.jitter) if cfg.jitter else None, "workers": thread_count(cfg),
    }
    with _file_on_success(args.dump_shots) if args.dump_shots else nullcontext() as dump:
        result = runner(cfg, record_shots=dump is not None)
        if dump is not None:
            rows = zip(range(result.shots), *result.per_shot.values())
            _write_csv(dump, ["shot", *result.per_shot], rows, "simulate", config)
    results = {key: value for key, value in vars(result).items()
               if key not in ("config", "shots", "per_shot")}
    results["z_vs_target"] = ((result.mse_sum - result.target_mse_sum) / result.se_mse_sum
                              if result.se_mse_sum > 0 else 0.0)
    results["bound_mi"] = float(bound)
    print(json.dumps(_emit_record("simulate", config, results, started), indent=2))
    return 0


def _grid(args) -> np.ndarray:
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    if args.r_min < 0:
        raise UsageError("--r-min must be nonnegative")
    if args.r_max <= args.r_min:
        raise UsageError("--r-max must exceed --r-min")
    return np.linspace(args.r_min, args.r_max, args.steps)


def _out_dir(args) -> str:
    out = args.out or os.environ.get("DISPEST_OUTPUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_figure(args) -> int:
    grid = _grid(args)
    out = _out_dir(args)
    if args.name == "fig2":
        ns = (0.0, 0.5, 2.0)
        config = {"name": "fig2", "r_min": args.r_min, "r_max": args.r_max,
                  "steps": args.steps, "N_values": list(ns)}
        gaps = _column("gap", "tmst", grid, np.array(ns)[:, None])
        _write_csv(os.path.join(out, "fig2.csv"), ["r"] + [f"D_N{n:g}" for n in ns],
                   _rows([grid, *gaps]), "figure", config)
        print(os.path.join(out, "fig2.csv"))
        return 0

    text = args.deltas or "1,2,3,5"
    deltas = _numbers(text, text.count(",") + 1, "--deltas")
    n_th = args.N if args.N is not None else 1.0
    if min(deltas) <= 0 or n_th < 0:
        raise UsageError("fig3 needs positive --deltas and nonnegative --N")
    names = [f"fig3_{delta:g}.csv" for delta in deltas]   # :g keeps 6 digits
    for i, name in enumerate(names):
        if name in names[:i]:
            raise UsageError(f"--deltas {deltas[names.index(name)]} and {deltas[i]} "
                             f"share the file name {name}")
    var0 = _column("scheme_variance", "tmst", grid, n_th) / 2.0
    widths = np.array(deltas)[:, None]   # one row of each column per width
    # raises where H overflows; a finite H keeps var0 > 0
    b_mi = _column("b_mi", "tmst", grid, n_th, delta=widths)
    factors = scaling_factors(var0, widths)
    columns = [factors.mse_min, factors.mse_kc, b_mi,
               np.broadcast_to(2.0 * factors.k_c, b_mi.shape)]
    check_in_range(grid, *columns)   # before any file is written
    for name, delta, *values in zip(names, deltas, *columns):
        config = {"name": "fig3", "delta": delta, "N": n_th,
                  "r_min": args.r_min, "r_max": args.r_max, "steps": args.steps}
        name = os.path.join(out, name)
        _write_csv(name, ["r", "mse_Kmin", "mse_Kc", "B_MI", "B_SQL"],
                   _rows([grid, *values]), "figure", config)
        print(name)
    return 0


def _rows(columns):
    return zip(*(column.tolist() for column in columns))


def cmd_sweep(args) -> int:
    grid = _grid(args)
    quantity = args.quantity
    if quantity in ("scheme_variance", "gap", "duan_lhs"):
        if args.probe != "tmst":
            raise UsageError(f"quantity '{quantity}' is defined for --probe tmst")
        if args.delta is not None:
            raise UsageError(f"quantity '{quantity}' does not depend on a prior; "
                             "it takes no --delta")
    query = _probe_query(args)
    values = _column(quantity, query.kind, grid, query.N, query.N2, query.delta)

    config = {"quantity": quantity, "probe": args.probe, "N": args.N,
              "N1": args.N1, "N2": args.N2, "delta": args.delta,
              "r_min": args.r_min, "r_max": args.r_max, "steps": args.steps}
    path = args.out if args.out else None
    _write_csv(path, ["r", quantity], _rows([grid, values]), "sweep", config)
    return 0


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:  # built once per process; parsing keeps no state
    parser = _Parser(prog="dispest",
                     description="Bounds and simulations for joint estimation "
                                 "of phase-space displacements")
    sub = parser.add_subparsers(dest="cmd", required=True)
    probe = _Parser(add_help=False)
    for name in ("--N", "--N1", "--N2"):
        probe.add_argument(name, type=finite, default=None)
    probe.add_argument("--delta", type=finite, default=None,
                       help="Gaussian prior standard deviation")
    grid = _Parser(add_help=False)
    grid.add_argument("--r-min", type=finite, default=0.0)
    grid.add_argument("--r-max", type=finite, default=3.0)
    grid.add_argument("--steps", type=int, default=200)

    pb = sub.add_parser("bounds", parents=[probe],
                        help="evaluate Cramer-Rao bounds for a probe")
    pb.add_argument("--probe", required=True,
                    choices=["coherent", "single", "tmst", "tmst-asym"])
    pb.add_argument("--r", type=finite, default=None)
    pb.add_argument("--M", type=int, default=1, help="number of repetitions")
    pb.add_argument("--G", type=str, default=None,
                    help="weight matrix g11,g12,g22")
    pb.add_argument("--format", choices=["json", "csv"], default="json")
    pb.set_defaults(func=cmd_bounds)

    ps = sub.add_parser("simulate", help="Monte Carlo estimation run")
    ps.add_argument("--baseline", action="store_true",
                    help="coherent probe with heterodyne instead of the scheme")
    for name in ("--r", "--N", "--N2", "--q0", "--p0", "--prior-delta"):
        ps.add_argument(name, type=finite, default=None)
    ps.add_argument("--shots", type=int, required=True)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--scaling", type=str, default="none",
                    help="none | coherent | optimal | K=<value>")
    ps.add_argument("--jitter", type=str, default=None, help="dq2,dp2")
    ps.add_argument("--workers", type=int, default=None, help="thread cap (default: none)")
    ps.add_argument("--dump-shots", type=str, default=None,
                    help="write per-shot CSV to this path")
    ps.set_defaults(func=cmd_simulate)

    pf = sub.add_parser("figure", parents=[grid],
                        help="emit figure-reproduction CSV data")
    pf.add_argument("name", choices=["fig2", "fig3"])
    pf.add_argument("--out", type=str, default=None,
                    help="output directory (default $DISPEST_OUTPUT_DIR or .)")
    pf.add_argument("--N", type=finite, default=None,
                    help="thermal photons for fig3 (default 1)")
    pf.add_argument("--deltas", type=str, default=None,
                    help="comma-separated prior widths for fig3")
    pf.set_defaults(func=cmd_figure)

    pw = sub.add_parser("sweep", parents=[probe, grid],
                        help="evaluate one quantity over an r grid")
    pw.add_argument("--quantity", required=True,
                    choices=["b_sld", "b_rld", "b_mi", "scheme_variance",
                             "gap", "duan_lhs"])
    pw.add_argument("--probe", default="tmst",
                    choices=["coherent", "single", "tmst", "tmst-asym"])
    pw.add_argument("--out", type=str, default=None,
                    help="output CSV path (default stdout)")
    pw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, OSError) as exc:  # OSError: an output path not writable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RLDUnavailableError, OverflowError, ValueError, MemoryError) as exc:
        # input is validated before the library runs, so a ValueError from inside
        # it (an unphysical covariance, say) or a MemoryError is a numerical fault
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry_point():
    sys.exit(main())
