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

import numpy as np

from . import __version__
from .bounds import (BoundQuery, RLDUnavailableError, bound_most_informative,
                     check_in_range, evaluate_bounds, gap_D, probe_fisher,
                     scaling_factors, scheme_variance_sum)
from .fock import PureStateError, TruncationError
from .montecarlo import EstimationConfig, run_baseline_heterodyne, run_scheme, thread_count

FIG3_DELTAS = (1.0, 2.0, 3.0, 5.0)


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
    (the same text as format(float(x), ".17g"), so values round-trip)."""
    row_fmt = ",".join(["%.17g"] * len(header_cols)) + "\n"
    lines = [f"# tool: dispest {__version__}\n",
             f"# command: {command}\n",
             f"# config: {json.dumps(config, sort_keys=True)}\n",
             ",".join(header_cols) + "\n"]
    lines += [row_fmt % tuple(row) for row in rows]
    text = "".join(lines)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


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
    if kind == "coherent" and (r != 0.0 or n != 0.0):
        raise UsageError("a coherent probe takes no --r or --N")
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
    results = {
        "b_sld": report.b_sld, "b_rld": report.b_rld, "b_mi": report.b_mi,
        "branch": report.branch, "r_ths": report.r_ths, "r_sql": report.r_sql,
        "scheme_variance": report.scheme_variance, "gap": report.gap,
    }
    if args.format == "csv":
        cols = [k for k, v in results.items() if isinstance(v, (int, float)) and v is not None]
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
    bound = bound_most_informative(BoundQuery(  # before the run: it may exit 3
        kind=cfg.kind, r=cfg.r or 0.0, N=cfg.N or 0.0, N2=cfg.N2,
        delta=cfg.prior_delta)).b_mi
    runner = run_baseline_heterodyne if args.baseline else run_scheme
    result = runner(cfg, record_shots=args.dump_shots is not None)

    config = {
        "baseline": args.baseline, "r": cfg.r, "N": cfg.N, "N2": cfg.N2,
        "shots": cfg.shots, "seed": cfg.seed, "q0": cfg.q0, "p0": cfg.p0,
        "prior_delta": cfg.prior_delta, "scaling": args.scaling,
        "jitter": list(cfg.jitter) if cfg.jitter else None, "workers": thread_count(cfg),
    }
    results = {key: getattr(result, key) for key in (
        "k_used", "mean_q", "mean_p", "bias_q", "bias_p", "mse_q", "mse_p", "mse_sum",
        "se_mse_q", "se_mse_p", "se_mse_sum", "target_mse_sum")}
    results["z_vs_target"] = ((result.mse_sum - result.target_mse_sum) / result.se_mse_sum
                              if result.se_mse_sum > 0 else 0.0)
    results["bound_mi"] = bound
    if args.dump_shots:
        shots = result.per_shot
        rows = zip(range(result.shots), shots["q0"], shots["p0"],
                   shots["outcome_q"], shots["outcome_p"],
                   shots["estimate_q"], shots["estimate_p"])
        _write_csv(args.dump_shots,
                   ["shot", "q0", "p0", "outcome_q", "outcome_p",
                    "estimate_q", "estimate_p"],
                   rows, "simulate", config)
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
        with np.errstate(all="ignore"):  # values out of range raise below
            columns = [grid] + [gap_D(grid, n) for n in ns]
        check_in_range(grid, *columns[1:])
        _write_csv(os.path.join(out, "fig2.csv"),
                   ["r", "D_N0", "D_N0.5", "D_N2"], _rows(columns), "figure", config)
        print(os.path.join(out, "fig2.csv"))
        return 0

    deltas = FIG3_DELTAS
    if args.deltas:
        deltas = tuple(_numbers(args.deltas, args.deltas.count(",") + 1, "--deltas"))
    n_th = args.N if args.N is not None else 1.0
    if min(deltas) <= 0 or n_th < 0:
        raise UsageError("fig3 needs positive --deltas and nonnegative --N")
    with np.errstate(all="ignore"):  # values out of range raise below
        fisher = probe_fisher("tmst", grid, n_th)
        var0 = scheme_variance_sum(grid, n_th) / 2.0
    check_in_range(grid, *fisher, var0)  # a finite H keeps var0 > 0
    figures = []
    for delta in deltas:  # every column is checked before any file is written
        with np.errstate(all="ignore"):  # a prior width whose square underflows
            factors = scaling_factors(var0, delta)
            columns = [factors.mse_min, factors.mse_kc, evaluate_bounds(*fisher, delta)[2],
                       np.full_like(grid, 2.0 * factors.k_c)]
        check_in_range(grid, *columns)
        figures.append((delta, [grid] + columns))
    for delta, columns in figures:
        config = {"name": "fig3", "delta": delta, "N": n_th,
                  "r_min": args.r_min, "r_max": args.r_max, "steps": args.steps}
        name = os.path.join(out, f"fig3_{delta:g}.csv")
        _write_csv(name, ["r", "mse_Kmin", "mse_Kc", "B_MI", "B_SQL"],
                   _rows(columns), "figure", config)
        print(name)
    return 0


def _rows(columns) -> list:
    return np.column_stack(columns).tolist()


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
    with np.errstate(all="ignore"):  # values out of range raise below
        if quantity in ("scheme_variance", "duan_lhs"):  # E is the Duan sum at a = 1
            values = scheme_variance_sum(grid, query.N)
        elif quantity == "gap":
            values = gap_D(grid, query.N)
        else:
            H, j_inv = probe_fisher(query.kind, grid, query.N, query.N2)
            b_s, b_r, b_mi, _ = evaluate_bounds(H, j_inv, query.delta)
            values = {"b_sld": b_s, "b_rld": b_r, "b_mi": b_mi}[quantity]
    check_in_range(grid, values)

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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PureStateError, RLDUnavailableError, TruncationError,
            np.linalg.LinAlgError, OverflowError, ValueError) as exc:
        # input is validated before the library runs, so a ValueError from
        # inside it (an unphysical covariance, say) is a numerical fault
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry_point():
    sys.exit(main())
