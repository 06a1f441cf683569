"""The benchmark's workloads: seeded operations and the check of each output.

build(name, seed, out_dir) returns one round: a list of Op whose inputs come
from the seed alone.  A run repeats the same round until its time is up, so
every run executes the same operations in the same order and the share of
failing operations is the same in every run.  Within a workload the
operations are sized to cost about the same, so the median and the tail do
not depend on which kinds of operation a seed happened to draw.

Every output is checked against perfbench.reference, which is computed apart
from dispest, or against a property the method must have.  An op's check
returns None when the output is correct and a message otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import dispest
import dispest.cli
import dispest.fock
import dispest.montecarlo
import dispest.witness

import reference as ref


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


def _num(x: float) -> str:
    return repr(float(x))


def _cli(argv: list[str]) -> Callable[[], str]:
    """An in-process `dispest` call; returns its stdout, raises on exit != 0."""
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = dispest.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"dispest {' '.join(argv)} exited {code}")
        return buf.getvalue()
    return call


def _parse_csv(text: str) -> tuple[dict, list[str], np.ndarray]:
    config, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
        elif line.startswith("#") or not line:
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return config, header or [], np.array(rows, dtype=float)


def _mismatch(label: str, value, expect, rtol=ref.ANALYTIC_RTOL) -> str | None:
    if ref.close(value, expect, rtol):
        return None
    value, expect = np.atleast_1d(value), np.atleast_1d(expect)
    bad = int(np.argmax(np.abs(value - expect) / np.maximum(np.abs(expect), 1e-300)))
    return f"{label}: got {value[bad]!r}, expected {expect[bad]!r}"


def _first_error(*messages) -> str | None:
    return next((m for m in messages if m), None)


def _same_every_round(fingerprint, check):
    """A seeded op's check: every rerun must give the first run's output."""
    first = []

    def wrapped(out):
        value = fingerprint(out)
        if not first:
            first.append(value)
        elif value != first[0]:
            return "rerun with the same (seed, workers) is not bit-identical"
        return check(out)

    return wrapped


# --- grid ---------------------------------------------------------------------

# Points per call, sized so that every grid operation takes ~100 ms at the
# parent commit: a bound point costs ~0.5 ms, a Duan point ~0.3 ms and an
# asym_n2_threshold bisection ~15 ms.
GRID_STEPS = {"single": 260, "tmst": 200, "tmst-asym": 200}
GRID_STEPS_DELTA = {"single": 240, "tmst": 180, "tmst-asym": 180}
DUAN_STEPS = 400
FIG3_STEPS = 160
N2_THRESHOLD_POINTS = 6


def _probe_args(probe: str, N: float, N2: float) -> list[str]:
    if probe == "tmst-asym":
        return ["--N1", _num(N), "--N2", _num(N2)]
    return ["--N", _num(N)]


def _sweep_op(probe, quantity, N, N2, delta, r_min, r_max, steps) -> Op:
    argv = ["sweep", "--quantity", quantity, "--probe", probe,
            *_probe_args(probe, N, N2), "--r-min", _num(r_min),
            "--r-max", _num(r_max), "--steps", str(steps)]
    if delta is not None:
        argv += ["--delta", _num(delta)]
    kind = probe.replace("-", "_")
    column = {"b_sld": 0, "b_rld": 1, "b_mi": 2}.get(quantity)

    def check(text):
        _, header, rows = _parse_csv(text)
        if header != ["r", quantity] or rows.shape != (steps, 2):
            return f"sweep output has header {header} and shape {rows.shape}"
        r = np.linspace(r_min, r_max, steps)
        if quantity == "duan_lhs":
            expect = ref.scheme_sum(r, N)
        else:
            expect = [ref.bounds(kind, x, N, N2 if kind == "tmst_asym" else None,
                                 delta=delta)[column] for x in r]
        return _first_error(_mismatch("r grid", rows[:, 0], r),
                            _mismatch(f"{quantity} {probe}", rows[:, 1], expect))

    return Op(f"sweep_{quantity}" if quantity == "duan_lhs"
              else f"sweep_{probe}{'_delta' if delta else ''}",
              _cli(argv), check)


def _fig3_op(N, delta, r_min, r_max, out_dir) -> Op:
    argv = ["figure", "fig3", "--out", out_dir, "--N", _num(N),
            "--deltas", _num(delta), "--r-min", _num(r_min),
            "--r-max", _num(r_max), "--steps", str(FIG3_STEPS)]

    def call():
        path = _cli(argv)().strip()
        with open(path) as fh:
            return fh.read()

    def check(text):
        _, header, rows = _parse_csv(text)
        if header != ["r", "mse_Kmin", "mse_Kc", "B_MI", "B_SQL"] \
                or rows.shape != (FIG3_STEPS, 5):
            return f"fig3 output has header {header} and shape {rows.shape}"
        r = np.linspace(r_min, r_max, FIG3_STEPS)
        mse_kmin, mse_kc, b_sql = ref.fig3_columns(r, N, delta)
        b_mi = [ref.bounds("tmst", x, N, delta=delta)[2] for x in r]
        return _first_error(_mismatch("r grid", rows[:, 0], r),
                            _mismatch("mse_Kmin", rows[:, 1], mse_kmin),
                            _mismatch("mse_Kc", rows[:, 2], mse_kc),
                            _mismatch("B_MI", rows[:, 3], b_mi),
                            _mismatch("B_SQL", rows[:, 4], b_sql))

    return Op("figure_fig3", call, check)


def _n2_threshold_op(rs) -> Op:
    def call():
        return [dispest.witness.asym_n2_threshold(r) for r in rs]

    def check(values):
        for r, n2 in zip(rs, values):
            expect = ref.asym_threshold(r)
            if not abs(n2 - expect) <= 1e-7 * max(1.0, expect):
                return f"asym_n2_threshold({r}) = {n2!r}, expected {expect!r}"
            # the scheme variance sum crosses 2 at the threshold
            eps = 1e-6 * (1.0 + expect)
            if not ref.scheme_sum(r, 0.0, n2 - eps) < 2.0 < ref.scheme_sum(r, 0.0, n2 + eps):
                return f"variance sum does not cross 2 at N2 = {n2!r} (r = {r})"
        return None

    return Op("asym_n2_threshold", call, check)


def grid(rng: random.Random, out_dir: str) -> list[Op]:
    ops = []
    for probe in ("single", "tmst", "tmst-asym"):
        for with_delta in (False, True):
            for quantity in ("b_sld", "b_rld", "b_mi"):
                steps = (GRID_STEPS_DELTA if with_delta else GRID_STEPS)[probe]
                ops.append(_sweep_op(
                    probe, quantity, rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0),
                    rng.uniform(0.5, 5.0) if with_delta else None,
                    rng.uniform(0.0, 0.5), rng.uniform(2.0, 3.0), steps))
    ops.append(_sweep_op("tmst", "duan_lhs", rng.uniform(0.1, 2.0), None, None,
                         rng.uniform(0.0, 0.5), rng.uniform(2.0, 3.0), DUAN_STEPS))
    ops.append(_fig3_op(rng.uniform(0.1, 2.0), rng.uniform(0.5, 5.0),
                        rng.uniform(0.0, 0.5), rng.uniform(2.0, 3.0), out_dir))
    # one r per stratum of [0.1, 2], as the bisection's length grows with r;
    # r stops at 2: above ~2.35 the bisection's probes (N2 ~ 100) trip the
    # absolute symmetry tolerance of GaussianState at scattered r
    width = 1.9 / N2_THRESHOLD_POINTS
    ops.append(_n2_threshold_op([0.1 + width * (i + rng.random())
                                 for i in range(N2_THRESHOLD_POINTS)]))
    return ops


# --- queries --------------------------------------------------------------------

QUERY_SHOTS = 4000


def _bounds_op(probe, r, N, N2, fmt, delta=None, weight=None, shots=1,
               kind_name=None) -> Op:
    kind = probe.replace("-", "_")
    argv = ["bounds", "--probe", probe, "--format", fmt]
    if kind != "coherent":
        argv += ["--r", _num(r), *_probe_args(probe, N, N2)]
    if delta is not None:
        argv += ["--delta", _num(delta)]
    if weight is not None:
        argv += ["--G", ",".join(_num(x) for x in weight)]
    if shots != 1:
        argv += ["--M", str(shots)]
    G = None if weight is None else np.array([[weight[0], weight[1]],
                                              [weight[1], weight[2]]])
    r_, N_ = (0.0, 0.0) if kind == "coherent" else (r, N)
    N2_ = N2 if kind == "tmst_asym" else None

    def check(text):
        if fmt == "json":
            results = json.loads(text)["results"]
        else:
            _, header, rows = _parse_csv(text)
            if rows.shape != (1, len(header)):
                return f"bounds CSV has {rows.shape} values for {header}"
            results = dict(zip(header, rows[0]))
        b_s, b_r, b_mi = ref.bounds(kind, r_, N_, N2_, delta, G, shots)
        expect = {"b_sld": b_s, "b_rld": b_r, "b_mi": b_mi}
        if kind == "tmst":
            r_ths, r_sql = ref.thresholds(N_)
            expect.update(r_ths=r_ths, r_sql=r_sql,
                          scheme_variance=float(ref.scheme_sum(r_, N_)))
            if delta is None and G is None and shots == 1:
                expect["gap"] = (expect["scheme_variance"] - b_mi) / b_mi
        if set(k for k, v in results.items() if v is not None and k != "branch") \
                != set(expect):
            return f"bounds reports {sorted(results)}, expected {sorted(expect)}"
        if fmt == "json" and results["branch"] != ("RLD" if b_r > b_s else "SLD"):
            return f"branch {results['branch']} with B_S={b_s!r}, B_R={b_r!r}"
        return _first_error(*(_mismatch(f"{probe} {key}", results[key], value)
                              for key, value in expect.items()))

    return Op(kind_name or f"bounds_{kind}_{fmt}", _cli(argv), check)


def _simulate_op(seed, shots, baseline=False, r=None, N=None, N2=None,
                 q0=None, p0=None, delta=None, scaling="none", jitter=None,
                 workers=1) -> Op:
    argv = ["simulate", "--shots", str(shots), "--seed", str(seed)]
    if baseline:
        argv.append("--baseline")
    else:
        argv += ["--r", _num(r), "--N", _num(N)]
        if N2 is not None:
            argv += ["--N2", _num(N2)]
    if delta is None:
        argv += ["--q0", _num(q0), "--p0", _num(p0)]
    else:
        argv += ["--prior-delta", _num(delta), "--scaling", scaling]
    if jitter is not None:
        argv += ["--jitter", ",".join(_num(x) for x in jitter)]
    if workers != 1:
        argv += ["--workers", str(workers)]

    var_q, var_p = ref.estimator_variances(baseline, r, N, N2, jitter)
    k = ref.scaling_k(scaling, 0.5 * (var_q + var_p), delta)
    target, sd = ref.mc_expectation(var_q, var_p, k, q0, p0, delta)
    if baseline:
        bound = ref.COHERENT_B if delta is None else \
            ref.COHERENT_B * delta ** 2 / (1.0 + delta ** 2)
    else:
        bound = ref.bounds("tmst" if N2 is None else "tmst_asym", r, N, N2,
                           delta=delta)[2]
    def check(text):
        results = json.loads(text)["results"]
        err = abs(results["mse_sum"] - target)
        if not err <= ref.MC_Z * sd / math.sqrt(shots):
            return (f"mse_sum {results['mse_sum']!r} is {err / sd * math.sqrt(shots):.1f} "
                    f"standard errors from {target!r}")
        return _first_error(_mismatch("k_used", results["k_used"], k),
                            _mismatch("target_mse_sum", results["target_mse_sum"], target),
                            _mismatch("bound_mi", results["bound_mi"], bound))

    kind = ("simulate_" + ("baseline" if baseline else "scheme")
            + ("_prior" if delta else "") + ("_jitter" if jitter else ""))
    return Op(kind, _cli(argv),
              _same_every_round(lambda text: json.loads(text)["results"], check))


def queries(rng: random.Random, out_dir: str) -> list[Op]:
    def args():
        return rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)

    ops = []
    for probe in ("coherent", "single", "tmst", "tmst-asym"):
        for fmt in ("json", "csv"):
            ops.append(_bounds_op(probe, *args(), fmt))
            ops.append(_bounds_op(probe, *args(), fmt, delta=rng.uniform(0.5, 4.0)))
            g11, g22 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            weight = (g11, rng.uniform(-0.3, 0.3) * math.sqrt(g11 * g22), g22)
            ops.append(_bounds_op(probe, *args(), fmt,
                                  delta=rng.uniform(0.5, 4.0) if fmt == "csv" else None,
                                  weight=weight, shots=rng.randint(2, 1000)))

    def seed():
        return rng.randrange(2 ** 31)

    def r():
        return rng.uniform(0.1, 1.5)

    def n():
        return rng.uniform(0.0, 1.0)

    def theta():
        return rng.uniform(-1.0, 1.0)

    def jitter():
        return (rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1))

    ops += [
        _simulate_op(seed(), QUERY_SHOTS, r=r(), N=n(), q0=theta(), p0=theta()),
        _simulate_op(seed(), QUERY_SHOTS, r=r(), N=n(), N2=n(), q0=theta(),
                     p0=theta(), workers=2),
        _simulate_op(seed(), QUERY_SHOTS, baseline=True, q0=theta(), p0=theta()),
        _simulate_op(seed(), QUERY_SHOTS, r=r(), N=n(),
                     delta=rng.uniform(0.5, 3.0), scaling="optimal"),
        _simulate_op(seed(), QUERY_SHOTS, r=r(), N=n(),
                     delta=rng.uniform(0.5, 3.0), scaling="coherent"),
        _simulate_op(seed(), QUERY_SHOTS, baseline=True,
                     delta=rng.uniform(0.5, 3.0), scaling="optimal"),
        _simulate_op(seed(), QUERY_SHOTS, r=r(), N=n(), q0=theta(), p0=theta(),
                     jitter=jitter()),
        _simulate_op(seed(), QUERY_SHOTS, r=r(), N=n(), delta=rng.uniform(0.5, 3.0),
                     scaling="optimal", jitter=jitter()),
    ]
    # Fault A: `bounds --probe tmst --r 8 --N 1` raises "matrix S is not
    # symplectic" (absolute tolerance on S Omega S^T, whose entries are ~e^8).
    ops.append(_bounds_op("tmst", 8.0, 1.0, None, "json", kind_name="bounds_fault_a"))
    return ops


# --- oracle -------------------------------------------------------------------

# The points sit on a fixed lattice per kind, each moved by a seeded jitter
# of at most ORACLE_JITTER in r and in N.  The oracle's cost is a step
# function of the truncation that (r, N) selects, and it spans 5-250 ms over
# this range, so points drawn anywhere in a box would make the median and the
# tail depend on the seed; on the lattice every seed sees the same spread of
# truncations.  Fault B strikes at scattered single-mode points below N ~ 0.5
# and two-mode points below N ~ 0.2, so the lattice stays above those; fault B
# is exercised by the fixed points below instead.
ORACLE_LATTICE = {
    "single": ((0.15, 0.35, 0.55, 0.75), (0.6, 0.8, 1.0)),
    "tmst": ((0.15, 0.35, 0.55, 0.7), (0.35, 0.55, 0.75)),
    "tmst_asym": ((0.15, 0.35, 0.55, 0.7), (0.35, 0.55, 0.75)),
}
ORACLE_JITTER = 0.002
# Fault B: J drifts past the 1e-8 tolerance between the two truncations.
FAULT_B_POINTS = (("single", 1.0, 0.2, None), ("tmst", 0.6, 0.1, None))


def _oracle_op(kind, r, N, N2, kind_name=None) -> Op:
    def call():
        return dispest.fock.fock_fisher_converged(kind, r, N, N2)

    def check(result):
        H, J = result
        H_ref, j_inv_ref = ref.fisher_from_cov(ref.probe_cov(kind, r, N, N2))
        j_inv = np.linalg.inv(J)
        # criterion 2's gate: largest entry error relative to the largest entry
        for label, got, want in (("H", H, H_ref), ("J^-1", j_inv, j_inv_ref)):
            err = np.abs(got - want).max() / np.abs(want).max()
            if not err <= ref.ORACLE_RTOL:
                return f"oracle {label} off by {err:.2e} (relative)"
        if kind == "tmst_asym":
            return None
        b_s = np.trace(np.linalg.inv(H)).real
        b_r = np.trace(j_inv.real).real + 2.0 * abs(j_inv[0, 1].imag)
        b_s_ref, b_r_ref = (ref.single_flat if kind == "single" else ref.tmst_flat)(r, N)
        return _first_error(_mismatch("B_S", b_s, b_s_ref, ref.ORACLE_RTOL),
                            _mismatch("B_R", b_r, b_r_ref, ref.ORACLE_RTOL))

    return Op(kind_name or f"oracle_{kind}", call, check)


def oracle(rng: random.Random, out_dir: str) -> list[Op]:
    def jitter():
        return ORACLE_JITTER * (2.0 * rng.random() - 1.0)

    ops = []
    for kind, (rs, ns) in ORACLE_LATTICE.items():
        for r in rs:
            for j, N in enumerate(ns):
                # the asymmetric probe pairs each N with the next lattice value
                N2 = ns[(j + 1) % len(ns)] + jitter() if kind == "tmst_asym" else None
                ops.append(_oracle_op(kind, r + jitter(), N + jitter(), N2))
    for kind, r, N, N2 in FAULT_B_POINTS:
        ops.append(_oracle_op(kind, r, N, N2, kind_name=f"oracle_fault_b_{kind}"))
    return ops


# --- montecarlo -----------------------------------------------------------------

# Shots per call, sized so that every operation takes ~0.15 s at the parent
# commit (~12 Mshot/s for two draws per shot).
MC_SHOTS = {"fixed": 1_600_000, "prior_jitter": 800_000, "baseline": 1_600_000,
            "kmin": 300_000}
KMIN_GRID = 41


def _mc_result_check(cfg: dict, baseline: bool):
    var_q, var_p = ref.estimator_variances(baseline, cfg.get("r"), cfg.get("N"),
                                           cfg.get("N2"), cfg.get("jitter"))
    k = ref.scaling_k(cfg.get("scaling", "none"), 0.5 * (var_q + var_p),
                      cfg.get("prior_delta"))
    target, sd = ref.mc_expectation(var_q, var_p, k, cfg.get("q0"), cfg.get("p0"),
                                    cfg.get("prior_delta"))
    se = sd / math.sqrt(cfg["shots"])

    def check(result):
        if not abs(result.mse_sum - target) <= ref.MC_Z * se:
            return (f"mse_sum {result.mse_sum!r} is "
                    f"{abs(result.mse_sum - target) / se:.1f} standard errors "
                    f"from {target!r}")
        return _first_error(_mismatch("k_used", result.k_used, k),
                            _mismatch("target_mse_sum", result.target_mse_sum, target))

    return check


def _run_op(kind, runner_name, cfg, baseline=False) -> Op:
    def call():
        runner = getattr(dispest.montecarlo, runner_name)
        return runner(dispest.montecarlo.EstimationConfig(**cfg))

    def fingerprint(result):
        return result.mse_sum, result.se_mse_sum, result.mean_q, result.mean_p

    return Op(kind, call, _same_every_round(fingerprint, _mc_result_check(cfg, baseline)))


def _kmin_op(seed, r, N, delta) -> Op:
    shots = MC_SHOTS["kmin"]
    var0 = float(ref.scheme_sum(r, N)) / 2.0
    d2 = delta * delta
    centre = d2 / (d2 + var0)
    k_grid = np.linspace(max(0.05, centre - 0.2), min(1.0, centre + 0.2), KMIN_GRID)
    k_min, half_width = ref.kmin_gate(r, N, delta, shots, k_grid)

    def call():
        return dispest.montecarlo.empirical_K_min(r, N, delta, shots, k_grid, seed=seed)

    def check(scan):
        if not abs(scan.k_star - k_min) <= half_width:
            return f"empirical K_min {scan.k_star!r}, analytic {k_min!r}"
        for k, mse in zip(k_grid, scan.mse):
            mean, sd = ref.mc_expectation(var0, var0, k, delta=delta)
            if not abs(mse - mean) <= ref.MC_Z * sd / math.sqrt(shots):
                return f"MSE at K={k!r} is {mse!r}, expected {mean!r}"
        return None

    return Op("empirical_K_min", call,
              _same_every_round(lambda scan: (tuple(scan.mse), scan.k_star), check))


def montecarlo(rng: random.Random, out_dir: str) -> list[Op]:
    ops = []
    for _ in range(2):
        fixed = dict(seed=rng.randrange(2 ** 31), r=rng.uniform(0.2, 1.5),
                     N=rng.uniform(0.0, 1.0), q0=rng.uniform(-1, 1),
                     p0=rng.uniform(-1, 1), shots=MC_SHOTS["fixed"])
        ops.append(_run_op("run_scheme_w1", "run_scheme", fixed))
        ops.append(_run_op("run_scheme_w2", "run_scheme", {**fixed, "workers": 2}))
        ops.append(_run_op("run_scheme_prior_jitter", "run_scheme", dict(
            seed=rng.randrange(2 ** 31), r=rng.uniform(0.2, 1.5),
            N=rng.uniform(0.0, 1.0), prior_delta=rng.uniform(0.5, 3.0),
            scaling="optimal", jitter=(rng.uniform(0, 0.1), rng.uniform(0, 0.1)),
            shots=MC_SHOTS["prior_jitter"])))
        ops.append(_run_op("run_baseline_heterodyne", "run_baseline_heterodyne", dict(
            seed=rng.randrange(2 ** 31), q0=rng.uniform(-1, 1), p0=rng.uniform(-1, 1),
            shots=MC_SHOTS["baseline"]), baseline=True))
        ops.append(_kmin_op(rng.randrange(2 ** 31), rng.uniform(0.2, 1.5),
                            rng.uniform(0.0, 1.0), rng.uniform(0.5, 3.0)))
    return ops


WORKLOADS = {"grid": grid, "queries": queries, "oracle": oracle,
             "montecarlo": montecarlo}


def build(name: str, seed: int, out_dir: str) -> list[Op]:
    """One round of the workload's operations, generated from the seed."""
    os.makedirs(out_dir, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), out_dir)
