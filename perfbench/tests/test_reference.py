"""Tests of the benchmark's reference checks.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
The reference values are derived apart from dispest; these tests show that
they agree with the program where it is known to be right, that the closed
forms and the covariance route agree with each other, and that each check
rejects a wrong output.
"""

import json
import math
import random

import numpy as np
import pytest

import dispest
import reference as ref
import workloads


@pytest.mark.parametrize("r", [0.0, 0.4, 1.3, 3.0])
@pytest.mark.parametrize("N", [0.1, 0.7, 2.0])
def test_closed_forms_match_covariance_route(r, N):
    for kind, closed in (("tmst", ref.tmst_flat), ("single", ref.single_flat)):
        b_s, b_r, b_mi = ref.bounds_from_cov(ref.probe_cov(kind, r, N))
        assert ref.close([b_s, b_r], closed(r, N), 1e-9)
        assert b_mi == max(b_s, b_r)
    assert ref.bounds_from_cov(ref.probe_cov("coherent"))[2] == pytest.approx(ref.COHERENT_B)


def test_duan_lhs_equals_scheme_sum():
    for r, N in ((0.0, 0.0), (0.5, 0.3), (2.5, 1.7)):
        lhs = dispest.duan_check(dispest.make_tmst(r, N), 1.0).lhs
        assert ref.close(lhs, ref.scheme_sum(r, N))
        assert ref.close(dispest.scheme_variance_sum(r, N), ref.scheme_sum(r, N))


def test_reference_bounds_agree_with_program():
    rng = random.Random(5)
    for _ in range(40):
        kind = rng.choice(["coherent", "single", "tmst", "tmst_asym"])
        r, N, N2 = rng.uniform(0, 3), rng.uniform(0.1, 2), rng.uniform(0.1, 2)
        if kind == "coherent":
            r = N = 0.0
        delta = rng.choice([None, rng.uniform(0.5, 5)])
        weight = rng.choice([None, np.array([[1.5, 0.2], [0.2, 0.7]])])
        shots = rng.choice([1, 17])
        report = dispest.bound_most_informative(dispest.BoundQuery(
            kind=kind, r=r, N=N, N2=N2 if kind == "tmst_asym" else None,
            delta=delta, weight=weight, shots=shots))
        expect = ref.bounds(kind, r, N, N2 if kind == "tmst_asym" else None,
                            delta, weight, shots)
        assert ref.close([report.b_sld, report.b_rld, report.b_mi], expect)
        assert expect[2] == max(expect[:2])


def test_fig3_columns_and_thresholds():
    r = np.linspace(0, 3, 7)
    mse_kmin, mse_kc, b_sql = ref.fig3_columns(r, 1.0, 2.0)
    for i, x in enumerate(r):
        f = dispest.scaling_factors(dispest.scheme_variance_sum(x, 1.0) / 2, 2.0)
        assert ref.close([f.mse_min, f.mse_kc], [mse_kmin[i], mse_kc[i]])
    assert b_sql[0] == pytest.approx(8.0 / 5.0)
    assert ref.close(dispest.thresholds(0.8), ref.thresholds(0.8))


def test_asym_threshold_is_where_the_sum_crosses_two():
    for r in (0.2, 1.0, 2.0):
        n2 = ref.asym_threshold(r)
        assert ref.scheme_sum(r, 0.0, n2) == pytest.approx(2.0)
        assert abs(dispest.asym_n2_threshold(r) - n2) < 1e-7 * max(1, n2)


def test_monte_carlo_target_and_gate():
    cfg = dispest.EstimationConfig(shots=200_000, seed=3, r=0.7, N=0.4, N2=0.9,
                                   prior_delta=1.5, scaling="optimal",
                                   jitter=(0.05, 0.02))
    res = dispest.run_scheme(cfg)
    var_q, var_p = ref.estimator_variances(False, 0.7, 0.4, 0.9, (0.05, 0.02))
    k = ref.scaling_k("optimal", 0.5 * (var_q + var_p), 1.5)
    target, sd = ref.mc_expectation(var_q, var_p, k, delta=1.5)
    assert ref.close([res.k_used, res.target_mse_sum], [k, target], 1e-12)
    assert abs(res.mse_sum - target) <= ref.MC_Z * sd / math.sqrt(cfg.shots)
    # the analytic standard error agrees with the program's empirical one
    assert sd / math.sqrt(cfg.shots) == pytest.approx(res.se_mse_sum, rel=0.05)


def test_kmin_gate_holds_and_is_narrow():
    k_grid = np.linspace(0.5, 1.0, 51)
    scan = dispest.empirical_K_min(0.6, 0.3, 1.2, 200_000, k_grid, seed=9)
    k_min, half_width = ref.kmin_gate(0.6, 0.3, 1.2, 200_000, k_grid)
    assert abs(scan.k_star - k_min) <= half_width
    assert half_width < 0.05


def _first(tmp_path, workload, kind, seed=4):
    return next(op for op in workloads.build(workload, seed, str(tmp_path))
                if op.kind == kind)


def test_bounds_check_rejects_wrong_value(tmp_path):
    op = _first(tmp_path, "queries", "bounds_tmst_json")
    text = op.call()
    assert op.check(text) is None
    rec = json.loads(text)
    rec["results"]["b_rld"] *= 1 + 1e-6
    assert "b_rld" in op.check(json.dumps(rec))


def test_sweep_check_rejects_wrong_row(tmp_path):
    op = _first(tmp_path, "grid", "sweep_tmst-asym_delta")
    text = op.call()
    assert op.check(text) is None
    lines = text.splitlines()
    r, value = lines[-1].split(",")
    lines[-1] = f"{r},{float(value) * (1 + 1e-6)!r}"
    assert op.check("\n".join(lines)) is not None


def test_oracle_check_rejects_drifted_matrix(tmp_path):
    op = _first(tmp_path, "oracle", "oracle_tmst")
    H, J = op.call()
    assert op.check((H, J)) is None
    assert op.check((H * (1 + 1e-5), J)) is not None


def test_monte_carlo_rerun_must_be_bit_identical(tmp_path):
    op = _first(tmp_path, "queries", "simulate_baseline")
    text = op.call()
    assert op.check(text) is None
    assert op.check(op.call()) is None
    rec = json.loads(text)
    rec["results"]["mse_sum"] = np.nextafter(rec["results"]["mse_sum"], 0.0)
    assert "bit-identical" in op.check(json.dumps(rec))


def test_rounds_depend_on_the_seed_only(tmp_path):
    for name in workloads.WORKLOADS:
        a = [op.kind for op in workloads.build(name, 1, str(tmp_path))]
        b = [op.kind for op in workloads.build(name, 2, str(tmp_path))]
        assert a == b, "every seed draws the same mix of operations"
    # the kept faults use fixed inputs, so every seed fails the same share
    for name, kind in (("queries", "bounds_fault_a"), ("oracle", "oracle_fault_b_single"),
                       ("oracle", "oracle_fault_b_tmst")):
        ops = workloads.build(name, 3, str(tmp_path))
        assert [op.kind for op in ops].count(kind) == 1


def test_declared_layer_metrics_are_the_reported_ones():
    import os

    import tracing
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert declared == {**tracing.UNITS, "setup.import_s": "s"}
