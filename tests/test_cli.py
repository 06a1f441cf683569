import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dispest
from dispest import cli, scheme_variance_sum
from dispest.fock import PureStateError
from dispest.montecarlo import EstimationConfig, run_scheme


def run_cli(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_record(out):
    return json.loads(out)


def read_csv(path):
    config = None
    rows = []
    header = None
    for line in open(path).read().splitlines():
        if line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return config, header, np.array(rows)


def test_bounds_coherent_sql(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--probe", "coherent"])
    assert code == 0
    rec = load_record(out)
    assert rec["results"]["b_mi"] == 2.0
    assert rec["results"]["branch"] == "RLD"
    assert rec["config"]["probe"] == "coherent"


def test_bounds_tmst_json(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--probe", "tmst",
                                    "--r", "0.3", "--N", "1"])
    rec = load_record(out)
    assert code == 0
    assert rec["results"]["branch"] == "RLD"
    assert abs(rec["results"]["b_mi"] - 8 / (3 * np.cosh(0.6) - 1)) < 1e-12
    assert abs(rec["results"]["r_sql"] - 0.25 * np.log(9)) < 1e-12


def test_bounds_prior_pair(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--probe", "tmst", "--r", "1",
                                    "--N", "0.5", "--delta", "2"])
    rec = load_record(out)
    d2 = 4.0
    b_s = 2 * 2 * d2 / (2 + 2 * d2 * np.cosh(2))
    b_r = 4 * 0.75 * d2 / (2 * 0.75 + d2 * (2 * np.cosh(2) - 1))
    assert abs(rec["results"]["b_sld"] - b_s) < 1e-12
    assert abs(rec["results"]["b_rld"] - b_r) < 1e-12


def test_bounds_weight_matrix(capsys):
    _, base, _ = run_cli(capsys, ["bounds", "--probe", "tmst",
                                  "--r", "0.5", "--N", "1"])
    _, doubled, _ = run_cli(capsys, ["bounds", "--probe", "tmst", "--r", "0.5",
                                     "--N", "1", "--G", "2,0,2"])
    b, d = load_record(base)["results"], load_record(doubled)["results"]
    assert np.isclose(d["b_sld"], 2 * b["b_sld"])
    assert np.isclose(d["b_rld"], 2 * b["b_rld"])


def test_bounds_csv_format(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--probe", "single", "--r", "0.2",
                                    "--N", "0.4", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# tool: dispest")
    header = lines[3].split(",")
    values = dict(zip(header, (float(x) for x in lines[4].split(","))))
    assert np.isclose(values["b_mi"], (2 * 0.4 + 1) * np.cosh(0.4) + 1)


@pytest.mark.parametrize("args", [
    ["bounds", "--probe", "tmst-asym", "--r", "0.5"],
    ["bounds", "--probe", "tmst", "--N1", "0.5", "--r", "0.1"],
    ["bounds", "--probe", "coherent", "--r", "0.5"],
    ["bounds", "--probe", "tmst", "--r", "-1", "--N", "1"],
    ["simulate", "--r", "1", "--N", "0", "--shots", "1000",
     "--q0", "1", "--p0", "0", "--prior-delta", "2"],
    ["simulate", "--shots", "1000", "--q0", "0", "--p0", "0"],
    ["simulate", "--baseline", "--r", "1", "--shots", "1000",
     "--q0", "0", "--p0", "0"],
    # the baseline's coherent probe takes no N2
    ["simulate", "--baseline", "--N2", "0.5", "--q0", "0", "--p0", "0",
     "--shots", "1000"],
    ["simulate", "--r", "1", "--N", "0", "--shots", "1000", "--q0", "0",
     "--p0", "0", "--scaling", "bogus"],
    ["simulate", "--r", "1", "--N", "0", "--shots", "100", "--q0", "0",
     "--p0", "0", "--workers", "101"],
    ["sweep", "--quantity", "gap", "--probe", "single"],
    ["figure", "fig2", "--steps", "1"],
    ["nonsense"],
    ["simulate", "--r", "0.5", "--N", "0.2", "--shots", "1000", "--q0", "0",
     "--p0", "0", "--seed", "-1"],
    ["sweep", "--quantity", "gap", "--delta", "2", "--steps", "5"],
    ["sweep", "--quantity", "scheme_variance", "--delta", "2", "--steps", "5"],
    ["sweep", "--quantity", "duan_lhs", "--delta", "2", "--steps", "5"],
    ["bounds", "--probe", "tmst", "--r", "0.5", "--N", "1", "--M", "9" * 401],
])
def test_usage_errors_exit_2(capsys, args):
    code, _, err = run_cli(capsys, args)
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("args", [
    ["bounds", "--probe", "tmst", "--r", "{}", "--N", "1"],
    ["bounds", "--probe", "tmst", "--r", "1", "--N", "{}"],
    ["bounds", "--probe", "tmst-asym", "--r", "1", "--N1", "0", "--N2", "{}"],
    ["bounds", "--probe", "tmst", "--r", "1", "--N", "1", "--delta", "{}"],
    ["bounds", "--probe", "single", "--r", "1", "--N", "1", "--G", "1,0,{}"],
    ["simulate", "--r", "{}", "--N", "1", "--shots", "1000", "--q0", "0", "--p0", "0"],
    ["simulate", "--r", "1", "--N", "{}", "--shots", "1000", "--q0", "0", "--p0", "0"],
    ["simulate", "--r", "1", "--N", "1", "--shots", "1000", "--q0", "{}", "--p0", "0"],
    ["simulate", "--r", "1", "--N", "1", "--shots", "1000", "--prior-delta", "{}"],
    ["simulate", "--baseline", "--shots", "1000", "--q0", "0", "--p0", "0",
     "--jitter", "{},0"],
    ["sweep", "--quantity", "b_mi", "--N", "{}", "--steps", "5"],
    ["sweep", "--quantity", "b_mi", "--r-min", "{}", "--steps", "5"],
    ["sweep", "--quantity", "gap", "--r-max", "{}", "--steps", "5"],
    ["sweep", "--quantity", "duan_lhs", "--N", "{}", "--steps", "5"],
    ["sweep", "--quantity", "b_rld", "--probe", "tmst-asym", "--N1", "1",
     "--N2", "{}", "--steps", "5"],
    ["sweep", "--quantity", "b_sld", "--delta", "{}", "--steps", "5"],
])
def test_bad_numbers_exit_cleanly(capsys, args, bad):
    code, _, err = run_cli(capsys, [a.format(bad) for a in args])
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    # a negative true displacement is the only valid value here
    if bad == "-1" and "--q0 {}" in " ".join(args):
        assert code == 0
    else:
        assert code == 2 and err.startswith("error:")


def test_sweep_coherent_is_the_sql_line(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "--quantity", "b_mi", "--probe",
                                    "coherent", "--steps", "5"])
    assert code == 0
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in out.splitlines()[4:]])
    assert rows.shape == (5, 2) and np.all(rows[:, 1] == 2.0)
    code, out, _ = run_cli(capsys, ["sweep", "--quantity", "b_sld", "--probe",
                                    "coherent", "--delta", "2", "--steps", "5"])
    assert code == 0
    assert all(float(line.split(",")[1]) == pytest.approx(2 / (2 + 0.25))
               for line in out.splitlines()[4:])


def test_numerical_failures_exit_3(capsys, monkeypatch):
    def boom(query):
        raise PureStateError("RLD undefined for pure states")
    monkeypatch.setattr(cli, "bound_most_informative", boom)
    code, _, err = run_cli(capsys, ["bounds", "--probe", "coherent"])
    assert code == 3
    assert "numerical failure" in err


def test_library_value_errors_exit_3(capsys, monkeypatch):
    """Input is validated before the library runs; a ValueError raised inside
    it is a numerical fault, not a usage error."""
    def unphysical(query):
        raise ValueError("covariance matrix violates the uncertainty principle")
    monkeypatch.setattr(cli, "bound_most_informative", unphysical)
    code, _, err = run_cli(capsys, ["bounds", "--probe", "tmst", "--r", "1"])
    assert code == 3
    assert err.startswith("numerical failure")


@pytest.mark.parametrize("args", [["--probe", "tmst", "--r", "200", "--N", "0.5"],
                                  ["--probe", "tmst", "--r", "360", "--N", "0.5"],
                                  ["--probe", "single", "--r", "400", "--N", "0.5"]],
                         ids=["tmst-200", "tmst-360", "single-400"])
def test_bounds_at_the_edge_of_the_float_range(capsys, args):
    """B_R stays exact while sinh^4 r overflows (r = 200); once H overflows,
    bounds exits 3 with one line and no floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["bounds", *args])
    if args[3] != "200":
        assert code == 3 and out == ""
        assert err.startswith("numerical failure") and err.count("\n") == 1
        return
    assert code == 0
    with mpmath.workdps(30):  # 4N(N + 1)/((2N + 1) cosh 2r - 1)
        b_r = float(mpmath.mpf(3) / (2 * mpmath.cosh(400) - 1))
    assert load_record(out)["results"]["b_rld"] == pytest.approx(b_r, rel=1e-14)


@pytest.mark.parametrize("args", [
    ["sweep", "--quantity", "b_mi", "--probe", "single", "--N", "0.5"],
    ["sweep", "--quantity", "gap", "--N", "0.5"],
    ["figure", "fig2"],
    ["figure", "fig3"],
], ids=["sweep-b_mi", "sweep-gap", "fig2", "fig3"])
def test_curves_past_the_float_range_exit_3(capsys, tmp_path, args):
    """A grid that leaves the floating-point range exits 3 with one line, no
    warning and no output, as bounds does."""
    out = str(tmp_path / ("figures" if args[0] == "figure" else "sweep.csv"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(capsys, [*args, "--r-min", "300", "--r-max", "400",
                                             "--steps", "3", "--out", out])
    assert code == 3 and stdout == ""
    assert err == ("numerical failure: values at r in [300, 400] are outside "
                   "the floating-point range\n")
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("N, r_min, r_max, steps", [(1.0, 0.0, 12.0, 25),
                                                     (1.0, 8.0, 12.0, 5),
                                                     (0.5, 300.0, 400.0, 3)],
                         ids=["r0-12", "r8-12", "r300-400"])
def test_duan_sweep_is_the_scheme_variance(capsys, N, r_min, r_max, steps):
    """At a = 1 the Duan sum of the two-mode squeezed thermal probe is the
    double-homodyne sum E = 2(2N + 1)e^{-2r}: the two sweeps print the same
    rows, exact at every r (no cancellation at large r), and exit 0 where E
    underflows (r = 400) as well."""
    grid = ["--N", str(N), "--r-min", str(r_min), "--r-max", str(r_max),
            "--steps", str(steps)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, duan, _ = run_cli(capsys, ["sweep", "--quantity", "duan_lhs", *grid])
        assert code == 0
        code, scheme, _ = run_cli(capsys, ["sweep", "--quantity", "scheme_variance",
                                           *grid])
        assert code == 0
    rows = duan.splitlines()[4:]
    assert rows == scheme.splitlines()[4:] and len(rows) == steps
    values = np.array([[float(x) for x in line.split(",")] for line in rows])
    with mpmath.workdps(30):
        exact = [float(2 * (2 * N + 1) * mpmath.exp(-2 * mpmath.mpf(r)))
                 for r in values[:, 0]]
    assert values[:, 1] == pytest.approx(exact, rel=1e-14, abs=0.0)
    if r_max < 300:
        assert np.all(values[:, 1] > 0)


def test_sweep_near_the_edge_of_the_float_range(capsys):
    """det H overflows above r ~ 177 while H itself stays finite up to
    r ~ 355: B_S = 2/cosh 2r (N = 0.5) stays exact and warning-free there."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, ["sweep", "--quantity", "b_mi", "--N", "0.5",
                                        "--r-min", "190", "--r-max", "350",
                                        "--steps", "3"])
    assert code == 0
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in out.splitlines()[4:]])
    with mpmath.workdps(30):
        b_s = [float(2 / mpmath.cosh(2 * mpmath.mpf(r))) for r in rows[:, 0]]
    assert rows[:, 1] == pytest.approx(b_s, rel=1e-14)


def test_csv_numbers_are_the_17_digit_text(tmp_path):
    values = [0.1, 1 / 3, -0.0, 5e-324, 2 ** 53 + 1, 1e16, 7, np.float64(0.1)]
    path = tmp_path / "numbers.csv"
    cli._write_csv(str(path), [f"c{i}" for i in range(len(values))],
                   [values, values[::-1]], "test", {})
    assert path.read_text().splitlines()[4:] == [
        ",".join(format(float(x), ".17g") for x in row) for row in (values, values[::-1])]


def test_fig3_bad_deltas_exit_2(capsys, tmp_path):
    for deltas in ("1,-2", "1,nan", "1,,2"):
        code, _, err = run_cli(capsys, ["figure", "fig3", "--out", str(tmp_path),
                                        "--deltas", deltas, "--steps", "5"])
        assert code == 2 and err.startswith("error:")


def test_asym_product_state_at_zero_squeezing(capsys):
    """thermal(1) x vacuum: J^-1 = nu_1 I + (i/2) Omega, so B_R = 2N1 + 2."""
    code, out, _ = run_cli(capsys, ["bounds", "--probe", "tmst-asym", "--r", "0",
                                    "--N1", "1", "--N2", "0"])
    assert code == 0
    res = load_record(out)["results"]
    assert (res["b_rld"], res["b_mi"], res["branch"]) == (4.0, 4.0, "RLD")
    assert res["b_sld"] == 3.0
    code, out, _ = run_cli(capsys, ["sweep", "--quantity", "b_mi", "--probe",
                                    "tmst-asym", "--N1", "1", "--N2", "0",
                                    "--steps", "5"])
    assert code == 0
    assert out.splitlines()[4] == "0,4"


def test_simulate_json_and_reproducibility(capsys):
    args = ["simulate", "--r", "1", "--N", "0.5", "--shots", "100000",
            "--seed", "7", "--q0", "0.7", "--p0", "-0.3"]
    code, out, _ = run_cli(capsys, args)
    rec = load_record(out)
    assert code == 0
    assert abs(rec["results"]["z_vs_target"]) < 4
    assert abs(rec["results"]["target_mse_sum"] - 4 * np.exp(-2)) < 1e-12

    # reconstruct the command from the embedded config and rerun
    cfg = rec["config"]
    args2 = ["simulate", "--r", str(cfg["r"]), "--N", str(cfg["N"]),
             "--shots", str(cfg["shots"]), "--seed", str(cfg["seed"]),
             "--q0", str(cfg["q0"]), "--p0", str(cfg["p0"]),
             "--scaling", cfg["scaling"], "--workers", str(cfg["workers"])]
    code, out2, _ = run_cli(capsys, args2)
    rec2 = load_record(out2)
    assert rec2["results"]["mse_sum"] == rec["results"]["mse_sum"]
    assert rec2["results"]["mean_q"] == rec["results"]["mean_q"]


def test_simulate_results_independent_of_workers(capsys):
    """--workers caps the threads only: the printed results are equal, and
    the config records the thread count used."""
    args = ["simulate", "--r", "0.6", "--N", "0.3", "--shots", "200000", "--seed", "5",
            "--prior-delta", "1.5", "--scaling", "optimal"]
    records = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(capsys, [*args, "--workers", workers])
        assert code == 0
        records.append(load_record(out))
        assert records[-1]["config"]["workers"] == int(workers)
    assert records[0]["results"] == records[1]["results"]
    code, out, _ = run_cli(capsys, args)
    assert code == 0 and load_record(out)["results"] == records[0]["results"]
    assert type(load_record(out)["config"]["workers"]) is int


@pytest.mark.parametrize("args", [
    ["--r", "1", "--N", "0", "--q0", "1e200", "--p0", "0", "--scaling", "K=0.5"],
    ["--baseline", "--prior-delta", "1e200", "--scaling", "K=0.5"],
], ids=["q0-1e200", "baseline-delta-1e200"])
def test_simulate_target_past_the_float_range_exits_3(capsys, args):
    """One stderr line and exit 3, no traceback: at K = 1/2 the squared bias
    ((1 - K) theta)^2 of theta = 1e200 overflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["simulate", "--shots", "1000", *args])
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert err == ("numerical failure: the target MSE is outside the "
                   "floating-point range\n")


@pytest.mark.parametrize("args", [
    ["--r", "1", "--N", "0", "--q0", "1e200", "--p0", "0"],
    ["--baseline", "--prior-delta", "1e300", "--scaling", "coherent"],
    ["--r", "1", "--N", "0", "--prior-delta", "1e150", "--scaling", "optimal"],
] + [["--r", "1", "--N", "0.5", "--prior-delta", delta, "--scaling", scaling]
     for delta in ("1e100", "1e200", "1e300") for scaling in ("coherent", "optimal")],
    ids=["q0-1e200", "baseline-delta-1e300", "delta-1e150"]
    + [f"delta-{d}-{s}" for d in ("1e100", "1e200", "1e300")
       for s in ("coherent", "optimal")])
def test_simulate_wide_targets_are_finite(capsys, args):
    """At K = 1 the bias term of the target is zero however large the truth or
    the prior width, and K_c, K_min round to 1 for wide priors: exit 0 with
    finite results, no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["simulate", "--shots", "1000", *args])
    assert code == 0 and err == ""
    res = load_record(out)["results"]
    assert res["k_used"] == 1.0
    assert all(np.isfinite(v) for v in res.values() if v is not None)
    var_sum = 2.0 if "--baseline" in args else (
        2 * (2 * float(args[3]) + 1) * np.exp(-2.0))
    assert res["target_mse_sum"] == pytest.approx(var_sum, rel=1e-15)


@pytest.mark.parametrize("args", [
    ["bounds", "--probe", "tmst", "--r", "1", "--N", "0.5", "--delta", "1e-200"],
    ["sweep", "--quantity", "b_mi", "--N", "0.5", "--delta", "1e-200", "--steps", "3"],
    ["figure", "fig3", "--deltas", "1,1e-200", "--steps", "3"],
    ["simulate", "--r", "1", "--N", "0.5", "--prior-delta", "1e-200", "--scaling",
     "coherent", "--shots", "1000"],
], ids=["bounds", "sweep", "fig3", "simulate"])
def test_narrow_priors_exit_3(capsys, tmp_path, args):
    """A prior width whose square underflows (delta <~ 1e-154) has an infinite
    prior Fisher weight: exit 3 with one line and no warning, and fig3 writes
    no file for any of its widths."""
    if args[0] == "figure":
        args = [*args, "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, args)
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert not list(tmp_path.rglob("*.csv"))


def test_fig3_where_the_scheme_form_overflows_inside(capsys, tmp_path):
    """At N = 1e77 and r = 355 the entries a, b of the standard form overflow
    while E and the Fisher matrices stay finite: exit 0 and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["figure", "fig3", "--r-max", "355",
                                          "--N", "1e77", "--deltas", "1",
                                          "--out", str(tmp_path)])
    assert code == 0 and err == ""
    assert len(read_csv(out.strip())[2]) == 200


def test_fig3_wide_prior_is_the_flat_limit(capsys, tmp_path):
    """At delta = 1e200 the scalings are 1: B_SQL = 2 and both averaged
    errors are 2 Var0 = E, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, ["figure", "fig3", "--deltas", "1e200",
                                        "--steps", "5", "--out", str(tmp_path)])
    assert code == 0
    rows = np.loadtxt(out.strip(), delimiter=",", comments="#", skiprows=4)
    assert np.all(rows[:, 4] == 2.0)
    var0 = scheme_variance_sum(rows[:, 0], 1.0) / 2.0
    assert np.array_equal(rows[:, 1], 2.0 * var0)
    assert np.array_equal(rows[:, 2], 2.0 * var0)


@pytest.mark.parametrize("r", [8.0, 15.0])
def test_simulate_large_squeezing(capsys, r):
    code, out, _ = run_cli(capsys, ["simulate", "--r", str(r), "--N", "1",
                                    "--shots", "20000", "--seed", "3",
                                    "--q0", "0.5", "--p0", "-0.5"])
    assert code == 0
    res = load_record(out)["results"]
    assert res["target_mse_sum"] == pytest.approx(6 * np.exp(-2 * r), rel=1e-13)
    assert res["bound_mi"] == pytest.approx(3 / np.cosh(2 * r), rel=1e-13)
    assert abs(res["z_vs_target"]) < 4


def test_simulate_baseline_prior(capsys):
    code, out, _ = run_cli(capsys, ["simulate", "--baseline", "--shots",
                                    "100000", "--seed", "5", "--prior-delta",
                                    "1", "--scaling", "coherent"])
    rec = load_record(out)
    assert code == 0
    assert rec["results"]["k_used"] == 0.5
    assert abs(rec["results"]["mse_sum"] - 1.0) < 4 * rec["results"]["se_mse_sum"]
    assert rec["results"]["bound_mi"] == 1.0


def test_simulate_dump_shots(capsys, tmp_path):
    path = tmp_path / "shots.csv"
    code, out, _ = run_cli(capsys, ["simulate", "--r", "0.5", "--N", "0.2",
                                    "--shots", "500", "--seed", "2",
                                    "--q0", "0.1", "--p0", "0.2",
                                    "--dump-shots", str(path)])
    assert code == 0
    config, header, rows = read_csv(path)
    assert header[:3] == ["shot", "q0", "p0"]
    assert rows.shape == (500, 7)
    rec = load_record(out)
    mse = np.mean((rows[:, 5] - rows[:, 1]) ** 2 + (rows[:, 6] - rows[:, 2]) ** 2)
    assert np.isclose(mse, rec["results"]["mse_sum"])
    # every number is the 17-digit text of the int shot index or float64 value
    per_shot = run_scheme(EstimationConfig(shots=500, seed=2, r=0.5, N=0.2, q0=0.1,
                                           p0=0.2), record_shots=True).per_shot
    columns = [per_shot[k] for k in ("q0", "p0", "outcome_q", "outcome_p",
                                     "estimate_q", "estimate_p")]
    assert path.read_text().splitlines()[4:] == [
        ",".join(format(float(x), ".17g") for x in row)
        for row in zip(range(500), *columns)]

    # several chunks on two threads: every dumped chunk is its own
    code, out, _ = run_cli(capsys, ["simulate", "--r", "0.5", "--N", "0.2",
                                    "--shots", "150000", "--seed", "2",
                                    "--workers", "2", "--prior-delta", "1.0",
                                    "--dump-shots", str(path)])
    assert code == 0
    _, _, rows = read_csv(path)
    assert rows.shape == (150_000, 7)
    assert np.unique(rows[:, 3]).size == 150_000
    assert np.unique(rows[:, 1]).size == 150_000
    mse = np.mean((rows[:, 5] - rows[:, 1]) ** 2 + (rows[:, 6] - rows[:, 2]) ** 2)
    assert np.isclose(mse, load_record(out)["results"]["mse_sum"])


def test_figure_fig2_roundtrip(capsys, tmp_path):
    code, _, _ = run_cli(capsys, ["figure", "fig2", "--out", str(tmp_path),
                                  "--steps", "60"])
    assert code == 0
    config, header, rows = read_csv(tmp_path / "fig2.csv")
    assert header == ["r", "D_N0", "D_N0.5", "D_N2"]
    assert rows.shape == (60, 4)
    # D(r, 0) column is e^{-4r}
    assert np.allclose(rows[:, 1], np.exp(-4 * rows[:, 0]), atol=1e-12)

    # rerun from the embedded config and compare bytes
    original = (tmp_path / "fig2.csv").read_bytes()
    out2 = tmp_path / "again"
    run_cli(capsys, ["figure", "fig2", "--out", str(out2),
                     "--r-min", str(config["r_min"]),
                     "--r-max", str(config["r_max"]),
                     "--steps", str(config["steps"])])
    assert (out2 / "fig2.csv").read_bytes() == original


def test_figure_fig2_kink_for_hot_probe(capsys, tmp_path):
    run_cli(capsys, ["figure", "fig2", "--out", str(tmp_path), "--steps", "301"])
    _, _, rows = read_csv(tmp_path / "fig2.csv")
    r, d2col = rows[:, 0], rows[:, 3]
    diffs = np.diff(d2col)
    assert np.any(diffs > 0)  # non-monotonic
    # the kink sits at the branch threshold of N = 2 (interior local maximum)
    turning = np.where((diffs[:-1] > 0) & (diffs[1:] < 0))[0]
    switch = r[turning[0] + 1]
    assert abs(switch - 1.1462) < 0.02


def test_figure_fig3(capsys, tmp_path):
    code, _, _ = run_cli(capsys, ["figure", "fig3", "--out", str(tmp_path),
                                  "--steps", "80"])
    assert code == 0
    for delta in (1, 2, 3, 5):
        config, header, rows = read_csv(tmp_path / f"fig3_{delta}.csv")
        assert header == ["r", "mse_Kmin", "mse_Kc", "B_MI", "B_SQL"]
        assert np.all(rows[:, 1] <= rows[:, 2] + 1e-12)  # K_min never worse
        assert np.all(rows[:, 1] >= rows[:, 3] - 1e-9)   # bounded below by B_MI
        assert np.allclose(rows[:, 4], 2 * delta ** 2 / (1 + delta ** 2))


def test_figure_env_var_output(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DISPEST_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, ["figure", "fig2", "--steps", "10"])
    assert code == 0
    assert (tmp_path / "fig2.csv").exists()


def test_sweep_monotone_and_identities(capsys, tmp_path):
    b_path = tmp_path / "bs.csv"
    run_cli(capsys, ["sweep", "--quantity", "b_sld", "--N", "1",
                     "--steps", "40", "--out", str(b_path)])
    _, _, rows = read_csv(b_path)
    assert np.all(np.diff(rows[:, 1]) < 0)

    e_path = tmp_path / "e.csv"
    mi_path = tmp_path / "mi.csv"
    duan_path = tmp_path / "duan.csv"
    common = ["--N", "0.7", "--steps", "40"]
    run_cli(capsys, ["sweep", "--quantity", "scheme_variance", *common,
                     "--out", str(e_path)])
    run_cli(capsys, ["sweep", "--quantity", "b_mi", *common,
                     "--out", str(mi_path)])
    run_cli(capsys, ["sweep", "--quantity", "duan_lhs", *common,
                     "--out", str(duan_path)])
    _, _, e_rows = read_csv(e_path)
    _, _, mi_rows = read_csv(mi_path)
    _, _, duan_rows = read_csv(duan_path)
    assert np.all(e_rows[:, 1] - mi_rows[:, 1] >= -1e-12)
    assert np.allclose(duan_rows[:, 1], e_rows[:, 1], atol=1e-12)


def test_parser_is_built_once_and_parses_without_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, _, err = run_cli(capsys, ["bounds", "--probe", "single", "--r", "x"])
    assert code == 2 and err.startswith("error:")
    code, out, _ = run_cli(capsys, ["bounds", "--probe", "coherent"])
    assert code == 0
    assert load_record(out)["results"]["b_mi"] == 2.0
    # a value parsed in an earlier call does not leak into the next one
    code, out, _ = run_cli(capsys, ["bounds", "--probe", "single", "--r", "0.3",
                                    "--N", "1"])
    assert code == 0 and load_record(out)["config"]["N"] == 1.0
    code, out, _ = run_cli(capsys, ["bounds", "--probe", "single", "--r", "0.3"])
    assert code == 0 and load_record(out)["config"]["N"] == 0.0


@pytest.mark.parametrize("args", [
    ["--r", "0.7", "--N", "1", "--q0", "0.1", "--p0", "-0.2"],
    ["--r", "0.7", "--N", "1", "--N2", "0.5", "--prior-delta", "2", "--scaling", "optimal"],
    ["--baseline", "--prior-delta", "2", "--jitter", "0.01,0.02"],
])
def test_simulate_checks_the_probe_at_most_twice(capsys, probe_checks, args):
    """Once in EstimationConfig and once in the BoundQuery of bound_mi."""
    code, _, _ = run_cli(capsys, ["simulate", "--shots", "1000", *args])
    assert code == 0
    assert len(probe_checks) <= 2


# runs each command in a fresh interpreter, then the Fock oracle and a
# displaced probe
_IMPORT_GUARD = """
import contextlib, io, json, sys
from dispest import cli, scheme_variance_sum
commands = [["bounds", "--probe", "tmst", "--r", "0.7", "--N", "1"],
            ["simulate", "--r", "0.7", "--N", "1", "--shots", "1000",
             "--q0", "0", "--p0", "0"],
            ["sweep", "--quantity", "b_mi", "--steps", "5"],
            ["figure", "fig2", "--steps", "5", "--out", sys.argv[1]]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(args) for args in commands]
from dispest import build_probe_fock, displace_fock, fock_fisher_converged
fock_fisher_converged("tmst", 0.3, 0.5)
displace_fock(build_probe_fock("tmst", 0.3, 0.5, dim=12), 1, 0.4, -0.2)
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_no_command_and_not_the_fock_oracle_loads_scipy(tmp_path):
    """dispest needs numpy alone: no command, neither the oracle nor a
    displacement loads scipy."""
    src = os.path.dirname(os.path.dirname(dispest.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    assert report["scipy"] == []


# pools of the CLI contract test by value type, as (ordinary values, edge
# values); --shots and --steps are capped here so that one draw stays cheap
_FLOATS = (["0", "0.3", "1", "2.5"],
           ["-0", "-1", "5e-324", "1e-154", "1e154", "1e-300", "1e300", "-1e300",
            "355", "360", "nan", "inf", "-inf", "1" * 30, "9" * 400, ""])
_INTS = (["1", "2", "7"], ["0", "-1", "1" * 30, "9" * 400, "nan", "1.5", ""])
_CAPPED = {"shots": (["100", "1000", "2000"], ["99", "0", "-1", "1e3", ""]),
           "steps": (["2", "5", "60"], ["1", "0", "-3", "nan", ""])}
_LISTS = (["1,0,1", "2,0.5,1", "0.01,0.02", "0.5", "1,2,3"],
          ["1e300,0,1e300", "5e-324,0,5e-324", "1,,2", "nan,1,1", "-1,0", "a,b", ",", ""])
_STRINGS = {"scaling": (["none", "coherent", "optimal", "K=0.5", "K=1"],
                        ["K=0", "K=-1", "K=nan", "K=", "K=1e300", "bogus"])}
# per command, groups of alternative option sets: each draw takes one set of
# each group and leaves out the options of the others.  A simulate run needs
# a probe (--r with --N, and maybe --N2, or --baseline) and true parameters
# (--q0 with --p0, or --prior-delta).
_BASES = {"simulate": ((("r", "N"), ("r", "N", "N2"), ("baseline",)),
                       (("q0", "p0"), ("prior_delta",)))}


def _argv(data, out_dir):
    """One argv drawn from build_parser()'s own actions: a subcommand, its
    required options, its _BASES options, and each other option with
    probability 1/4, with values drawn half from the ordinary and half from
    the edge values of the option's type."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    name = data.draw(st.sampled_from(sorted(sub.choices)))
    base, left_out = set(), set()
    for group in _BASES.get(name, ()):
        chosen = data.draw(st.sampled_from(group))
        base.update(chosen)
        left_out.update(dest for options in group for dest in options)
    left_out -= base
    argv = [name]
    for action in sub.choices[name]._actions:
        if isinstance(action, argparse._HelpAction) or action.dest in left_out \
                or action.option_strings and not action.required \
                and action.dest not in base and data.draw(st.integers(0, 3)) < 3:
            continue
        if action.choices is not None:
            pool = (list(action.choices),) * 2
        elif action.dest in ("out", "dump_shots"):
            pool = ([os.path.join(out_dir, "out" if name == "figure" else "out.csv")],) * 2
        elif action.type is int:
            pool = _CAPPED.get(action.dest, _INTS)
        elif action.type is cli.finite:
            pool = _FLOATS
        else:
            pool = _STRINGS.get(action.dest, _LISTS)
        values = [] if action.nargs == 0 else [
            data.draw(st.sampled_from(pool[data.draw(st.booleans())]))]
        argv += action.option_strings[:1] + values
    return argv


def _no_constant(text):
    raise AssertionError(f"{text} in JSON output")


def _check_csv(text):
    """Every number after the header is finite, and the config has no NaN."""
    lines = text.splitlines()
    config = next(line for line in lines if line.startswith("# config: "))
    json.loads(config[len("# config: "):], parse_constant=_no_constant)
    rows = [line for line in lines if not line.startswith("#")][1:]
    assert rows and all(math.isfinite(float(x)) for row in rows for x in row.split(","))


def test_cli_contract(tmp_path, monkeypatch):
    """Every argv exits 0, 2 or 3 with no warning and no traceback: on 0 its
    JSON and CSV hold finite numbers only, on 2 or 3 stderr is one line.  At
    least a third of the draws exit 0, so more than the parser is run, and
    so do some simulate draws."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DISPEST_OUTPUT_DIR", raising=False)
    codes, simulated = [], []

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def run(data):
        out_dir = tempfile.mkdtemp(dir=tmp_path)
        argv = _argv(data, out_dir)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        codes.append(code)
        if argv[0] == "simulate":
            simulated.append(code)
        assert code in (0, 2, 3), argv
        if code:
            assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
            return
        assert err == "", (argv, err)
        if out.startswith("{"):
            json.loads(out, parse_constant=_no_constant)
        elif out.startswith("#"):
            _check_csv(out)
        for path in [line for line in out.splitlines() if line.startswith(out_dir)] + [
                os.path.join(out_dir, "out.csv")]:
            if os.path.isfile(path):
                with open(path) as fh:
                    _check_csv(fh.read())

    run()
    assert 3 * codes.count(0) >= len(codes), {c: codes.count(c) for c in set(codes)}
    assert 0 in simulated, {c: simulated.count(c) for c in set(simulated)}
