import numpy as np
import pytest

from dispest import (EstimationConfig, empirical_K_min, run_baseline_heterodyne,
                     run_scheme, scaling_factors, scheme_variance_sum,
                     uncertainty_product)


def scheme_cfg(**kw):
    base = dict(shots=50_000, seed=11, r=1.0, N=0.5, q0=0.7, p0=-0.3)
    base.update(kw)
    return EstimationConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimationConfig(shots=50, seed=0, r=1.0, N=0.0, q0=0.0, p0=0.0)
    with pytest.raises(ValueError):
        EstimationConfig(shots=1000, seed=0, r=1.0, N=0.0, q0=0.0)
    with pytest.raises(ValueError):
        EstimationConfig(shots=1000, seed=0, r=1.0, N=0.0, q0=0.0, p0=0.0,
                         prior_delta=1.0)
    with pytest.raises(ValueError):
        EstimationConfig(shots=1000, seed=0, r=1.0, N=0.0)
    with pytest.raises(ValueError):
        EstimationConfig(shots=1000, seed=0, r=1.0, N=0.0, q0=0.0, p0=0.0,
                         scaling="explicit")
    with pytest.raises(ValueError):
        EstimationConfig(shots=1000, seed=0, r=1.0, N=0.0, q0=0.0, p0=0.0,
                         scaling="optimal")
    with pytest.raises(ValueError):
        EstimationConfig(shots=1000, seed=0, r=1.0, N=0.0, q0=0.0, p0=0.0,
                         jitter=(-0.1, 0.0))
    base = dict(shots=1000, seed=0, r=1.0, N=0.0, q0=0.0, p0=0.0)
    for field in ("r", "N", "N2", "q0", "p0", "K"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                EstimationConfig(**{**base, field: bad})
    for field in ("r", "N", "N2"):
        with pytest.raises(ValueError):
            EstimationConfig(**{**base, field: -0.5})
    with pytest.raises(ValueError):
        EstimationConfig(shots=1000, seed=0, prior_delta=np.inf)
    with pytest.raises(ValueError):
        EstimationConfig(**base, jitter=(np.nan, 0.0))


def test_bit_reproducibility():
    a = run_scheme(scheme_cfg())
    b = run_scheme(scheme_cfg())
    assert a.mse_sum == b.mse_sum and a.mean_q == b.mean_q
    c = run_scheme(scheme_cfg(workers=3))
    d = run_scheme(scheme_cfg(workers=3))
    assert c.mse_sum == d.mse_sum


def test_scheme_hits_analytic_variance():
    res = run_scheme(scheme_cfg(shots=100_000))
    target = scheme_variance_sum(1.0, 0.5)
    assert res.target_mse_sum == pytest.approx(target)
    assert abs(res.mse_sum - target) < 4 * res.se_mse_sum


def test_scheme_no_squeezing_gives_sql():
    res = run_scheme(scheme_cfg(shots=100_000, r=0.0, N=0.0, seed=3))
    assert abs(res.mse_sum - 2.0) < 4 * res.se_mse_sum


def test_unbiased_at_unit_scaling():
    res = run_scheme(scheme_cfg(shots=200_000, seed=5))
    assert abs(res.bias_q) < 4 * np.sqrt(res.mse_q / res.shots)
    assert abs(res.bias_p) < 4 * np.sqrt(res.mse_p / res.shots)


def test_prior_with_optimal_scaling():
    cfg = EstimationConfig(shots=100_000, seed=17, r=1.0, N=0.0,
                           prior_delta=2.0, scaling="optimal")
    res = run_scheme(cfg)
    var0 = np.exp(-2.0)
    expected_k = 4.0 / (var0 + 4.0)
    expected_mse = 2 * var0 * 4.0 / (var0 + 4.0)
    assert np.isclose(res.k_used, expected_k)
    assert np.isclose(expected_mse, 0.2618, atol=5e-5)
    assert abs(res.mse_sum - expected_mse) < 4 * res.se_mse_sum


def test_baseline_sql_and_prior():
    res = run_baseline_heterodyne(
        EstimationConfig(shots=100_000, seed=23, q0=0.0, p0=0.0))
    assert abs(res.mse_sum - 2.0) < 4 * res.se_mse_sum

    res = run_baseline_heterodyne(
        EstimationConfig(shots=100_000, seed=29, prior_delta=1.0,
                         scaling="coherent"))
    assert res.k_used == 0.5
    assert abs(res.mse_sum - 1.0) < 4 * res.se_mse_sum


def test_baseline_empirical_argmin_matches_kc():
    delta = 3.0
    k_grid = np.round(np.arange(0.80, 1.001, 0.02), 3)
    results = []
    for k in k_grid:
        cfg = EstimationConfig(shots=200_000, seed=31, prior_delta=delta,
                               scaling="explicit", K=float(k))
        results.append(run_baseline_heterodyne(cfg).mse_sum)
    best = k_grid[int(np.argmin(results))]
    assert abs(best - scaling_factors(1.0, delta).k_c) <= 0.02 + 1e-9


def test_empirical_k_min_scan():
    scan = empirical_K_min(1.0, 0.0, 2.0, 150_000,
                           np.linspace(0.9, 1.0, 21), seed=7)
    assert abs(scan.k_star - 4.0 / (np.exp(-2) + 4.0)) < 0.015
    scan = empirical_K_min(0.0, 0.0, 1.0, 150_000,
                           np.linspace(0.3, 0.7, 21), seed=9)
    assert abs(scan.k_star - 0.5) < 0.03
    with pytest.raises(ValueError):
        empirical_K_min(1.0, 0.0, 2.0, 1000, [0.5, 1.2])


def test_uncertainty_product():
    res = run_scheme(scheme_cfg(shots=100_000, r=1.0, N=0.0, seed=41))
    up = uncertainty_product(res)
    assert up.below_unity and np.isclose(up.product, np.exp(-4), rtol=0.1)

    res = run_scheme(scheme_cfg(shots=100_000, r=0.2, N=3.0, seed=43))
    up = uncertainty_product(res)
    assert not up.below_unity
    assert np.isclose(up.product, (7 * np.exp(-0.4)) ** 2, rtol=0.1)
    assert np.isclose((7 * np.exp(-0.4)) ** 2, 22.0, atol=0.05)


def test_jitter_additivity():
    plain = run_scheme(scheme_cfg(shots=150_000, r=1.0, N=0.0, seed=47))
    noisy = run_scheme(scheme_cfg(shots=150_000, r=1.0, N=0.0, seed=53,
                                  jitter=(0.1, 0.1)))
    diff = noisy.mse_sum - plain.mse_sum
    se = np.hypot(plain.se_mse_sum, noisy.se_mse_sum)
    assert abs(diff - 0.2) < 4 * se


def test_asymmetric_probe_variance():
    cfg = EstimationConfig(shots=100_000, seed=59, r=0.5, N=0.0, N2=0.8,
                           q0=0.3, p0=0.4)
    res = run_scheme(cfg)
    expected = 2 * (0.0 + 0.8 + 1.0) * np.exp(-1.0)
    assert res.target_mse_sum == pytest.approx(expected)
    assert abs(res.mse_sum - expected) < 4 * res.se_mse_sum


def test_per_shot_recording():
    res = run_scheme(scheme_cfg(shots=1000), record_shots=True)
    assert res.per_shot is not None
    assert res.per_shot["estimate_q"].shape == (1000,)
    recomputed = np.mean((res.per_shot["estimate_q"] - res.per_shot["q0"]) ** 2)
    assert np.isclose(recomputed, res.mse_q)


@pytest.mark.parametrize("maker,kw,target", [
    ("scheme", dict(r=1.0, N=0.5, q0=0.7, p0=-0.3),
     scheme_variance_sum(1.0, 0.5)),
    ("baseline", dict(q0=0.2, p0=0.1), 2.0),
    ("scheme", dict(r=0.8, N=0.0, prior_delta=2.0, scaling="optimal"),
     scaling_factors(np.exp(-1.6), 2.0).mse_min),
])
def test_meta_coverage_over_seeds(maker, kw, target):
    """Analytic values covered within 4 standard errors in >= 95% of seeds."""
    runner = run_scheme if maker == "scheme" else run_baseline_heterodyne
    hits = 0
    for seed in range(20):
        res = runner(EstimationConfig(shots=20_000, seed=seed, **kw))
        if abs(res.mse_sum - target) < 4 * res.se_mse_sum:
            hits += 1
    assert hits >= 19
