import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dispest import (EstimationConfig, empirical_K_min, montecarlo,
                     run_baseline_heterodyne, run_scheme, scaling_factors,
                     scheme_variance_sum, uncertainty_product)
from dispest.montecarlo import _CHUNK

SQRT2 = np.sqrt(2.0)


def set_cores(monkeypatch, n):
    """Make this process's CPU affinity report n cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


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
    for bad in ("explicit", True):
        with pytest.raises(ValueError):
            EstimationConfig(shots=1000, seed=0, r=1.0, N=0.0, q0=0.0, p0=0.0,
                             scaling=bad)
    with pytest.raises(ValueError):
        EstimationConfig(shots=1000, seed=0, r=1.0, N=0.0, q0=0.0, p0=0.0,
                         scaling="optimal")
    with pytest.raises(ValueError):
        EstimationConfig(shots=1000, seed=0, r=1.0, N=0.0, q0=0.0, p0=0.0,
                         jitter=(-0.1, 0.0))
    base = dict(shots=1000, seed=0, r=1.0, N=0.0, q0=0.0, p0=0.0)
    for field in ("r", "N", "N2", "q0", "p0", "scaling"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                EstimationConfig(**{**base, field: bad})
    for field in ("r", "N", "N2"):
        with pytest.raises(ValueError):
            EstimationConfig(**{**base, field: -0.5})
    with pytest.raises(ValueError):
        EstimationConfig(shots=1000, seed=0, prior_delta=np.inf)
    # r and N come together, and N2 only with them; none of them is the
    # coherent baseline
    for probe in ({"r": 1.0}, {"N": 0.5}, {"N2": 0.5}, {"r": 1.0, "N2": 0.5},
                  {"N": 0.5, "N2": 0.5}):
        with pytest.raises(ValueError, match="needs r and N"):
            EstimationConfig(shots=1000, seed=0, q0=0.0, p0=0.0, **probe)
    assert EstimationConfig(shots=1000, seed=0, q0=0.0, p0=0.0).kind == "coherent"
    assert EstimationConfig(**base).kind == "tmst"
    assert EstimationConfig(**base, N2=0.5).kind == "tmst_asym"
    with pytest.raises(ValueError):
        EstimationConfig(**base, jitter=(np.nan, 0.0))
    with pytest.raises(ValueError):
        EstimationConfig(**{**base, "shots": 100, "workers": 101})
    for field, bad in (("shots", 100_000.0), ("shots", True), ("workers", 1.5),
                       ("workers", True), ("seed", 1.5), ("seed", -1),
                       ("seed", False), ("seed", "7")):
        with pytest.raises(ValueError):
            EstimationConfig(**{**base, field: bad})
    cfg = EstimationConfig(**{**base, "shots": np.int64(1000), "seed": np.uint32(7),
                              "workers": np.int8(2)})
    assert run_scheme(cfg).shots == 1000


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
                               scaling=float(k))
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

    # five chunks on two threads: the sampling buffers are reused, so a
    # recorded chunk that aliased them would repeat the last chunk's draws
    res = run_scheme(scheme_cfg(shots=150_000, workers=2), record_shots=True)
    shots = res.per_shot
    assert all(v.shape == (150_000,) for v in shots.values())
    assert np.unique(shots["outcome_q"]).size == 150_000
    assert np.unique(shots["estimate_p"]).size == 150_000
    for quad in "qp":
        err = (shots[f"estimate_{quad}"] - shots[f"{quad}0"]) ** 2
        assert np.isclose(err.mean(), getattr(res, f"mse_{quad}"), rtol=1e-12)


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


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("baseline,kw", [
    (False, dict(r=1.0, N=0.5, q0=0.7, p0=-0.3)),
    (False, dict(r=1.0, N=0.5, prior_delta=1.5, scaling="optimal",
                 jitter=(0.05, 0.02))),
    (True, dict(q0=0.2, p0=0.1)),
])
def test_recorded_run_matches_fused(baseline, kw, workers):
    """Recording only adds copies of the outcomes and estimates to the fused
    error pass, and the statistics match a recomputation from those copies."""
    cfg = EstimationConfig(shots=200_001, seed=19, workers=workers, **kw)
    runner = run_baseline_heterodyne if baseline else run_scheme
    plain, rec = runner(cfg), runner(cfg, record_shots=True)
    for key in ("mean_q", "mean_p", "mse_q", "mse_p", "se_mse_sum"):
        assert getattr(rec, key) == pytest.approx(getattr(plain, key), rel=1e-12, abs=0)
    shots = rec.per_shot
    err2 = sum((shots[f"estimate_{quad}"] - shots[f"{quad}0"]) ** 2 for quad in "qp")
    se = np.sqrt((np.mean(err2 ** 2) - np.mean(err2) ** 2) / cfg.shots)
    assert se == pytest.approx(rec.se_mse_sum, rel=1e-12, abs=0)
    assert np.mean(err2) == pytest.approx(rec.mse_sum, rel=1e-12, abs=0)
    for quad in "qp":
        assert np.mean(shots[f"estimate_{quad}"]) == pytest.approx(
            getattr(rec, f"mean_{quad}"), rel=0, abs=1e-12)


@pytest.mark.parametrize("workers", [1, 2])
def test_sampling_memory_is_bounded(monkeypatch, workers):
    """A run allocates three (2, _CHUNK) float buffers per thread and no other
    full-size array: the traced peak stays within them plus 64 KiB."""
    set_cores(monkeypatch, workers)
    shots, bound = 8 * _CHUNK, workers * 3 * 2 * _CHUNK * 8 + 64 * 1024
    run_scheme(scheme_cfg(shots=100))  # lazy numpy.random imports, untraced
    calls = [
        lambda: run_scheme(scheme_cfg(shots=shots, workers=workers)),
        lambda: run_scheme(scheme_cfg(shots=shots, workers=workers, q0=None,
                                      p0=None, prior_delta=2.0, scaling="optimal",
                                      jitter=(0.1, 0.0))),
        lambda: empirical_K_min(1.0, 0.5, 2.0, shots, np.linspace(0.5, 1.0, 11)),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("workers", [1, 3])
def test_recorded_run_holds_each_shot_once(monkeypatch, workers):
    """A recorded run writes each chunk straight into its slice of the kept
    per-shot arrays, with one scratch buffer per thread: the traced peak
    stays within 1.25 times the arrays kept."""
    set_cores(monkeypatch, workers)
    run_scheme(scheme_cfg(shots=100))  # lazy numpy.random imports, untraced
    cfg = scheme_cfg(shots=500_000, workers=workers, q0=None, p0=None, prior_delta=2.0)
    tracemalloc.start()
    try:
        per_shot = run_scheme(cfg, record_shots=True).per_shot
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(values.nbytes for values in per_shot.values())
    assert kept == 6 * 8 * cfg.shots
    assert peak <= 1.25 * kept, (peak, kept)


def reference_draws(seed, shots, sd, q0=None, p0=None, delta=None, div=SQRT2):
    """The stream contract, drawn with Generator.normal: chunk c of _CHUNK
    shots draws from the SFC64 substream SeedSequence(seed).spawn(chunks)[c],
    first (q0, p0) from the prior if there is one, then out_q and out_p, each a
    block of the chunk's size."""
    chunks = np.random.SeedSequence(seed).spawn(-(-shots // _CHUNK))
    theta, outcomes = [], []
    for c, child in enumerate(chunks):
        rng = np.random.Generator(np.random.SFC64(child))
        n = min(_CHUNK, shots - c * _CHUNK)
        if delta is not None:
            tq, tp = rng.normal(0.0, delta, n), rng.normal(0.0, delta, n)
        else:
            tq, tp = np.full(n, q0), np.full(n, p0)
        theta.append((tq, tp))
        outcomes.append((rng.normal(tq / div, sd), rng.normal(tp / div, sd)))
    return np.concatenate(theta, axis=1), np.concatenate(outcomes, axis=1)


@pytest.mark.parametrize("baseline,kw", [
    (False, dict(r=0.7, N=0.3, q0=0.4, p0=-0.2)),
    (False, dict(r=1.1, N=0.2, N2=0.6, prior_delta=1.5, scaling="optimal")),
    (True, dict(prior_delta=2.0, scaling="coherent")),
])
def test_stream_contract(baseline, kw):
    """Without jitter every recorded draw equals Generator.normal on the
    chunk's SFC64 substream, in the order (q0, p0, out_q, out_p) per chunk."""
    cfg = EstimationConfig(shots=150_001, seed=13, workers=2, **kw)
    runner = run_baseline_heterodyne if baseline else run_scheme
    res = runner(cfg, record_shots=True)
    sd = 1.0 if baseline else np.sqrt(scheme_variance_sum(cfg.r, cfg.N, N2=cfg.N2) / 4)
    theta, outcomes = reference_draws(
        cfg.seed, cfg.shots, sd, q0=cfg.q0, p0=cfg.p0,
        delta=cfg.prior_delta, div=1.0 if baseline else SQRT2)
    gain = res.k_used if baseline else SQRT2 * res.k_used
    shots = res.per_shot
    for i, quad in enumerate("qp"):
        assert np.array_equal(shots[f"{quad}0"], theta[i])
        assert np.array_equal(shots[f"outcome_{quad}"], outcomes[i])
        assert np.array_equal(shots[f"estimate_{quad}"], gain * outcomes[i])
        err = (gain * outcomes[i] - theta[i]) ** 2
        assert np.isclose(err.mean(), getattr(res, f"mse_{quad}"), rtol=1e-12)


def test_k_scan_exact(monkeypatch):
    """The K scan from three sums equals the explicit per-K sums, also where
    the prior is wide against the noise."""
    r, N, shots, seed = 1.5, 0.2, 150_000, 21
    k_grid = np.linspace(0.8, 1.0, 41)
    set_cores(monkeypatch, 2)
    for delta in (3.0, 1e3):
        scan = empirical_K_min(r, N, delta, shots, k_grid, seed=seed)
        sd = np.sqrt(scheme_variance_sum(r, N) / 4)
        (tq, tp), (oq, op) = reference_draws(seed, shots, sd, delta=delta)
        explicit = np.array([(((SQRT2 * k * oq - tq) ** 2).sum()
                               + ((SQRT2 * k * op - tp) ** 2).sum()) / shots
                              for k in k_grid])
        assert np.allclose(scan.mse, explicit, rtol=1e-12, atol=0), delta
        assert scan.k_star == k_grid[np.argmin(explicit)]
        assert scan.mse_star == scan.mse.min()


class _NoThreads:
    def __init__(self, *args, **kwargs):
        raise AssertionError("no thread pool should start")


def test_short_streams_run_inline(monkeypatch):
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _NoThreads)
    res = run_scheme(scheme_cfg(shots=20_000, workers=64))
    assert res.shots == 20_000 and np.isfinite(res.mse_sum)
    run_scheme(scheme_cfg(shots=4000, workers=2, N2=0.4))
    set_cores(monkeypatch, 1)
    run_scheme(scheme_cfg(shots=3 * _CHUNK, workers=3))


def test_thread_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    set_cores(monkeypatch, 1)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _NoThreads)
    res = run_scheme(scheme_cfg(shots=2 * _CHUNK, workers=2))
    assert res.shots == 2 * _CHUNK


def test_threaded_streams_match_serial(monkeypatch):
    """The pool has at most one thread per core, and adding the chunk sums in
    chunk order makes the threaded run bit-identical to the serial one."""
    pools = []

    class Spy(montecarlo.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Spy)
    cfg = scheme_cfg(shots=3 * _CHUNK + 5, workers=3, prior_delta=1.0, q0=None,
                     p0=None, scaling="optimal")
    set_cores(monkeypatch, 2)
    threaded = run_scheme(cfg, record_shots=True)
    kmin_threaded = empirical_K_min(1.0, 0.5, 1.0, cfg.shots, [0.5, 1.0])
    assert pools == [2, 2]
    set_cores(monkeypatch, 1)
    serial = run_scheme(cfg, record_shots=True)
    kmin_serial = empirical_K_min(1.0, 0.5, 1.0, cfg.shots, [0.5, 1.0])
    assert pools == [2, 2]
    for key, values in serial.per_shot.items():
        assert np.array_equal(threaded.per_shot[key], values)
    assert (threaded.mse_sum, threaded.se_mse_sum, threaded.mean_q) == (
        serial.mse_sum, serial.se_mse_sum, serial.mean_q)
    assert np.array_equal(kmin_threaded.mse, kmin_serial.mse)


def test_results_independent_of_threads(monkeypatch):
    """Each chunk draws from its own substream and the chunk sums are added in
    chunk order, so a seeded run is bit-identical for every thread cap and
    core count."""
    shots = 3 * _CHUNK + 7
    fixed = scheme_cfg(shots=shots)
    prior = scheme_cfg(shots=shots, q0=None, p0=None, prior_delta=1.5,
                       scaling="optimal", jitter=(0.05, 0.02))
    baseline = EstimationConfig(shots=shots, seed=5, prior_delta=2.0, scaling="coherent")

    def outputs(workers):
        runs = [run_scheme(replace(fixed, workers=workers)),
                run_scheme(replace(prior, workers=workers)),
                run_baseline_heterodyne(replace(baseline, workers=workers))]
        stats = [(res.mean_q, res.mean_p, res.mse_q, res.mse_p, res.mse_sum,
                  res.se_mse_q, res.se_mse_p, res.se_mse_sum) for res in runs]
        per_shot = run_scheme(replace(prior, workers=workers), record_shots=True).per_shot
        scan = empirical_K_min(1.0, 0.5, 1.5, shots, np.linspace(0.5, 1.0, 11), seed=3)
        return stats, per_shot, scan.mse

    first = None
    for cores in (1, 2):
        set_cores(monkeypatch, cores)
        for workers in (1, 2, 3, None):
            stats, per_shot, scan = outputs(workers)
            if first is None:
                first = stats, per_shot, scan
                continue
            assert stats == first[0], (cores, workers)
            for key, values in first[1].items():
                assert np.array_equal(per_shot[key], values), (cores, workers, key)
            assert np.array_equal(scan, first[2]), (cores, workers)


def test_unrepresentable_targets_raise_before_sampling(monkeypatch):
    """At K = 1/2 a truth or prior width of 1e200 gives a squared bias, so a
    target MSE, outside the float range: ValueError, with no shot drawn."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the target was checked")

    monkeypatch.setattr(montecarlo, "_sample", no_sampling)
    with pytest.raises(ValueError, match="floating-point range"):
        run_scheme(scheme_cfg(shots=1000, q0=1e200, scaling=0.5))
    with pytest.raises(ValueError, match="floating-point range"):
        run_baseline_heterodyne(EstimationConfig(shots=1000, seed=0, prior_delta=1e200,
                                                 scaling=0.5))
    # the scheme variance 2(2N + 1)e^{-2r} overflows at N = 1e308 though N is finite
    with pytest.raises(ValueError, match=r"values at r=0 are outside the floating-point range"):
        run_scheme(scheme_cfg(shots=1000, r=0.0, N=1e308))


def test_sums_past_the_float_range_raise(monkeypatch):
    """The target is finite, but the sum of the estimates at q0 = 1e308, and
    the sum of squared prior draws of width 1e300 in the K scan, are not:
    ValueError, with no warning from any thread."""
    with pytest.raises(ValueError, match="Monte Carlo sums"):
        run_scheme(scheme_cfg(shots=1000, q0=1e308))
    for cores in (1, 2):
        set_cores(monkeypatch, cores)
        with pytest.raises(ValueError, match="Monte Carlo sums"):
            empirical_K_min(0.5, 0.5, 1e300, 2 * _CHUNK, [0.5, 1.0])


def test_each_runner_takes_only_its_probe(monkeypatch):
    """The scheme needs a two-mode probe and the heterodyne baseline the
    coherent one; the other is a ValueError, with no shot drawn."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with the wrong probe")

    monkeypatch.setattr(montecarlo, "_sample", no_sampling)
    with pytest.raises(ValueError, match="need r and N"):
        run_scheme(EstimationConfig(shots=20000, seed=1, q0=0.1, p0=0.2))
    for N2 in (None, 0.2):
        with pytest.raises(ValueError, match="coherent probe"):
            run_baseline_heterodyne(scheme_cfg(N2=N2))


_jitter = st.none() | st.tuples(st.floats(0.0, 0.2), st.floats(0.0, 0.2))


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.0, 2.0), N=st.floats(0.0, 2.0),
       N2=st.none() | st.floats(0.0, 2.0),
       theta=st.tuples(st.floats(-2, 2), st.floats(-2, 2)) | st.floats(0.1, 5.0),
       jitter=_jitter, workers=st.integers(1, 3),
       shots=st.integers(100, 2 * _CHUNK), seed=st.integers(0, 2 ** 32 - 1))
def test_seeded_runs_bit_identical(r, N, N2, theta, jitter, workers, shots, seed):
    fixed = isinstance(theta, tuple)
    cfg = EstimationConfig(
        shots=shots, seed=seed, r=r, N=N, N2=N2, jitter=jitter, workers=workers,
        q0=theta[0] if fixed else None, p0=theta[1] if fixed else None,
        prior_delta=None if fixed else theta)
    a, b = run_scheme(cfg), run_scheme(cfg)
    assert (a.mean_q, a.mean_p, a.mse_q, a.mse_p, a.se_mse_sum) == (
        b.mean_q, b.mean_p, b.mse_q, b.mse_p, b.se_mse_sum)
