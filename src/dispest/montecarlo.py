"""Seedable Monte Carlo of the displacement-estimation pipelines.

All states and measurements are Gaussian, so each shot draws homodyne or
heterodyne outcomes from their exact Gaussian marginals.  Randomness comes
from the counter-based Philox generator; worker substreams are spawned from
the master seed, shots are partitioned across workers, and per-worker
accumulators merge by summation, so results are bit-reproducible for a fixed
(seed, workers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import scaling_factors, scheme_variance_sum

_CHUNK = 1 << 16
_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class EstimationConfig:
    """Configuration of one estimation experiment.

    Either fix the true parameters (q0, p0) or set prior_delta to redraw them
    each shot from the centered Gaussian prior.  scaling is one of 'none',
    'coherent' (K_c), 'optimal' (K_min) or 'explicit' (uses K).  jitter adds
    Gaussian displacement noise with variances (dq2, dp2).
    """

    shots: int
    seed: int
    r: float | None = None
    N: float | None = None
    N2: float | None = None
    q0: float | None = None
    p0: float | None = None
    prior_delta: float | None = None
    scaling: str = "none"
    K: float | None = None
    jitter: tuple[float, float] | None = None
    workers: int = 1

    def __post_init__(self):
        values = (self.r, self.N, self.N2, self.q0, self.p0, self.prior_delta,
                  self.K) + (tuple(self.jitter) if self.jitter is not None else ())
        if not all(np.isfinite(v) for v in values if v is not None):
            raise ValueError("numeric settings must be finite")
        if any(v is not None and v < 0 for v in (self.r, self.N, self.N2)):
            raise ValueError("r and N must be nonnegative")
        if self.shots < 100:
            raise ValueError("shots must be at least 100")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        fixed = self.q0 is not None or self.p0 is not None
        if fixed and (self.q0 is None or self.p0 is None):
            raise ValueError("q0 and p0 must be given together")
        if fixed and self.prior_delta is not None:
            raise ValueError("give either fixed (q0, p0) or prior_delta, not both")
        if not fixed and self.prior_delta is None:
            raise ValueError("either fixed (q0, p0) or prior_delta is required")
        if self.prior_delta is not None and not self.prior_delta > 0:
            raise ValueError("prior_delta must be positive")
        if self.scaling not in ("none", "coherent", "optimal", "explicit"):
            raise ValueError(f"unknown scaling mode '{self.scaling}'")
        if self.scaling == "explicit" and self.K is None:
            raise ValueError("explicit scaling needs K")
        if self.scaling in ("coherent", "optimal") and self.prior_delta is None:
            raise ValueError(f"scaling '{self.scaling}' needs prior_delta")
        if self.jitter is not None and (self.jitter[0] < 0 or self.jitter[1] < 0):
            raise ValueError("jitter variances must be nonnegative")


@dataclass(frozen=True)
class EstimationResult:
    """Accumulated statistics of a completed run.

    Reported 'MSE' is the mean squared error of the estimates against the true
    per-shot parameters; standard errors come from the empirical fourth
    moments of the errors.
    """

    config: EstimationConfig
    k_used: float
    shots: int
    mean_q: float
    mean_p: float
    bias_q: float | None
    bias_p: float | None
    mse_q: float
    mse_p: float
    mse_sum: float
    se_mse_q: float
    se_mse_p: float
    se_mse_sum: float
    target_mse_sum: float
    outcome_variances: tuple[float, float]
    per_shot: dict | None = None


def _scheme_geometry(cfg: EstimationConfig) -> tuple[float, float]:
    """Homodyne variances (v_q, v_p) of the two beam-splitter outputs.

    The q estimate is read from the q-squeezed output (mode 1), the p estimate
    from the p-squeezed output (mode 0); the pair is uncorrelated and each
    variance is (N1 + N2 + 1)e^{-2r}/2, a quarter of the scheme variance sum
    (propagating the covariance gives the same up to ~e^{4r} epsilons).
    """
    if cfg.r is None or cfg.N is None:
        raise ValueError("scheme runs need r and N")
    v = scheme_variance_sum(cfg.r, cfg.N, N2=cfg.N2) / 4.0
    return v, v


def _resolve_k(cfg: EstimationConfig, var0: float) -> float:
    if cfg.scaling == "none":
        return 1.0
    if cfg.scaling == "explicit":
        return float(cfg.K)
    factors = scaling_factors(var0, cfg.prior_delta)
    return factors.k_c if cfg.scaling == "coherent" else factors.k_min


def _worker_shot_counts(shots: int, workers: int) -> list[int]:
    base, extra = divmod(shots, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _target(cfg: EstimationConfig, k: float, var_est_q: float,
            var_est_p: float) -> float:
    """Analytic expectation of the reported MSE sum."""
    noise = k * k * (var_est_q + var_est_p)
    if cfg.prior_delta is not None:
        return noise + 2.0 * (k - 1.0) ** 2 * cfg.prior_delta ** 2
    return noise + (k - 1.0) ** 2 * (cfg.q0 ** 2 + cfg.p0 ** 2)


def _run(cfg: EstimationConfig, sample_outcomes, estimate, var_est_q: float,
         var_est_p: float, k: float, record_shots: bool) -> EstimationResult:
    """Shared accumulation loop over workers and chunks.

    sample_outcomes(rng, actual_q, actual_p) draws the raw measurement
    outcomes; estimate(outcome) maps them to parameter estimates.
    """
    jq, jp = cfg.jitter if cfg.jitter is not None else (0.0, 0.0)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.workers)
    totals = np.zeros(7)  # sum q̂, p̂, e_q, e_p, e_q², e_p², s²
    recorded = {"q0": [], "p0": [], "outcome_q": [], "outcome_p": [],
                "estimate_q": [], "estimate_p": []} if record_shots else None

    for w, n_w in enumerate(_worker_shot_counts(cfg.shots, cfg.workers)):
        rng = np.random.Generator(np.random.Philox(children[w]))
        local = np.zeros(7)
        done = 0
        while done < n_w:
            n = min(_CHUNK, n_w - done)
            if cfg.prior_delta is not None:
                q0s = rng.normal(0.0, cfg.prior_delta, n)
                p0s = rng.normal(0.0, cfg.prior_delta, n)
            else:
                q0s = np.full(n, cfg.q0)
                p0s = np.full(n, cfg.p0)
            actual_q = q0s + rng.normal(0.0, np.sqrt(jq), n) if jq > 0 else q0s
            actual_p = p0s + rng.normal(0.0, np.sqrt(jp), n) if jp > 0 else p0s
            out_q, out_p = sample_outcomes(rng, actual_q, actual_p)
            est_q, est_p = estimate(out_q, out_p)
            eq = (est_q - q0s) ** 2
            ep = (est_p - p0s) ** 2
            local += (est_q.sum(), est_p.sum(), eq.sum(), ep.sum(),
                      (eq * eq).sum(), (ep * ep).sum(), ((eq + ep) ** 2).sum())
            if record_shots:
                recorded["q0"].append(q0s)
                recorded["p0"].append(p0s)
                recorded["outcome_q"].append(out_q)
                recorded["outcome_p"].append(out_p)
                recorded["estimate_q"].append(est_q)
                recorded["estimate_p"].append(est_p)
            done += n
        totals += local

    M = cfg.shots
    mean_q, mean_p = totals[0] / M, totals[1] / M
    mse_q, mse_p = totals[2] / M, totals[3] / M
    mse_sum = mse_q + mse_p

    def se(second_moment, mean):
        var = max(second_moment - mean * mean, 0.0)
        return np.sqrt(var / M)

    result = EstimationResult(
        config=cfg, k_used=k, shots=M,
        mean_q=float(mean_q), mean_p=float(mean_p),
        bias_q=float(mean_q - cfg.q0) if cfg.q0 is not None else None,
        bias_p=float(mean_p - cfg.p0) if cfg.p0 is not None else None,
        mse_q=float(mse_q), mse_p=float(mse_p), mse_sum=float(mse_sum),
        se_mse_q=float(se(totals[4] / M, mse_q)),
        se_mse_p=float(se(totals[5] / M, mse_p)),
        se_mse_sum=float(se(totals[6] / M, mse_sum)),
        target_mse_sum=float(_target(cfg, k, var_est_q, var_est_p)),
        outcome_variances=(var_est_q, var_est_p),
        per_shot={key: np.concatenate(vals) for key, vals in recorded.items()}
        if record_shots else None)
    return result


def run_scheme(cfg: EstimationConfig, record_shots: bool = False) -> EstimationResult:
    """Simulate the entangled double-homodyne scheme.

    Per shot the displaced probe propagates through the balanced beam
    splitter; the p outcome of output mode 0 and the q outcome of output mode
    1 are drawn from their exact marginals and rescaled by sqrt(2) K.
    """
    jq, jp = cfg.jitter if cfg.jitter is not None else (0.0, 0.0)
    v_q, v_p = _scheme_geometry(cfg)
    var_est_q = 2.0 * v_q + jq
    var_est_p = 2.0 * v_p + jp
    k = _resolve_k(cfg, var0=0.5 * (var_est_q + var_est_p))
    sq, sp = np.sqrt(v_q), np.sqrt(v_p)

    def sample(rng, actual_q, actual_p):
        out_q = rng.normal(actual_q / _SQRT2, sq)
        out_p = rng.normal(actual_p / _SQRT2, sp)
        return out_q, out_p

    def estimate(out_q, out_p):
        return _SQRT2 * k * out_q, _SQRT2 * k * out_p

    return _run(cfg, sample, estimate, var_est_q, var_est_p, k, record_shots)


def run_baseline_heterodyne(cfg: EstimationConfig,
                            record_shots: bool = False) -> EstimationResult:
    """Simulate the coherent-probe heterodyne baseline.

    Both outcome quadratures carry the probe variance plus the heterodyne
    vacuum unit, one full unit each for a coherent probe; K multiplies the
    raw outcomes.
    """
    jq, jp = cfg.jitter if cfg.jitter is not None else (0.0, 0.0)
    var_est_q, var_est_p = 1.0 + jq, 1.0 + jp
    k = _resolve_k(cfg, var0=0.5 * (var_est_q + var_est_p))

    def sample(rng, actual_q, actual_p):
        return rng.normal(actual_q, 1.0), rng.normal(actual_p, 1.0)

    def estimate(out_q, out_p):
        return k * out_q, k * out_p

    return _run(cfg, sample, estimate, var_est_q, var_est_p, k, record_shots)


@dataclass(frozen=True)
class KMinScan:
    """Empirical minimization of the prior-averaged MSE over the scaling K."""

    k_grid: np.ndarray
    mse: np.ndarray
    k_star: float
    mse_star: float


def empirical_K_min(r: float, N: float, delta: float, shots: int,
                    k_grid, seed: int = 0, N2: float | None = None,
                    workers: int = 1) -> KMinScan:
    """Scan the estimator scaling K on common random draws of the scheme.

    The outcomes do not depend on K, so one set of draws serves the whole
    grid; this keeps the empirical curve smooth in K.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.size < 2 or np.any(k_grid <= 0) or np.any(k_grid > 1.0 + 1e-12):
        raise ValueError("k_grid must span values in (0, 1]")
    cfg = EstimationConfig(shots=shots, seed=seed, r=r, N=N, N2=N2,
                           prior_delta=delta, workers=workers)
    v_q, v_p = _scheme_geometry(cfg)
    sq, sp = np.sqrt(v_q), np.sqrt(v_p)
    children = np.random.SeedSequence(seed).spawn(workers)
    sums = np.zeros(k_grid.size)

    for w, n_w in enumerate(_worker_shot_counts(shots, workers)):
        rng = np.random.Generator(np.random.Philox(children[w]))
        done = 0
        while done < n_w:
            n = min(_CHUNK, n_w - done)
            q0s = rng.normal(0.0, delta, n)
            p0s = rng.normal(0.0, delta, n)
            out_q = rng.normal(q0s / _SQRT2, sq)
            out_p = rng.normal(p0s / _SQRT2, sp)
            for i, k in enumerate(k_grid):
                eq = _SQRT2 * k * out_q - q0s
                ep = _SQRT2 * k * out_p - p0s
                sums[i] += (eq * eq + ep * ep).sum()
            done += n

    mse = sums / shots
    best = int(np.argmin(mse))
    return KMinScan(k_grid=k_grid, mse=mse, k_star=float(k_grid[best]),
                    mse_star=float(mse[best]))


@dataclass(frozen=True)
class UncertaintyProduct:
    """Product of the two parameter MSEs against the joint-measurement floor."""

    product: float
    below_unity: bool


def uncertainty_product(result: EstimationResult) -> UncertaintyProduct:
    """MSE(q0) * MSE(p0); values below 1 mark the regime a joint measurement
    on a single mode could not reach."""
    product = result.mse_q * result.mse_p
    return UncertaintyProduct(product=float(product), below_unity=bool(product < 1.0))
