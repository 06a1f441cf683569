"""Seedable Monte Carlo of the displacement-estimation pipelines.

All states and measurements are Gaussian, so each shot draws homodyne or
heterodyne outcomes from their exact Gaussian marginals, with any Gaussian
displacement jitter folded into the outcome variance.  The shots are split
into chunks of _CHUNK, and chunk c draws from its own SFC64 substream, seeded
by SeedSequence(seed).spawn(chunks)[c].  Spawning gives independent streams
with any bit generator, so a counter-based one (Philox) buys nothing, and
SFC64 draws normals 1.4-1.6x faster.  The chunks run on a pool of at most one
thread per core and their sums are added in chunk order, so results are
bit-reproducible for a fixed seed, whatever the thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bounds import scaling_factors
from .gaussian import _check_count, _tmst_form, check_probe

_CHUNK = 1 << 15
_SQRT2 = np.sqrt(2.0)
_PER_SHOT = ("q0", "p0", "outcome_q", "outcome_p", "estimate_q", "estimate_p")


@dataclass(frozen=True)
class EstimationConfig:
    """Configuration of one estimation experiment.

    r and N, with N2 for an asymmetric probe, set the two-mode probe; with
    none of them the probe is the baseline's coherent state.  Either fix the
    true parameters (q0, p0) or set prior_delta to redraw them each shot from
    the centered Gaussian prior.  scaling is the estimator scaling K: 'none'
    (K = 1), 'coherent' (K_c), 'optimal' (K_min), or a finite real number.
    jitter adds Gaussian displacement noise with variances (dq2, dp2).
    """

    shots: int
    seed: int
    r: float | None = None
    N: float | None = None
    N2: float | None = None
    q0: float | None = None
    p0: float | None = None
    prior_delta: float | None = None
    scaling: str | float = "none"
    jitter: tuple[float, float] | None = None
    workers: int | None = None

    def __post_init__(self):
        check_probe(self.r, self.N, self.N2, self.kind)
        k = None if isinstance(self.scaling, str) else self.scaling
        if k is not None and (type(k) is bool or not isinstance(
                k, (int, float, np.integer, np.floating))):
            raise ValueError("scaling must be a mode name or a real number")
        values = (self.q0, self.p0, self.prior_delta, k) + (
            tuple(self.jitter) if self.jitter is not None else ())
        if not all(np.isfinite(v) for v in values if v is not None):
            raise ValueError("numeric settings must be finite")
        for name, least in (("shots", 100), ("workers", 1), ("seed", 0)):
            if name != "workers" or self.workers is not None:
                _check_count(name, getattr(self, name), least)
        if self.workers is not None and self.workers > self.shots:
            raise ValueError("workers must not exceed shots")
        fixed = self.q0 is not None or self.p0 is not None
        if fixed and (self.q0 is None or self.p0 is None):
            raise ValueError("q0 and p0 must be given together")
        if fixed and self.prior_delta is not None:
            raise ValueError("give either fixed (q0, p0) or prior_delta, not both")
        if not fixed and self.prior_delta is None:
            raise ValueError("either fixed (q0, p0) or prior_delta is required")
        if self.prior_delta is not None and not self.prior_delta > 0:
            raise ValueError("prior_delta must be positive")
        if k is None and self.scaling not in ("none", "coherent", "optimal"):
            raise ValueError(f"unknown scaling mode '{self.scaling}'")
        if self.scaling in ("coherent", "optimal") and self.prior_delta is None:
            raise ValueError(f"scaling '{self.scaling}' needs prior_delta")
        if self.jitter is not None and (self.jitter[0] < 0 or self.jitter[1] < 0):
            raise ValueError("jitter variances must be nonnegative")

    @property
    def kind(self) -> str:
        """The probe's kind: 'coherent' where none of r, N and N2 is given."""
        return ("tmst_asym" if self.N2 is not None else
                "coherent" if self.r is None and self.N is None else "tmst")


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
    per_shot: dict | None = None


def _quadrature_variance(cfg: EstimationConfig) -> float:
    """Homodyne variance of each of the two beam-splitter outputs read.

    The q estimate is read from the q-squeezed output (mode 1), the p estimate
    from the p-squeezed output (mode 0); the pair is uncorrelated and each
    variance is (N1 + N2 + 1)e^{-2r}/2, a quarter of the scheme variance sum
    (propagating the covariance gives the same up to ~e^{4r} epsilons).
    """
    if cfg.kind == "coherent":
        raise ValueError("scheme runs need r and N")
    with np.errstate(over="ignore", invalid="ignore"):  # only E is read
        var = _tmst_form(cfg.r, cfg.N, cfg.N2).E / 4.0
    if not np.isfinite(var):
        raise ValueError("the quadrature variance is outside the floating-point range")
    return var


def _stream(cfg: EstimationConfig, c: int, buffers, div: float, sd: np.ndarray,
            gain: float, scan: bool, kept, sums: np.ndarray):
    """Draw, estimate and accumulate chunk c on its own SFC64 substream.

    Rows 0 and 1 are the q and p quadratures.  The chunk draws the prior's
    (q0, p0), if any, then the standard normals z of the outcomes
    o = θ/div + sd·z; estimates are gain·o.  One fused pass gives the errors
    e = gain·sd·z + (gain/div − 1)·θ = gain·o − θ.  Writes the sums
    (Σq̂, Σp̂, Σe_q², Σe_p², Σe_q⁴, Σe_p⁴, Σ(e_q² + e_p²)²), or
    (Σe², Σe·θ, Σθ²) if scan, into sums.  The chunk works in the buffers
    (θ, z, scratch), z turning into e, or, recorded, in its shots of kept
    (θ, o, gain·o; e in gain·o).
    """
    rng = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(cfg.seed, spawn_key=(c,))))
    at, n = c * _CHUNK, min(_CHUNK, cfg.shots - c * _CHUNK)
    fixed = np.array([[cfg.q0], [cfg.p0]]) if cfg.prior_delta is None else None
    scale, lift = gain * sd, gain / div - 1.0
    *work, sq = (b[:2 * n].reshape(2, n) for b in buffers)
    theta, z, err = (*work, work[1]) if kept is None else kept[:, :, at:at + n]
    for row in (*theta, *z) if fixed is None else z:  # same draws as one per block
        rng.standard_normal(out=row)
    if fixed is None:
        theta *= cfg.prior_delta
    else:  # recorded θ rows were filled in _sample
        theta = fixed
    np.multiply(z, scale, out=err)
    if lift:
        err += np.multiply(theta, lift, out=sq) if fixed is None else lift * fixed
    if scan:  # the K scan always has a prior
        sums[:] = (np.einsum("ij,ij->", err, err), np.einsum("ij,ij->", err, theta),
                   np.einsum("ij,ij->", theta, theta))
        return
    sums[0:2] = err.sum(axis=1) + (theta.sum(axis=1) if fixed is None
                                   else n * fixed[:, 0])
    np.multiply(err, err, out=sq)
    sums[2:4] = sq.sum(axis=1)
    fourth = np.einsum("ij,ij->i", sq, sq)
    sums[4:] = (*fourth, fourth.sum() + 2.0 * np.einsum("i,i->", sq[0], sq[1]))
    if kept is not None:
        np.add(np.multiply(z, sd, out=z), np.divide(theta, div, out=sq), out=z)
        np.multiply(z, gain, out=err)


def thread_count(cfg: EstimationConfig) -> int:
    """Threads of a run: one per chunk and per core, at most cfg.workers."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(cfg.workers or cores, cores, -(-cfg.shots // _CHUNK))


def _sample(cfg: EstimationConfig, div: float, sd, gain: float = 1.0,
            scan: bool = False, record: bool = False):
    """Run the chunks of cfg and add their sums in chunk order.

    Thread i of thread_count(cfg) takes chunks i, i + threads, ...; one thread
    runs in the caller.  Buffers are allocated here, as pool threads would take
    them from per-thread malloc arenas and raise the peak RSS.  No BLAS call
    is made: BLAS threads would compete with the pool for the cores.  Raises
    ValueError where a summed total is outside the floating-point range.
    """
    chunks, threads = -(-cfg.shots // _CHUNK), thread_count(cfg)
    sums = np.zeros((chunks, 3 if scan else 7))
    kept = np.empty((3, 2, cfg.shots)) if record else None
    if record and cfg.prior_delta is None:
        kept[0] = [[cfg.q0], [cfg.p0]]
    lanes = [[np.empty(2 * min(_CHUNK, cfg.shots)) for _ in range(1 if record else 3)]
             for _ in range(threads)]
    sd = np.reshape(sd, (2, 1))

    def lane(i):  # entered in each thread: numpy keeps errstate per thread
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for c in range(i, chunks, threads):
                _stream(cfg, c, lanes[i], div, sd, gain, scan, kept, sums[c])

    if threads == 1:
        lane(0)
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(lane, range(threads)))
    with np.errstate(over="ignore", invalid="ignore"):
        totals = sums.sum(axis=0)
    if not np.isfinite(totals).all():
        raise ValueError("the Monte Carlo sums are outside the floating-point range")
    return totals, (None if kept is None else dict(zip(_PER_SHOT, kept.reshape(6, -1))))


def _simulate(cfg: EstimationConfig, var: float, m: float,
              record_shots: bool) -> EstimationResult:
    """Run cfg for outcomes o = θ/√m + noise of variance var + jitter/m.

    The estimates √m·K·o then carry the noise variance m·var + jitter: the
    scheme has m = 2 and var its quadrature variance, the heterodyne baseline
    m = var = 1.
    """
    jq, jp = cfg.jitter or (0.0, 0.0)
    var_est_q, var_est_p = m * var + jq, m * var + jp
    theta = (cfg.q0, cfg.p0) if cfg.prior_delta is None else (cfg.prior_delta,) * 2
    # out-of-range values raise below; x ** 2 of a Python float would raise
    with np.errstate(over="ignore", invalid="ignore"):
        k = 1.0 if cfg.scaling == "none" else cfg.scaling
        if isinstance(k, str):
            factors = scaling_factors(0.5 * (var_est_q + var_est_p), cfg.prior_delta)
            k = factors.k_c if k == "coherent" else factors.k_min
        k = float(k)
        bias = [(1.0 - k) * t for t in theta]  # 0 at K = 1, however large θ
        target = k * k * (var_est_q + var_est_p) + sum(b * b for b in bias)
    if not np.isfinite(target):  # also where a variance is not finite
        raise ValueError("the target MSE is outside the floating-point range")
    div = np.sqrt(m)
    totals, per_shot = _sample(cfg, div, np.sqrt([var + jq / m, var + jp / m]),
                               div * k, record=record_shots)
    M = cfg.shots
    mean_q, mean_p, mse_q, mse_p, *fourth = totals / M
    mse = np.array([mse_q, mse_p, mse_q + mse_p])
    se_q, se_p, se_sum = np.sqrt(np.maximum(np.array(fourth) - mse * mse, 0.0) / M)
    return EstimationResult(
        config=cfg, k_used=k, shots=M,
        mean_q=float(mean_q), mean_p=float(mean_p),
        bias_q=float(mean_q - cfg.q0) if cfg.q0 is not None else None,
        bias_p=float(mean_p - cfg.p0) if cfg.p0 is not None else None,
        mse_q=float(mse_q), mse_p=float(mse_p), mse_sum=float(mse[2]),
        se_mse_q=float(se_q), se_mse_p=float(se_p), se_mse_sum=float(se_sum),
        target_mse_sum=float(target), per_shot=per_shot)


def run_scheme(cfg: EstimationConfig, record_shots: bool = False) -> EstimationResult:
    """Simulate the entangled double-homodyne scheme.

    Per shot the displaced probe propagates through the balanced beam
    splitter; the p outcome of output mode 0 and the q outcome of output mode
    1 are drawn from their exact marginals (jitter of variance j adds j/2 to
    each) and rescaled by sqrt(2) K.
    """
    return _simulate(cfg, _quadrature_variance(cfg), 2.0, record_shots)


def run_baseline_heterodyne(cfg: EstimationConfig,
                            record_shots: bool = False) -> EstimationResult:
    """Simulate the coherent-probe heterodyne baseline.

    Both outcome quadratures carry the probe variance plus the heterodyne
    vacuum unit, one full unit each for a coherent probe, plus the jitter;
    K multiplies the raw outcomes.
    """
    if cfg.kind != "coherent":
        raise ValueError("the baseline runs the coherent probe: give no r, N or N2")
    return _simulate(cfg, 1.0, 1.0, record_shots)


@dataclass(frozen=True)
class KMinScan:
    """Empirical minimization of the prior-averaged MSE over the scaling K."""

    k_grid: np.ndarray
    mse: np.ndarray
    k_star: float
    mse_star: float


def empirical_K_min(r: float, N: float, delta: float, shots: int,
                    k_grid, seed: int = 0) -> KMinScan:
    """Scan the estimator scaling K on common random draws of the scheme.

    The outcomes do not depend on K, so one set of draws serves the whole
    grid, which keeps the empirical curve smooth in K.  The MSE is quadratic
    in K: with o the outcomes, θ the true parameters and e = √2·o − θ,
    M·MSE(K) = K²Σe² + 2K(K−1)Σe·θ + (K−1)²Σθ², so three sums give every K.
    Each term is then of the size of the result near K*, with no Δ²/MSE
    cancellation.  The draws run on every core, as a run with no workers cap.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.size < 2 or not np.all((k_grid > 0) & (k_grid <= 1.0 + 1e-12)):
        raise ValueError("k_grid must span values in (0, 1]")
    cfg = EstimationConfig(shots=shots, seed=seed, r=r, N=N, prior_delta=delta)
    sd = np.sqrt(_quadrature_variance(cfg))
    (s_ee, s_et, s_tt), _ = _sample(cfg, _SQRT2, [sd, sd], _SQRT2, scan=True)
    mse = (k_grid ** 2 * s_ee + 2.0 * k_grid * (k_grid - 1.0) * s_et
           + (k_grid - 1.0) ** 2 * s_tt) / shots
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
