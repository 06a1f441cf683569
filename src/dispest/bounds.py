"""Closed-form Gaussian Fisher matrices and Cramer-Rao bounds.

For a probe displaced in phase space, the SLD Fisher matrix is the displaced
mode's block of cov^-1 and the inverse RLD Fisher matrix is the Schur
complement of cov + (i/2) Omega onto that mode.  The bounds on the summed
variances are

    B_S = tr[G (H + A)^-1] / M
    B_R = (tr[G Re X] + tr|G Im X|) / M,   X = (J + A)^-1

with weight G, prior Fisher matrix A = I/Delta^2 and shot count M.  B_MI =
max(B_S, B_R).  probe_fisher (closed forms for the probe families) and
evaluate_bounds broadcast over parameter grids; gaussian_fisher serves
arbitrary states, and both return one FisherMatrices pair (H, J^-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gaussian import (GaussianState, _check_count, _tmst_form, check_probe,
                       make_squeezed_thermal, make_tmst, symplectic_form, vacuum)


class RLDUnavailableError(RuntimeError):
    """RLD bound could not be evaluated and no limiting value applies."""


class FisherMatrices(NamedTuple):
    """SLD matrix H and inverse RLD matrix J^-1 for the pair (q0, p0), (..., 2, 2).

    J^-1 is stored rather than J because it exists for every physical state,
    pure ones included, and every bound formula consumes J^-1.
    """

    H: np.ndarray
    j_inv: np.ndarray


@dataclass(frozen=True)
class BoundQuery:
    """Probe family plus estimation context for a bound evaluation.

    kind is one of gaussian.PROBE_KINDS, with N2 for 'tmst_asym' only.  delta
    is the standard deviation of the Gaussian prior on each parameter (None
    for a flat prior), weight a 2x2 positive definite matrix (None means
    identity), shots the number of independent repetitions M.
    """

    kind: str
    r: float = 0.0
    N: float = 0.0
    N2: float | None = None
    delta: float | None = None
    weight: np.ndarray | None = None
    shots: int = 1

    def __post_init__(self):
        check_probe(self.r, self.N, self.N2, self.kind)
        if self.delta is not None and not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError("prior width must be positive and finite")
        _check_count("shots", self.shots, 1)
        try:  # the bounds divide by M as a float
            float(self.shots)
        except OverflowError:
            raise ValueError("shots is too large for a float") from None
        if self.weight is not None:
            w = np.asarray(self.weight, dtype=float)
            if w.shape != (2, 2) or not np.all(np.isfinite(w)) \
                    or np.linalg.eigvalsh(0.5 * (w + w.T)).min() <= 0:
                raise ValueError("weight must be finite, 2x2 and positive definite")

    def probe_state(self) -> GaussianState:
        if self.kind == "coherent":
            return vacuum(1)
        if self.kind == "single":
            return make_squeezed_thermal(self.r, self.N)
        return make_tmst(self.r, self.N, self.N2)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds with the most-informative branch and thresholds."""

    b_sld: float
    b_rld: float
    b_mi: float
    branch: str
    r_ths: float | None = None
    r_sql: float | None = None
    scheme_variance: float | None = None
    gap: float | None = None


def _hermitian_pinv(mat: np.ndarray) -> np.ndarray:
    """Pseudo-inverse that drops eigenvalues at the rounding level of mat,
    a few epsilons of its largest; a coarser floor would drop the ~r^2 (N1 + 1)
    eigenvalue of a vacuum mode squeezed by r ~ 1e-7."""
    vals, vecs = np.linalg.eigh(mat)
    cut = 4.0 * np.finfo(float).eps * np.max(np.abs(vals))
    inv = np.where(np.abs(vals) > cut, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
    return (vecs * inv) @ vecs.conj().T


def gaussian_fisher(state: GaussianState, mode: int = 0) -> FisherMatrices:
    """Fisher matrices for displacement of one mode of a Gaussian probe."""
    if not 0 <= mode < state.modes:
        raise ValueError("mode index out of range")
    rows = [2 * mode, 2 * mode + 1]
    others = [k for k in range(2 * state.modes) if k not in rows]

    H = np.linalg.inv(state.cov)[np.ix_(rows, rows)]
    H = 0.5 * (H + H.T)

    M = state.cov + 0.5j * symplectic_form(state.modes)
    if others:
        Mdd = M[np.ix_(rows, rows)]
        Mdo = M[np.ix_(rows, others)]
        Moo = M[np.ix_(others, others)]
        j_inv = Mdd - Mdo @ _hermitian_pinv(Moo) @ Mdo.conj().T
    else:
        j_inv = M
    return FisherMatrices(H, 0.5 * (j_inv + j_inv.conj().T))


def probe_fisher(kind: str, r, N=0.0, N2=None) -> FisherMatrices:
    """SLD matrix H and inverse RLD matrix J^-1 of a probe family for displacing
    mode 0, each of shape (..., 2, 2); broadcasts over r, N and N2.

    Written in the Williamson frame, nu_i = N_i + 1/2, with V the displaced
    mode's columns of S^-1: H = V^T diag(1/nu) V and J = V^T L V, where
    L_i = (nu_i I - (i/2) Omega)/p_i and p_i = nu_i^2 - 1/4 = N_i (N_i + 1).
    Two-mode J^-1 = (a I + (b/2) i Omega)/q is the 2x2 inverse multiplied
    through by p_1 p_2, finite for pure inputs, and divided through by
    cosh^4 r, so a, b and q are written in tanh^2 r and sech^2 r and do not
    overflow at large r; a and q are sums of nonnegative terms, so nothing
    cancels.  q = 0 only at r = 0 with N2 = 0: there the probe is
    thermal(N1) x vacuum, whose J^-1 is nu_1 I + (i/2) Omega (not the
    r -> 0+ limit: J^-1 jumps where a mode turns pure), or the pure-probe
    value zero when N1 = 0 too.
    """
    check_probe(r, N, N2, kind)
    return FisherMatrices(*_probe_fisher(kind, r, N, N2))


def _probe_fisher(kind, r, N, N2):
    """probe_fisher on checked inputs."""
    if kind == "coherent":
        r = N = np.zeros(np.broadcast(r, N).shape)
    if kind in ("coherent", "single"):
        e, nu1 = np.exp(2.0 * np.asarray(r, float)), np.asarray(N, float) + 0.5
        return (_mat(1.0 / (nu1 * e), 0.0, 0.0, e / nu1),
                _mat(nu1 * e, 0.5j, -0.5j, nu1 / e))
    *_, nu1, nu2, p1, p2, ch2, sh2, t, sech2 = _tmst_form(r, N, N2)
    h = ch2 / nu1 + sh2 / nu2
    a = sech2 * (nu1 * p2 + t * nu2 * p1)
    b = sech2 * (sech2 * p2 + t * (p2 - p1))
    q = p2 + t * t * p1 + 2.0 * t * (nu1 * nu2 + 0.25)
    product = (q == 0) & (p1 > 0)
    a, b = np.where(product, nu1, a), np.where(product, 1.0, b)
    q = np.where(product, 1.0, np.where(q > 0, q, np.inf))
    return _mat(h, 0.0, 0.0, h), _mat(a / q, 0.5j * (b / q), -0.5j * (b / q), a / q)


def _mat(m00, m01, m10, m11) -> np.ndarray:
    """Stack four broadcastable entries into matrices of shape (..., 2, 2)."""
    entries = np.broadcast_arrays(m00, m01, m10, m11)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


def _entries(m):
    """The entries (m00, m01, m10, m11) of a matrix stack (..., 2, 2)."""
    m = np.asarray(m)
    return m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]


def _det(x):
    return x[0] * x[3] - x[1] * x[2]


def _trace_prod(G, x):
    """tr[G X] for X given by its entries; G = None is the identity."""
    if G is None:
        return x[0] + x[3]
    g = _entries(G)
    return g[0] * x[0] + g[1] * x[2] + g[2] * x[1] + g[3] * x[3]


def _sld(H, u, weight, shots):
    """tr[G (H + uI)^-1] / M; +inf where |det(H + uI)| < 1e-300.  T = H + uI is
    first divided by its largest entry s (at least 1e-300), so that det T
    cannot overflow: tr[G T^-1] = tr[G adj T'] / (s det T') with T' = T/s."""
    t = _entries(H if u is None else H + u * np.eye(2))
    s = np.maximum(np.maximum(abs(t[0]), abs(t[1])), np.maximum(abs(t[2]), abs(t[3])))
    s = np.maximum(s, 1e-300)
    t = tuple(e / s for e in t)
    det = _det(t) * s
    singular = abs(det) < 1e-300 / s
    det = np.where(singular, 1.0, det)
    adj = (t[3], -t[1], -t[2], t[0])
    return np.where(singular, np.inf, _trace_prod(weight, adj) / det) / shots


def _rld(j_inv, u, weight, shots):
    """(tr[G Re X] + tr|G Im X|) / M for the Hermitian part of X = (J + uI)^-1.

    For 2x2 matrices X = (J^-1 + D u I) / det K with D = det J^-1 and
    det K = det(I + u J^-1) = 1 + u tr J^-1 + D u^2, which stays finite for
    pure probes where J diverges.  The imaginary part of a Hermitian X is
    [[0, w], [-w, 0]], so tr|G Im X| = |w| |G|_1 with the trace norm
    |G|_1 = sqrt(|G|_F^2 + 2 |det G|) (2 for G = I)."""
    x = _entries(j_inv)
    if u is not None:
        d = _det(x)
        det = 1.0 + (u * x[0] + u * x[3]) + d * (u * u)
        if np.any(abs(det) < 1e-14):
            raise RLDUnavailableError("RLD bound unavailable: singular J + A")
        x = ((x[0] + d * u) / det, x[1] / det, x[2] / det, (x[3] + d * u) / det)
    off = 0.5 * (x[1].real + x[2].real)
    w = abs(0.5 * (x[1].imag - x[2].imag))
    if weight is None:
        norm = 2.0 * w
    else:
        g = _entries(weight)
        norm = w * np.sqrt(g[0] ** 2 + g[1] ** 2 + g[2] ** 2 + g[3] ** 2
                           + 2.0 * abs(_det(g)))
    return (_trace_prod(weight, (x[0].real, off, off, x[3].real)) + norm) / shots


def _prior_weight(delta):
    """Fisher weight u = 1/delta^2 of a Gaussian prior of width delta (None for
    a flat prior); ValueError where u overflows (delta <~ 1e-154)."""
    if delta is None:
        return None
    if not delta > 0:
        raise ValueError("prior width must be positive")
    with np.errstate(all="ignore"):
        u = np.float64(1.0) / (delta * delta)
    if not np.isfinite(u):
        raise ValueError(f"prior width {delta:g} is too narrow: 1/delta^2 overflows")
    return u


def evaluate_bounds(H, j_inv, delta=None, weight=None, shots=1):
    """B_S, B_R, B_MI = max(B_S, B_R) and the branch ('RLD' where B_R > B_S)
    from stacked Fisher matrices (..., 2, 2).  delta is the Gaussian prior's
    width (None: flat prior); the weight G may be stacked too."""
    _check_count("shots", shots, 1)
    u = _prior_weight(delta)
    b_s = _sld(H, u, weight, shots)
    b_r = _rld(j_inv, u, weight, shots)
    rld = b_r > b_s
    return b_s, b_r, np.where(rld, b_r, b_s), np.where(rld, "RLD", "SLD")


def bound_sld(fm: FisherMatrices, weight: np.ndarray | None = None,
              delta: float | None = None, shots: int = 1) -> float:
    """SLD Cramer-Rao bound tr[G (H + I/delta^2)^-1] / M, flat for delta None; +inf if singular."""
    _check_count("shots", shots, 1)
    return float(_sld(fm.H, _prior_weight(delta), weight, shots))


def bound_rld(fm: FisherMatrices, weight: np.ndarray | None = None,
              delta: float | None = None, shots: int = 1) -> float:
    """RLD Cramer-Rao bound (tr[G Re X] + tr|G Im X|) / M, X = (J + I/delta^2)^-1
    with delta as in bound_sld; finite from J^-1 for pure probes where J diverges."""
    _check_count("shots", shots, 1)
    return float(_rld(fm.j_inv, _prior_weight(delta), weight, shots))


def thresholds(N: float) -> tuple[float, float]:
    """Squeezing thresholds (r_ths, r_sql) of the symmetric two-mode probe.

    r_ths = arccosh(2N+1)/2 is where the most-informative branch switches from
    RLD to SLD; r_sql = ln(1 + 4N + 4N^2)/4 is where the double-homodyne
    scheme starts to beat the standard quantum limit.
    """
    check_probe(N=N)
    return _thresholds(N)


def _thresholds(N) -> tuple[float, float]:
    r_ths = 0.5 * np.arccosh(2.0 * N + 1.0)
    r_sql = 0.25 * np.log1p(4.0 * N + 4.0 * N * N)
    return float(r_ths), float(r_sql)


def scheme_variance_sum(r, N, N2=None):
    """Variance sum 2(N + N2 + 1)e^{-2r} of the double-homodyne scheme, which
    is 2(2N+1)e^{-2r} for the symmetric probe (N2 = N); broadcasts over r, N
    and N2."""
    check_probe(r, N, N2)
    return _tmst_form(r, N, N2).E


def gap_D(r, N):
    """Relative gap (E - B_MI)/B_MI between the scheme variance sum and the
    flat-prior most-informative bound; equals e^{-4r} on the N = 0 line.
    Broadcasts over r and N.  Uses the paper's closed forms as written, since
    at large r the gap is a difference of nearly equal terms."""
    check_probe(r, N)
    return _gap_D(r, N)


def _gap_D(r, N):
    r, N = np.asarray(r, dtype=float), np.asarray(N, dtype=float)
    c = np.cosh(2.0 * r)
    b_s = (2.0 * N + 1.0) / c
    with np.errstate(invalid="ignore"):  # B_R is 0/0 only at r = N = 0
        b_r = 4.0 * N * (1.0 + N) / ((2.0 * N + 1.0) * c - 1.0)
    b_mi = np.fmax(b_s, b_r)
    E = _tmst_form(r, N).E
    return ((E - b_mi) / b_mi)[()]


def prior_fisher_gaussian(delta: float) -> np.ndarray:
    """Fisher matrix I/delta^2 of the product Gaussian prior on (q0, p0).
    Raises ValueError where 1/delta^2 overflows (delta <~ 1e-154)."""
    return _prior_weight(delta) * np.eye(2)


@dataclass(frozen=True)
class ScalingFactors:
    """Estimator scalings and averaged mean squared errors under a Gaussian prior."""

    k_c: float
    k_min: float
    mse_min: float
    mse_kc: float


def scaling_factors(var0, delta: float) -> ScalingFactors:
    """Scalings K_c = 1/(1 + u) and K_min = 1/(1 + Var0 u) of a prior of width
    D, u = 1/D^2, and their averaged two-parameter MSEs 2 Var0 K_min and
    2[K_c^2 Var0 + b^2], b = (1 - K_c)D = 1/(D + 1/D), for the unscaled
    per-parameter variance Var0 (broadcasts); finite for any D, inf included."""
    var0 = np.asarray(var0, dtype=float)
    if not np.all(var0 > 0):
        raise ValueError("var0 must be positive")
    delta = float(delta)  # Python floats leave the range without a warning
    if not delta > 0:
        raise ValueError("prior width must be positive")
    w = 1.0 / delta
    u = w * w
    k_c = 1.0 / (1.0 + u)
    k_min = 1.0 / (1.0 + var0 * u)
    bias = 1.0 / (delta + w)
    return ScalingFactors(k_c, k_min, 2.0 * var0 * k_min,
                          2.0 * (k_c * k_c * var0 + bias * bias))


def check_in_range(r, *values) -> None:
    """Raise ValueError unless every entry of values is finite.  The closed
    forms leave the floating-point range at large r (H overflows above
    r ~ 355); each array is tested once, whatever the length of the r grid."""
    if not all(np.isfinite(v).all() for v in values):
        r = np.asarray(r)
        at = f"r={r.item():g}" if r.ndim == 0 else f"r in [{r.min():g}, {r.max():g}]"
        raise ValueError(f"values at {at} are outside the floating-point range")


def bound_most_informative(query: BoundQuery) -> BoundReport:
    """Evaluate B_S, B_R and B_MI = max(B_S, B_R) for a probe family.

    For the symmetric two-mode probe the report also carries the branch
    thresholds, the scheme variance sum, and (flat prior) the optimality gap.
    For pure two-mode probes B_R is the zero N -> 0+ limit, so B_MI follows
    the SLD branch there.  Raises ValueError where a Fisher matrix or a
    reported value is outside the floating-point range (H overflows above
    r ~ 355).  The query was checked when it was built, so the private cores
    run here without a second check.
    """
    with np.errstate(all="ignore"):  # values out of range raise below
        H, j_inv = _probe_fisher(query.kind, query.r, query.N, query.N2)
        b_s, b_r, b_mi, branch = evaluate_bounds(H, j_inv, query.delta, query.weight,
                                                 query.shots)
        r_ths = r_sql = scheme_variance = gap = None
        if query.kind == "tmst":
            r_ths, r_sql = _thresholds(query.N)
            scheme_variance = _tmst_form(query.r, query.N).E
            if query.delta is None and query.weight is None and query.shots == 1:
                gap = _gap_D(query.r, query.N)
    check_in_range(query.r, H, j_inv,
                   [b_s, b_r] + [x for x in (scheme_variance, gap) if x is not None])
    return BoundReport(b_sld=float(b_s), b_rld=float(b_r), b_mi=float(b_mi),
                       branch=str(branch), r_ths=r_ths, r_sql=r_sql,
                       scheme_variance=scheme_variance, gap=gap)
