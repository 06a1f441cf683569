"""Duan inseparability criterion and its link to beating the SQL.

For a two-mode state and nonzero real a, the EPR pair u = |a| q1 + q2/a,
v = |a| p1 - p2/a satisfies Var(u) + Var(v) >= a^2 + 1/a^2 for every
separable state; a violation certifies entanglement.  At a = 1 the left-hand
side equals the double-homodyne variance sum of the estimation scheme, which
ties beating the standard quantum limit to entanglement of the probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import (GaussianState, beamsplit_balanced, check_probe, make_tmst,
                       phase_rotate)
from .bounds import check_in_range, thresholds

_STRICT_TOL = 1e-12
_SYM_TOL = 1e-10


@dataclass(frozen=True)
class DuanResult:
    a: float
    lhs: float
    rhs: float
    entangled_sufficient: bool
    symmetric: bool


def _require_two_modes(state: GaussianState):
    if state.modes != 2:
        raise ValueError("Duan criterion applies to two-mode states")


def _resolved(total: float, cov: np.ndarray) -> float:
    """total if over 1e6 roundings of the largest entry of cov (~5 digits kept)."""
    if not total > 1e6 * np.finfo(float).eps * np.abs(cov).max():
        raise ValueError(f"variance sum {total:.3g} cancels in the covariance entries")
    return total


def _is_symmetric(state: GaussianState) -> bool:
    c = state.cov
    iso1 = abs(c[0, 0] - c[1, 1]) < _SYM_TOL
    iso2 = abs(c[2, 2] - c[3, 3]) < _SYM_TOL
    balanced = abs(c[0, 0] - c[2, 2]) < _SYM_TOL
    return bool(iso1 and iso2 and balanced)


def duan_lhs(cov, a: float = 1.0):
    """EPR variance sum Var(u) + Var(v) of two-mode covariances (..., 4, 4)."""
    if a == 0:
        raise ValueError("a must be nonzero")
    c = np.asarray(cov, dtype=float)
    s = abs(a) / a
    var_u = a * a * c[..., 0, 0] + c[..., 2, 2] / (a * a) + 2.0 * s * c[..., 0, 2]
    var_v = a * a * c[..., 1, 1] + c[..., 3, 3] / (a * a) - 2.0 * s * c[..., 1, 3]
    return var_u + var_v


def duan_check(state: GaussianState, a: float = 1.0) -> DuanResult:
    """Evaluate the EPR variance sum against the separability floor a^2 + 1/a^2.
    ValueError where the sum cancels in the entries (r ≳ 6 for make_tmst)."""
    if not np.isfinite(a):
        raise ValueError("a must be finite")
    _require_two_modes(state)
    lhs = _resolved(float(duan_lhs(state.cov, a)), state.cov)
    rhs = float(a * a + 1.0 / (a * a))
    return DuanResult(a=float(a), lhs=lhs, rhs=rhs,
                      entangled_sufficient=bool(lhs < rhs - _STRICT_TOL),
                      symmetric=_is_symmetric(state))


def duan_best(state: GaussianState) -> DuanResult:
    """Duan check at the a minimizing lhs(a) - rhs(a) over both signs of a.

    With alpha_i the isotropic variance sums per mode, the minimizer is
    a^2 = sqrt((alpha_2 - 1)/(alpha_1 - 1)) and the sign of a is chosen to
    make the cross-covariance term negative.
    """
    _require_two_modes(state)
    c = state.cov
    alpha1 = c[0, 0] + c[1, 1]
    alpha2 = c[2, 2] + c[3, 3]
    if alpha1 - 1.0 < 1e-12 or alpha2 - 1.0 < 1e-12:
        return duan_check(state, 1.0)
    s2 = np.sqrt((alpha2 - 1.0) / (alpha1 - 1.0))
    cross = c[0, 2] - c[1, 3]
    sign = -1.0 if cross > 0 else 1.0
    return duan_check(state, sign * np.sqrt(s2))


def scheme_variance_propagated(state: GaussianState) -> float:
    """Double-homodyne variance sum of the scheme run on an arbitrary probe.

    Propagates the covariance through the balanced beam splitter and reads the
    homodyne variances actually measured (p on output 0, q on output 1), each
    scaled by the sqrt(2) estimator factor; ValueError where it cancels.
    """
    _require_two_modes(state)
    out = beamsplit_balanced(state, (0, 1))
    return _resolved(float(2.0 * (out.cov[1, 1] + out.cov[2, 2])), state.cov)


@dataclass(frozen=True)
class SqlEntanglementReport:
    """How probe entanglement relates to beating the SQL for one probe."""

    r: float
    N1: float
    N2: float
    symmetric: bool
    variance_sum: float
    beats_sql: bool
    duan_a1: DuanResult
    duan_opt: DuanResult
    r_sql: float | None = None
    n2_threshold: float | None = None


def sql_beating_vs_entanglement(r: float, N: float,
                                N2: float | None = None) -> SqlEntanglementReport:
    """Report scheme performance and Duan verdicts for a two-mode squeezed
    thermal probe given as make_tmst takes it: symmetric (N2 None) or
    asymmetric, with the report's N1 = N.

    For the symmetric family, Duan at a = 1 is necessary and sufficient, and
    beating the SQL is equivalent to r > r_sql(N).  For the asymmetric family
    the report carries the N2 value at which the scheme stops beating the SQL
    at this r.
    """
    symmetric = N2 is None
    state = make_tmst(r, N, N2)
    variance_sum = scheme_variance_propagated(state)
    report = SqlEntanglementReport(
        r=r, N1=float(N), N2=float(N if symmetric else N2), symmetric=symmetric,
        variance_sum=variance_sum, beats_sql=bool(variance_sum < 2.0),
        duan_a1=duan_check(state, 1.0), duan_opt=duan_best(state),
        r_sql=thresholds(N)[1] if symmetric else None,
        n2_threshold=asym_n2_threshold(r, N) if not symmetric else None)
    return report


def asym_n2_threshold(r: float, n1: float = 0.0) -> float:
    """N2 above which the asymmetric probe (N1 = n1) stops beating the SQL.

    The scheme variance sum 2(n1 + N2 + 1)e^{-2r} crosses 2 at
    N2 = e^{2r} - 1 - n1; zero when the probe never beats the SQL.
    ValueError where e^{2r} overflows (r above ~355).
    """
    check_probe(r, n1)
    with np.errstate(over="ignore"):  # raises below
        n2 = np.expm1(2.0 * r) - n1
    check_in_range(r, n2)
    return float(max(n2, 0.0))


def random_unsqueezed_two_mode(rng: np.random.Generator) -> GaussianState:
    """Random two-mode Gaussian state without local squeezing.

    Two-mode squeezing (r up to 1.5) of thermal inputs (N1, N2 up to 2 each)
    followed by local phase rotations; the reduced covariances stay isotropic.
    """
    state = make_tmst(rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
    state = phase_rotate(state, 0, rng.uniform(0.0, 2.0 * np.pi))
    return phase_rotate(state, 1, rng.uniform(0.0, 2.0 * np.pi))
