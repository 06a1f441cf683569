import contextlib
import io
import os
import tempfile
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dispest import cli, fock
from dispest.bounds import _bounds, _gap_D, _mat, _probe_fisher
from dispest.gaussian import _tmst_form, tmst_cov
from dispest import (BoundQuery, RLDUnavailableError, asym_n2_threshold,
                     bound_most_informative, bound_rld, bound_sld, displace, displace_fock,
                     duan_check, empirical_K_min, evaluate_bounds, gap_D,
                     gaussian_fisher, make_squeezed_thermal, make_thermal,
                     make_tmst, moments_fock, prior_fisher_gaussian, probe_fisher,
                     scaling_factors, scheme_variance_sum, thresholds, vacuum)

R_GRID = (0.0, 0.3, 0.6, 1.0)
N_GRID = (0.2, 0.5, 1.0, 2.0)


def closed_b_s(r, N):
    return (2 * N + 1) / np.cosh(2 * r)


def closed_b_r(r, N):
    return 4 * N * (1 + N) / ((2 * N + 1) * np.cosh(2 * r) - 1)


def test_vacuum_fisher():
    fm = gaussian_fisher(vacuum(1))
    assert np.allclose(fm.H, 2 * np.eye(2))
    assert np.allclose(fm.j_inv, 0.5 * np.array([[1, 1j], [-1j, 1]]))
    closed = probe_fisher("coherent", 0.0)
    assert type(closed) is type(fm) and all(map(np.allclose, closed, fm))


def test_single_mode_traces():
    r, N = 0.7, 0.4
    fm = gaussian_fisher(make_squeezed_thermal(r, N))
    assert np.isclose(np.trace(np.linalg.inv(fm.H)), (2 * N + 1) * np.cosh(2 * r))
    b_r = bound_rld(fm)
    assert np.isclose(b_r, (2 * N + 1) * np.cosh(2 * r) + 1)


def test_tmst_fisher_closed_forms():
    r, N = 0.5, 0.8
    fm = gaussian_fisher(make_tmst(r, N))
    assert np.isclose(np.trace(np.linalg.inv(fm.H)), closed_b_s(r, N))
    A = (2 * N + 1) * np.cosh(2 * r) / 2
    g = N * (N + 1) / (A * A - 0.25)
    expected = g * np.array([[A, 0.5j], [-0.5j, A]])
    assert np.allclose(fm.j_inv, expected, atol=1e-12)


def test_bound_sld_examples():
    assert bound_sld(gaussian_fisher(vacuum(1))) == 1.0
    val = bound_sld(gaussian_fisher(make_tmst(1.0, 0.5)))
    assert np.isclose(val, 2 / np.cosh(2))
    assert np.isclose(val, 0.5316, atol=5e-5)


def test_bound_sld_prior_formula():
    for r, N, delta in [(0.4, 0.7, 1.0), (1.0, 0.5, 2.0), (0.0, 2.0, 3.0)]:
        fm = gaussian_fisher(make_tmst(r, N))
        got = bound_sld(fm, delta=delta)
        d2 = delta * delta
        expected = 2 * (2 * N + 1) * d2 / (2 * N + 1 + 2 * d2 * np.cosh(2 * r))
        assert np.isclose(got, expected, rtol=1e-12)


def test_bound_rld_examples():
    for delta in (1.0, 2.0, 3.0, 5.0):
        got = bound_rld(gaussian_fisher(vacuum(1)), delta=delta)
        assert np.isclose(got, 2 * delta ** 2 / (1 + delta ** 2), atol=1e-12)
    fm = gaussian_fisher(make_tmst(0.8, 0.6))
    assert np.isclose(bound_rld(fm), closed_b_r(0.8, 0.6), rtol=1e-12)
    for delta in (1.0, 2.5):
        d2 = delta * delta
        got = bound_rld(fm, delta=delta)
        N, r = 0.6, 0.8
        expected = 4 * N * (1 + N) * d2 / (
            2 * N * (1 + N) + d2 * ((2 * N + 1) * np.cosh(2 * r) - 1))
        assert np.isclose(got, expected, rtol=1e-12)


def test_weight_matrix_scales_bounds():
    fm = gaussian_fisher(make_tmst(0.5, 1.0))
    G = 2.0 * np.eye(2)
    assert np.isclose(bound_sld(fm, weight=G), 2 * bound_sld(fm))
    assert np.isclose(bound_rld(fm, weight=G), 2 * bound_rld(fm))


def test_shots_divide_bounds():
    fm = gaussian_fisher(make_tmst(0.5, 1.0))
    assert np.isclose(bound_sld(fm, shots=10), bound_sld(fm) / 10)
    assert np.isclose(bound_rld(fm, shots=4), bound_rld(fm) / 4)


def test_most_informative_examples():
    rep = bound_most_informative(BoundQuery(kind="single"))
    assert rep.b_mi == 2.0 and rep.branch == "RLD"

    rep = bound_most_informative(BoundQuery(kind="tmst", r=0.3, N=1.0))
    assert rep.branch == "RLD"
    assert np.isclose(rep.b_mi, closed_b_r(0.3, 1.0))
    assert np.isclose(rep.b_mi, 3.1294, atol=5e-5)
    assert rep.r_ths is not None and 0.3 < rep.r_ths

    rep = bound_most_informative(BoundQuery(kind="tmst", r=1.2, N=1.0))
    assert rep.branch == "SLD"
    assert np.isclose(rep.b_mi, 3 / np.cosh(2.4))


def test_pure_tmst_uses_sld_branch():
    rep = bound_most_informative(BoundQuery(kind="tmst", r=0.5, N=0.0))
    assert rep.b_rld == 0.0
    assert np.isclose(rep.b_mi, 1 / np.cosh(1.0))


def test_thresholds():
    assert thresholds(0.0) == (0.0, 0.0)
    r_ths, r_sql = thresholds(1.0)
    assert np.isclose(r_sql, 0.25 * np.log(9.0))
    assert np.isclose(r_sql, 0.5493, atol=5e-5)
    assert np.isclose(r_ths, 0.5 * np.arccosh(3.0))
    assert np.isclose(r_ths, 0.8814, atol=5e-5)


@pytest.mark.parametrize("N", [1e-20, 1e-16, 1e-12, 1e155, 1e308,
                               1.7976931348623157e308])
def test_thresholds_match_mpmath(N):
    """arccosh(2N + 1) loses the digits of 2N at small N, and 4N^2 overflows
    at large N; asinh(sqrt N) and log1p(2N)/2 keep full precision, with
    log 2 + log N where 2N overflows."""
    with mpmath.workdps(50):
        n = mpmath.mpf(N)
        want = (mpmath.acosh(2 * n + 1) / 2, mpmath.log(1 + 4 * n + 4 * n * n) / 4)
        want = tuple(float(x) for x in want)
    assert thresholds(N) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_scheme_variance_sum():
    assert scheme_variance_sum(0.0, 0.0) == 2.0
    assert np.isclose(scheme_variance_sum(1.0, 0.5), 4 * np.exp(-2))
    with pytest.raises(ValueError):
        scheme_variance_sum(-0.1, 0.0)
    assert scheme_variance_sum(400.0, 1.0) == 0.0   # underflows without a warning


def test_gap_examples():
    assert np.isclose(gap_D(1.0, 0.0), np.exp(-4.0))
    assert np.isclose(gap_D(1.0, 0.0), 0.018316, atol=1e-6)
    # below the branch threshold the RLD bound is the reference
    r, N = 0.5, 2.0
    assert r < thresholds(N)[0]
    expected = (scheme_variance_sum(r, N) - closed_b_r(r, N)) / closed_b_r(r, N)
    assert np.isclose(gap_D(r, N), expected)
    assert gap_D(3.0, 0.5) < 1e-4


def test_prior_fisher_examples():
    assert np.allclose(prior_fisher_gaussian(1.0), np.eye(2))
    assert np.allclose(prior_fisher_gaussian(2.0), 0.25 * np.eye(2))
    assert np.allclose(prior_fisher_gaussian(np.inf), np.zeros((2, 2)))


def test_narrow_priors_raise_without_warnings():
    """Where 1/delta^2 overflows the prior raises ValueError instead of
    handing inf and nan to the bounds."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert prior_fisher_gaussian(1e-150)[0, 0] == pytest.approx(1e300)
        with pytest.raises(ValueError, match="too narrow"):
            prior_fisher_gaussian(1e-200)
        with pytest.raises(ValueError, match="too narrow"):
            evaluate_bounds(*probe_fisher("tmst", 1.0, 0.5), 1e-200)
        with pytest.raises(ValueError, match="width 1e-250 is too narrow"):
            evaluate_bounds(*probe_fisher("tmst", 1.0, 0.5), np.array([1e-200, 1, 1e-250]))


def test_scaling_factors():
    f = scaling_factors(1.0, 1.0)
    assert f.k_c == f.k_min == 0.5
    assert np.isclose(f.mse_min, 1.0) and np.isclose(f.mse_kc, 1.0)
    f = scaling_factors(3 * np.exp(-2), 2.0)
    assert np.isclose(f.k_min, 0.908, atol=5e-4)
    f = scaling_factors(0.7, np.inf)
    assert f.k_c == f.k_min == 1.0 and np.isclose(f.mse_min, 1.4)


def _squared_width_forms(var0, delta):
    """K_c, K_min, MSE(K_min) and MSE(K_c) in powers of D^2, which overflow
    for wide priors but are exact enough below D ~ 1e50."""
    d2 = delta * delta
    return (d2 / (1.0 + d2), d2 / (var0 + d2), 2.0 * var0 * d2 / (var0 + d2),
            2.0 * d2 * (1.0 + d2 * var0) / (1.0 + d2) ** 2)


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(-3.0, 300.0).map(lambda e: 10.0 ** e) | st.just(np.inf),
       var0=st.floats(1e-6, 1e3), kind=st.sampled_from(["single", "tmst"]),
       r=st.floats(0.0, 2.0), N=st.floats(0.0, 2.0))
def test_prior_forms_are_finite_and_match_the_squared_width_forms(delta, var0, kind,
                                                                  r, N):
    """Written in u = 1/D^2 and (1 - K_c)D, the scalings lie in (0, 1] and every
    field is finite for any width, D = inf included; where the D^2 forms are
    finite they agree to rounding.  An infinite width is the flat prior."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = scaling_factors(var0, delta)
    fields = (f.k_c, f.k_min, f.mse_min, f.mse_kc)
    assert all(np.isfinite(x) for x in fields)
    assert 0.0 < f.k_c <= 1.0 and 0.0 < f.k_min <= 1.0
    assert f.mse_min <= f.mse_kc * (1.0 + 1e-15)  # equal at Var0 = 1, to rounding
    if delta <= 1e50:
        assert fields == pytest.approx(_squared_width_forms(var0, delta),
                                       rel=1e-14, abs=0.0)
    H, j_inv = probe_fisher(kind, r, N)
    for got, flat in zip(evaluate_bounds(H, j_inv, np.inf), evaluate_bounds(H, j_inv)):
        assert np.array_equal(got, flat)


def test_flat_prior_monotonicity():
    rs = np.linspace(0.05, 1.5, 12)
    for N in N_GRID:
        b_s = [closed_b_s(r, N) for r in rs]
        b_r = [closed_b_r(r, N) for r in rs]
        got_s = [bound_sld(gaussian_fisher(make_tmst(r, N))) for r in rs]
        got_r = [bound_rld(gaussian_fisher(make_tmst(r, N))) for r in rs]
        assert np.allclose(got_s, b_s, rtol=1e-10)
        assert np.allclose(got_r, b_r, rtol=1e-10)
        assert np.all(np.diff(got_s) < 0) and np.all(np.diff(got_r) < 0)
    for r in (0.2, 0.8):
        ns = np.linspace(0.1, 2.5, 10)
        got_s = [bound_sld(gaussian_fisher(make_tmst(r, n))) for n in ns]
        got_r = [bound_rld(gaussian_fisher(make_tmst(r, n))) for n in ns]
        assert np.all(np.diff(got_s) > 0) and np.all(np.diff(got_r) > 0)


def test_branch_continuity_at_threshold():
    for N in N_GRID:
        r_ths, _ = thresholds(N)
        assert abs(closed_b_s(r_ths, N) - closed_b_r(r_ths, N)) < 1e-9


def test_scheme_never_beats_the_bound():
    for r in R_GRID:
        for N in N_GRID:
            rep = bound_most_informative(BoundQuery(kind="tmst", r=r, N=N))
            assert scheme_variance_sum(r, N) >= rep.b_mi - 1e-12


def test_prior_limits():
    big = 1e6
    for r, N in [(0.3, 0.5), (0.8, 1.5)]:
        fm = gaussian_fisher(make_tmst(r, N))
        assert np.isclose(bound_sld(fm, delta=big), bound_sld(fm), rtol=1e-5)
        assert np.isclose(bound_rld(fm, delta=big), bound_rld(fm), rtol=1e-5)
        deltas = (0.5, 1.0, 2.0, 5.0, 20.0)
        s_vals = [bound_sld(fm, delta=d) for d in deltas]
        r_vals = [bound_rld(fm, delta=d) for d in deltas]
        assert np.all(np.diff(s_vals) > 0) and np.all(np.diff(r_vals) > 0)


def test_bounds_ignore_probe_displacement():
    st = make_squeezed_thermal(0.4, 0.6)
    fm0 = gaussian_fisher(st)
    fm1 = gaussian_fisher(displace(st, 0, 3.0, -2.0))
    assert np.array_equal(fm0.H, fm1.H)
    assert np.array_equal(fm0.j_inv, fm1.j_inv)


def test_heisenberg_scaling():
    r = 5.0
    scaled = scheme_variance_sum(r, 0.0) * np.sinh(r) ** 2
    assert 0.495 < scaled < 0.505


def test_singular_sld_bound_is_infinite():
    fm = gaussian_fisher(make_thermal(0.5, 1))
    zero = fm._replace(H=np.zeros((2, 2)))
    assert bound_sld(zero) == np.inf


@pytest.mark.parametrize("state_maker", [
    lambda: vacuum(1),
    lambda: make_squeezed_thermal(0.6, 0.4),
    lambda: make_tmst(0.8, 1.2),
    lambda: make_tmst(0.5, 0.0, 1.0),
])
def test_fisher_matrix_invariants(state_maker):
    fm = gaussian_fisher(state_maker())
    assert np.linalg.eigvalsh(fm.H).min() > 0
    assert np.allclose(fm.j_inv, fm.j_inv.conj().T)
    assert np.linalg.eigvalsh(fm.j_inv).min() > -1e-12
    assert np.linalg.eigvalsh(fm.j_inv.real).min() > -1e-12


def test_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(kind="weird")
    with pytest.raises(ValueError):
        BoundQuery(kind="tmst", r=-0.2)
    with pytest.raises(ValueError):
        BoundQuery(kind="tmst_asym", r=0.2, N=0.1)
    # N2 is given for tmst_asym and only there: a symmetric query with N2
    # would report the asymmetric bounds beside the symmetric scheme variance
    with pytest.raises(ValueError, match="N2"):
        BoundQuery(kind="tmst", r=1.0, N=0.5, N2=3.0)
    with pytest.raises(ValueError):
        BoundQuery(kind="tmst", delta=0.0)
    with pytest.raises(ValueError):
        BoundQuery(kind="tmst", weight=np.array([[1.0, 2.0], [2.0, 1.0]]))
    # eigenvalues -1e308 and 1e308: the symmetric part must not overflow
    with pytest.raises(ValueError, match="positive definite"):
        BoundQuery(kind="tmst", weight=[[1.0, 1e308], [1e308, 1.0]])
    for bad in (np.nan, np.inf, -np.inf):
        for field in ("r", "N", "N2", "delta"):
            with pytest.raises(ValueError):
                BoundQuery(kind="tmst_asym", **{"r": 0.5, "N": 0.5, "N2": 0.5,
                                                field: bad})
        with pytest.raises(ValueError):
            BoundQuery(kind="tmst", weight=np.array([[1.0, 0.0], [0.0, bad]]))
    # shots follows EstimationConfig: an integer of at least 1, bool excluded
    for bad in (float("inf"), 2.5, 1.0, True, 0, -3, np.int64(0), "2", None):
        with pytest.raises(ValueError, match="shots must be an integer"):
            BoundQuery(kind="tmst", r=1.0, N=1.0, shots=bad)
    for good in (1, 7, np.int64(3), np.uint8(2)):
        assert BoundQuery(kind="tmst", r=1.0, N=1.0, shots=good).shots == good


def test_a_coherent_query_takes_no_r_or_N():
    """A coherent query that records r or N would report the vacuum's bounds
    for it; probe_fisher('coherent', r) keeps ignoring r, as sweeps need."""
    for r, N in [(1.0, 2.0), (1.0, 0.0), (0.0, 2.0), (np.nan, 0.0)]:
        with pytest.raises(ValueError, match="a coherent probe takes no r or N"):
            BoundQuery(kind="coherent", r=r, N=N)
    assert bound_most_informative(BoundQuery(kind="coherent", r=0.0, N=0.0)).b_mi == 2.0
    H, _ = probe_fisher("coherent", np.linspace(0.0, 3.0, 4))
    assert np.array_equal(H, np.broadcast_to(2.0 * np.eye(2), (4, 2, 2)))


@pytest.mark.parametrize("delta", [1e-78, 1e-100, 1e-150])
def test_narrow_priors_stay_finite(delta):
    """Between delta ~ 1e-154, where u = 1/delta^2 overflows, and ~1e-77 the
    term D u^2 of det K overflows; the rescaled form keeps B_R finite with no
    warning: 2 delta^2 (1 + O(delta^2)) for mixed probes and the vacuum, and
    zero for a pure two-mode probe."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, r, N, N2 in [("tmst", 1.0, 0.5, None), ("coherent", 0.0, 0.0, None),
                               ("single", 0.5, 1e5, None), ("tmst_asym", 1.0, 2.0, 0.0)]:
            b_s, b_r, b_mi, _ = evaluate_bounds(*probe_fisher(kind, r, N, N2), delta)
            assert b_r == pytest.approx(2.0 * delta ** 2, rel=1e-14)
            assert b_s == pytest.approx(2.0 * delta ** 2, rel=1e-14)
            assert b_mi == max(b_s, b_r)
        report = bound_most_informative(BoundQuery(kind="tmst", r=1.0, N=0.5, delta=delta))
        assert report.b_rld == pytest.approx(2.0 * delta ** 2, rel=1e-14)
        assert evaluate_bounds(*probe_fisher("tmst", 1.0, 0.0), delta)[1] == 0.0


def test_narrow_prior_rld_where_det_j_inv_underflows():
    """At (tmst, r = 300, N = 1000) the entries of J^-1 are ~5e-258, so
    D = det J^-1 underflows to 0, while D u^2 dominates det K below
    delta ~ 1e-130: B_R matches a 60-digit evaluation from the same entries.
    At delta = 1e-100, where D u^2 is negligible, B_R keeps its former bits."""
    fm = probe_fisher("tmst", 300.0, 1000.0)
    assert np.linalg.det(fm.j_inv) == 0.0
    with mpmath.workdps(60):
        j_inv = mpmath.matrix([[complex(e) for e in row] for row in fm.j_inv])
        for delta in (1e-150, 1e-140):
            X = (j_inv ** -1 + mpmath.eye(2) / mpmath.mpf(delta) ** 2) ** -1
            exact = float(mpmath.re(X[0, 0] + X[1, 1]) + abs(mpmath.im(X[0, 1] - X[1, 0])))
            assert abs(evaluate_bounds(*fm, delta)[1] / exact - 1.0) < 1e-12
    assert evaluate_bounds(*fm, 1e-100)[1] == float.fromhex("0x1.462b892fae93fp-854")


BROADCAST_PROBES = [("coherent", 0.0, None), ("single", 0.7, None), ("tmst", 0.7, None),
                    ("tmst", 1000.0, None), ("tmst_asym", 0.7, 0.0)]


@pytest.mark.parametrize("kind,N,N2", BROADCAST_PROBES)
def test_prior_widths_broadcast_bit_for_bit(kind, N, N2):
    """Widths shaped (W, 1) give the W single-width evaluations stacked, bit
    for bit, for every weight and shot count: the narrow-prior rescale
    (u > 1e100, here with det J^-1 underflowed at r = 300) and the overflow
    form of det K change only their own rows."""
    r = np.array([0.0, 0.4, 1.0, 3.0] + ([300.0] if kind != "single" else []))
    widths = np.array([1e-150, 1e-100, 1e-3, 1.0, 1e300])
    G = np.array([[2.0, 0.3], [0.3, 0.5]])
    fm = probe_fisher(kind, r, N, N2)
    for weight in (None, G, G * np.linspace(0.5, 2.0, r.size)[:, None, None]):
        for shots in (1, 7):
            got = evaluate_bounds(*fm, widths[:, None], weight, shots)
            singles = [evaluate_bounds(*fm, float(d), weight, shots) for d in widths]
            for i, values in enumerate(got):
                np.testing.assert_array_equal(values, np.stack([s[i] for s in singles]),
                                              strict=True)


def test_scaling_factors_broadcast_widths():
    """Widths shaped (W, 1) give the single-width scalings stacked, bit for
    bit and finite with no warning, from a width whose square underflows
    (u = inf) to an infinite one."""
    var0 = np.array([1e-6, 0.3, 1.0, 7.0, 1e3])
    widths = np.array([1e-300, 1e-150, 1e-3, 1.0, 2.0, 1e300, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = scaling_factors(var0, widths[:, None])
        singles = [scaling_factors(var0, float(d)) for d in widths]
    for name, values in vars(got).items():
        want = np.stack([np.broadcast_to(getattr(s, name), var0.shape) for s in singles])
        np.testing.assert_array_equal(np.broadcast_to(values, want.shape), want, strict=True)
        assert np.all(np.isfinite(values))


def _fock_vacuum():
    return fock._build_at_dim("single", 0.0, 0.0, None, 4)


@pytest.mark.parametrize("call, match", [
    (lambda: empirical_K_min(0.5, 0.2, 1.0, 2000, [0.5, np.nan, 0.9]), "k_grid"),
    (lambda: displace_fock(_fock_vacuum(), 0, np.nan, 0.0), "q0"),
    (lambda: displace_fock(_fock_vacuum(), 0, 0.0, np.inf), "p0"),
    (lambda: evaluate_bounds(*probe_fisher("tmst", 1.0, 0.5), shots=0), "shots"),
    (lambda: probe_fisher("tmst_asym", 1.0, 0.5), "N2"),
    (lambda: probe_fisher("single", 1.0, 0.5, 0.2), "N2"),
    (lambda: probe_fisher("squeezed", 1.0, 0.5), "probe kind"),
    (lambda: bound_sld(gaussian_fisher(vacuum(1)), shots=0), "shots"),
    (lambda: bound_rld(gaussian_fisher(vacuum(1)), shots=0), "shots"),
    (lambda: duan_check(make_tmst(0.5, 0.5), a=np.nan), "a must be finite"),
    (lambda: moments_fock(_fock_vacuum(), [[("q", 0), ("x", 0)]]), "q, p, a or adag"),
    (lambda: bound_sld(gaussian_fisher(vacuum(1)), delta=0.0), "prior width"),
    (lambda: scaling_factors(0.0, 1.0), "var0"),
    (lambda: scaling_factors(1.0, 0.0), "prior width"),
    (lambda: tmst_cov(0.3, None), "needs r and N"),
    (lambda: scheme_variance_sum(0.3, None), "needs r and N"),
    (lambda: gap_D(0.3, None), "needs r and N"),
    (lambda: tmst_cov(None, 0.3), "needs r and N"),
    (lambda: scheme_variance_sum(None, 0.3), "needs r and N"),
    (lambda: gap_D(None, 0.3), "needs r and N"),
    (lambda: gap_D(400.0, 1.0), "floating-point range"),
    (lambda: asym_n2_threshold(400.0), "floating-point range"),
])
def test_bad_arguments_raise_at_entry(call, match):
    """NaN, an infinite displacement, a zero shot count or prior width, an
    unknown operator name or a missing probe parameter is a ValueError naming
    the argument, and a closed form past the float range (r = 400) one naming
    the range, with no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("r", [1e-160, 6.86e-159])
def test_pure_tmst_at_subnormal_sinh_squared(r):
    """sinh(r)^2 and so q are subnormal here, where 1/q overflows: J^-1 must
    divide b by q in real arithmetic, not through a complex division."""
    rep = bound_most_informative(BoundQuery(kind="tmst", r=r, N=0.0))
    assert rep.b_rld == 0.0
    assert rep.b_mi == rep.b_sld and rep.branch == "SLD"


@pytest.mark.parametrize("r", [8.0, 12.0, 15.0])
@pytest.mark.parametrize("N", [0.3, 1.0, 2.5])
def test_large_squeezing_matches_closed_forms(r, N):
    rep = bound_most_informative(BoundQuery(kind="tmst", r=r, N=N))
    assert rep.b_sld == pytest.approx(closed_b_s(r, N), rel=1e-13)
    assert rep.b_rld == pytest.approx(closed_b_r(r, N), rel=1e-13)
    assert rep.b_mi == rep.b_sld and rep.branch == "SLD"
    assert np.isfinite(rep.gap)


def test_batched_layer_broadcasts():
    r = np.linspace(0.0, 3.0, 7)[:, None]
    N = np.array([0.2, 1.0, 2.0])
    H, j_inv = probe_fisher("tmst", r, N)
    assert H.shape == j_inv.shape == (7, 3, 2, 2)
    b_s, b_r, b_mi, branch = evaluate_bounds(H, j_inv)
    assert np.allclose(b_s, closed_b_s(r, N), rtol=1e-13)
    assert np.allclose(b_r, closed_b_r(r, N), rtol=1e-13)
    assert np.array_equal(branch == "RLD", r < 0.5 * np.arccosh(2 * N + 1))


@pytest.mark.parametrize("n1", [0.3, 1.0, 2.5])
def test_asym_product_state_at_zero_squeezing(n1):
    """At r = 0 with N2 = 0 the probe is thermal(N1) x vacuum: J^-1 is the
    thermal mode's nu_1 I + (i/2) Omega, and the RLD branch gives 2N1 + 2."""
    H, j_inv = probe_fisher("tmst_asym", 0.0, n1, 0.0)
    fm = gaussian_fisher(make_tmst(0.0, n1, 0.0))
    assert np.allclose(H, fm.H, rtol=1e-14) and np.allclose(j_inv, fm.j_inv, rtol=1e-14)
    rep = bound_most_informative(BoundQuery(kind="tmst_asym", r=0.0, N=n1, N2=0.0))
    assert rep.b_rld == pytest.approx(2 * n1 + 2, rel=1e-14)
    assert rep.b_mi == rep.b_rld and rep.branch == "RLD"
    assert rep.b_sld == pytest.approx(2 * n1 + 1, rel=1e-14)


@pytest.mark.parametrize("r", [1e-7, 3e-7])
@pytest.mark.parametrize("n1", [0.05, 1.0, 3.0])
def test_covariance_route_keeps_the_weakly_squeezed_vacuum_mode(r, n1):
    """The vacuum mode of tmst_asym with N2 = 0 has the eigenvalue
    ~r^2 (N1 + 1) in its block of cov + (i/2) Omega; a pseudo-inverse floor
    above the block's rounding level drops it, which gave B_R = 2N1 + 2 (the
    r = 0 product state) instead of the closed form."""
    fm = gaussian_fisher(make_tmst(r, n1, 0.0))
    H, j_inv = probe_fisher("tmst_asym", r, n1, 0.0)
    assert bound_rld(fm) == pytest.approx(float(evaluate_bounds(H, j_inv)[1]), rel=1e-12)
    assert bound_rld(fm) == pytest.approx(2 * n1, rel=1e-6)


@pytest.mark.parametrize("kind, N2, delta", [("tmst", None, None), ("tmst", None, 2.0),
                                             ("tmst_asym", 0.4, None), ("single", None, None),
                                             ("coherent", None, 0.5)])
def test_a_checked_query_is_not_checked_again(probe_checks, kind, N2, delta):
    r, N = (0.0, 0.0) if kind == "coherent" else (0.7, 1.0)
    query = BoundQuery(kind=kind, r=r, N=N, N2=N2, delta=delta)
    assert len(probe_checks) == 1
    del probe_checks[:]
    report = bound_most_informative(query)
    assert probe_checks == []
    assert report.b_mi == max(report.b_sld, report.b_rld)


def _zero_or(lo, hi):
    return st.just(0.0) | st.floats(lo, hi)


def _cli_csv(argv):
    """Exit code and data rows of an in-process dispest call that prints CSV."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    lines = [x for x in out.getvalue().splitlines()[4:] if x]
    return code, np.array([[float(v) for v in x.split(",")] for x in lines])


def _all_finite(*values):
    return all(np.isfinite(v).all() for v in values)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["coherent", "single", "tmst", "tmst_asym"]),
       r_max=st.floats(0.01, 400.0), steps=st.integers(2, 30),
       N=_zero_or(1e-8, 50.0) | st.just(1e77), N2=_zero_or(1e-8, 50.0),
       delta=st.none() | st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.9),
                                   st.integers(-77, 299)),
       g=st.none() | st.tuples(st.floats(0.2, 3.0), st.floats(-0.9, 0.9),
                               st.floats(0.2, 3.0)),
       shots=st.integers(1, 1000))
def test_entry_route_matches_the_stacked_route(kind, r_max, steps, N, N2, delta, g,
                                               shots):
    """The entry tuples of _probe_fisher through the kernels give the same
    bits, NaN and inf included, as the stacked FisherMatrices through
    evaluate_bounds; so do the sweep values, the fig3 B_MI column and the
    bound_most_informative fields, where the command or query succeeds, and
    they fail exactly where a value they check is out of range."""
    grid = np.linspace(0.0, r_max, steps)
    n2 = N2 if kind == "tmst_asym" else None
    G = None if g is None else np.array([[g[0], g[1] * np.sqrt(g[0] * g[2])],
                                         [g[1] * np.sqrt(g[0] * g[2]), g[2]]])
    with np.errstate(all="ignore"):
        fm = probe_fisher(kind, grid, N, n2)
        ref = evaluate_bounds(*fm, delta, G, shots)
        flat = evaluate_bounds(*fm, delta)
        h, j_inv = _probe_fisher(kind, grid, N, n2)
        b_s, b_r, b_mi, rld = _bounds(h, j_inv, delta, G, shots)
    for got, want in [(fm.H, _mat(*h)), (fm.j_inv, _mat(*j_inv))]:
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)
    for got, want in zip((b_s, b_r, b_mi), ref):
        assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.where(rld, "RLD", "SLD"), ref[3])

    probe = kind.replace("_", "-")
    args = ["--r-min", "0", "--r-max", repr(r_max), "--steps", str(steps)]
    args += (["--N1", repr(N), "--N2", repr(N2)] if kind == "tmst_asym"
             else [] if kind == "coherent" else ["--N", repr(N)])
    args += [] if delta is None else ["--delta", repr(delta)]
    for quantity, want in zip(("b_sld", "b_rld", "b_mi"), flat):
        code, rows = _cli_csv(["sweep", "--quantity", quantity, "--probe", probe, *args])
        assert code == (0 if _all_finite(want) else 3)
        if code == 0:
            assert np.array_equal(rows[:, 1], want)

    if kind == "tmst":
        fig_delta = 1.0 if delta is None else delta
        with np.errstate(all="ignore"):
            want = evaluate_bounds(*fm, fig_delta)[2]
            var0 = scheme_variance_sum(grid, N) / 2.0
        with tempfile.TemporaryDirectory() as out:
            code, _ = _cli_csv(["figure", "fig3", "--N", repr(N), "--deltas", repr(fig_delta),
                                "--out", out, *args[:6]])
            assert code == (0 if _all_finite(*fm, want, var0) else 3)
            if code == 0:
                rows = np.loadtxt(os.path.join(out, os.listdir(out)[0]), delimiter=",",
                                  comments="#", skiprows=4, ndmin=2)
                assert np.array_equal(rows[:, 3], want)

    for i in range(0, steps, max(1, steps // 4)):
        query = (BoundQuery(kind="coherent", delta=delta, weight=G, shots=shots)
                 if kind == "coherent" else
                 BoundQuery(kind=kind, r=grid[i], N=N, N2=n2, delta=delta, weight=G,
                            shots=shots))
        checked = [fm.H[i], fm.j_inv[i], ref[0][i], ref[1][i]]
        if kind == "tmst":
            with np.errstate(all="ignore"):  # the public wrappers raise here
                checked.append(_tmst_form(grid[i], N).E)
                if delta is None and G is None and shots == 1:
                    checked.append(_gap_D(grid[i], N))
        try:
            report = bound_most_informative(query)
        except ValueError:
            assert not _all_finite(*checked)
            continue
        assert _all_finite(*checked)
        assert (report.b_sld, report.b_rld, report.b_mi, report.branch) == \
            (ref[0][i], ref[1][i], ref[2][i], ref[3][i])


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["coherent", "single", "tmst", "tmst_asym"]),
       r=_zero_or(0.0, 2.0), N=_zero_or(0.05, 3.0), N2=_zero_or(0.05, 3.0),
       delta=st.none() | st.floats(0.2, 10.0),
       g=st.tuples(st.floats(0.2, 3.0), st.floats(-0.9, 0.9), st.floats(0.2, 3.0)),
       shots=st.integers(1, 1000))
def test_batched_layer_matches_covariance_route(kind, r, N, N2, delta, g, shots):
    """The closed forms against the covariance route of gaussian_fisher, whose
    Schur complement loses ~e^{4r}/(N(N+1)) machine epsilons; N >= 0.05 keeps
    that below the 1e-10 gate.  With N2 = 0 the second mode's block has an
    eigenvalue ~r^2 (N1 + 1), which the stored covariance holds only to a
    few ulps of 1/2 below r ~ 7e-8 (J^-1 then errs by percents, and the prior's
    det(I + J^-1 A) can change sign), so that route needs r = 0 or
    r >= 1e-7.  Pure two-mode probes (N = N2 = 0)
    take the N -> 0+ limit of B_R, zero."""
    assume(not (kind == "tmst_asym" and N2 == 0.0 and 0.0 < r < 1e-7))
    G = np.array([[g[0], g[1] * np.sqrt(g[0] * g[2])],
                  [g[1] * np.sqrt(g[0] * g[2]), g[2]]])
    n2 = N2 if kind == "tmst_asym" else None
    b_s, b_r, b_mi, branch = evaluate_bounds(*probe_fisher(kind, r, N, n2),
                                             delta, G, shots)
    state = (BoundQuery(kind=kind) if kind == "coherent"
             else BoundQuery(kind=kind, r=r, N=N, N2=n2)).probe_state()
    fm = gaussian_fisher(state)
    assert b_s == pytest.approx(bound_sld(fm, G, delta, shots), rel=1e-10)
    pure = kind in ("tmst", "tmst_asym") and state.purity > 1.0 - 1e-9
    assert b_r == (0.0 if pure else pytest.approx(bound_rld(fm, G, delta, shots),
                                                   rel=1e-10))
    assert b_mi == max(b_s, b_r)
    assert branch == ("RLD" if b_r > b_s else "SLD")


def _linalg_bounds(H, j_inv, prior, G, shots):
    """B_S and B_R of one 2x2 point through np.linalg, the reference for the
    entrywise algebra of evaluate_bounds."""
    T = H if prior is None else H + prior
    b_s = np.trace(G @ np.linalg.inv(T)) / shots
    X = j_inv if prior is None else np.linalg.solve(np.eye(2) + j_inv @ prior, j_inv)
    X = 0.5 * (X + X.conj().T)
    norm = np.linalg.svd(G @ X.imag, compute_uv=False).sum()
    return b_s, (np.trace(G @ X.real) + norm) / shots


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), delta=st.sampled_from([None, 0.3, 5.0]),
       weight=st.sampled_from(["identity", "single", "stacked"]),
       shots=st.integers(1, 1000))
def test_entrywise_algebra_matches_linalg(data, n, delta, weight, shots):
    """Positive definite H, Hermitian positive semidefinite J^-1 and weights,
    stacked n deep, against np.linalg one point at a time."""
    def stack(shape=(n, 2, 2)):
        return data.draw(arrays(float, shape, elements=st.floats(-2.0, 2.0)))

    def gram(m):
        return m @ np.conj(np.swapaxes(m, -1, -2))

    H = gram(stack()) + 0.1 * np.eye(2)
    j_inv = gram(stack() + 1j * stack())
    G = {"identity": None, "single": gram(stack((2, 2))) + 0.1 * np.eye(2),
         "stacked": gram(stack()) + 0.1 * np.eye(2)}[weight]
    b_s, b_r, b_mi, branch = evaluate_bounds(H, j_inv, delta, G, shots)
    prior = None if delta is None else prior_fisher_gaussian(delta)
    for k in range(n):
        g = np.eye(2) if G is None else G if G.ndim == 2 else G[k]
        ref_s, ref_r = _linalg_bounds(H[k], j_inv[k], prior, g, shots)
        assert b_s[k] == pytest.approx(ref_s, rel=1e-12)
        assert b_r[k] == pytest.approx(ref_r, rel=1e-12)
    assert np.array_equal(b_mi, np.maximum(b_s, b_r))
    assert np.array_equal(branch == "RLD", b_r > b_s)


def test_singular_cases_of_the_entrywise_algebra():
    """B_S is +inf exactly where |det(H + A)| < 1e-300, with no warning, and a
    singular K = I + J^-1 A raises RLDUnavailableError."""
    H = np.array([np.eye(2), np.ones((2, 2)), np.zeros((2, 2)),
                  np.diag([1e-160, 1e-160]), np.diag([1e200, 3e200])])
    j_inv = np.broadcast_to(np.array([[1.0, 0.5j], [-0.5j, 1.0]]), H.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b_s = evaluate_bounds(H, j_inv)[0]
        assert np.array_equal(b_s[:4], [2.0, np.inf, np.inf, np.inf])
        assert b_s[4] == pytest.approx(1e-200 + 1 / 3e200, rel=1e-15)
        # H + A = 0 under the prior I/delta^2
        assert evaluate_bounds(-4.0 * np.eye(2), j_inv[0], 0.5)[0] == np.inf
    with pytest.raises(RLDUnavailableError):
        evaluate_bounds(H, -0.25 * np.eye(2, dtype=complex), 0.5)


def _general_prior(H, j_inv, A):
    """H + A and X = (J + A)^-1 for a general 2x2 prior Fisher matrix A, entry
    by entry as X = (J^-1 + D adj A) / det K with D = det J^-1 and
    det K = 1 + tr[J^-1 A] + D det A: the reference for the isotropic prior
    algebra of evaluate_bounds, which must match it bit for bit.  Where det K
    leaves the float range, both are divided through by c^k with c the largest
    entry of A and k = 0, 1 or 2 the least that keeps them finite; with
    A = c A', det A = c^2 det A' and adj A = c adj A'."""
    x = [j_inv[..., i, k] for i, k in ((0, 0), (0, 1), (1, 0), (1, 1))]
    a = A.ravel()
    d = x[0] * x[3] - x[1] * x[2]
    det = 1.0 + (a[0] * x[0] + a[1] * x[2] + a[2] * x[1] + a[3] * x[3]) \
        + d * (a[0] * a[3] - a[1] * a[2])
    num = [e + d * f for e, f in zip(x, (a[3], -a[1], -a[2], a[0]))]
    wide = ~np.isfinite(det)
    if np.any(wide):
        c = np.abs(a).max()
        p = a / c  # the entries of A'
        tr = p[0] * x[0] + p[1] * x[2] + p[2] * x[1] + p[3] * x[3]
        det_c = (p[0] * p[3] - p[1] * p[2]) * c
        k0 = np.isfinite(1.0 + c * tr + (d * c) * det_c)
        k1 = np.isfinite(d * c)
        lo = np.where(k0, 1.0, np.where(k1, 1.0 / c, (1.0 / c) * (1.0 / c)))  # c^-k
        hi = np.where(k0, c, np.where(k1, 1.0, 1.0 / c))  # c^(1-k)
        det = np.where(wide, lo + hi * tr + (d * hi) * det_c, det)
        num = [np.where(wide, e * lo + (d * hi) * f, g)
               for e, f, g in zip(x, (p[3], -p[1], -p[2], p[0]), num)]
    X = np.stack([e / det for e in num], axis=-1)
    return H + A, X.reshape(j_inv.shape)


@pytest.mark.parametrize("delta", [1e-150, 1e-3, 1.0, 1e3, 1e300, np.inf])
def test_isotropic_prior_matches_the_general_algebra(delta):
    """The prior I/delta^2 through evaluate_bounds gives the same bits as the
    general 2x2 algebra on stacked probe grids, for every weight and shot
    count.  At delta = 1e-150, where u^2 leaves the float range, both take the
    rescaled form and stay finite."""
    r, N = np.linspace(0.0, 3.0, 13)[:, None], np.array([0.0, 0.1, 1.0, 4.0])
    rng = np.random.default_rng(17)
    m = rng.normal(size=(13, 4, 2, 2))
    weights = [None, np.array([[1.3, 0.2], [0.2, 0.7]]),
               m @ np.swapaxes(m, -1, -2) + 0.1 * np.eye(2)]
    with np.errstate(all="ignore"):
        A = np.eye(2) / (delta * delta)
        for kind, n2 in [("coherent", None), ("single", None), ("tmst", None),
                         ("tmst_asym", 0.0), ("tmst_asym", 2.5)]:
            fm = probe_fisher(kind, r, N, n2)
            for G in weights:
                for shots in (1, 7, 1000):
                    got = evaluate_bounds(*fm, delta, G, shots)
                    ref = evaluate_bounds(*_general_prior(*fm, A), None, G, shots)
                    for g, f in zip(got, ref):
                        np.testing.assert_array_equal(g, f, strict=True)
                    assert np.all(np.isfinite(got[1])) or delta != 1e-150
