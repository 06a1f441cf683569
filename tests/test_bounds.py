import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dispest import (BoundQuery, RLDUnavailableError, bound_most_informative,
                     bound_rld, bound_sld, build_probe_fock, displace, displace_fock,
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


def test_scheme_variance_sum():
    assert scheme_variance_sum(0.0, 0.0) == 2.0
    assert np.isclose(scheme_variance_sum(1.0, 0.5), 4 * np.exp(-2))
    with pytest.raises(ValueError):
        scheme_variance_sum(-0.1, 0.0)


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


def _fock_vacuum():
    return build_probe_fock("single", 0.0, 0.0, dim=4, tail_tol=np.inf)


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
])
def test_bad_arguments_raise_at_entry(call, match):
    """NaN, an infinite displacement, a zero shot count or an unknown operator
    name is a ValueError naming the argument, with no warning on the way."""
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
    state = BoundQuery(kind=kind, r=r, N=N, N2=n2).probe_state()
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
    algebra of evaluate_bounds, which must match it bit for bit."""
    x = [j_inv[..., i, k] for i, k in ((0, 0), (0, 1), (1, 0), (1, 1))]
    a = A.ravel()
    d = x[0] * x[3] - x[1] * x[2]
    det = 1.0 + (a[0] * x[0] + a[1] * x[2] + a[2] * x[1] + a[3] * x[3]) \
        + d * (a[0] * a[3] - a[1] * a[2])
    adj = (a[3], -a[1], -a[2], a[0])
    X = np.stack([(e + d * f) / det for e, f in zip(x, adj)], axis=-1)
    return H + A, X.reshape(j_inv.shape)


@pytest.mark.parametrize("delta", [1e-150, 1e-3, 1.0, 1e3, 1e300, np.inf])
def test_isotropic_prior_matches_the_general_algebra(delta):
    """The prior I/delta^2 through evaluate_bounds gives the same bits as the
    general 2x2 algebra on stacked probe grids, for every weight and shot
    count; where u = 1/delta^2 or u^2 leaves the float range both give the
    same inf or nan."""
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
