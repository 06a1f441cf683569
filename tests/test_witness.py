import numpy as np
import pytest

from dispest import (asym_n2_threshold, beamsplit_balanced, duan_best, duan_check,
                     make_tmst, random_unsqueezed_two_mode, scheme_variance_propagated,
                     scheme_variance_sum, sql_beating_vs_entanglement, vacuum)
from dispest.witness import duan_lhs


def test_duan_examples():
    res = duan_check(make_tmst(0.5, 0.0), 1.0)
    assert np.isclose(res.lhs, 2 * np.exp(-1.0))
    assert res.entangled_sufficient and res.symmetric

    res = duan_check(vacuum(2), 1.0)
    assert res.lhs == 2.0 == res.rhs
    assert not res.entangled_sufficient

    with pytest.raises(ValueError):
        duan_check(vacuum(2), 0.0)
    with pytest.raises(ValueError):
        duan_check(vacuum(1), 1.0)


def test_duan_identity_with_scheme_variance():
    for r in (0.0, 0.3, 0.6, 1.0):
        for N in (0.2, 0.5, 1.0, 2.0):
            lhs = duan_check(make_tmst(r, N), 1.0).lhs
            assert abs(lhs - scheme_variance_sum(r, N)) < 1e-12


def test_rhs_minimized_at_unit_a():
    for a in (0.3, 0.7, 1.0, -1.0, 1.8, -2.5):
        res = duan_check(vacuum(2), a)
        assert res.rhs >= 2.0 - 1e-12
    assert duan_check(vacuum(2), 1.0).rhs == 2.0
    assert duan_check(vacuum(2), -1.0).rhs == 2.0


def test_duan_best_never_worse_than_unit_a():
    rng = np.random.default_rng(7)
    for _ in range(50):
        st = random_unsqueezed_two_mode(rng)
        at_one = duan_check(st, 1.0)
        best = duan_best(st)
        assert (best.lhs - best.rhs) <= (at_one.lhs - at_one.rhs) + 1e-9
    # the vacuum has alpha_1 = alpha_2 = 1, where the minimizer is undefined
    assert duan_best(make_tmst(0.0, 0.0)) == duan_check(make_tmst(0.0, 0.0), 1.0)


def test_propagated_variance_matches_closed_form():
    for r, N in [(0.0, 0.0), (0.4, 0.7), (1.2, 0.1)]:
        assert np.isclose(scheme_variance_propagated(make_tmst(r, N)),
                          scheme_variance_sum(r, N), atol=1e-12)


@pytest.mark.parametrize("r", [8.0, 10.0, 12.0])
def test_cross_checks_refuse_cancelled_sums(r):
    """Past r ~ 6 the covariance route loses the variance sum in the rounding
    of its e^{2r} entries (-2.0e-7 against 1.2e-8 at r = 10): it raises."""
    for call in (scheme_variance_propagated, duan_check, duan_best):
        with pytest.raises(ValueError, match="cancels"):
            call(make_tmst(r, 1.0))
    with pytest.raises(ValueError, match="cancels"):
        sql_beating_vs_entanglement(r, N=1.0)


def test_cross_checks_keep_resolved_sums():
    """Where the sum is resolved the guard returns the covariance route's value
    unchanged; at r = 6 it is within 1e-5 of the exact 2(2N + 1)e^{-2r}."""
    for r in (0.0, 0.5, 1.0, 2.0, 6.0):
        for N in (0.0, 1.0):
            st = make_tmst(r, N)
            out = beamsplit_balanced(st, (0, 1)).cov
            assert scheme_variance_propagated(st) == 2.0 * (out[1, 1] + out[2, 2])
            assert duan_check(st).lhs == duan_lhs(st.cov)
            exact = 2.0 * (2.0 * N + 1.0) * np.exp(-2.0 * r)
            assert scheme_variance_propagated(st) == pytest.approx(exact, rel=1e-5)


def test_symmetric_report():
    rep = sql_beating_vs_entanglement(0.3, N=0.0)
    assert rep.beats_sql and rep.duan_a1.entangled_sufficient
    assert np.isclose(rep.variance_sum, 2 * np.exp(-0.6))

    rep = sql_beating_vs_entanglement(0.4, N=1.0)
    assert not rep.beats_sql and not rep.duan_a1.entangled_sufficient
    assert rep.r_sql is not None and rep.r_sql > 0.4

    rep = sql_beating_vs_entanglement(0.65, N=1.0)
    assert rep.beats_sql and rep.duan_a1.entangled_sufficient


def test_symmetric_equivalence_on_grid():
    for r in np.linspace(0.05, 1.2, 10):
        for N in (0.0, 0.5, 1.0, 2.0):
            rep = sql_beating_vs_entanglement(float(r), N=float(N))
            assert rep.beats_sql == rep.duan_a1.entangled_sufficient
            assert rep.beats_sql == (r > rep.r_sql)


def test_asym_threshold_bisection_matches_closed_form():
    # oracle: the scheme variance sum is 2(N1+N2+1)e^{-2r}, so the crossing
    # with N1 = 0 sits at N2 = e^{2r} - 1
    for r in (0.2, 0.5, 1.0):
        assert abs(asym_n2_threshold(r) - (np.exp(2 * r) - 1)) < 1e-6
    assert abs(asym_n2_threshold(0.0)) <= 1e-8


@pytest.mark.parametrize("n1", [0.0, 0.4])
def test_asym_threshold_is_the_sql_crossing(n1):
    for r in np.linspace(0.05, 5.0, 100):
        n2 = asym_n2_threshold(float(r), n1=n1)
        if n2 == 0.0:
            assert scheme_variance_propagated(make_tmst(r, n1, 0.0)) >= 2.0 - 1e-12
            continue
        eps = 1e-6 * (1.0 + n2)
        assert scheme_variance_propagated(make_tmst(r, n1, n2 - eps)) < 2.0
        assert scheme_variance_propagated(make_tmst(r, n1, n2 + eps)) > 2.0


def test_asym_entangled_but_not_beating_sql():
    r = 0.5
    thr = asym_n2_threshold(r)
    above = sql_beating_vs_entanglement(r, 0.0, thr + 0.5)
    assert not above.beats_sql
    assert above.duan_opt.entangled_sufficient
    assert not above.symmetric
    below = sql_beating_vs_entanglement(r, 0.0, max(thr - 0.5, 0.1))
    assert below.beats_sql
    warm = sql_beating_vs_entanglement(r, 0.3, 0.2)
    assert np.isclose(warm.n2_threshold, np.exp(2 * r) - 1.3)


def test_necessity_on_random_unsqueezed_states():
    rng = np.random.default_rng(12345)
    for _ in range(300):
        st = random_unsqueezed_two_mode(rng)
        if scheme_variance_propagated(st) < 2.0 - 1e-9:
            assert duan_check(st, 1.0).entangled_sufficient
