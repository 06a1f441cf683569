import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dispest import (BoundQuery, EstimationConfig, GaussianState,
                     SymplecticTransform, asym_n2_threshold, beamsplit_balanced,
                     displace, gap_D, heterodyne_outcome_cov, homodyne_marginal,
                     make_squeezed_thermal, make_thermal, make_tmst,
                     phase_rotate, probe_fisher, scheme_variance_sum,
                     squeeze_single, squeeze_two, symplectic_form, thresholds,
                     vacuum)
from dispest.fock import _analytic_tail
from dispest.gaussian import _tmst_form, tmst_cov
from dispest.witness import scheme_variance_propagated


def test_vacuum_covariance():
    st = vacuum(1)
    assert np.allclose(st.cov, 0.5 * np.eye(2))
    assert np.allclose(st.mean, 0.0)


def test_thermal_examples():
    assert np.allclose(make_thermal(1.0, 1).cov, 1.5 * np.eye(2))
    st = make_thermal(0.5, 2)
    assert np.allclose(st.cov, np.eye(4))
    assert np.isclose(st.purity, 0.25)


def test_thermal_negative_N_rejected():
    with pytest.raises(ValueError):
        make_thermal(-0.1, 1)


# every public entry point that takes r, N or N2 runs the one probe check
PROBE_BOUNDARIES = {
    "make_thermal": lambda x: make_thermal(x, 2),
    "make_tmst_r": lambda x: make_tmst(x, 0.5),
    "tmst_cov_N": lambda x: tmst_cov(0.5, x),
    "tmst_cov_N2": lambda x: tmst_cov(0.5, 0.5, x),
    "tmst_cov_grid": lambda x: tmst_cov(np.array([0.5, x]), 0.5),
    "thresholds": lambda x: thresholds(x),
    "scheme_variance_sum": lambda x: scheme_variance_sum(0.5, x),
    "gap_D": lambda x: gap_D(x, 0.5),
    "probe_fisher": lambda x: probe_fisher("tmst_asym", 0.5, 0.5, x),
    "BoundQuery": lambda x: BoundQuery(kind="single", r=x),
    "EstimationConfig": lambda x: EstimationConfig(shots=100, seed=0, r=0.5, N=x,
                                                   q0=0.0, p0=0.0),
    "asym_n2_threshold": lambda x: asym_n2_threshold(0.5, x),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
@pytest.mark.parametrize("call", PROBE_BOUNDARIES.values(), ids=list(PROBE_BOUNDARIES))
def test_probe_parameters_checked_at_every_entry_point(call, bad):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        call(bad)


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.array([[0.5, 0.1], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), 0.1 * np.eye(2))  # below vacuum noise
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(3))


def test_state_immutable():
    st = vacuum(1)
    with pytest.raises(ValueError):
        st.cov[0, 0] = 3.0


def test_squeeze_single_vacuum():
    r = 0.37
    st = squeeze_single(vacuum(1), 0, r)
    assert np.allclose(st.cov, np.diag([np.exp(2 * r) / 2, np.exp(-2 * r) / 2]))


def test_squeeze_single_thermal_variance():
    r, N = 0.6, 0.8
    st = squeeze_single(make_thermal(N, 1), 0, r)
    assert np.isclose(st.cov[1, 1], (2 * N + 1) * np.exp(-2 * r) / 2)


def test_squeeze_single_identity_at_zero():
    st = make_thermal(0.3, 2)
    out = squeeze_single(st, 1, 0.0)
    assert np.allclose(out.cov, st.cov) and np.allclose(out.mean, st.mean)


def test_squeeze_single_bad_mode():
    with pytest.raises(ValueError):
        squeeze_single(vacuum(1), 1, 0.5)


def test_squeeze_two_blocks():
    r, N = 0.45, 0.3
    st = make_tmst(r, N)
    A = (2 * N + 1) * np.cosh(2 * r) / 2
    C = (2 * N + 1) * np.sinh(2 * r) / 2
    Z = np.diag([1.0, -1.0])
    assert np.allclose(st.cov[:2, :2], A * np.eye(2))
    assert np.allclose(st.cov[2:, 2:], A * np.eye(2))
    # The off-diagonal sign squeezes the EPR pair u = q1 + q2, v = p1 - p2:
    # Var(u) = Var(v) = 2(A - C).
    assert np.allclose(st.cov[:2, 2:], -C * Z)


def test_squeeze_two_identity_and_errors():
    st = make_thermal(0.2, 2)
    assert np.allclose(squeeze_two(st, (0, 1), 0.0).cov, st.cov)
    with pytest.raises(ValueError):
        squeeze_two(st, (0, 0), 0.3)
    with pytest.raises(ValueError):
        squeeze_two(st, (0, 2), 0.3)


def test_squeeze_two_reduced_variance():
    st = make_tmst(0.5, 0.0)
    assert np.isclose(st.reduced(0).cov[0, 0], np.cosh(1.0) / 2)


def test_displace():
    st = displace(vacuum(1), 0, 1.0, -0.5)
    assert np.allclose(st.mean, [1.0, -0.5])
    assert np.allclose(st.cov, 0.5 * np.eye(2))
    again = displace(st, 0, 0.2, 0.7)
    assert np.allclose(again.mean, [1.2, 0.2])  # group law on means
    assert np.allclose(displace(st, 0, 0.0, 0.0).mean, st.mean)


def test_beamsplit_factorizes_tmst():
    r, N = 0.7, 0.3
    q0, p0 = 1.1, -0.4
    out = beamsplit_balanced(displace(make_tmst(r, N), 0, q0, p0), (0, 1))
    assert np.abs(out.cov[:2, 2:]).max() < 1e-12
    v = (2 * N + 1) / 2
    assert np.allclose(out.cov[:2, :2],
                       np.diag([v * np.exp(2 * r), v * np.exp(-2 * r)]))
    assert np.allclose(out.cov[2:, 2:],
                       np.diag([v * np.exp(-2 * r), v * np.exp(2 * r)]))
    assert np.allclose(out.mean, np.array([q0, p0, q0, p0]) / np.sqrt(2))


def test_beamsplit_vacuum_invariant():
    out = beamsplit_balanced(vacuum(2), (0, 1))
    assert np.allclose(out.cov, 0.5 * np.eye(4))


def test_beamsplit_twice_is_quarter_rotation():
    st = make_tmst(0.5, 0.2)
    twice = beamsplit_balanced(beamsplit_balanced(st, (0, 1)), (0, 1))
    # mode-plane rotation by pi/2 flips the sign of the correlation block
    assert np.allclose(twice.cov[:2, :2], st.cov[:2, :2])
    assert np.allclose(twice.cov[:2, 2:], -st.cov[:2, 2:])


def test_homodyne_marginals():
    assert homodyne_marginal(vacuum(1), 0, "q") == (0.0, 0.5)
    assert homodyne_marginal(make_thermal(1.0, 1), 0, "p") == (0.0, 1.5)
    r, N, p0 = 0.8, 0.4, -0.9
    out = beamsplit_balanced(displace(make_tmst(r, N), 0, 0.3, p0), (0, 1))
    mean, var = homodyne_marginal(out, 0, "p")
    assert np.isclose(mean, p0 / np.sqrt(2))
    assert np.isclose(var, (2 * N + 1) * np.exp(-2 * r) / 2)
    with pytest.raises(ValueError):
        homodyne_marginal(vacuum(1), 0, "x")


def test_heterodyne_outcome_cov():
    assert np.allclose(heterodyne_outcome_cov(vacuum(1), 0), np.eye(2))
    N = 0.7
    assert np.allclose(heterodyne_outcome_cov(make_thermal(N, 1), 0),
                       (N + 1) * np.eye(2))
    r = 0.5
    sq = squeeze_single(vacuum(1), 0, r)
    assert np.allclose(heterodyne_outcome_cov(sq, 0),
                       np.diag([np.exp(2 * r) + 1, np.exp(-2 * r) + 1]) / 2)


def test_symplectic_transform_validation():
    with pytest.raises(ValueError):
        SymplecticTransform(np.diag([2.0, 2.0]), np.zeros(2))
    with pytest.raises(ValueError):
        SymplecticTransform(np.diag([np.exp(8.0), 1.001 * np.exp(-8.0)]), np.zeros(2))


def test_symplectic_transform_apply():
    """An affine map of a two-mode squeezer S and a shift d of mode 0 gives
    the state of squeeze_two followed by displace."""
    r, Z = 0.4, np.diag([1.0, -1.0])
    S = np.block([[np.cosh(r) * np.eye(2), -np.sinh(r) * Z],
                  [-np.sinh(r) * Z, np.cosh(r) * np.eye(2)]])
    T = SymplecticTransform(S, np.array([0.1, 0.2, 0.0, 0.0]))
    out = T.apply(make_thermal(0.3, 2))
    want = displace(squeeze_two(make_thermal(0.3, 2), (0, 1), r), 0, 0.1, 0.2)
    assert np.allclose(out.mean, want.mean, rtol=0, atol=1e-15)
    assert np.allclose(out.cov, want.cov, rtol=1e-14, atol=0)
    with pytest.raises(ValueError, match="mode counts"):
        T.apply(vacuum(1))


@pytest.mark.parametrize("r", [8.0, 12.0, 15.0])
def test_large_squeezing_stays_valid(r):
    """Validation tolerances scale with the entries, which grow as e^{2r}."""
    st = make_tmst(r, 1.0)
    assert np.isclose(st.cov[0, 0], 1.5 * np.cosh(2 * r))
    out = beamsplit_balanced(squeeze_two(make_thermal(1.0, 2), (0, 1), r))
    assert np.isclose(out.cov[0, 0], 1.5 * np.exp(2 * r), rtol=1e-12)
    assert np.isclose(out.cov[3, 3], 1.5 * np.exp(2 * r), rtol=1e-12)
    assert np.isclose(squeeze_single(vacuum(1), 0, r).cov[0, 0], np.exp(2 * r) / 2)
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.diag([np.nan, 0.5]))


@pytest.mark.parametrize("seed", range(8))
def test_random_pipelines_stay_physical_and_symplectic(seed):
    rng = np.random.default_rng(seed)
    st = make_thermal(rng.uniform(0, 2), 2)
    for _ in range(5):
        op = rng.integers(0, 5)
        if op == 0:
            st = squeeze_single(st, rng.integers(0, 2), rng.uniform(-1, 1))
        elif op == 1:
            st = squeeze_two(st, (0, 1), rng.uniform(-1, 1))
        elif op == 2:
            st = displace(st, rng.integers(0, 2), rng.normal(), rng.normal())
        elif op == 3:
            st = phase_rotate(st, rng.integers(0, 2), rng.uniform(0, 7))
        else:
            st = beamsplit_balanced(st, (0, 1))
    omega = symplectic_form(2)
    herm = st.cov + 0.5j * omega
    assert np.linalg.eigvalsh(herm).min() > -1e-10
    assert 0.0 < st.purity <= 1.0 + 1e-12


def test_displacement_never_touches_covariance():
    st = make_tmst(0.9, 1.3)
    moved = displace(displace(st, 0, 2.0, -1.0), 1, 0.4, 0.1)
    assert np.array_equal(moved.cov, st.cov)


def test_purity_and_symplectic_eigenvalues():
    st = make_tmst(0.8, 0.0)
    assert np.isclose(st.purity, 1.0)
    assert np.allclose(st.symplectic_eigenvalues(), 0.5)
    th = make_thermal(1.0, 1)
    assert np.allclose(th.symplectic_eigenvalues(), 1.5)
    assert np.isclose(th.purity, 1.0 / 3.0)


_PHOTONS = st.one_of(st.just(0.0), st.floats(0.0, 5.0))


@settings(max_examples=200, deadline=None)
@given(r=st.floats(0.0, 3.0), n1=_PHOTONS, n2=_PHOTONS)
def test_standard_form_core(r, n1, n2):
    """The core's (a, b, c) match the symplectic route, squeeze_two on the
    thermal product; ab - c^2 = nu1 nu2; E matches the covariance propagated
    through the beam splitter; the Fock tail's n is the largest reduced
    variance minus 1/2.  The last three are differences of terms of size
    a + b, so they are compared at that scale."""
    f = _tmst_form(r, n1, n2)
    nu1, nu2 = n1 + 0.5, n2 + 0.5
    thermal = GaussianState(np.zeros(4), np.diag([nu1, nu1, nu2, nu2]))
    cov = squeeze_two(thermal, (0, 1), r).cov
    # abs: at subnormal r the matrix route rounds c ~ r (nu1 + nu2) to zero
    assert [f.a, f.b, f.c] == pytest.approx([cov[0, 0], cov[2, 2], -cov[0, 2]],
                                            rel=1e-12, abs=1e-300)
    assert (f.nu1, f.nu2, f.p1, f.p2) == (nu1, nu2, n1 * (n1 + 1.0), n2 * (n2 + 1.0))
    assert _tmst_form(r, n1) == _tmst_form(r, n1, n1)  # N2 defaults to N
    scale = f.a + f.b
    assert abs(f.a * f.b - f.c * f.c - nu1 * nu2) <= 1e-14 * scale * scale
    if r <= 2.0:
        propagated = scheme_variance_propagated(make_tmst(r, n1, n2))
        assert abs(f.E - propagated) <= 1e-14 * scale
        assert f.E == pytest.approx(2.0 * (f.a + f.b - 2.0 * f.c), rel=0.0,
                                    abs=1e-14 * scale)
    n_tail, modes = _analytic_tail("tmst_asym", r, n1, n2)
    assert modes == 2
    assert abs(n_tail - (max(cov[0, 0], cov[2, 2]) - 0.5)) <= 1e-14 * scale
