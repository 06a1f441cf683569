import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

import dispest.fock as fock
from dispest import (PureStateError, TruncationError, build_probe_fock,
                     displace_fock, fock_fisher_converged, gaussian_fisher,
                     make_squeezed_thermal, make_tmst, moment_fock, moments_fock,
                     rld_fisher_fock, sld_fisher_fock)

# The dense reference includes every pair and takes rho^-1 above a fixed
# inverse floor of 1e-12.  A floor of 1e-10 would bias J by ~1e-7 at these
# dims, and floors below ~1e-13 let roundoff in far pairs through; at 1e-12
# both stay below the tolerance.  Spectral pairs with p_s + p_t below 1e-12
# are skipped (support-orthogonal sectors carry no information).
_SLD_PAIR_TOL = 1e-12
_INV_FLOOR = 1e-12


def dense_fisher(rho, dim, modes, mode):
    """H and J of any density matrix rho (dim levels per mode) for a
    displacement of the given mode: one eigendecomposition of rho, the full T
    of G_q0 = p and G_p0 = -q in its eigenbasis, and the SLD and RLD sums
    over all eigenpairs."""
    eigs, basis = np.linalg.eigh(rho)
    eigs = np.clip(eigs, 0.0, None)
    q, p = fock.quadratures(dim)
    eye = np.eye(dim)
    on_mode = (lambda g: g) if modes == 1 else (
        lambda g: np.kron(g, eye) if mode == 0 else np.kron(eye, g))
    gens = [basis.conj().T @ on_mode(g) @ basis for g in (p, -q)]
    ps, pt = eigs[:, None], eigs[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(ps + pt > _SLD_PAIR_TOL, ps * ((ps - pt) / (ps + pt)) ** 2, 0.0)
        R = np.where(ps > _INV_FLOOR, (ps - pt) ** 2 / ps, 0.0)
    np.fill_diagonal(w, 0.0)
    H = np.array([[2.0 * np.sum(w * (x * y.T + y * x.T)).real for y in gens]
                  for x in gens])
    J = np.array([[np.sum(R * (x * y.T)) for y in gens] for x in gens])
    return H, 0.5 * (J + J.conj().T)


def test_vacuum_probe_is_ground_state():
    probe = fock._build_at_dim("single", 0.0, 0.0, None, 10)
    expected = np.zeros((10, 10))
    expected[0, 0] = 1.0
    assert np.allclose(probe.rho0, expected)


def test_probe_density_matrix_invariants():
    probe = build_probe_fock("single", 0.5, 0.4)
    rho = probe.rho0
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.isclose(np.trace(rho).real, 1.0, atol=1e-10)
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    assert probe.tail_mass() < 1e-10


def test_commutator_on_bulk():
    probe = fock._build_at_dim("single", 0.0, 0.0, None, 30)
    q, p = fock.quadratures(probe.dim)
    comm = q @ p - p @ q
    bulk = np.diag(comm)[:-1]
    assert np.allclose(bulk, 1j, atol=1e-12)


def test_moments_examples():
    vac = fock._build_at_dim("single", 0.0, 0.0, None, 10)
    assert np.isclose(moment_fock(vac, [("q", 0), ("q", 0)]).real, 0.5)
    th = build_probe_fock("single", 0.0, 2.0)
    assert np.isclose(moment_fock(th, [("p", 0), ("p", 0)]).real, 2.5, atol=1e-9)
    tm = fock._build_at_dim("tmst", 0.5, 0.0, None, 25)
    assert np.isclose(moment_fock(tm, [("q", 0), ("q", 0)]).real,
                      np.cosh(1.0) / 2, atol=1e-8)


def test_tmst_cross_moment_matches_covariance():
    probe = build_probe_fock("tmst", 0.5, 0.2)
    got = moment_fock(probe, [("q", 0), ("q", 1)]).real
    expected = make_tmst(0.5, 0.2).cov[0, 2]
    assert np.isclose(abs(got), (2 * 0.2 + 1) * np.sinh(1.0) / 2, atol=1e-8)
    assert np.isclose(got, expected, atol=1e-8)


def test_single_mode_moments_match_gaussian():
    r, N = 0.4, 0.3
    probe = build_probe_fock("single", r, N)
    st = make_squeezed_thermal(r, N)
    qq, pp, m1, m2 = moments_fock(probe, [
        [("q", 0), ("q", 0)], [("p", 0), ("p", 0)], [("q", 0)], [("p", 0)]])
    assert abs(qq.real - st.cov[0, 0]) < 1e-8
    assert abs(pp.real - st.cov[1, 1]) < 1e-8
    assert abs(m1) < 1e-10 and abs(m2) < 1e-10


def test_sld_vacuum():
    probe = fock._build_at_dim("single", 0.0, 0.0, None, 12)
    H = sld_fisher_fock(probe)
    assert np.allclose(H, 2.0 * np.eye(2), atol=1e-10)
    assert np.isclose(np.trace(np.linalg.inv(H)), 1.0)


def test_rld_rejects_pure_states():
    with pytest.raises(PureStateError):
        rld_fisher_fock(fock._build_at_dim("single", 0.0, 0.0, None, 12))
    with pytest.raises(PureStateError):
        rld_fisher_fock(fock._build_at_dim("tmst", 0.6, 0.0, None, 30))


def test_rld_thermal_yuen_lax():
    probe = build_probe_fock("single", 0.0, 1.0)
    J = rld_fisher_fock(probe)
    j_inv = np.linalg.inv(J)
    assert np.allclose(j_inv, np.array([[1.5, 0.5j], [-0.5j, 1.5]]), atol=1e-9)
    b_r = np.trace(j_inv.real) + 2 * abs(j_inv[0, 1].imag)
    assert np.isclose(b_r, 4.0, atol=1e-8)


def test_rld_tmst_closed_form_value():
    probe = build_probe_fock("tmst", 0.3, 1.0)
    j_inv = np.linalg.inv(rld_fisher_fock(probe))
    b_r = np.trace(j_inv.real).real + 2 * abs(j_inv[0, 1].imag)
    assert np.isclose(b_r, 8.0 / (3.0 * np.cosh(0.6) - 1.0), rtol=1e-7)
    assert np.isclose(b_r, 3.1294, atol=5e-5)


def test_single_squeezed_thermal_traces():
    r, N = 0.6, 0.5
    probe = build_probe_fock("single", r, N)
    H = sld_fisher_fock(probe)
    assert np.isclose(np.trace(np.linalg.inv(H)), (2 * N + 1) * np.cosh(2 * r),
                      rtol=1e-8)
    j_inv = np.linalg.inv(rld_fisher_fock(probe))
    b_r = np.trace(j_inv.real) + 2 * abs(j_inv[0, 1].imag)
    assert np.isclose(b_r, (2 * N + 1) * np.cosh(2 * r) + 1.0, rtol=1e-7)


@pytest.mark.parametrize("r,N", [(0.0, 0.5), (0.3, 0.2), (0.6, 1.0)])
def test_entrywise_equivalence_with_gaussian_forms(r, N):
    probe = build_probe_fock("tmst", r, N)
    fm = gaussian_fisher(make_tmst(r, N))
    H = sld_fisher_fock(probe)
    assert np.allclose(H, fm.H, rtol=1e-6, atol=1e-9)
    j_inv = np.linalg.inv(rld_fisher_fock(probe))
    assert np.allclose(j_inv, fm.j_inv, rtol=1e-6, atol=1e-8)


# The tmst probe's dim (37) spans three groups of the grouped pass.
PASS_PROBES = {"tmst_asym": ("tmst_asym", 0.3, 0.3, 0.15), "single": ("single", 0.4, 0.6),
               "tmst": ("tmst", 0.45, 0.5)}


def group_count(dim):
    return len(list(fock._groups(list(range(dim, 0, -1)))))


def on_mode(probe, mode):
    """The probe whose mode-0 pass gives probe's Fisher matrices for
    displacing the given mode: displacing mode 1 of tmst_asym(r, N1, N2) is
    displacing mode 0 of tmst_asym(r, N2, N1)."""
    if mode == 0:
        return probe
    r, *n = probe.params
    return fock._build_at_dim(probe.kind, r, n[-1], n[0] if len(n) == 2 else None, probe.dim)


@pytest.mark.parametrize("kind,mode", [("tmst_asym", 0), ("tmst_asym", 1), ("single", 0),
                                       ("tmst", 0), ("tmst", 1)])
def test_adjacent_pass_matches_dense_route(kind, mode):
    probe = build_probe_fock(*PASS_PROBES[kind])
    assert kind != "tmst" or group_count(probe.dim) >= 3
    H, J = dense_fisher(probe.rho0, probe.dim, probe.modes, mode)
    assert np.allclose(sld_fisher_fock(on_mode(probe, mode)), H, atol=1e-9)
    assert np.allclose(rld_fisher_fock(on_mode(probe, mode)), J, atol=1e-8)


@pytest.mark.parametrize("kind,r,N,N2,dim", [("tmst_asym", 0.4, 0.6, 0.25, 18),
                                             ("single", 0.4, 0.6, None, 20)],
                         ids=["tmst_asym", "single"])
def test_leakage_rejects_too_small_dim(monkeypatch, kind, r, N, N2, dim):
    probe = fock._build_at_dim(kind, r, N, N2, dim)
    assert fock._fisher_pass(probe)[2] > 1e-8 and probe.tail is None
    measured = dataclasses.replace(probe, tail=probe.tail_mass())  # as the build keeps it
    monkeypatch.setattr(fock, "build_probe_fock", lambda *args, **kwargs: measured)
    with pytest.raises(TruncationError, match="leakage") as err:
        fock_fisher_converged(kind, r, N, N2)
    assert err.value.tail_mass == probe.tail_mass()


def test_drift_gate_rejects_a_moved_check_probe(monkeypatch):
    """A check probe whose (H, J) differ from the first probe's by more than
    1e-8 (here one squeezed at r + 0.01) is a TruncationError naming the
    drift."""
    probe, squeeze = build_probe_fock("tmst", 0.3, 0.5), fock._sector_squeeze_blocks
    monkeypatch.setattr(fock, "build_probe_fock", lambda *args, **kwargs: probe)
    monkeypatch.setattr(fock, "_sector_squeeze_blocks", lambda r, dim: squeeze(r + 0.01, dim))
    with pytest.raises(TruncationError, match="drift") as err:
        fock_fisher_converged("tmst", 0.3, 0.5)
    assert err.value.tail_mass == probe.tail_mass()


@pytest.mark.parametrize("kind,r,N,N2", [("tmst", 0.45, 0.5, None),
                                         ("tmst_asym", 0.3, 0.3, 0.15),
                                         ("single", 0.4, 0.6, None)])
def test_first_probe_is_released_before_the_check_is_built(monkeypatch, kind, r, N, N2):
    """fock_fisher_converged drops its first probe before it builds the
    dim + 5 check, so one probe at most is in memory."""
    first, build, build_at = [], fock.build_probe_fock, fock._build_at_dim

    def keep_a_weakref(*args, **kwargs):
        probe = build(*args, **kwargs)
        first.append((probe.dim, weakref.ref(probe)))
        return probe

    def check_released(kind, r, N, N2, dim):
        if first and dim == first[0][0] + 5:
            assert first[0][1]() is None, "the first probe is alive"
            first.append("checked")
        return build_at(kind, r, N, N2, dim)

    monkeypatch.setattr(fock, "build_probe_fock", keep_a_weakref)
    monkeypatch.setattr(fock, "_build_at_dim", check_released)
    fock_fisher_converged(kind, r, N, N2)
    assert first[-1] == "checked"


def relative_errors(kind, r, N, H, J):
    fm = gaussian_fisher(make_squeezed_thermal(r, N) if kind == "single"
                         else make_tmst(r, N))
    return (np.abs(H - fm.H).max() / np.abs(fm.H).max(),
            np.abs(np.linalg.inv(J) - fm.j_inv).max() / np.abs(fm.j_inv).max())


@pytest.mark.parametrize("kind,r,N", [("single", 1.0, 0.2), ("tmst", 0.6, 0.1)])
def test_fault_b_points_need_no_inverse_floor(kind, r, N):
    probe = build_probe_fock(kind, r, N)
    bigger = fock._build_at_dim(kind, r, N, None, probe.dim + 5)
    _, J, leakage = fock._fisher_pass(probe)
    assert leakage <= 1e-10
    assert np.abs(J - fock._fisher_pass(bigger)[1]).max() < 1e-8
    assert np.array_equal(rld_fisher_fock(probe), J)
    assert max(relative_errors(kind, r, N, *fock_fisher_converged(kind, r, N))) < 1e-9


def test_low_occupation_scan_converges():
    worst = 0.0
    for kind in ("single", "tmst"):
        for r in np.linspace(0.1, 0.8, 8):
            for N in np.linspace(0.05, 0.45, 9):
                H, J = fock_fisher_converged(kind, r, N)
                worst = max(worst, *relative_errors(kind, r, N, H, J))
    assert worst < 1e-8


def test_oracle_reaches_single_at_r_2(monkeypatch):
    # analytic dim ~2100, and the thermal levels above ~1075 underflow to 0
    monkeypatch.setitem(fock._MAX_DIM, 1, 2200)
    H, J = fock_fisher_converged("single", 2.0, 1.0)
    assert max(relative_errors("single", 2.0, 1.0, H, J)) < 1e-6


def assert_displacement_invariant(probe, mode, q0, p0):
    """The dense reference on the displaced density matrix gives the
    adjacent-pair pass's H and J of the undisplaced probe."""
    H, J = dense_fisher(displace_fock(probe, mode, q0, p0), probe.dim, probe.modes, mode)
    assert np.allclose(H, sld_fisher_fock(on_mode(probe, mode)), rtol=0, atol=1e-10)
    assert np.allclose(J, rld_fisher_fock(on_mode(probe, mode)), rtol=0, atol=1e-9)


def test_fisher_independent_of_displacement():
    assert_displacement_invariant(fock._build_at_dim("single", 0.3, 0.5, None, 70), 0, 0.7, -0.3)


# a small point: the truncated displacement moves the reference's J by
# ~2e-8 already at (tmst, 0.3, 0.3, dim 24), above the 1e-9 tolerance
@pytest.mark.parametrize("mode", [0, 1])
def test_two_mode_fisher_independent_of_displacement(mode):
    assert_displacement_invariant(fock._build_at_dim("tmst", 0.2, 0.2, None, 20), mode, 0.3, -0.2)


@pytest.mark.parametrize("kind, mode", [("single", 0), ("tmst", 0), ("tmst", 1)])
def test_displacement_matches_expm(kind, mode):
    """D = exp(i(p0 q - q0 p)) from the eigenpairs of its generator is unitary
    and agrees with expm of the same truncated generator."""
    dim, q0, p0 = (40, 0.7, -0.3) if kind == "single" else (12, -0.4, 0.25)
    q, p = fock.quadratures(dim)
    D = fock._displacement(dim, q0, p0)
    ref = expm(1j * (p0 * q - q0 * p))
    assert np.abs(D - ref).max() < 1e-12
    assert np.abs(D @ D.conj().T - np.eye(dim)).max() < 1e-12
    probe = fock._build_at_dim(kind, 0.4, 0.6, None, dim)
    D2 = ref if kind == "single" else (
        np.kron(ref, np.eye(dim)) if mode == 0 else np.kron(np.eye(dim), ref))
    moved = displace_fock(probe, mode, q0, p0)
    assert np.abs(moved - D2 @ probe.rho0 @ D2.conj().T).max() < 1e-12


def test_truncation_error_reports_tail(monkeypatch, tail_calls):
    """A probe whose tail still fails at _MAX_DIM raises with the tail
    measured there: from an analytic start of 24 (the bound for n = 0.5)
    under a one-mode cap of 40."""
    monkeypatch.setattr(fock, "_analytic_tail", lambda *args: (0.5, 1))
    monkeypatch.setitem(fock._MAX_DIM, 1, 40)
    with pytest.raises(TruncationError, match=r"^truncation dim=40 leaves tail mass") as err:
        build_probe_fock("single", 1.0, 2.0)
    assert tail_calls == [24, 31, 40]
    assert err.value.tail_mass == fock._build_at_dim("single", 1.0, 2.0, None, 40).tail_mass()
    assert err.value.tail_mass > 1e-10


def test_auto_escalation(monkeypatch):
    monkeypatch.setattr(fock, "_analytic_tail", lambda *args: (0.5, 2))  # starts at dim 25
    probe = build_probe_fock("tmst", 0.5, 0.2)
    assert probe.dim > 25
    assert probe.tail_mass() < 1e-10


def test_convergence_helper():
    H, J = fock_fisher_converged("tmst", 0.3, 0.5)
    fm = gaussian_fisher(make_tmst(0.3, 0.5))
    assert np.allclose(H, fm.H, rtol=1e-6)
    assert np.allclose(np.linalg.inv(J), fm.j_inv, rtol=1e-6)


def test_asymmetric_probe_against_gaussian():
    r, n1, n2 = 0.5, 0.3, 0.8
    probe = build_probe_fock("tmst_asym", r, n1, n2)
    fm = gaussian_fisher(make_tmst(r, n1, n2))
    assert np.allclose(sld_fisher_fock(probe), fm.H, rtol=1e-6, atol=1e-9)
    j_inv = np.linalg.inv(rld_fisher_fock(probe))
    assert np.allclose(j_inv, fm.j_inv, rtol=1e-6, atol=1e-8)


def test_rld_rejects_rank_deficient_probe():
    # one vacuum thermal input leaves the probe mixed but not full rank,
    # so rho^-1 does not exist and the trace formula does not apply
    probe = build_probe_fock("tmst_asym", 0.5, 0.0, 0.8)
    assert probe.purity() < 0.9
    with pytest.raises(PureStateError):
        rld_fisher_fock(probe)


def _sector_generator(r, dim, d):
    """Generator of exp(-r(a†b† - ab)) on the n - m = d sector."""
    k = np.arange(1, dim - abs(d))
    c = r * np.sqrt((k + max(d, 0)) * (k + max(-d, 0)))
    return np.diag(c, k=1) - np.diag(c, k=-1)


# dim 60 spans more than three groups of the grouped build; the two
# single-mode parity blocks differ in size at odd dims and match at even ones.
@pytest.mark.parametrize("r", [0.0, 0.4, 1.0, 1.5])
@pytest.mark.parametrize("dim", [8, 25, 60])
def test_squeezer_blocks_match_expm(r, dim):
    blocks = fock._sector_squeeze_blocks(r, dim)
    assert len(blocks) == 2 * dim - 1
    assert dim < 60 or group_count(dim) > 3
    for d in range(1 - dim, dim):
        U = blocks[d + dim - 1]
        assert U.flags.c_contiguous and U.base is None
        assert np.abs(U - expm(_sector_generator(r, dim, d))).max() < 1e-12
    a = fock.ladder(dim)
    U = fock._single_squeeze_unitary(r, dim)
    assert np.abs(U - expm(0.5 * r * (a.T @ a.T - a @ a))).max() < 1e-12
    for parity in (0, 1):  # the squeezer keeps photon-number parity
        assert np.all(U[parity::2, 1 - parity::2] == 0.0)


def test_opposite_sectors_share_their_block():
    dim = 30
    blocks = fock._sector_squeeze_blocks(0.8, dim)
    for d in range(1, dim):
        assert blocks[dim - 1 + d] is blocks[dim - 1 - d]
        assert np.array_equal(expm(_sector_generator(0.8, dim, d)),
                              expm(_sector_generator(0.8, dim, -d)))


@pytest.mark.parametrize("kind, r, N, N2, dim", [
    ("tmst", 0.7, 1.0, None, 8), ("tmst", 0.7, 1.0, None, 25),
    ("tmst_asym", 0.5, 0.3, 1.2, 60),
    ("tmst", 0.702, 0.752, None, None),   # the benchmark oracle's largest point
])
def test_tail_mass_matches_the_sector_loop(kind, r, N, N2, dim):
    """The tail mass sums nonnegative terms only, so it keeps its relative
    precision where it is far below 1 (a difference of two sums near 1 has
    an absolute floor near 2e-16)."""
    probe = (build_probe_fock(kind, r, N, N2) if dim is None
             else fock._build_at_dim(kind, r, N, N2, dim))
    expected = np.zeros(probe.dim ** 2)
    for d in range(1 - probe.dim, probe.dim):
        U = probe.blocks[probe.dim - 1 + d]
        expected[fock._sector_states(probe.dim, d)] = (
            U ** 2 @ np.exp(np.diagonal(probe.log_probs, -d)))
    grid = expected.reshape(probe.dim, probe.dim)
    cut = int(np.ceil(0.9 * probe.dim))
    tail = grid[cut:].sum() + grid[:cut, cut:].sum()
    assert probe.tail_mass() == pytest.approx(tail, rel=1e-13, abs=0.0)


@pytest.fixture
def tail_calls(monkeypatch):
    """Dims at which build_probe_fock measured the tail mass."""
    calls = []
    measure = fock.FockOperatorSet.tail_mass

    def counted(self):
        calls.append(self.dim)
        return measure(self)

    monkeypatch.setattr(fock.FockOperatorSet, "tail_mass", counted)
    return calls


# acceptance criterion 2's grid, the lattice of the benchmark's oracle
# workload moved by its largest jitter (0.002), and two low-N points
CRITERION_2 = [(kind, r, N, None) for kind in ("single", "tmst")
               for r in (0.0, 0.3, 0.6, 1.0) for N in (0.2, 0.5, 1.0, 2.0)]
ORACLE_LATTICE = [
    (kind, r + dr, N + dn, None if kind != "tmst_asym" else ns[(j + 1) % 3] + dn)
    for kind, rs, ns in (("single", (0.15, 0.35, 0.55, 0.75), (0.6, 0.8, 1.0)),
                         ("tmst", (0.15, 0.35, 0.55, 0.7), (0.35, 0.55, 0.75)),
                         ("tmst_asym", (0.15, 0.35, 0.55, 0.7), (0.35, 0.55, 0.75)))
    for r in rs for j, N in enumerate(ns)
    for dr in (-0.002, 0.002) for dn in (-0.002, 0.002)]
LOW_N = [("single", 1.0, 0.2, None), ("tmst", 0.6, 0.1, None)]


def test_analytic_truncation_passes_first_tail_check(tail_calls):
    for kind, r, N, N2 in CRITERION_2 + ORACLE_LATTICE + LOW_N:
        tail_calls.clear()
        probe = build_probe_fock(kind, r, N, N2)
        assert tail_calls == [probe.dim], (kind, r, N, N2)


def test_too_small_analytic_dim_still_escalates(monkeypatch, tail_calls):
    """A start below the needed dim (the analytic dim for n = 0.2, 16, where
    the probe's own is 40) escalates until the measured tail holds."""
    monkeypatch.setattr(fock, "_analytic_tail", lambda *args: (0.2, 2))
    probe = build_probe_fock("tmst", 0.5, 0.5)
    assert tail_calls == [16, 21, 28, 36, 46]
    assert probe.dim == 46 and probe.tail == probe.tail_mass() < 1e-10


@pytest.mark.filterwarnings("error")
def test_analytic_dim_above_max_dim_raises_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("a probe was built")

    monkeypatch.setattr(fock, "_build_at_dim", no_build)
    with pytest.raises(TruncationError, match="exceeds max_dim=600") as err:
        build_probe_fock("single", 2.0, 1.0)
    assert 0.0 < err.value.tail_mass
    monkeypatch.setitem(fock._MAX_DIM, 2, 100)
    for build in (build_probe_fock, fock_fisher_converged):
        with pytest.raises(TruncationError, match="exceeds max_dim=100"):
            build("tmst", 1.5, 1.0)


# the last five break the kind rule: N2 for tmst_asym and only there, a
# known kind, and no coherent probe in the oracle
@pytest.mark.parametrize("args", [("single", np.nan, 0.5), ("single", 0.5, np.nan),
                                  ("tmst", np.inf, 0.5), ("tmst", 0.5, -0.1),
                                  ("tmst_asym", 0.5, 0.5, np.nan),
                                  ("single", 0.5, 0.5, 0.3), ("tmst", 0.5, 0.5, 0.3),
                                  ("tmst_asym", 0.5, 0.5), ("squeezed", 0.5, 0.5),
                                  ("coherent", 0.0, 0.0)])
def test_bad_probe_parameters_raise_before_building(monkeypatch, args):
    def no_build(*_):
        raise AssertionError("a probe was built")

    monkeypatch.setattr(fock, "_build_at_dim", no_build)
    with pytest.raises(ValueError):
        build_probe_fock(*args)
    with pytest.raises(ValueError):
        fock_fisher_converged(*args)


def oracle_peak_memory(kind, r, N):
    """Peak traced allocation of fock_fisher_converged."""
    tracemalloc.start()
    try:
        fock_fisher_converged(kind, r, N)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_largest_oracle_point_memory():
    """The oracle's peak allocation stays within 2.5x the blocks of its dim-77
    check probe (2.0x; holding the first probe while the check was built made
    it 2.9x): padded group stacks do not outlive the build or the pass."""
    probe = fock._build_at_dim("tmst", 0.702, 0.752, None, 77)
    blocks = sum(U.nbytes for U in probe.blocks[76:])   # each |d| once
    del probe
    assert oracle_peak_memory("tmst", 0.702, 0.752) <= 2.5 * blocks


def test_criterion_2_largest_point_memory(monkeypatch):
    """At criterion 2's tmst r = 1, N = 2 (dim 248, 41 MB of blocks) the peak
    stays within 1.5x the first probe's blocks (1.35x; holding the first probe
    while the check was built made it 2.4x): the check probe and one pass."""
    dims, build = [], fock._build_at_dim
    monkeypatch.setattr(fock, "_build_at_dim", lambda *args: dims.append(args[-1]) or build(*args))
    peak = oracle_peak_memory("tmst", 1.0, 2.0)
    assert dims == [248, 248 + 5]
    assert peak <= 1.5 * 8 * sum(n * n for n in range(1, 249))   # each |d| once


def test_oracle_reaches_tmst_at_r_1_5():
    probe = build_probe_fock("tmst", 1.5, 1.0)
    assert probe.dim <= 420
    fm = gaussian_fisher(make_tmst(1.5, 1.0))
    H = sld_fisher_fock(probe)
    j_inv = np.linalg.inv(rld_fisher_fock(probe))
    assert np.abs(H - fm.H).max() / np.abs(fm.H).max() < 1e-6
    assert np.abs(j_inv - fm.j_inv).max() / np.abs(fm.j_inv).max() < 1e-6


def test_verification_build_skips_tail_mass(tail_calls):
    """The check probe at dim + 5 measures no tail mass, and the errors take
    the first probe's from its build: one measurement per call."""
    dim = build_probe_fock("tmst", 0.3, 0.5).dim
    tail_calls.clear()
    fock_fisher_converged("tmst", 0.3, 0.5)
    assert tail_calls == [dim]
