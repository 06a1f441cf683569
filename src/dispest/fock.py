"""Truncated Fock-space oracle for displacement-estimation Fisher matrices.

Probes are built by applying exponentiated squeezing generators to thermal
density matrices.  The SLD Fisher matrix comes from the spectral sum over
eigenpairs of the probe, the RLD Fisher matrix from the operator-trace
formula; both use the displacement generators G_q0 = p_hat and G_p0 = -q_hat
of the displaced mode.  This module is the slow ground-truth path used to
validate the closed Gaussian forms.

Two-mode squeezing conserves the photon-number difference n - m, so the
squeezer, the probe eigenbasis and the generator couplings all decompose over
difference sectors; single-mode squeezing keeps photon-number parity.  Each
such block of a squeezer is the exponential of a real antisymmetric
tridiagonal matrix.  build_probe_fock keeps the two-mode block form, which
lets the oracle run at large truncations; a dense eigendecomposition path is
kept for generic (e.g. displaced) probes and for validating the block path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm

_SQRT2 = np.sqrt(2.0)

DEFAULT_TAIL_TOL = 1e-10
DEFAULT_SLD_TOL = 1e-12   # skip spectral pairs with p_s + p_t below this
DEFAULT_INV_FLOOR = 1e-10  # eigenvalues below this are outside the rho^-1 support
_PURITY_TOL = 1e-8


class TruncationError(RuntimeError):
    """Fock-space truncation too small for the requested tolerance."""

    def __init__(self, message: str, tail_mass: float | None = None):
        super().__init__(message)
        self.tail_mass = tail_mass


class PureStateError(ValueError):
    """Raised where the right logarithmic derivative needs rho^-1 to exist."""


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator on a dim-dimensional Fock space."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def quadratures(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of q = (a + a†)/sqrt(2) and p = (a - a†)/(i sqrt(2))."""
    a = ladder(dim)
    q = (a + a.T) / _SQRT2
    p = (a - a.T) / (1j * _SQRT2)
    return q, p


def thermal_probs(N: float, dim: int) -> np.ndarray:
    """Occupation probabilities N^n / (N+1)^(n+1) of a thermal state."""
    if N < 0:
        raise ValueError("mean photon number must be nonnegative")
    if N == 0:
        out = np.zeros(dim)
        out[0] = 1.0
        return out
    n = np.arange(dim)
    return np.exp(n * np.log(N / (N + 1.0)) - np.log(N + 1.0))


def _expm_tridiagonal(c: np.ndarray) -> np.ndarray:
    """exp(G) for G[k, k+1] = c[k] = -G[k+1, k]; real orthogonal.

    With D = diag(i^k), D^-1 G D = iS, S real symmetric tridiagonal with zero
    diagonal, so exp(G) = D V e^{iL} V^T D^-1 for S = V L V^T.  cos(S) keeps
    the parity of k and sin(S) flips it, so with W = diag((-1)^floor(k/2)) V
    this is the real (W cos L + diag((-1)^k) W sin L) W^T.
    """
    lam, V = eigh_tridiagonal(np.zeros(c.size + 1), c)
    k = np.arange(c.size + 1)[:, None]
    W = V * np.where(k % 4 < 2, 1.0, -1.0)
    return (W * np.cos(lam) + np.where(k % 2 == 0, W, -W) * np.sin(lam)) @ W.T


def _single_squeeze_unitary(r: float, dim: int) -> np.ndarray:
    """exp((r/2)(a†² - a²)) from its even and odd blocks; squeezes p for r > 0."""
    U = np.zeros((dim, dim))
    for parity in (0, 1):
        k = np.arange(parity, dim - 2, 2.0)
        idx = np.arange(parity, dim, 2)
        U[np.ix_(idx, idx)] = _expm_tridiagonal(-0.5 * r * np.sqrt((k + 1) * (k + 2)))
    return U


def _sector_states(dim: int, d: int) -> np.ndarray:
    """Flat indices n*dim + m of the two-mode states with n - m = d."""
    a0, b0 = max(d, 0), max(-d, 0)
    k = np.arange(dim - abs(d))
    return (k + a0) * dim + (k + b0)


def _sector_squeeze_blocks(r: float, dim: int) -> list:
    """Blocks of exp(-r(a†b† - ab)) on the sectors d = n - m = -(dim-1) .. dim-1.

    The generator weights r sqrt(k (k + |d|)) depend on |d| only, so sectors
    d and -d share one block.
    """
    ks = [np.arange(1.0, dim - s) for s in range(dim)]
    blocks = [_expm_tridiagonal(r * np.sqrt(k * (k + s))) for s, k in enumerate(ks)]
    return blocks[:0:-1] + blocks


def _coupling(dim: int, d: int, mode: int) -> tuple[slice, slice, np.ndarray]:
    """q_mode between sectors d and d+1: <d, rows_d[j]| q |d+1, rows_e[j]> = w[j].

    All other elements are zero, and the p_mode block is the entrywise
    negative of this one: one raising/lowering path connects the sectors.
    """
    size = dim - max(abs(d), abs(d + 1))
    k = np.arange(size)
    if (mode == 0) == (d >= 0):
        return slice(0, size), slice(0, size), np.sqrt((k + dim - size) / 2.0)
    w = np.sqrt((k + 1.0) / 2.0)
    if mode == 0:
        return slice(0, size), slice(1, size + 1), w
    return slice(1, size + 1), slice(0, size), w


@dataclass(frozen=True)
class FockOperatorSet:
    """Truncated operators and probe density matrix for the oracle.

    For probes built by build_probe_fock the exact spectral decomposition
    (thermal eigenvalues, exponentiated squeezer as eigenbasis) is carried
    along; two-mode probes keep it in difference-sector blocks.
    """

    kind: str
    params: tuple
    dim: int
    modes: int
    a: np.ndarray
    adag: np.ndarray
    q: np.ndarray
    p: np.ndarray
    eigs: np.ndarray | None = None
    basis: np.ndarray | None = None
    rho_dense: np.ndarray | None = None
    sector_U: list | None = field(default=None, repr=False)
    sector_probs: list | None = field(default=None, repr=False)

    @property
    def hilbert_dim(self) -> int:
        return self.dim ** self.modes

    @property
    def rho0(self) -> np.ndarray:
        """Dense probe density matrix (assembled on demand for sector sets)."""
        if self.rho_dense is not None:
            return self.rho_dense
        rho = np.zeros((self.hilbert_dim, self.hilbert_dim))
        for d, (U, pd) in enumerate(zip(self.sector_U, self.sector_probs)):
            idx = _sector_states(self.dim, d - (self.dim - 1))
            rho[np.ix_(idx, idx)] = (U * pd) @ U.T
        return rho

    def dense_basis(self) -> np.ndarray:
        """Dense eigenvector matrix; columns ordered to match eigenvalues()."""
        if self.basis is not None:
            return self.basis
        B = np.zeros((self.hilbert_dim, self.hilbert_dim))
        col = 0
        for d, U in enumerate(self.sector_U):
            idx = _sector_states(self.dim, d - (self.dim - 1))
            B[idx, col:col + idx.size] = U
            col += idx.size
        return B

    def eigenvalues(self) -> np.ndarray:
        if self.eigs is not None:
            return self.eigs
        if self.sector_probs is not None:
            return np.concatenate(self.sector_probs)
        return np.clip(np.linalg.eigvalsh(self.rho_dense), 0.0, None)

    def purity(self) -> float:
        if self.eigs is None and self.sector_probs is None:
            return float(np.sum(np.abs(self.rho_dense) ** 2).real)
        return float(np.sum(self.eigenvalues() ** 2))

    def number_diagonal(self) -> np.ndarray:
        """Diagonal of rho0 in the bare Fock basis."""
        if self.rho_dense is not None:
            return np.real(np.diag(self.rho_dense)).copy()
        diag = np.zeros(self.hilbert_dim)
        for d, (U, pd) in enumerate(zip(self.sector_U, self.sector_probs)):
            idx = _sector_states(self.dim, d - (self.dim - 1))
            diag[idx] = (U ** 2) @ pd
        return diag

    def tail_mass(self) -> float:
        """Probability weight on the top 10% of Fock levels of any mode."""
        cut = ceil(0.9 * self.dim)
        diag = self.number_diagonal()
        if self.modes == 1:
            return float(np.sum(diag[cut:]))
        grid = diag.reshape(self.dim, self.dim)
        return float(max(np.sum(grid) - np.sum(grid[:cut, :cut]), 0.0))

    def q_mode(self, mode: int) -> np.ndarray:
        """Dense q operator of one mode on the full Hilbert space."""
        return self._embed(self.q, mode)

    def p_mode(self, mode: int) -> np.ndarray:
        return self._embed(self.p, mode)

    def _embed(self, op: np.ndarray, mode: int) -> np.ndarray:
        if not 0 <= mode < self.modes:
            raise ValueError("mode index out of range")
        if self.modes == 1:
            return op
        eye = np.eye(self.dim)
        return np.kron(op, eye) if mode == 0 else np.kron(eye, op)


def _analytic_tail(kind: str, r: float, N: float, N2: float | None):
    """(n, modes) of the analytic tail bound modes * x^cut above Fock level cut.

    n = V - 1/2 for V the largest reduced quadrature variance: the thermal
    state of variance V has weight x^cut, x = n/(n + 1), above level cut,
    which bounds the tail of each reduced mode (two-mode reduced states are
    that thermal state).
    """
    if kind == "single":
        return (N + 0.5) * np.exp(2.0 * r) - 0.5, 1
    c2, s2, n2 = np.cosh(r) ** 2, np.sinh(r) ** 2, N if N2 is None else N2
    return max(N * c2 + (n2 + 1.0) * s2, n2 * c2 + (N + 1.0) * s2), 2


def build_probe_fock(kind: str, r: float = 0.0, N: float = 0.0,
                     N2: float | None = None, dim: int | None = None,
                     tail_tol: float = DEFAULT_TAIL_TOL,
                     auto_escalate: bool = True,
                     max_dim: int | None = None) -> FockOperatorSet:
    """Build a probe density matrix by exponentiated squeezing of thermal states.

    Parameters
    ----------
    kind : {'single', 'tmst', 'tmst_asym'}
        Single-mode squeezed thermal, symmetric two-mode squeezed thermal, or
        asymmetric two-mode squeezed thermal (needs N2).
    dim : int, optional
        Per-mode truncation; defaults to the smallest dim whose analytic tail
        bound is below tail_tol (TruncationError, before building, if that is
        above max_dim).
    tail_tol : float
        Maximum probability allowed in the top 10% of Fock levels, measured
        on the built probe; the truncation escalates until this holds, or
        TruncationError is raised.
    """
    if kind not in ("single", "tmst", "tmst_asym"):
        raise ValueError(f"unknown probe kind '{kind}'")
    if kind == "tmst_asym" and N2 is None:
        raise ValueError("tmst_asym needs N2")
    if r < 0:
        raise ValueError("squeezing parameter must be nonnegative")
    if max_dim is None:
        max_dim = 600 if kind == "single" else 420
    if dim is None:
        n_hi, modes = _analytic_tail(kind, r, N, N2)
        # smallest cut with modes * x^cut < tail_tol; -log x = log(1 + 1/n)
        cut = (np.floor(np.log(modes / tail_tol) / np.log1p(1.0 / n_hi)) + 1
               if n_hi > 0 else 1)
        dim = max(2, np.ceil(max(cut, 1) / 0.9))
        if dim > max_dim:
            raise TruncationError(
                f"analytic truncation dim={dim:.0f} exceeds max_dim={max_dim}",
                tail_mass=modes * (n_hi / (n_hi + 1.0)) ** ceil(0.9 * max_dim))
        dim = int(dim)

    while True:
        probe = _build_at_dim(kind, r, N, N2, dim)
        tail = probe.tail_mass()
        if tail < tail_tol:
            return probe
        if not auto_escalate or dim >= max_dim:
            raise TruncationError(
                f"truncation dim={dim} leaves tail mass {tail:.3e} "
                f"(tolerance {tail_tol:.1e})", tail_mass=tail)
        dim = min(max_dim, ceil(1.25 * dim) + 1)


def _build_at_dim(kind: str, r: float, N: float, N2: float | None,
                  dim: int) -> FockOperatorSet:
    a = ladder(dim).astype(complex)
    q, p = quadratures(dim)
    ops = dict(kind=kind, params=(r, N) if N2 is None else (r, N, N2), dim=dim,
               a=a, adag=a.conj().T, q=q, p=p)
    p1 = thermal_probs(N, dim)
    if kind == "single":
        U = _single_squeeze_unitary(r, dim)
        return FockOperatorSet(modes=1, eigs=p1, basis=U, rho_dense=(U * p1) @ U.T, **ops)
    joint = np.outer(p1, thermal_probs(N if N2 is None else N2, dim)).ravel()
    return FockOperatorSet(modes=2, sector_U=_sector_squeeze_blocks(r, dim),
                           sector_probs=[joint[_sector_states(dim, d)]
                                         for d in range(-(dim - 1), dim)], **ops)


def displace_fock(probe: FockOperatorSet, mode: int, q0: float, p0: float) -> FockOperatorSet:
    """Displaced copy of the probe (dense route; meant for moderate dims)."""
    D = expm(1j * p0 * probe.q_mode(mode) - 1j * q0 * probe.p_mode(mode))
    rho = D @ probe.rho0 @ D.conj().T
    basis = D @ probe.dense_basis()
    return FockOperatorSet(kind=probe.kind, params=probe.params, dim=probe.dim,
                           modes=probe.modes, a=probe.a, adag=probe.adag,
                           q=probe.q, p=probe.p, eigs=probe.eigenvalues(),
                           basis=basis, rho_dense=rho)


def _dense_generators(probe: FockOperatorSet, mode: int):
    """Probe eigenvalues and G_q0 = p, G_p0 = -q in the probe eigenbasis."""
    if probe.eigs is not None and probe.basis is not None:
        eigs, basis = probe.eigs, probe.basis
    else:
        eigs, basis = np.linalg.eigh(probe.rho0)
        eigs = np.clip(eigs, 0.0, None)
    return (eigs, basis.conj().T @ probe.p_mode(mode) @ basis,
            -(basis.conj().T @ probe.q_mode(mode) @ basis))


def sld_fisher_fock(probe: FockOperatorSet, displaced_mode: int = 0,
                    pair_tol: float = DEFAULT_SLD_TOL) -> np.ndarray:
    """SLD Fisher matrix H for the displacement pair (q0, p0).

    Spectral sum over eigenpairs of the probe with weights
    p_s ((p_s - p_t)/(p_s + p_t))^2; pairs with p_s + p_t below pair_tol are
    skipped (support-orthogonal sectors carry no information).
    """
    if probe.sector_U is not None:
        hqq, _, _ = _sector_sums(probe, displaced_mode, pair_tol, None)
        return np.diag([hqq, hqq])

    eigs, gq, gp = _dense_generators(probe, displaced_mode)
    ps, pt = eigs[:, None], eigs[None, :]
    denom = ps + pt
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(denom > pair_tol, ps * ((ps - pt) / denom) ** 2, 0.0)
    np.fill_diagonal(w, 0.0)
    return np.array([[2.0 * np.sum(w * (x * y.T + y * x.T)).real for y in (gq, gp)]
                     for x in (gq, gp)])


def rld_fisher_fock(probe: FockOperatorSet, displaced_mode: int = 0,
                    inv_floor: float = DEFAULT_INV_FLOOR) -> np.ndarray:
    """RLD Fisher matrix J, Hermitian, using rho^-1 on its numerical support.

    Raises PureStateError when the probe has no usable inverse (pure states),
    in which case callers fall back to closed-form limits.
    """
    if probe.purity() > 1.0 - _PURITY_TOL:
        raise PureStateError("RLD undefined for pure states")
    # built probes carry exact thermal eigenvalues; exact zeros mean the
    # probe is not full rank and rho^-1 does not exist
    built = probe.eigs is not None or probe.sector_probs is not None
    if built and np.any(probe.eigenvalues() == 0.0):
        raise PureStateError("RLD undefined for pure states (probe is rank deficient)")

    if probe.sector_U is not None:
        _, jdiag, jqp = _sector_sums(probe, displaced_mode, None, inv_floor)
        return np.array([[jdiag, jqp], [np.conj(jqp), jdiag]])

    eigs, gq, gp = _dense_generators(probe, displaced_mode)
    if np.count_nonzero(eigs > inv_floor) < 2:
        raise PureStateError("RLD undefined for pure states")
    pn, pm = eigs[:, None], eigs[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        R = np.where(pn > inv_floor, (pn - pm) ** 2 / pn, 0.0)
    J = np.array([[np.sum(R * (x * y.T)) for y in (gq, gp)] for x in (gq, gp)])
    return 0.5 * (J + J.conj().T)


def _sector_sums(probe: FockOperatorSet, displaced_mode: int,
                 pair_tol: float | None, inv_floor: float | None):
    """Accumulate the spectral SLD sum, or with inv_floor the RLD trace sums.

    The generator couplings only connect adjacent difference sectors, and the
    p coupling block is the negative of the q block, so a single transformed
    block per sector pair carries everything.  Isotropy (H_qq = H_pp,
    J_qq = J_pp, H_qp = 0) is structural for these probes.
    """
    dim = probe.dim
    # Sector (d, d+1) lowers n for mode 0 but raises m for mode 1, which
    # flips the sign relating the p block to the q block.
    sign = -1.0 if displaced_mode == 0 else 1.0
    hqq = jdiag = jqp_imag = 0.0
    for d in range(-(dim - 1), dim - 1):
        Ud, Ue = probe.sector_U[d + dim - 1], probe.sector_U[d + dim]
        rows_d, rows_e, c = _coupling(dim, d, displaced_mode)
        T2 = (Ud[rows_d].T @ (c[:, None] * Ue[rows_e])) ** 2

        pd, pe = probe.sector_probs[d + dim - 1], probe.sector_probs[d + dim]
        a, b = pd[:, None], pe[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            if inv_floor is not None:
                # (a - b)^2 / a and / b on the rho^-1 support, summed against T2
                inv_d = np.where(pd > inv_floor, 1.0 / pd, 0.0)
                inv_e = np.where(pe > inv_floor, 1.0 / pe, 0.0)
                M = (a - b) ** 2 * T2
                rows, cols = inv_d @ M.sum(axis=1), inv_e @ M.sum(axis=0)
                jdiag += rows + cols
                jqp_imag += sign * (cols - rows)
            else:
                w = np.where(a + b > pair_tol, (a + b) * ((a - b) / (a + b)) ** 2, 0.0)
                hqq += 4.0 * np.sum(w * T2)
    return hqq, jdiag, 1j * jqp_imag


def moments_fock(probe: FockOperatorSet, monomials) -> list[complex]:
    """Trace moments tr[rho0 * prod(ops)] for validation against Gaussian moments.

    Each monomial is a sequence of (name, mode) pairs, name in
    {'q', 'p', 'a', 'adag'}, multiplied left to right.
    """
    rho = probe.rho0
    table = {"q": probe.q, "p": probe.p, "a": probe.a, "adag": probe.adag}
    out = []
    for monomial in monomials:
        per_mode = [np.eye(probe.dim, dtype=complex) for _ in range(probe.modes)]
        for name, mode in monomial:
            if not 0 <= mode < probe.modes:
                raise ValueError("mode index out of range")
            per_mode[mode] = per_mode[mode] @ table[name]
        op = per_mode[0] if probe.modes == 1 else np.kron(per_mode[0], per_mode[1])
        out.append(complex(np.sum(rho * op.T)))  # tr(rho op)
    return out


def moment_fock(probe: FockOperatorSet, monomial) -> complex:
    return moments_fock(probe, [monomial])[0]


def fock_fisher_converged(kind: str, r: float, N: float, N2: float | None = None,
                          dim: int | None = None, step: int = 5,
                          tol: float = 1e-8, **build_kwargs):
    """Compute (H, J) at dim and dim + step and insist they agree within tol."""
    probe = build_probe_fock(kind, r, N, N2, dim=dim, **build_kwargs)
    bigger = build_probe_fock(kind, r, N, N2, dim=probe.dim + step,
                              **{**build_kwargs, "auto_escalate": False,
                                 "tail_tol": np.inf})
    H1, H2 = sld_fisher_fock(probe), sld_fisher_fock(bigger)
    J1, J2 = rld_fisher_fock(probe), rld_fisher_fock(bigger)
    drift = max(np.max(np.abs(H1 - H2)), np.max(np.abs(J1 - J2)))
    if drift > tol:
        raise TruncationError(
            f"Fisher matrices drift by {drift:.3e} between dim={probe.dim} "
            f"and dim={bigger.dim}", tail_mass=probe.tail_mass())
    return H1, J1
