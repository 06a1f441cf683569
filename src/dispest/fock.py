"""Truncated Fock-space oracle for displacement-estimation Fisher matrices.

Probes are built by applying exponentiated squeezing generators to thermal
density matrices, so their eigenvalues are thermal level probabilities p_s.
The SLD Fisher matrix is the spectral sum over eigenpairs, the RLD Fisher
matrix the operator-trace sum, of T_st = <u_s|G|u_t> for the displacement
generators G_q0 = p_hat and G_p0 = -q_hat of the displaced mode.  This module
is the slow ground-truth path used to validate the closed Gaussian forms.

Two-mode squeezing conserves the photon-number difference n - m, so the
squeezer, the probe eigenbasis and the generator couplings all decompose over
difference sectors; single-mode squeezing keeps photon-number parity.  Each
such block of a squeezer is the exponential of a real antisymmetric
tridiagonal matrix.  The generators are linear in a and a†, and so are their
squeezed images, so T couples only thermal levels one step apart: n to n ± 1,
and (n, m) to (n + 1, m) and (n, m - 1) between sectors d and d + 1.  On
those pairs p_t/p_s is N/(N + 1) or its inverse, so no weight amplifies
roundoff and no inverse floor is needed.  Built probes take one pass per
displaced mode over those pairs only, with weights from log probabilities.
The rule fails near the truncation edge, so the pass also reports the
leakage max_s p_s (sum_t T_st^2 - adjacent part), where the full sum is
||G u_s||^2 by orthogonality; fock_fisher_converged rejects a probe whose
leakage exceeds its tolerance.  Every other probe, such as a displaced one
(displace_fock), takes one dense route: one eigendecomposition of rho, the
full T of both generators in its eigenbasis, and the SLD and RLD sums over
all eigenpairs, the RLD with rho^-1 on the eigenvalues above an inverse floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm

from .gaussian import check_probe

_SQRT2 = np.sqrt(2.0)

DEFAULT_TAIL_TOL = 1e-10
_SLD_PAIR_TOL = 1e-12   # dense route: skip spectral pairs with p_s + p_t below this
DEFAULT_INV_FLOOR = 1e-10  # dense route: eigenvalues below this are outside the rho^-1 support
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


def thermal_log_probs(N: float, dim: int) -> np.ndarray:
    """Log occupation probabilities log(N^n / (N+1)^(n+1)) of a thermal state."""
    n = np.arange(dim)
    if N == 0:
        return np.where(n == 0, 0.0, -np.inf)
    return n * np.log(N / (N + 1.0)) - np.log(N + 1.0)


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

    All other elements are zero, and the block of (a - a†)/sqrt(2) = i p_mode
    is this one times +1 for mode 0 and -1 for mode 1: one raising/lowering
    path connects the sectors.
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
    """Truncated probe for the oracle.

    Built probes carry eigenvector blocks (one per difference sector for two
    modes, one dense block for one mode) and the thermal log probabilities of
    their columns; other probes, such as displaced ones, a dense density
    matrix.
    """

    kind: str
    params: tuple
    dim: int
    modes: int
    rho_dense: np.ndarray | None = None
    blocks: list | None = field(default=None, repr=False)
    log_probs: list | None = field(default=None, repr=False)

    q = property(lambda self: quadratures(self.dim)[0], doc="q on one mode")
    p = property(lambda self: quadratures(self.dim)[1], doc="p on one mode")

    def _block_states(self) -> list:
        """Fock indices of the rows of each eigenvector block."""
        if self.modes == 1:
            return [np.arange(self.dim)]
        return [_sector_states(self.dim, d) for d in range(1 - self.dim, self.dim)]

    @property
    def rho0(self) -> np.ndarray:
        """Dense probe density matrix (assembled on demand for built probes)."""
        if self.rho_dense is not None:
            return self.rho_dense
        rho = np.zeros((self.dim ** self.modes,) * 2)
        for idx, U, lp in zip(self._block_states(), self.blocks, self.log_probs):
            rho[np.ix_(idx, idx)] = (U * np.exp(lp)) @ U.T
        return rho

    def purity(self) -> float:
        if self.log_probs is None:
            return float(np.sum(np.abs(self.rho_dense) ** 2).real)
        return float(np.sum(np.exp(np.concatenate(self.log_probs)) ** 2))

    def number_diagonal(self) -> np.ndarray:
        """Diagonal of rho0 in the bare Fock basis."""
        if self.rho_dense is not None:
            return np.real(np.diag(self.rho_dense)).copy()
        diag = np.zeros(self.dim ** self.modes)
        for idx, U, lp in zip(self._block_states(), self.blocks, self.log_probs):
            diag[idx] = (U ** 2) @ np.exp(lp)
        return diag

    def tail_mass(self) -> float:
        """Probability weight on the top 10% of Fock levels of any mode."""
        cut = ceil(0.9 * self.dim)
        diag = self.number_diagonal()
        if self.modes == 1:
            return float(np.sum(diag[cut:]))
        grid = diag.reshape(self.dim, self.dim)
        return float(max(np.sum(grid) - np.sum(grid[:cut, :cut]), 0.0))


def _on_modes(probe: FockOperatorSet, ops: dict) -> np.ndarray:
    """Dense operator on the probe's Hilbert space that acts as ops[mode] on
    each mode listed and as the identity on the others."""
    if not all(0 <= mode < probe.modes for mode in ops):
        raise ValueError("mode index out of range")
    eye = np.eye(probe.dim)
    op = ops.get(0, eye)
    return op if probe.modes == 1 else np.kron(op, ops.get(1, eye))


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
        on the built probe; the truncation escalates until this holds, and
        stops with TruncationError at max_dim (default 600 for one mode, 420
        for two).  With tail_tol = inf nothing is measured.
    """
    if kind not in ("single", "tmst", "tmst_asym"):
        raise ValueError(f"unknown probe kind '{kind}'")
    if kind == "tmst_asym" and N2 is None:
        raise ValueError("tmst_asym needs N2")
    check_probe(r, N, N2)
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
        if tail_tol == np.inf:
            return probe
        tail = probe.tail_mass()
        if tail < tail_tol:
            return probe
        if dim >= max_dim:
            raise TruncationError(
                f"truncation dim={dim} leaves tail mass {tail:.3e} "
                f"(tolerance {tail_tol:.1e})", tail_mass=tail)
        dim = min(max_dim, ceil(1.25 * dim) + 1)


def _build_at_dim(kind: str, r: float, N: float, N2: float | None,
                  dim: int) -> FockOperatorSet:
    ops = dict(kind=kind, params=(r, N) if N2 is None else (r, N, N2), dim=dim)
    lp = thermal_log_probs(N, dim)
    if kind == "single":
        return FockOperatorSet(modes=1, blocks=[_single_squeeze_unitary(r, dim)],
                               log_probs=[lp], **ops)
    joint = np.add.outer(lp, thermal_log_probs(N if N2 is None else N2, dim)).ravel()
    return FockOperatorSet(modes=2, blocks=_sector_squeeze_blocks(r, dim),
                           log_probs=[joint[_sector_states(dim, d)]
                                      for d in range(1 - dim, dim)], **ops)


def displace_fock(probe: FockOperatorSet, mode: int, q0: float, p0: float) -> FockOperatorSet:
    """Displaced copy of the probe (dense route; meant for moderate dims)."""
    q, p = quadratures(probe.dim)
    D = expm(1j * p0 * _on_modes(probe, {mode: q}) - 1j * q0 * _on_modes(probe, {mode: p}))
    return FockOperatorSet(kind=probe.kind, params=probe.params, dim=probe.dim,
                           modes=probe.modes, rho_dense=D @ probe.rho0 @ D.conj().T)


def _single_mode_pairs(probe: FockOperatorSet, mode: int):
    """T of (a - a†)/sqrt(2) and q on the level pairs (s, s + 1), and each
    column's full sum minus its pairs.  Both operators are tridiagonal, so
    their products with U cost O(dim^2)."""
    U, lp = probe.blocks[0], probe.log_probs[0]
    s = np.sqrt(np.arange(1.0, probe.dim) / 2.0)[:, None]
    zero = np.zeros((1, probe.dim))
    up, down = np.vstack((s * U[1:], zero)), np.vstack((zero, s * U[:-1]))
    t, rest = [], []
    for GU in (up - down, up + down):
        t.append(np.einsum("ij,ij->j", U[:, :-1], GU[:, 1:]))
        rest.append(np.einsum("ij,ij->j", GU, GU))
        rest[-1][:-1] -= t[-1] ** 2
        rest[-1][1:] -= t[-1] ** 2
    return t[0], t[1], lp[:-1], lp[1:], np.maximum(*rest)


def _sector_pairs(probe: FockOperatorSet, mode: int):
    """As _single_mode_pairs, for the pairs of adjacent sectors d, d + 1:
    T's diagonals k = j and k = j + 1 (d < 0) or j - 1 (d >= 0), which pair
    the first and the last m columns of both, m the smaller sector size."""
    U, lp = probe.blocks, probe.log_probs
    t, ls, lt = [], [], []
    rest = [np.zeros(x.size) for x in lp]
    for i, d in enumerate(range(1 - probe.dim, probe.dim - 1)):
        rows_d, rows_e, c = _coupling(probe.dim, d, mode)
        A, B = c[:, None] * U[i][rows_d], U[i + 1][rows_e]
        m = min(A.shape[1], B.shape[1])
        t0 = np.einsum("ij,ij->j", A[:, :m], B[:, :m])
        t1 = np.einsum("ij,ij->j", A[:, -m:], B[:, -m:])
        t += [t0, t1]
        ls += [lp[i][:m], lp[i][-m:]]
        lt += [lp[i + 1][:m], lp[i + 1][-m:]]
        for j, GU in ((i, A), (i + 1, c[:, None] * B)):
            rest[j] += np.einsum("ij,ij->j", GU, GU)
            rest[j][:m] -= t0 ** 2
            rest[j][-m:] -= t1 ** 2
    t = np.concatenate(t)
    return ((t if mode == 0 else -t), t, np.concatenate(ls), np.concatenate(lt),
            np.concatenate(rest))


def _fisher_pass(probe: FockOperatorSet, mode: int = 0, rld: bool = True):
    """H, J (None unless rld) and the leakage of a built probe.

    Per pair, with G_q0 = -i T_a and G_p0 = -T_q: H = 4 sum (p_s - p_t)^2
    /(p_s + p_t) diag(T_a^2, T_q^2), diag J = sum (p_s - p_t)^2 (1/p_s + 1/p_t)
    (T_a^2, T_q^2), J_qp = i sum (p_s - p_t)^2 (1/p_s - 1/p_t) T_a T_q.
    """
    if not 0 <= mode < probe.modes:
        raise ValueError("mode index out of range")
    pairs = _single_mode_pairs if probe.modes == 1 else _sector_pairs
    ta, tq, ls, lt, rest = pairs(probe, mode)
    leakage = np.max(np.exp(np.concatenate(probe.log_probs)) * rest)
    hi, lo = np.maximum(ls, lt), np.minimum(ls, lt)
    # e = p_lo / p_hi <= 1, and 0 where both probabilities are 0
    e = np.exp(lo - np.where(hi > -np.inf, hi, 0.0))
    w = np.exp(hi) * (1.0 - e) ** 2                  # (p_s - p_t)^2 / p_hi
    h = 4.0 * w / (1.0 + e)
    H = np.diag([h @ ta ** 2, h @ tq ** 2])
    if not rld:
        return H, None, leakage
    # a level of probability 0 (a rank-deficient probe) leaves no rho^-1
    if probe.purity() > 1.0 - _PURITY_TOL or np.isneginf(lo).any():
        raise PureStateError("RLD undefined for pure or rank-deficient probes")
    j = w * (1.0 + e) / e
    jqp = 1j * np.sum(np.sign(lt - ls) * w * (1.0 - e) / e * ta * tq)
    return H, np.array([[j @ ta ** 2, jqp], [-jqp, j @ tq ** 2]]), leakage


def _fisher(probe: FockOperatorSet, mode: int, rld: bool,
            inv_floor: float = DEFAULT_INV_FLOOR):
    """H and J (None unless rld): _fisher_pass for built probes, otherwise the
    dense sums over all eigenpairs of rho, with G_q0 = p and G_p0 = -q."""
    if probe.blocks is not None:
        return _fisher_pass(probe, mode, rld)[:2]
    if rld and probe.purity() > 1.0 - _PURITY_TOL:
        raise PureStateError("RLD undefined for pure states")
    eigs, basis = np.linalg.eigh(probe.rho0)
    eigs = np.clip(eigs, 0.0, None)
    q, p = quadratures(probe.dim)
    gens = [basis.conj().T @ _on_modes(probe, {mode: g}) @ basis for g in (p, -q)]
    ps, pt = eigs[:, None], eigs[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(ps + pt > _SLD_PAIR_TOL, ps * ((ps - pt) / (ps + pt)) ** 2, 0.0)
        R = np.where(ps > inv_floor, (ps - pt) ** 2 / ps, 0.0)
    np.fill_diagonal(w, 0.0)
    H = np.array([[2.0 * np.sum(w * (x * y.T + y * x.T)).real for y in gens]
                  for x in gens])
    if not rld:
        return H, None
    if np.count_nonzero(eigs > inv_floor) < 2:
        raise PureStateError("RLD undefined for pure states")
    J = np.array([[np.sum(R * (x * y.T)) for y in gens] for x in gens])
    return H, 0.5 * (J + J.conj().T)


def sld_fisher_fock(probe: FockOperatorSet, displaced_mode: int = 0) -> np.ndarray:
    """SLD Fisher matrix H for the displacement pair (q0, p0).

    Spectral sum over eigenpairs of the probe with weights
    p_s ((p_s - p_t)/(p_s + p_t))^2.  Built probes sum the thermal-adjacent
    pairs only (module docstring); the dense route skips pairs with
    p_s + p_t below 1e-12 (support-orthogonal sectors carry no information).
    """
    return _fisher(probe, displaced_mode, rld=False)[0]


def rld_fisher_fock(probe: FockOperatorSet, displaced_mode: int = 0,
                    inv_floor: float = DEFAULT_INV_FLOOR) -> np.ndarray:
    """RLD Fisher matrix J, Hermitian.

    Built probes sum the thermal-adjacent pairs only (module docstring); the
    dense route uses rho^-1 on the eigenvalues above inv_floor.  Raises
    PureStateError when the probe has no inverse (pure or rank-deficient
    probes), in which case callers fall back to closed-form limits.
    """
    return _fisher(probe, displaced_mode, rld=True, inv_floor=inv_floor)[1]


def moments_fock(probe: FockOperatorSet, monomials) -> list[complex]:
    """Trace moments tr[rho0 * prod(ops)] for validation against Gaussian moments.

    Each monomial is a sequence of (name, mode) pairs, name in
    {'q', 'p', 'a', 'adag'}, multiplied left to right.
    """
    rho = probe.rho0
    q, p = quadratures(probe.dim)
    table = {"q": q, "p": p, "a": (q + 1j * p) / _SQRT2, "adag": (q - 1j * p) / _SQRT2}
    eye = np.eye(probe.dim, dtype=complex)
    out = []
    for monomial in monomials:
        per_mode = dict.fromkeys(range(probe.modes), eye)
        for name, mode in monomial:
            per_mode[mode] = per_mode.get(mode, eye) @ table[name]
        out.append(complex(np.sum(rho * _on_modes(probe, per_mode).T)))  # tr(rho op)
    return out


def moment_fock(probe: FockOperatorSet, monomial) -> complex:
    return moments_fock(probe, [monomial])[0]


def fock_fisher_converged(kind: str, r: float, N: float, N2: float | None = None,
                          dim: int | None = None, tol: float = 1e-8, **build_kwargs):
    """Compute (H, J) at dim and dim + 5 and insist they agree within tol.

    The probe's selection-rule leakage (module docstring) must also stay
    within tol.
    """
    probe = build_probe_fock(kind, r, N, N2, dim=dim, **build_kwargs)
    H1, J1, leakage = _fisher_pass(probe)
    if leakage > tol:
        raise TruncationError(f"selection-rule leakage {leakage:.3e} at dim={probe.dim}",
                              tail_mass=probe.tail_mass())
    bigger = build_probe_fock(kind, r, N, N2, dim=probe.dim + 5,
                              **{**build_kwargs, "tail_tol": np.inf})
    H2, J2, _ = _fisher_pass(bigger)
    drift = max(np.max(np.abs(H1 - H2)), np.max(np.abs(J1 - J2)))
    if drift > tol:
        raise TruncationError(
            f"Fisher matrices drift by {drift:.3e} between dim={probe.dim} "
            f"and dim={bigger.dim}", tail_mass=probe.tail_mass())
    return H1, J1
