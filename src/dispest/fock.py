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
tridiagonal matrix, which maps even indices to odd ones, so it follows from a
half-size tridiagonal eigenproblem (_expm_tridiagonal).  The generators are
linear in a and a†, and so are their squeezed images, so T couples only
thermal levels one step apart: n to n ± 1, and (n, m) to (n + 1, m) and
(n, m - 1) between sectors d and d + 1.  On those pairs p_t/p_s is N/(N + 1)
or its inverse, so no weight amplifies roundoff and no inverse floor is
needed.  Each probe takes one pass, for mode 0, over those pairs only, with
weights from log probabilities; displacing the idler of tmst_asym(r, N1, N2)
is displacing mode 0 of tmst_asym(r, N2, N1).  The rule fails near the
truncation edge, so the pass also reports the leakage max_s p_s (sum_t T_st^2
- adjacent part), where the full sum is ||G u_s||^2 by orthogonality; G^2 is
diagonal within a sector, so ||G u_s||^2 = sum_i U_is^2 (n_i + (n_i + 1)[n_i <
dim - 1])/2, n_i the mode-0 level of row i.  fock_fisher_converged rejects a
probe whose leakage exceeds its tolerance.  Two-mode blocks of consecutive
|d| are built and passed in zero-padded stacks of at most _STACK_BYTES, so
that per-call overhead does not dominate; each block is copied out of its
stack.  fock_fisher_converged releases its first probe before it builds the
check probe at dim + 5, whose pass takes no leakage, so one probe and one
pass are in memory at a time.  The Fisher matrices of a displacement model
do not depend on the displacement, so the oracle takes them from undisplaced
probes only; displace_fock returns the displaced density matrix D rho D†.
The oracle needs numpy alone: the squeezer blocks and the displacement come
from np.linalg.eigh, so that no second linear-algebra library is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil

import numpy as np

from .gaussian import _check_count, _tmst_form, check_probe

_SQRT2 = np.sqrt(2.0)

_TAIL_TOL = 1e-10       # largest probability accepted in the top 10% of Fock levels
_PURITY_TOL = 1e-8
_CONVERGED_TOL = 1e-8   # fock_fisher_converged: largest leakage and drift accepted
_STACK_BYTES = 1 << 17  # one zero-padded stack of blocks (_groups)


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


def _groups(sizes: list):
    """Slices of consecutive entries of the non-increasing sizes whose
    zero-padded stack, (count, size, size) floats at the first entry's size,
    fits in _STACK_BYTES (at least one entry each)."""
    start = 0
    while start < len(sizes):
        stop = start + max(1, _STACK_BYTES // (8 * sizes[start] ** 2))
        yield slice(start, min(stop, len(sizes)))
        start = stop


def _stack(blocks: list, size: int) -> np.ndarray:
    """The square blocks zero-padded into one (count, size, size) stack."""
    stack = np.zeros((len(blocks), size, size))
    for i, U in enumerate(blocks):
        stack[i, :len(U), :len(U)] = U
    return stack


def _expm_tridiagonal(C: np.ndarray, sizes: list) -> list:
    """exp(G) for blocks of the non-increasing sizes: row i of C holds block
    i's G[k, k+1] = c[k] = -G[k+1, k] in its first sizes[i] - 1 entries and
    zeros after, so exp(G) is real orthogonal.

    On even and odd indices G = [[0, B], [-B^T, 0]] with B bidiagonal, so for
    T = B B^T = V L V^T (tridiagonal, ceil(n/2) rows), W = B^T V, w = sqrt(L)
    and f(x) = (1 - cos x)/x^2 = sinc^2(x/2)/2,
    exp(G) = [[V cos(w) V^T, V sinc(w) W^T], [-W sinc(w) V^T, I - W f(w) W^T]].
    Each block is a function of B B^T and B, so zero padding changes none of
    its entries: consecutive blocks go through one eigh and one set of
    products as a zero-padded stack, from which each block is copied out.
    """
    out = []
    for group in _groups(sizes):
        n0 = sizes[group.start]
        half = (n0 + 1) // 2
        cp = np.zeros((group.stop - group.start, 2 * half))
        cp[:, :n0 - 1] = C[group, :n0 - 1]
        ce, co = cp[:, 0::2], cp[:, 1::2]                # B[i, i], -B[i + 1, i]
        T = np.zeros((len(cp), half, half))             # eigh reads the lower triangle
        i = np.arange(half)
        T[:, i, i] = ce ** 2
        T[:, i[1:], i[1:]] += co[:, :-1] ** 2
        T[:, i[1:], i[:-1]] = -ce[:, :-1] * co[:, :-1]
        lam, V = np.linalg.eigh(T)
        W = ce[:, :, None] * V
        W[:, :-1] -= co[:, :-1, None] * V[:, 1:]
        w = np.sqrt(np.maximum(lam, 0.0))[:, None, :]
        Vt, Wt = V.transpose(0, 2, 1), W.transpose(0, 2, 1)
        EO = (V * np.sinc(w / np.pi)) @ Wt
        U = np.empty((len(cp), 2 * half, 2 * half))
        U[:, ::2, ::2] = (V * np.cos(w)) @ Vt
        U[:, ::2, 1::2] = EO
        U[:, 1::2, ::2] = -EO.transpose(0, 2, 1)
        f = 0.5 * np.sinc(w / (2.0 * np.pi)) ** 2     # (1 - cos w)/w^2
        U[:, 1::2, 1::2] = np.eye(half) - (W * f) @ Wt
        out += [U[i, :n, :n].copy() for i, n in enumerate(sizes[group])]
    return out


def _single_squeeze_unitary(r: float, dim: int) -> np.ndarray:
    """exp((r/2)(a†² - a²)) from its even and odd blocks; squeezes p for r > 0."""
    U = np.zeros((dim, dim))
    k = np.arange(dim - 2.0)
    c = np.zeros(dim - dim % 2)   # even length, so c[0::2] and c[1::2] are two rows
    c[:dim - 2] = -0.5 * r * np.sqrt((k + 1) * (k + 2))   # couples k and k + 2
    blocks = _expm_tridiagonal(c.reshape(-1, 2).T, [(dim + 1) // 2, dim // 2])
    for parity, block in enumerate(blocks):
        U[parity::2, parity::2] = block
    return U


def _sector_states(dim: int, d: int) -> np.ndarray:
    """Flat indices n*dim + m of the two-mode states with n - m = d."""
    a0, b0 = max(d, 0), max(-d, 0)
    k = np.arange(dim - abs(d))
    return (k + a0) * dim + (k + b0)


def _sector_squeeze_blocks(r: float, dim: int) -> list:
    """Blocks of exp(-r(a†b† - ab)) on the sectors d = n - m = -(dim-1) .. dim-1.

    The generator weights r sqrt(k (k + |d|)), k = 1 .. dim - 1 - |d|, depend
    on |d| only, so sectors d and -d share one block; row s of one (dim,
    dim - 1) array holds those of |d| = s.
    """
    k, s = np.arange(1.0, dim), np.arange(dim)[:, None]
    C = np.where(k + s < dim, r * np.sqrt(k * (k + s)), 0.0)
    blocks = _expm_tridiagonal(C, list(range(dim, 0, -1)))
    return blocks[:0:-1] + blocks


@dataclass(frozen=True)
class FockOperatorSet:
    """Truncated probe for the oracle: eigenvector blocks (one per difference
    sector d, at blocks[dim - 1 + d], for two modes, where d and -d share one
    block; one dense block for one mode) and the thermal log probabilities of
    their columns by Fock label (a (dim, dim) grid over (n, m) for two modes).
    tail is the tail_mass that build_probe_fock measured (None if unmeasured).
    """

    kind: str
    params: tuple
    dim: int
    modes: int
    blocks: list = field(repr=False)
    log_probs: np.ndarray = field(repr=False)
    tail: float | None = None

    def _block_states(self) -> list:
        """Fock indices of the rows of each eigenvector block, and the log
        probabilities of its columns."""
        if self.modes == 1:
            return [(np.arange(self.dim), self.log_probs)]
        return [(_sector_states(self.dim, d), np.diagonal(self.log_probs, -d))
                for d in range(1 - self.dim, self.dim)]

    @property
    def rho0(self) -> np.ndarray:
        """Dense probe density matrix, assembled on demand."""
        rho = np.zeros((self.dim ** self.modes,) * 2)
        for (idx, lp), U in zip(self._block_states(), self.blocks):
            rho[np.ix_(idx, idx)] = (U * np.exp(lp)) @ U.T
        return rho

    def purity(self) -> float:
        return float(np.sum(np.exp(self.log_probs) ** 2))

    def tail_mass(self) -> float:
        """Probability weight on the top 10% of Fock levels of any mode, summed
        over the tail rows of the blocks only, so that no term is negative.

        Two-mode sectors ±s share one block, whose row k holds levels k + s
        and k: rows k >= cut - s lie in the tail, and each column j carries
        the probabilities P[s, j] = p[j + s, j] + p[j, j + s] of both sectors.
        The tail rows of each group of _groups go into one zero-padded slab,
        summed in one contraction."""
        dim = self.dim
        cut, p = ceil(0.9 * dim), np.exp(self.log_probs)
        if self.modes == 1:
            return float(np.sum(self.blocks[0][cut:] ** 2 @ p))
        p = p + np.triu(p.T, 1)   # diagonal s > 0: p[j, j + s] + p[j + s, j]
        # row j of the flat p read with stride dim + 1: P[s, j] = p[j, j + s] for
        # j < dim - s; the entries past that meet the slabs' zero padding only
        P = np.append(p, np.zeros(dim)).reshape(dim, dim + 1)[:, :dim].T
        total = 0.0
        for group in _groups(list(range(dim, 0, -1))):
            n0 = dim - group.start
            slab = np.zeros((group.stop - group.start, dim - cut, n0))
            for i, s in enumerate(range(group.start, group.stop)):
                tail = self.blocks[dim - 1 + s][max(cut - s, 0):]
                slab[i, :len(tail), :n0 - i] = tail
            total += np.einsum("gj,gj->", np.einsum("gkj,gkj->gj", slab, slab), P[group, :n0])
        return float(total)


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
    that thermal state, of n = N_i + (N_1 + N_2 + 1) sinh^2 r for mode i).
    """
    if kind == "single":
        return (N + 0.5) * np.exp(2.0 * r) - 0.5, 1
    f = _tmst_form(r, N, N2)
    return np.maximum(f.n1, f.n2) + (f.nu1 + f.nu2) * f.sh2, 2


def build_probe_fock(kind: str, r: float = 0.0, N: float = 0.0,
                     N2: float | None = None, dim: int | None = None,
                     max_dim: int | None = None) -> FockOperatorSet:
    """Build a probe density matrix by exponentiated squeezing of thermal states.

    Parameters
    ----------
    kind : {'single', 'tmst', 'tmst_asym'}
        Single-mode squeezed thermal, symmetric two-mode squeezed thermal, or
        asymmetric two-mode squeezed thermal (N2 given for it and only for it).
    dim : int, optional
        Per-mode truncation to try first; defaults to the smallest dim whose
        analytic tail bound is below 1e-10 (TruncationError, before building,
        if that is above max_dim).  The probability in the top 10% of Fock
        levels is measured on each built probe, and the truncation escalates
        until it is below 1e-10, stopping with TruncationError at max_dim
        (default 600 for one mode, 420 for two).
    """
    check_probe(r, N, N2, kind)
    if kind == "coherent":
        raise ValueError("the Fock oracle builds no coherent probe")
    for name, value in (("dim", dim), ("max_dim", max_dim)):
        if value is not None:
            _check_count(name, value, 2)
    if max_dim is None:
        max_dim = 600 if kind == "single" else 420
    if dim is None:
        n_hi, modes = _analytic_tail(kind, r, N, N2)
        # smallest cut with modes * x^cut < _TAIL_TOL; -log x = log(1 + 1/n)
        cut = (np.floor(np.log(modes / _TAIL_TOL) / np.log1p(1.0 / n_hi)) + 1
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
        if tail < _TAIL_TOL:
            return replace(probe, tail=tail)
        if dim >= max_dim:
            raise TruncationError(
                f"truncation dim={dim} leaves tail mass {tail:.3e} "
                f"(tolerance {_TAIL_TOL:.1e})", tail_mass=tail)
        dim = min(max_dim, ceil(1.25 * dim) + 1)


def _build_at_dim(kind: str, r: float, N: float, N2: float | None,
                  dim: int) -> FockOperatorSet:
    ops = dict(kind=kind, params=(r, N) if N2 is None else (r, N, N2), dim=dim)
    lp = thermal_log_probs(N, dim)
    if kind == "single":
        return FockOperatorSet(modes=1, blocks=[_single_squeeze_unitary(r, dim)],
                               log_probs=lp, **ops)
    return FockOperatorSet(modes=2, blocks=_sector_squeeze_blocks(r, dim),
                           log_probs=np.add.outer(lp, thermal_log_probs(
                               N if N2 is None else N2, dim)), **ops)


def _displacement(dim: int, q0: float, p0: float) -> np.ndarray:
    """exp(i(p0 q - q0 p)) on one mode, from the eigenpairs of its Hermitian
    generator: V diag(e^{i lam}) V†."""
    q, p = quadratures(dim)
    lam, V = np.linalg.eigh(p0 * q - q0 * p)
    return (V * np.exp(1j * lam)) @ V.conj().T


def displace_fock(probe: FockOperatorSet, mode: int, q0: float, p0: float) -> np.ndarray:
    """Dense density matrix D rho D† of the probe displaced by (q0, p0) on one
    mode (meant for moderate dims)."""
    for name, value in (("q0", q0), ("p0", p0)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite")
    D = _on_modes(probe, {mode: _displacement(probe.dim, q0, p0)})
    return D @ probe.rho0 @ D.conj().T


def _single_mode_pairs(probe: FockOperatorSet, leakage: bool):
    """T of (a - a†)/sqrt(2) and q on the level pairs (s, s + 1), the log
    probabilities of each pair, and (if leakage) each column's full sum
    minus its pairs.  Both operators are tridiagonal, so their products with
    U cost O(dim^2)."""
    U, lp = probe.blocks[0], probe.log_probs
    s = np.sqrt(np.arange(1.0, probe.dim) / 2.0)[:, None]
    zero = np.zeros((1, probe.dim))
    up, down = np.vstack((s * U[1:], zero)), np.vstack((zero, s * U[:-1]))
    t, rest = [], []
    for GU in (up - down, up + down):
        t.append(np.einsum("ij,ij->j", U[:, :-1], GU[:, 1:]))
        if leakage:
            rest.append(np.einsum("ij,ij->j", GU, GU))
            rest[-1][:-1] -= t[-1] ** 2
            rest[-1][1:] -= t[-1] ** 2
    return t[0], t[1], lp[:-1], lp[1:], np.maximum(*rest) if leakage else None


def _sector_pairs(probe: FockOperatorSet, leakage: bool):
    """As _single_mode_pairs, for the pairs of adjacent sectors d, d + 1, with
    every value on the (n, m) grid of the columns' thermal labels: T couples
    (n, m) with (n + 1, m) (grid tn) and (n, m + 1) with (n, m) (grid tm).

    Each group of |d| = s goes through as one stack: its blocks and the next
    group's first block, zero-padded to n0 = dim - group.start.  With u, v
    the blocks of sectors ±s and ±(s + 1), T comes from X0 = sum_i u[i]
    sqrt((i + s + 1)/2) v[i] and X1 = sum_i u[i + 1] sqrt((i + 1)/2) v[i] on
    the column pairs (j, j) and (j + 1, j).  Column norms as in the module
    docstring.
    """
    dim, lp = probe.dim, probe.log_probs
    blocks = probe.blocks[dim - 1:] + [np.zeros((0, 0))]
    level = np.arange(dim)
    weight = np.append(level[:-1] + 0.5, (dim - 1) / 2.0)
    x = np.zeros((4, dim, dim))   # at (s, j), as norms
    norms = np.zeros((2, dim, dim)) if leakage else None
    for group in _groups(list(range(dim, 0, -1))):
        n0, s = dim - group.start, level[group, None]
        stack = _stack(blocks[group.start:group.stop + 1], n0)
        u, v, row = stack[:-1], stack[1:, :-1, :-1], level[:n0 - 1]
        for k, (rows, w) in enumerate(((u[:, :-1], np.sqrt((row + s + 1) / 2.0)),
                                       (u[:, 1:], np.sqrt((row + 1) / 2.0)))):
            P = w[..., None] * v
            x[2 * k, group, :n0 - 1] = np.einsum("gij,gij->gj", rows[:, :, :-1], P)
            x[2 * k + 1, group, :n0 - 1] = np.einsum("gij,gij->gj", rows[:, :, 1:], P)
        if leakage:
            u2 = u ** 2
            norms[0, group, :n0] = np.einsum(
                "gij,gi->gj", u2, weight[np.minimum(level[:n0] + s, dim - 1)])
            norms[1, group, :n0] = np.einsum("gij,i->gj", u2, weight[:n0])
    s, j = np.nonzero(level < dim - 1 - level[:, None])
    tn, tm = np.empty((dim - 1, dim)), np.empty((dim, dim - 1))
    tn[s + j, j], tm[s + j + 1, j], tm[j, s + j], tn[j, s + j + 1] = x[:, s, j]
    rest = None
    if leakage:
        s, j = np.nonzero(level < dim - level[:, None])
        rest = np.empty((dim, dim))
        rest[s + j, j], rest[j, s + j] = norms[:, s, j]
        rest[:-1] -= tn ** 2
        rest[1:] -= tn ** 2
        rest[:, :-1] -= tm ** 2
        rest[:, 1:] -= tm ** 2
    t = np.concatenate((tn.ravel(), tm.ravel()))
    return (t, t, np.concatenate((lp[:-1].ravel(), lp[:, 1:].ravel())),
            np.concatenate((lp[1:].ravel(), lp[:, :-1].ravel())), rest)


def _fisher_pass(probe: FockOperatorSet, rld: bool = True, leakage: bool = True):
    """H, J (None unless rld) and the leakage (None unless leakage) of a probe.

    Per pair, with G_q0 = -i T_a and G_p0 = -T_q: H = 4 sum (p_s - p_t)^2
    /(p_s + p_t) diag(T_a^2, T_q^2), diag J = sum (p_s - p_t)^2 (1/p_s + 1/p_t)
    (T_a^2, T_q^2), J_qp = i sum (p_s - p_t)^2 (1/p_s - 1/p_t) T_a T_q.
    """
    pairs = _single_mode_pairs if probe.modes == 1 else _sector_pairs
    ta, tq, ls, lt, rest = pairs(probe, leakage)
    leakage = None if rest is None else np.max(np.exp(probe.log_probs) * rest)
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


def sld_fisher_fock(probe: FockOperatorSet) -> np.ndarray:
    """SLD Fisher matrix H for the displacement pair (q0, p0) of mode 0.

    Spectral sum over eigenpairs of the probe with weights
    p_s ((p_s - p_t)/(p_s + p_t))^2, taken over the thermal-adjacent pairs
    only (module docstring).
    """
    return _fisher_pass(probe, rld=False, leakage=False)[0]


def rld_fisher_fock(probe: FockOperatorSet) -> np.ndarray:
    """RLD Fisher matrix J of mode 0, Hermitian, summed over the
    thermal-adjacent pairs only (module docstring).  Raises PureStateError
    when the probe has no inverse (pure or rank-deficient probes), in which
    case callers fall back to closed-form limits.
    """
    return _fisher_pass(probe, leakage=False)[1]


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
            if name not in table:
                raise ValueError(f"unknown operator name {name!r}: use q, p, a or adag")
            per_mode[mode] = per_mode.get(mode, eye) @ table[name]
        out.append(complex(np.sum(rho * _on_modes(probe, per_mode).T)))  # tr(rho op)
    return out


def moment_fock(probe: FockOperatorSet, monomial) -> complex:
    return moments_fock(probe, [monomial])[0]


def fock_fisher_converged(kind: str, r: float, N: float, N2: float | None = None,
                          max_dim: int | None = None):
    """Compute (H, J) of build_probe_fock(kind, r, N, N2, max_dim=max_dim) and
    of the same probe at its dim + 5, and insist they agree within 1e-8.

    The first probe's selection-rule leakage (module docstring) must also
    stay within 1e-8.  The first probe is released before the check probe is
    built, so one probe is in memory at a time; the check goes directly to
    dim + 5, without a tail measurement or a leakage, as the first build has
    checked every input.  Either error carries the first probe's tail mass.
    """
    probe = build_probe_fock(kind, r, N, N2, max_dim=max_dim)
    H1, J1, leakage = _fisher_pass(probe)
    dim, tail = probe.dim, probe.tail
    del probe
    if leakage > _CONVERGED_TOL:
        raise TruncationError(f"selection-rule leakage {leakage:.3e} at dim={dim}",
                              tail_mass=tail)
    H2, J2, _ = _fisher_pass(_build_at_dim(kind, r, N, N2, dim + 5), leakage=False)
    drift = max(np.max(np.abs(H1 - H2)), np.max(np.abs(J1 - J2)))
    if drift > _CONVERGED_TOL:
        raise TruncationError(
            f"Fisher matrices drift by {drift:.3e} between dim={dim} "
            f"and dim={dim + 5}", tail_mass=tail)
    return H1, J1
