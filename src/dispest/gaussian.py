"""Gaussian states of bosonic modes: means, covariance matrices, symplectic maps.

Conventions: hbar = 1 and [q, p] = i, so the vacuum covariance is I/2.
Quadratures are ordered (q1, p1, ..., qm, pm).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

PROBE_KINDS = ("coherent", "single", "tmst", "tmst_asym")

# Tolerances scale with max(1, largest entry): entries ~e^{2r} carry rounding
# of that size, which an absolute tolerance rejects once r passes a few units.
_SYMMETRY_TOL = 1e-12
_PHYSICALITY_TOL = 1e-10
_SYMPLECTIC_TOL = 1e-10


def symplectic_form(modes: int) -> np.ndarray:
    """Standard symplectic form, block-diagonal [[0, 1], [-1, 0]] per mode."""
    omega = np.zeros((2 * modes, 2 * modes))
    for k in range(modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def _scale(mat: np.ndarray) -> float:
    return max(1.0, float(np.abs(mat).max()))


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GaussianState:
    """Immutable Gaussian state given by its mean vector and covariance matrix.

    Parameters
    ----------
    mean : ndarray, shape (2m,)
        First moments (q1, p1, ..., qm, pm).
    cov : ndarray, shape (2m, 2m)
        Symmetric covariance matrix satisfying cov + (i/2) Omega >= 0.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _readonly(np.atleast_1d(self.mean))
        cov = _readonly(np.atleast_2d(self.cov))
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean must have length 2m and cov shape (2m, 2m)")
        if mean.size % 2 != 0 or mean.size == 0:
            raise ValueError("mean length must be a positive even number")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("mean and covariance must be finite")
        scale = _scale(cov)
        if not np.allclose(cov, cov.T, atol=_SYMMETRY_TOL * scale, rtol=0.0):
            raise ValueError("covariance matrix is not symmetric")
        m = mean.size // 2
        herm = cov + 0.5j * symplectic_form(m)
        if np.linalg.eigvalsh(herm).min() < -_PHYSICALITY_TOL * scale:
            raise ValueError("covariance matrix violates the uncertainty principle")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def modes(self) -> int:
        return self.mean.size // 2

    @property
    def purity(self) -> float:
        """Purity mu = 1 / sqrt(det(2 cov)); equals 1 for pure states."""
        return 1.0 / np.sqrt(np.linalg.det(2.0 * self.cov))

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Symplectic spectrum of cov; all values are 1/2 iff the state is pure."""
        ev = np.linalg.eigvals(symplectic_form(self.modes) @ self.cov)
        return np.sort(np.abs(ev))[::2]

    def reduced(self, mode: int) -> "GaussianState":
        """Single-mode marginal state."""
        sl = _mode_slice(self, mode)
        return GaussianState(self.mean[sl], self.cov[sl, sl])


@dataclass(frozen=True)
class SymplecticTransform:
    """Affine Gaussian map: cov -> S cov S^T, mean -> S mean + d."""

    S: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        S = _readonly(np.atleast_2d(self.S))
        d = _readonly(np.atleast_1d(self.d))
        if S.shape[0] != S.shape[1] or S.shape[0] != d.size:
            raise ValueError("S must be square with matching displacement length")
        m = S.shape[0] // 2
        omega = symplectic_form(m)
        if not np.allclose(S @ omega @ S.T, omega,
                           atol=_SYMPLECTIC_TOL * _scale(S) ** 2, rtol=0.0):
            raise ValueError("matrix S is not symplectic")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "d", d)

    def apply(self, state: GaussianState) -> GaussianState:
        if self.S.shape[0] != 2 * state.modes:
            raise ValueError("transform and state mode counts differ")
        return GaussianState(self.S @ state.mean + self.d,
                             self.S @ state.cov @ self.S.T)


def _mode_slice(state: GaussianState, mode: int) -> slice:
    if not 0 <= mode < state.modes:
        raise ValueError(f"mode index {mode} out of range for {state.modes} modes")
    return slice(2 * mode, 2 * mode + 2)


def _apply_block(state: GaussianState, block: np.ndarray,
                 targets: tuple[int, ...]) -> GaussianState:
    """Apply a symplectic block to the distinct modes `targets`, identity elsewhere."""
    if len(set(targets)) != len(targets):
        raise ValueError(f"target modes {targets} must be distinct")
    idx = np.r_[tuple(_mode_slice(state, t) for t in targets)]
    S = np.eye(2 * state.modes)
    S[np.ix_(idx, idx)] = block  # symplectic by construction: no check of S
    return GaussianState(S @ state.mean, S @ state.cov @ S.T)


def check_probe(r=None, N=None, N2=None, kind=None):
    """Squeezing r and thermal photon numbers N, N2 (None: not given) must be
    finite and nonnegative, elementwise for arrays.  A kind must be one of
    PROBE_KINDS; r and N are then given for every kind but 'coherent', and N2
    for 'tmst_asym' and only there."""
    if kind is not None:
        if kind not in PROBE_KINDS:
            raise ValueError(f"unknown probe kind '{kind}'")
        if (kind == "tmst_asym") != (N2 is not None):
            raise ValueError("N2 is required for tmst_asym and not allowed otherwise")
        if kind != "coherent" and (r is None or N is None):
            raise ValueError(f"a {kind} probe needs r and N")
    for value in (r, N, N2):
        if value is not None and not np.all(np.isfinite(value) & (np.asarray(value) >= 0)):
            raise ValueError("r and N must be finite and nonnegative")


def _check_count(name: str, value, least: int) -> None:
    """An integer of at least `least`; numpy integers pass, bool does not."""
    if type(value) is bool or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}")


def vacuum(modes: int = 1) -> GaussianState:
    return make_thermal(0.0, modes)


def make_thermal(N: float, modes: int = 1) -> GaussianState:
    """Thermal state with mean photon number N per mode: cov = (2N+1)/2 I."""
    check_probe(N=N)
    dim = 2 * modes
    return GaussianState(np.zeros(dim), (2.0 * N + 1.0) / 2.0 * np.eye(dim))


def squeeze_single(state: GaussianState, mode: int, r: float) -> GaussianState:
    """Single-mode squeezer; r > 0 reduces Var(p) by e^{-2r} and grows Var(q)."""
    return _apply_block(state, np.diag([np.exp(r), np.exp(-r)]), (mode,))


def squeeze_two(state: GaussianState, modes: tuple[int, int], r: float) -> GaussianState:
    """Two-mode squeezer on a pair of modes.

    On a thermal product input this gives the standard form of _tmst_form,
    blocks a I on the diagonal and -c Z off it (Z = diag(1, -1)), i.e.
    q1 + q2 and p1 - p2 are the squeezed pairs.
    """
    Z = np.diag([1.0, -1.0])
    ch, sh = np.cosh(r), np.sinh(r)
    block = np.block([[ch * np.eye(2), -sh * Z], [-sh * Z, ch * np.eye(2)]])
    return _apply_block(state, block, modes)


def make_squeezed_thermal(r: float, N: float) -> GaussianState:
    """Single-mode squeezed thermal state."""
    return squeeze_single(make_thermal(N, 1), 0, r)


_TmstForm = namedtuple("_TmstForm", "a b c E n1 n2 nu1 nu2 p1 p2 ch2 sh2 t sech2")


def _tmst_form(r, N, N2=None) -> _TmstForm:
    """Standard form [[a I, -c Z], [-c Z, b I]] of the two-mode squeezed thermal
    probe on checked inputs (broadcasts; N2 defaults to N), and the invariants its
    callers use, in forms that do not cancel: nu_i = N_i + 1/2, p_i = N_i(N_i + 1),
    cosh^2 r, sinh^2 r, t = tanh^2 r, sech^2 r and E = 2(a + b - 2c) = 2(nu1 + nu2)e^{-2r}."""
    r, n1 = np.asarray(r, dtype=float)[()], np.asarray(N, dtype=float)[()]
    n2 = n1 if N2 is None else np.asarray(N2, dtype=float)[()]  # scalars stay scalars
    nu1, nu2 = n1 + 0.5, n2 + 0.5
    ch, sh = np.cosh(r), np.sinh(r)
    ch2, sh2 = ch * ch, sh * sh
    return _TmstForm(ch2 * nu1 + sh2 * nu2, sh2 * nu1 + ch2 * nu2,
                     ch * sh * (nu1 + nu2), 2.0 * (nu1 + nu2) * np.exp(-2.0 * r),
                     n1, n2, nu1, nu2, n1 * (n1 + 1.0), n2 * (n2 + 1.0), ch2, sh2,
                     np.tanh(r) ** 2, (1.0 / ch) ** 2)


def tmst_cov(r, N, N2=None) -> np.ndarray:
    """Covariance (..., 4, 4) of the two-mode squeezed thermal state, the
    standard form of _tmst_form; broadcasts over r, N and N2 (default N)."""
    check_probe(r, N, N2, "tmst" if N2 is None else "tmst_asym")
    a, b, c = np.broadcast_arrays(*_tmst_form(r, N, N2)[:3])
    z = np.zeros_like(a)
    rows = [[a, z, -c, z], [z, a, z, c], [-c, z, b, z], [z, c, z, b]]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def make_tmst(r: float, N: float, N2: float | None = None) -> GaussianState:
    """Two-mode squeezed thermal state; pass N2 for an asymmetric thermal input."""
    return GaussianState(np.zeros(4), tmst_cov(r, N, N2))


def displace(state: GaussianState, mode: int, q0: float, p0: float) -> GaussianState:
    """Phase-space displacement of one mode; covariance is unchanged."""
    sl = _mode_slice(state, mode)
    mean = state.mean.copy()
    mean[sl] += (q0, p0)
    return GaussianState(mean, state.cov)


def phase_rotate(state: GaussianState, mode: int, theta: float) -> GaussianState:
    """Phase-space rotation of one mode by angle theta."""
    c, s = np.cos(theta), np.sin(theta)
    return _apply_block(state, np.array([[c, s], [-s, c]]), (mode,))


def beamsplit_balanced(state: GaussianState, modes: tuple[int, int] = (0, 1)) -> GaussianState:
    """Balanced beam splitter mixing two modes.

    Convention: output mode i carries (R_i - R_j)/sqrt(2) and output mode j
    carries (R_i + R_j)/sqrt(2) for both quadratures.  With the squeeze_two
    convention above, a two-mode squeezed thermal input factorizes into a
    p-squeezed output at mode i and a q-squeezed output at mode j, both
    displaced by the input-mode-i displacement rescaled by 1/sqrt(2).
    """
    I2 = np.eye(2)
    return _apply_block(state, np.block([[I2, -I2], [I2, I2]]) / np.sqrt(2.0), modes)


def homodyne_marginal(state: GaussianState, mode: int, quadrature: str) -> tuple[float, float]:
    """Mean and variance of the Gaussian marginal of one quadrature."""
    sl = _mode_slice(state, mode)
    if quadrature not in ("q", "p"):
        raise ValueError("quadrature must be 'q' or 'p'")
    k = sl.start + (0 if quadrature == "q" else 1)
    return float(state.mean[k]), float(state.cov[k, k])


def heterodyne_outcome_cov(state: GaussianState, mode: int) -> np.ndarray:
    """Covariance of the complex-plane heterodyne outcome: mode cov + I/2."""
    sl = _mode_slice(state, mode)
    return state.cov[sl, sl] + 0.5 * np.eye(2)
