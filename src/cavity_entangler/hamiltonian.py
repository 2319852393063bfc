"""Hamiltonian builders and unit helpers.

Two models are built as dense matrices over the statespace basis:

* the effective qubit-cavity exchange Hamiltonian with a non-Hermitian cavity
  decay term,  H = sum_j lam_j (a^dag |0>_j<1| + a |1>_j<0|) - i(kappa/2) a^dag a
* the three-level (qubit levels 0,1 plus excited level 2) model in the rotated
  frame where the drive phases are absorbed into a detuning term on level 2,
  H = sum_j [delta_j |2>_j<2| + g_j (a^dag |0>_j<2| + h.c.) + Omega_j (|1>_j<2| + h.c.)]

The exchange Hamiltonian conserves excitation number, so it is also built on
its (N+1)-dimensional single-excitation block alone.

All frequencies are angular (rad/s). Builders are pure functions and the
returned matrices are never mutated.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ArgumentError, RegimeWarning

REGIME_MAX_KAPPA_OVER_LAMBDA = 0.1
ADIABATIC_WARN_RATIO = 0.1
ADIABATIC_MAX_RATIO = 0.2


@dataclass(frozen=True)
class EffectiveModel:
    """Per-qubit couplings lam_j and the cavity decay kappa for the exchange model."""

    lambdas: tuple
    kappa: float
    active: frozenset = None

    def __post_init__(self):
        lambdas = tuple(map(float, self.lambdas))
        object.__setattr__(self, "lambdas", lambdas)
        if not lambdas:
            raise ArgumentError("lambdas must be non-empty")
        if not (all(map(math.isfinite, lambdas)) and math.isfinite(self.kappa)):
            bad = sum(not math.isfinite(x) for x in lambdas)
            raise ArgumentError(
                f"couplings and kappa must be finite, got kappa={self.kappa} "
                f"and {bad} non-finite coupling(s)"
            )
        if self.kappa < 0:
            raise ArgumentError(f"kappa must be >= 0, got {self.kappa}")
        n = len(lambdas)
        if self.active is None:
            active = frozenset(range(1, n + 1))
        else:
            active = frozenset(map(int, self.active))
            if active and not (1 <= min(active) and max(active) <= n):
                raise ArgumentError(f"active set {sorted(active)} outside 1..{n}")
        object.__setattr__(self, "active", active)
        lam_min = self._min_active_coupling()
        if lam_min <= 0:
            raise ArgumentError("all active couplings must be > 0")
        ratio = self.kappa / lam_min
        if ratio > REGIME_MAX_KAPPA_OVER_LAMBDA:
            warnings.warn(
                f"kappa/min(lambda) = {ratio:.3g} exceeds the supported regime "
                f"(<= {REGIME_MAX_KAPPA_OVER_LAMBDA}); results are not validated there",
                RegimeWarning,
                stacklevel=2,
            )

    @property
    def qubit_count(self) -> int:
        return len(self.lambdas)

    @property
    def kappa_over_lambda(self) -> float:
        return self.kappa / self._min_active_coupling()

    def _min_active_coupling(self) -> float:
        """Smallest active coupling; inf when no qubit is active."""
        if len(self.active) == len(self.lambdas):   # in range and distinct: all active
            return min(self.lambdas)
        return min((self.lambdas[j - 1] for j in self.active), default=math.inf)

    def with_active(self, active) -> "EffectiveModel":
        return EffectiveModel(self.lambdas, self.kappa, frozenset(active))

    @classmethod
    def equal(cls, lam: float, n: int, kappa: float) -> "EffectiveModel":
        return cls((lam,) * n, kappa)


@dataclass(frozen=True)
class ThreeLevelModel:
    """Per-qubit g_j, Omega_j, delta_j for the full three-level model."""

    g: tuple
    omega: tuple
    delta: tuple
    strict: bool = True

    def __post_init__(self):
        g = tuple(float(x) for x in self.g)
        omega = tuple(float(x) for x in self.omega)
        delta = tuple(float(x) for x in self.delta)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "delta", delta)
        if not (len(g) == len(omega) == len(delta)) or not g:
            raise ArgumentError("g, omega, delta must be non-empty and equal length")
        if any(d <= 0 for d in delta):
            raise ArgumentError("all detunings must be > 0")
        ratio = self.adiabatic_ratio
        if ratio > ADIABATIC_MAX_RATIO and self.strict:
            raise ArgumentError(
                f"max(g, Omega)/delta = {ratio:.3g} > {ADIABATIC_MAX_RATIO}: the far-detuned "
                "condition is violated (pass strict=False to build anyway)"
            )
        if ratio > ADIABATIC_WARN_RATIO:
            warnings.warn(
                f"max(g, Omega)/delta = {ratio:.3g} > {ADIABATIC_WARN_RATIO}: the "
                "two-level reduction degrades",
                RegimeWarning,
                stacklevel=2,
            )

    @property
    def qubit_count(self) -> int:
        return len(self.g)

    @property
    def adiabatic_ratio(self) -> float:
        return max(
            max(gj, oj) / dj for gj, oj, dj in zip(self.g, self.omega, self.delta)
        )


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense complex matrix over a (levels^N x cutoff) basis."""

    matrix: np.ndarray
    hermitian_flag: bool

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ArgumentError(f"matrix must be square, got shape {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _kron(*ops) -> np.ndarray:
    return reduce(np.kron, ops)


def _annihilator(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def _site_op(op: np.ndarray, j: int, n: int, levels: int, cutoff: int) -> np.ndarray:
    """Embed a single-site operator at site j (1-based) with the cavity innermost."""
    pre = np.eye(levels ** (j - 1), dtype=complex)
    post = np.eye(levels ** (n - j) * cutoff, dtype=complex)
    return _kron(pre, op, post)


def number_operator(n: int, cutoff: int, levels: int = 2) -> OperatorMatrix:
    """Cavity photon-number operator a^dag a on the full basis."""
    a = _annihilator(cutoff)
    mat = _kron(np.eye(levels**n, dtype=complex), a.conj().T @ a)
    return OperatorMatrix(mat, True)


def excitation_operator(n: int, cutoff: int) -> OperatorMatrix:
    """Total excitation a^dag a + sum_j |1>_j<1| (two-level basis)."""
    mat = number_operator(n, cutoff).matrix.copy()
    p1 = np.diag([0.0, 1.0]).astype(complex)
    for j in range(1, n + 1):
        mat += _site_op(p1, j, n, 2, cutoff)
    return OperatorMatrix(mat, True)


def build_effective(model: EffectiveModel, n: int, cutoff: int = 2) -> OperatorMatrix:
    """Exchange Hamiltonian with decay; anti-Hermitian part is exactly -i(kappa/2) a^dag a."""
    if cutoff < 2:
        raise ArgumentError(f"cutoff must be >= 2, got {cutoff}")
    if n != model.qubit_count:
        raise ArgumentError(f"n = {n} but model has {model.qubit_count} couplings")
    a = _annihilator(cutoff)
    adag = a.conj().T
    low = np.array([[0, 1], [0, 0]], dtype=complex)   # |0><1|
    raise_ = low.conj().T
    dim = (1 << n) * cutoff
    h = np.zeros((dim, dim), dtype=complex)
    eye_q = np.eye(1 << n, dtype=complex)
    for j in sorted(model.active):
        lam = model.lambdas[j - 1]
        pre = np.eye(1 << (j - 1), dtype=complex)
        post = np.eye(1 << (n - j), dtype=complex)
        h += lam * (_kron(pre, low, post, adag) + _kron(pre, raise_, post, a))
    h += -0.5j * model.kappa * _kron(eye_q, adag @ a)
    return OperatorMatrix(h, hermitian_flag=(model.kappa == 0))


def build_single_excitation(model: EffectiveModel, n: int) -> OperatorMatrix:
    """The exchange Hamiltonian on its (n+1)-dimensional single-excitation block.

    Basis |1_1>, ..., |1_n>, |1_c>: qubit j (or the cavity) holds the one
    excitation, everything else is in the ground state; the order of
    ``analytic.w_amplitudes``. The Hamiltonian conserves excitation number, so
    the block equals ``build_effective(model, n, 2)`` restricted to those kets.
    """
    if n != model.qubit_count:
        raise ArgumentError(f"n = {n} but model has {model.qubit_count} couplings")
    h = np.zeros((n + 1, n + 1), dtype=complex)
    for j in sorted(model.active):
        h[j - 1, n] = h[n, j - 1] = model.lambdas[j - 1]
    h[n, n] = -0.5j * model.kappa
    return OperatorMatrix(h, hermitian_flag=(model.kappa == 0))


def build_full_rotated(model: ThreeLevelModel, n: int, cutoff: int = 2) -> OperatorMatrix:
    """Time-independent rotated-frame three-level Hamiltonian (Hermitian).

    The lab-frame drives carry e^(+-i delta t) phase factors; rotating level
    |2> at the common drive detuning removes them and adds delta_j |2>_j<2|,
    which leaves every population and fidelity unchanged. Supports n <= 2
    (the elimination check is a per-qubit statement, so the 3^N basis is
    never needed beyond that).
    """
    if cutoff < 2:
        raise ArgumentError(f"cutoff must be >= 2, got {cutoff}")
    if n != model.qubit_count:
        raise ArgumentError(f"n = {n} but model has {model.qubit_count} qubits")
    if n > 2:
        raise ArgumentError("three-level simulation supports n = 1 or 2 only")
    a = _annihilator(cutoff)
    adag = a.conj().T
    s02 = np.zeros((3, 3), dtype=complex); s02[0, 2] = 1.0   # |0><2|
    s12 = np.zeros((3, 3), dtype=complex); s12[1, 2] = 1.0   # |1><2|
    p2 = np.zeros((3, 3), dtype=complex); p2[2, 2] = 1.0
    dim = 3**n * cutoff
    h = np.zeros((dim, dim), dtype=complex)
    for j in range(1, n + 1):
        pre = np.eye(3 ** (j - 1), dtype=complex)
        post = np.eye(3 ** (n - j), dtype=complex)
        h += model.delta[j - 1] * _kron(pre, p2, post, np.eye(cutoff, dtype=complex))
        h += model.g[j - 1] * (_kron(pre, s02, post, adag) + _kron(pre, s02.conj().T, post, a))
        h += model.omega[j - 1] * (
            _kron(pre, s12, post, np.eye(cutoff, dtype=complex))
            + _kron(pre, s12.conj().T, post, np.eye(cutoff, dtype=complex))
        )
    return OperatorMatrix(h, hermitian_flag=True)


def effective_coupling(g: float, omega: float, delta: float) -> float:
    """Second-order qubit-cavity coupling g*Omega/delta from eliminating level |2>."""
    if delta <= 0:
        raise ArgumentError(f"delta must be > 0, got {delta}")
    return g * omega / delta


def kappa_from_quality(q: float, nu_c: float) -> float:
    """Cavity decay rate kappa = 2*pi*nu_c / Q from quality factor and frequency (Hz)."""
    if q <= 0 or nu_c <= 0:
        raise ArgumentError(f"Q and nu_c must be > 0, got Q={q}, nu_c={nu_c}")
    return 2.0 * math.pi * nu_c / q
