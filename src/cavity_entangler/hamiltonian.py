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


def out_of_regime(kappa: float, lam_min: float) -> bool:
    """True when kappa / lam_min exceeds REGIME_MAX_KAPPA_OVER_LAMBDA.

    Compared as a product, so a decay rate built as ``0.1 * lam`` is inside
    the regime (the quotient can round to 0.10000000000000002).
    """
    return kappa > REGIME_MAX_KAPPA_OVER_LAMBDA * lam_min


@dataclass(frozen=True, eq=False)
class EffectiveModel:
    """Per-qubit couplings lam_j (an owned, read-only float64 array) and the cavity decay kappa."""

    lambdas: np.ndarray
    kappa: float

    def __post_init__(self):
        lambdas = np.array(self.lambdas, dtype=float)   # owned copy
        if lambdas.ndim != 1 or not lambdas.size:
            raise ArgumentError("lambdas must be a non-empty 1-d sequence")
        lambdas.flags.writeable = False
        object.__setattr__(self, "lambdas", lambdas)
        finite = np.isfinite(lambdas)
        if not (finite.all() and math.isfinite(self.kappa)):
            raise ArgumentError(
                f"couplings and kappa must be finite, got kappa={self.kappa} "
                f"and {lambdas.size - np.count_nonzero(finite)} non-finite coupling(s)"
            )
        if self.kappa < 0:
            raise ArgumentError(f"kappa must be >= 0, got {self.kappa}")
        lam_min = float(lambdas.min())
        if lam_min <= 0:
            raise ArgumentError("all couplings must be > 0")
        if out_of_regime(self.kappa, lam_min):
            warnings.warn(
                f"kappa/min(lambda) = {self.kappa / lam_min:.3g} exceeds the supported regime "
                f"(<= {REGIME_MAX_KAPPA_OVER_LAMBDA}); results are not validated there",
                RegimeWarning,
                stacklevel=2,
            )

    @property
    def qubit_count(self) -> int:
        return self.lambdas.size


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
    """Kronecker product of the factors; a 1x1 identity factor is skipped, not multiplied."""
    return reduce(np.kron, [op for op in ops if op.shape != (1, 1) or op[0, 0] != 1])


def _annihilator(cutoff: int) -> np.ndarray:
    if cutoff < 2:
        raise ArgumentError(f"cutoff must be >= 2, got {cutoff}")
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def exchange_term(n: int, j: int, cutoff: int = 2) -> np.ndarray:
    """Qubit j's exchange a^dag |0>_j<1| + a |1>_j<0| at unit coupling (n qubits, cavity)."""
    if not 1 <= j <= n:
        raise ArgumentError(f"qubit {j} outside 1..{n}")
    a = _annihilator(cutoff)
    low = np.array([[0, 1], [0, 0]], dtype=complex)   # |0><1|
    pre = np.eye(1 << (j - 1), dtype=complex)
    post = np.eye(1 << (n - j), dtype=complex)
    return _kron(pre, low, post, a.conj().T) + _kron(pre, low.conj().T, post, a)


def decay_term(n: int, kappa: float, cutoff: int = 2) -> np.ndarray:
    """The cavity decay -i(kappa/2) a^dag a over n qubits and the cavity."""
    a = _annihilator(cutoff)
    return -0.5j * kappa * _kron(np.eye(1 << n, dtype=complex), a.conj().T @ a)


def build_effective(model: EffectiveModel, n: int, cutoff: int = 2) -> OperatorMatrix:
    """Exchange Hamiltonian with decay: every qubit's exchange term plus the decay term.

    The anti-Hermitian part is exactly -i(kappa/2) a^dag a. A step that couples
    one qubit alone is ``lam * exchange_term(n, j) + decay_term(n, kappa)``.
    """
    if n != model.qubit_count:
        raise ArgumentError(f"n = {n} but model has {model.qubit_count} couplings")
    decay = decay_term(n, model.kappa, cutoff)
    h = np.zeros_like(decay)
    for j, lam in enumerate(model.lambdas.tolist(), start=1):
        h += lam * exchange_term(n, j, cutoff)
    h += decay
    return OperatorMatrix(h)


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
    h[:n, n] = h[n, :n] = model.lambdas
    h[n, n] = -0.5j * model.kappa
    return OperatorMatrix(h)


def build_full_rotated(model: ThreeLevelModel, n: int, cutoff: int = 2) -> OperatorMatrix:
    """Time-independent rotated-frame three-level Hamiltonian (Hermitian).

    The lab-frame drives carry e^(+-i delta t) phase factors; rotating level
    |2> at the common drive detuning removes them and adds delta_j |2>_j<2|,
    which leaves every population and fidelity unchanged. Supports n <= 2
    (the elimination check is a per-qubit statement, so the 3^N basis is
    never needed beyond that).
    """
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
    return OperatorMatrix(h)


def effective_coupling(g: float, omega: float, delta: float) -> float:
    """Second-order qubit-cavity coupling g*Omega/delta from eliminating level |2>."""
    if not (math.isfinite(g) and math.isfinite(omega) and 0 < delta < math.inf):
        raise ArgumentError(f"need finite g, omega and delta > 0, got {g}, {omega}, {delta}")
    return g * omega / delta


def kappa_from_quality(q: float, nu_c: float) -> float:
    """Cavity decay rate kappa = 2*pi*nu_c / Q from quality factor and frequency (Hz)."""
    if not (0 < q < math.inf and 0 < nu_c < math.inf):
        raise ArgumentError(f"Q and nu_c must be finite and > 0, got Q={q}, nu_c={nu_c}")
    return 2.0 * math.pi * nu_c / q
