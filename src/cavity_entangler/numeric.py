"""Independent numeric propagator: the oracle every closed form is tested against.

``evolve_vector`` applies exp(-i M t) to a vector or to every column of a
block; on the identity it returns the propagator itself. The protocol oracle
uses it on small generators only: the (2 x cutoff)-dimensional qubit-cavity
block of one cluster step, and the (N+1)-dimensional single-excitation block
of the W protocol. ``evolve`` does the same for a StateVector under a full
dense OperatorMatrix, the small-N ground truth.

Two methods, deliberately unrelated so they can cross-check each other:

* ``matrix-exponential`` (default): expm via SciPy's scaling-and-squaring
  Pade implementation, robust for the mildly non-normal matrices here.
* ``adaptive-integrator``: an embedded Dormand-Prince 5(4) pair with per-step
  error control, written out here rather than taken from a library so the
  cross-check does not share code with anything else in the stack. On a
  block it integrates the matrix ODE, with the error measured over the whole
  block.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.linalg import expm

from .errors import ArgumentError, ConvergenceError, NumericError
from .hamiltonian import OperatorMatrix
from .statespace import StateVector

MATRIX_EXPONENTIAL = "matrix-exponential"
ADAPTIVE_INTEGRATOR = "adaptive-integrator"


@dataclass(frozen=True)
class PropagatorOptions:
    method: str = MATRIX_EXPONENTIAL
    tol: float = 1e-10
    max_step: Optional[float] = None

    def __post_init__(self):
        if self.method not in (MATRIX_EXPONENTIAL, ADAPTIVE_INTEGRATOR):
            raise ArgumentError(f"unknown method {self.method!r}")
        if not 0 < self.tol <= 1e-4:
            raise ArgumentError(f"tol must be in (0, 1e-4], got {self.tol}")
        if self.max_step is not None and self.max_step <= 0:
            raise ArgumentError(f"max_step must be > 0, got {self.max_step}")


def evolve_vector(
    matrix: np.ndarray,
    vec: np.ndarray,
    t: float,
    opts: PropagatorOptions = PropagatorOptions(),
) -> np.ndarray:
    """exp(-i M t) vec on a bare array: a vector, or a block of column vectors.

    Used directly for non-qubit bases and for small generators; with ``vec``
    the identity the result is the propagator exp(-i M t).
    """
    if t < 0:
        raise ArgumentError(f"t must be >= 0, got {t}")
    matrix = np.asarray(matrix, dtype=complex)
    vec = np.asarray(vec, dtype=complex)
    if matrix.shape != (vec.shape[0], vec.shape[0]):
        raise ArgumentError(
            f"matrix {matrix.shape} does not act on vector of length {vec.shape[0]}"
        )
    if t == 0:
        return vec.copy()
    if opts.method == MATRIX_EXPONENTIAL:
        out = expm(-1j * matrix * t) @ vec
    else:
        out = _dopri5(matrix, vec, t, opts)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite amplitudes after propagation")
    return out


def evolve(
    h: OperatorMatrix,
    psi: StateVector,
    t: float,
    opts: PropagatorOptions = PropagatorOptions(),
) -> StateVector:
    """Return exp(-i H t) psi. Works for non-Hermitian H; norm never grows for decay."""
    if h.dim != psi.dim:
        raise ArgumentError(f"H is {h.dim}x{h.dim} but state has dimension {psi.dim}")
    out = evolve_vector(h.matrix, psi.amplitudes, t, opts)
    return StateVector(out, psi.qubit_count, psi.fock_cutoff)


def evolve_step_sequence(
    h_list: Iterable[tuple],
    psi: StateVector,
    opts: PropagatorOptions = PropagatorOptions(),
) -> StateVector:
    """Compose evolve over (OperatorMatrix, duration) segments in order."""
    out = psi
    for h, duration in h_list:
        out = evolve(h, out, duration, opts)
    return out


# Dormand-Prince 5(4) tableau (stage times are irrelevant: the system is
# autonomous and linear)
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])


def _dopri5(h: np.ndarray, y0: np.ndarray, t_end: float, opts: PropagatorOptions) -> np.ndarray:
    m = -1j * h          # y' = -i H y
    rtol = opts.tol
    atol = opts.tol * 1e-3 * max(np.linalg.norm(y0), 1.0)

    scale0 = np.linalg.norm(m, 1)
    step = min(t_end, 0.1 / scale0) if scale0 > 0 else t_end
    if opts.max_step is not None:
        step = min(step, opts.max_step)

    t = 0.0
    y = y0.astype(complex)
    n_steps = 0
    while t < t_end:
        if n_steps > 1_000_000:
            raise ConvergenceError("integrator exceeded 1e6 steps", residual=step)
        step = min(step, t_end - t)
        if step < 1e-15 * t_end:
            raise ConvergenceError(
                f"integrator step size underflow at t={t:.3e}", residual=step
            )
        k = [m @ y]
        for i in range(1, 7):
            yi = y + step * sum(aij * kj for aij, kj in zip(_A[i], k))
            k.append(m @ yi)
        y5 = y + step * sum(b * kj for b, kj in zip(_B5, k))
        y4 = y + step * sum(b * kj for b, kj in zip(_B4, k))
        err = np.linalg.norm(y5 - y4)
        tol_here = atol + rtol * max(np.linalg.norm(y), np.linalg.norm(y5))
        ratio = err / tol_here if tol_here > 0 else np.inf
        if ratio <= 1.0:
            t += step
            y = y5
        factor = 0.9 * ratio ** (-0.2) if ratio > 0 else 5.0
        step *= min(5.0, max(0.2, factor))
        if opts.max_step is not None:
            step = min(step, opts.max_step)
        n_steps += 1
    return y
