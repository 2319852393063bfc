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
  error control at the fixed relative tolerance ``TOL``, written out here
  rather than taken from a library so the cross-check does not share code
  with anything else in the stack. On a
  block it integrates the matrix ODE, with the error measured over the whole
  block. The generator is constant, so a DP5(4) step of size h is linear in
  the state: it is evaluated as the pair's stability polynomials in hM,
  applied through the powers (hM)^k y, k <= 7.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import ArgumentError, ConvergenceError, NumericError
from .hamiltonian import OperatorMatrix
from .statespace import StateVector

MATRIX_EXPONENTIAL = "matrix-exponential"
ADAPTIVE_INTEGRATOR = "adaptive-integrator"
# relative error target of one adaptive step (absolute: 1e-3 of it per unit norm)
TOL = 1e-10


@dataclass(frozen=True)
class PropagatorOptions:
    method: str = MATRIX_EXPONENTIAL

    def __post_init__(self):
        if self.method not in (MATRIX_EXPONENTIAL, ADAPTIVE_INTEGRATOR):
            raise ArgumentError(f"unknown method {self.method!r}")


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
        out = _dopri5(matrix, vec, t)
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


# Dormand-Prince 5(4) on y' = M y with M constant. All seven stages are
# polynomials in z = hM applied to y, so one step of size h gives
#   y5 = R5(z) y  with  R5(z) = 1 + sum_k (b5^T A^(k-1) 1) z^k,
# and the embedded error y5 - y4 = E(z) y with E = R5 - R4 (R4 from b4, of
# degree 7 through the first-same-as-last stage). Coefficients of z^0..z^7,
# exact rationals of the tableau (tests/test_numeric.py derives them with
# Fraction): R5 is the degree-5 Taylor polynomial of e^z plus z^6/600.
_R5 = np.array([1.0, 1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600, 0.0])
_ERR = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -97 / 120000, 13 / 40000, -1 / 24000])


def _dopri5(h: np.ndarray, y0: np.ndarray, t_end: float) -> np.ndarray:
    m = -1j * h          # y' = -i H y
    rtol = TOL
    atol = TOL * 1e-3 * max(np.linalg.norm(y0), 1.0)

    scale0 = np.linalg.norm(m, 1)
    step = min(t_end, 0.1 / scale0) if scale0 > 0 else t_end

    t = 0.0
    y = y0.astype(complex)
    powers = np.empty((_R5.size,) + y.shape, dtype=complex)   # (hM)^k y
    flat = powers.reshape(_R5.size, -1)
    n_steps = 0
    while t < t_end:
        if n_steps > 1_000_000:
            raise ConvergenceError("integrator exceeded 1e6 steps", residual=step)
        step = min(step, t_end - t)
        if step < 1e-15 * t_end:
            raise ConvergenceError(
                f"integrator step size underflow at t={t:.3e}", residual=step
            )
        hm = step * m
        powers[0] = y
        for k in range(1, _R5.size):
            np.matmul(hm, powers[k - 1], out=powers[k])
        y5 = (_R5 @ flat).reshape(y.shape)
        err = np.linalg.norm(_ERR @ flat)
        tol_here = atol + rtol * max(np.linalg.norm(y), np.linalg.norm(y5))
        ratio = err / tol_here if tol_here > 0 else np.inf
        if ratio <= 1.0:
            t += step
            y = y5
        factor = 0.9 * ratio ** (-0.2) if ratio > 0 else 5.0
        step *= min(5.0, max(0.2, factor))
        n_steps += 1
    return y
