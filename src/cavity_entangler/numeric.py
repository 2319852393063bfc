"""Independent numeric propagator: the oracle every closed form is tested against.

``evolve_vector`` applies exp(-i M t) to a vector or to every column of a
block; on the identity it returns the propagator itself. Given a (K, n, n)
stack of generators and a (K,) array of durations it does the same for every
member in one call: a numeric cluster run computes all its step propagators
this way. The protocol oracle uses it on small generators only: the
(2 x cutoff)-dimensional qubit-cavity block of each cluster step, whose
propagators the run contracts into the register one qubit at a time, and the
(N+1)-dimensional single-excitation block of the W protocol. ``evolve`` does
the same for a StateVector under a full dense OperatorMatrix, the small-N
ground truth.

Two methods, deliberately unrelated so they can cross-check each other:

* ``matrix-exponential`` (default): ``expm``, SciPy's scaling-and-squaring
  Pade implementation, robust for the mildly non-normal matrices here. SciPy
  is imported on the first call, so analytic runs never load it.
* ``adaptive-integrator``: an embedded Dormand-Prince 5(4) pair with per-step
  error control at the fixed relative tolerance ``TOL``, written out here
  rather than taken from a library so the cross-check does not share code
  with anything else in the stack. On a
  block it integrates the matrix ODE, with the error measured over the whole
  block. The generator is constant, so a DP5(4) step of size h is linear in
  the state: it is evaluated as the pair's stability polynomials in hM,
  applied through the powers (hM)^k y, k <= 7. A stack is integrated as one
  batch in which each member keeps its own step size, error norm,
  accept/reject decision and step checks; an unstacked call is a stack of
  one.

Each member of a stacked call equals its own unstacked call bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ConvergenceError, NumericError
from .hamiltonian import OperatorMatrix
from .statespace import StateVector

MATRIX_EXPONENTIAL = "matrix-exponential"
ADAPTIVE_INTEGRATOR = "adaptive-integrator"
# relative error target of one adaptive step (absolute: 1e-3 of it per unit norm)
TOL = 1e-10
# the adaptive integrator gives up after this many steps of one member
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class PropagatorOptions:
    method: str = MATRIX_EXPONENTIAL

    def __post_init__(self):
        if self.method not in (MATRIX_EXPONENTIAL, ADAPTIVE_INTEGRATOR):
            raise ArgumentError(f"unknown method {self.method!r}")


def expm(a: np.ndarray) -> np.ndarray:
    """SciPy's scaling-and-squaring exponential of a matrix or a (K, n, n) stack.

    SciPy is imported on the first call, so analytic runs never load it.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def evolve_vector(
    matrix: np.ndarray,
    vec: np.ndarray,
    t: float | np.ndarray,
    opts: PropagatorOptions = PropagatorOptions(),
) -> np.ndarray:
    """exp(-i M t) vec on a bare array: a vector, or a block of column vectors.

    Used directly for non-qubit bases and for small generators; with ``vec``
    the identity the result is the propagator exp(-i M t). A (K, n, n) stack
    of generators with a (K,) array of durations evolves ``vec`` under each
    member in one call and returns the K results stacked; each member equals
    its own unstacked call bit for bit. A non-finite generator entry, in
    any member of a stack, raises NumericError before either method runs.
    """
    matrix = np.asarray(matrix, dtype=complex)
    vec = np.asarray(vec, dtype=complex)
    times = np.asarray(t, dtype=float)
    if matrix.ndim not in (2, 3) or times.shape != matrix.shape[:-2]:
        raise ArgumentError(
            f"durations of shape {times.shape} do not match generators of shape {matrix.shape}"
        )
    if not (times >= 0).all():
        raise ArgumentError(f"t must be >= 0, got {t}")
    if matrix.shape[-2:] != (vec.shape[0], vec.shape[0]):
        raise ArgumentError(
            f"matrix {matrix.shape} does not act on vector of length {vec.shape[0]}"
        )
    if not np.isfinite(matrix).all():
        # the integrator would reject every step of a NaN generator until MAX_STEPS
        raise NumericError("non-finite generator entries")
    if opts.method == MATRIX_EXPONENTIAL:
        out = expm(-1j * matrix * times[..., None, None]) @ vec
    else:
        out = _dopri5(matrix, vec, times)
    out[times == 0] = vec                # a zero duration returns vec unchanged
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
_PAIR = np.array([_R5, _ERR])


def _dopri5(h: np.ndarray, y0: np.ndarray, t_end: float | np.ndarray) -> np.ndarray:
    """Integrate y' = -i H y from y0 over [0, t_end] for H alone or a (K, n, n) stack.

    A stack takes a (K,) array of end times and starts every member at y0. The
    members advance together, but each keeps its own step size, error norm,
    accept/reject decision and step-limit and underflow checks; a member
    leaves the stack when it reaches its end time. Every operation acts on
    each member alone, so a member's result does not depend on the others.
    """
    stacked = np.ndim(h) == 3
    m = -1j * (h if stacked else h[None])                   # y' = -i H y
    t_end = np.array(t_end, dtype=float, ndmin=1)
    count, dim = m.shape[:2]
    y = np.repeat(np.asarray(y0, dtype=complex).reshape(1, dim, -1), count, axis=0)
    result = y.copy()
    size = _norms(y.reshape(count, -1))                     # |y| of each member
    rtol = TOL
    atol = TOL * 1e-3 * np.maximum(size, 1.0)

    # the 1-norm (largest column sum of moduli) of each member sets its first step
    scale0 = np.sqrt(m.real**2 + m.imag**2).sum(axis=1).max(axis=1)
    step = np.array([
        min(end, 0.1 / scale) if scale > 0 else end
        for end, scale in zip(t_end.tolist(), scale0.tolist())
    ])

    live = np.arange(count)             # stack position of each member still running
    t = np.zeros(count)
    powers = np.empty((_R5.size,) + y.shape, dtype=complex)   # (hM)^k y of each member
    n_steps = 0                         # every running member takes one step per pass
    while True:
        finished = t >= t_end
        if finished.any():
            result[live[finished]] = y[finished]
            running = ~finished
            live, m, y, size, t, t_end, step, atol = (
                a[running] for a in (live, m, y, size, t, t_end, step, atol)
            )
        if not live.size:
            break
        if n_steps > MAX_STEPS:
            raise ConvergenceError(
                f"integrator exceeded {MAX_STEPS} steps", residual=float(step[0])
            )
        step = np.minimum(step, t_end - t)
        small = step < 1e-15 * t_end
        if small.any():
            first = int(np.argmax(small))
            raise ConvergenceError(
                f"integrator step size underflow at t={t[first]:.3e}",
                residual=float(step[first]),
            )
        hm = step[:, None, None] * m
        stage = powers[:, : live.size]
        stage[0] = y
        for k in range(1, _R5.size):
            np.matmul(hm, stage[k - 1], out=stage[k])
        flat = stage.reshape(_R5.size, live.size, -1).transpose(1, 0, 2)
        pair = _PAIR @ flat                                 # y5 and y5 - y4 of each member
        size5, err = _norms(pair).T
        ratio = err / (atol + rtol * np.maximum(size, size5))
        accept = ratio <= 1.0
        t = np.where(accept, t + step, t)
        y = np.where(accept[:, None, None], pair[:, 0].reshape(y.shape), y)
        size = np.where(accept, size5, size)
        step = step * np.array([
            min(5.0, max(0.2, 0.9 * r ** (-0.2) if r > 0 else 5.0)) for r in ratio.tolist()
        ])
        n_steps += 1
    result = result.reshape((count,) + np.shape(y0))
    return result if stacked else result[0]


def _norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm along the last axis, summed row by row so no row depends on another."""
    v = x.view(float)
    return np.sqrt(np.add.reduce(v * v, axis=-1))
