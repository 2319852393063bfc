"""End-to-end protocol executors in analytic and numeric modes.

"analytic" evaluates the closed-form constructions of the analytic module
(the two-branch cluster recursion, the W single-excitation amplitudes).
"numeric" is the independent oracle: it exponentiates the exchange
Hamiltonian numerically (matrix exponential or adaptive integrator) and uses
no closed-form amplitude. A cluster step couples one qubit to the cavity, so
its propagator is the exponential of that qubit-cavity generator, and the
register is a sequentially generated matrix-product state with the cavity as
the ancilla (Schoen et al., PRL 95, 110503 (2005)), grown one qubit per step
in O(2^j). The W Hamiltonian conserves excitation number, so the W run
evolves the (N+1)-dimensional single-excitation block. Coupling/decoupling a
qubit is modeled as instantaneous switching: a step's generator holds the
coupled qubit's exchange term and the decay term alone, so uncoupled qubits
are strictly uncoupled.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from . import analytic, metrics, numeric, statespace
from .errors import ArgumentError, CapacityError, ProtocolError
from .hamiltonian import EffectiveModel, _annihilator, _kron, build_single_excitation, exchange_term
from .records import RunReport
from .statespace import SingleExcitation, StateVector

ANALYTIC = "analytic"
NUMERIC = "numeric"

# Cavity-factorization thresholds on the photon-1 weight after the drain
# step, relative to the output norm. The recursion checks the analytic one;
# the numeric one carries integrator and expm roundoff, hence looser.
CAVITY_TOL = {ANALYTIC: analytic.CAVITY_TOL, NUMERIC: 1e-7}

# Numeric W runs exponentiate the dense (N+1)-dimensional single-excitation
# block, O(N^3) time and O(N^2) memory: on one BLAS thread of a 2-vCPU x86
# host, N = 500 takes 0.22 s at 94 MB peak RSS and N = 1000 1.6 s at 200 MB.
MAX_NUMERIC_W_QUBITS = 1000


def _check_mode(mode: str) -> None:
    if mode not in (ANALYTIC, NUMERIC):
        raise ArgumentError(f"mode must be 'analytic' or 'numeric', got {mode!r}")


# ---------------------------------------------------------------------------
# cluster protocol
# ---------------------------------------------------------------------------

def cluster_initial_state(n: int) -> StateVector:
    """Qubits 1..N-1 in |+>, qubit N in |0>, cavity in (|0> + i|1>)/sqrt(2).

    The joint input of the cluster protocol; numeric runs feed it to the
    register one qubit at a time instead.
    """
    if n < 1:
        raise ArgumentError(f"the cluster input needs n >= 1, got {n}")
    cavity = np.array([1.0, 1j], dtype=complex) / math.sqrt(2.0)
    weight = 1.0
    for _ in range(n - 1):
        weight *= cavity[0].real          # a |+> amplitude, 1/sqrt(2)
    # (qubits 1..N-1, qubit N, cavity): nonzero only where qubit N is |0>
    amps = np.zeros((1 << (n - 1), 2, 2), dtype=complex)
    amps[:, 0] = weight * cavity
    return StateVector(amps.reshape(-1), n, 2)


@lru_cache(maxsize=None)
def _step_operators(cutoff: int) -> Tuple[np.ndarray, np.ndarray]:
    """One qubit and the cavity: the unit-coupling exchange term and a^dag a, read-only.

    A step at coupling lam has generator ``lam * exchange + (-0.5j * kappa) * number``,
    bit for bit ``build_effective(EffectiveModel((lam,), kappa), 1, cutoff).matrix``.
    """
    a = _annihilator(cutoff)
    exchange = exchange_term(1, 1, cutoff)
    number = _kron(np.eye(2, dtype=complex), a.conj().T @ a)
    exchange.flags.writeable = number.flags.writeable = False
    return exchange, number


def run_cluster(
    model: EffectiveModel,
    n: int,
    mode: str = ANALYTIC,
    opts: Optional[numeric.PropagatorOptions] = None,
) -> Tuple[StateVector, RunReport]:
    """Run the N-step sequential protocol; return the qubit register and report.

    Analytic mode is ``analytic.cluster_analytic``: the two-branch recursion
    builds the register, and F, P and the cavity-factorization check come
    from the O(N) ``cluster_fidelity_recursive``. Numeric mode stacks the N
    qubit-cavity step generators and gets all N propagators from one
    ``numeric.evolve_vector`` call (with the adaptive integrator each step
    keeps its own step control). Fed its qubit's input (|+>, or |0> for
    qubit N), step j's propagator is a (cavity-in, qubit' x cavity-out)
    tensor. From the cavity input (|0> + i|1>)/sqrt(2) the register grows by
    one matmul per step, qubit j as the new least-significant bit, so the
    (2^j, cavity) array stays qubit-1-major with the cavity innermost; the
    qubits not yet coupled are a unit-norm product, so step j's norm is the
    grown array's. Only numeric propagators and the product input enter, no
    closed-form amplitude. The cavity is factored out at vacuum; F is taken
    against the normalized ideal cluster state, P is the squared norm.
    Either way the photon-1 weight left after the final (drain) step is
    reported as ``details["cavity_residual"]`` and raises FactorizationError
    above ``CAVITY_TOL[mode]`` relative to the state's norm: it signals a
    scheduling bug, not numerical noise.
    """
    _check_mode(mode)
    if n < 2:
        raise ArgumentError(f"cluster protocol needs n >= 2, got {n}")
    if n > analytic.MAX_DENSE_QUBITS:
        raise CapacityError(
            f"dense protocol execution capped at {analytic.MAX_DENSE_QUBITS} qubits "
            "(use cluster_fidelity_recursive for larger registers)"
        )
    if mode == ANALYTIC:
        return analytic.cluster_analytic(model, n)

    steps = analytic.cluster_schedule(model, n)
    cutoff = 2          # the one-photon cavity of the input (|0> + i|1>)/sqrt(2)
    exchange, number = _step_operators(cutoff)
    lams = np.array([step.lam for step in steps])
    durations = np.array([step.duration for step in steps])
    propagators = numeric.evolve_vector(
        lams[:, None, None] * exchange + (-0.5j * model.kappa) * number,
        np.eye(exchange.shape[0]),
        durations,
        opts or numeric.PropagatorOptions(),
    )
    # qubit inputs |+> for qubits 1..N-1 and |0> for qubit N, and
    # tensors[j][c, (b', c')] = sum_b U_j[(b', c'), (b, c)] inputs[j][b]
    inputs = np.full((n, 2), 1.0 / math.sqrt(2.0))
    inputs[-1] = (1.0, 0.0)
    tensors = np.einsum(
        "kpqbc,kb->kcpq", propagators.reshape(n, 2, cutoff, 2, cutoff), inputs
    ).reshape(n, cutoff, 2 * cutoff)
    grown = np.array([[1.0, 1j]]) / math.sqrt(2.0)
    per_step = []
    for j, tensor in enumerate(tensors, start=1):
        grown = (grown @ tensor).reshape(-1, cutoff)
        per_step.append((j, float(np.vdot(grown, grown).real)))

    psi = StateVector(grown.reshape(-1), n, cutoff)
    register = statespace.factor_out_cavity(psi, photon=0, tol=CAVITY_TOL[NUMERIC])
    report = RunReport(
        fidelity=metrics.fidelity(register, analytic.ideal_cluster(n)),
        success_probability=register.norm_sq(),
        per_step=tuple(per_step),
        details={"cavity_residual": statespace.cavity_residual(psi)},
    )
    return register, report


# ---------------------------------------------------------------------------
# W protocol
# ---------------------------------------------------------------------------

def w_initial_state(n: int) -> StateVector:
    """Qubit 1 excited, qubits 2..N and the cavity in the ground state."""
    return statespace.make_basis_state([1] + [0] * (n - 1), photon=0, cutoff=2)


def run_w(
    model: EffectiveModel,
    n: int,
    mode: str = ANALYTIC,
    opts: Optional[numeric.PropagatorOptions] = None,
) -> Tuple[SingleExcitation, RunReport]:
    """Simultaneous-coupling W preparation on qubits 2..N.

    The first coupling and the evolution time are always derived from the
    self-consistency conditions (model.lambdas[0] is treated as a seed only);
    at the solved time qubit 1 and the cavity disentangle, are checked against
    the mode's residual threshold, and are dropped from the register. The
    register is the SingleExcitation of qubits 2..N, so analytic runs cost
    O(N) at any N; numeric runs are capped at MAX_NUMERIC_W_QUBITS.
    """
    _check_mode(mode)
    if n < 2:
        raise ArgumentError(f"W protocol needs n >= 2, got {n}")
    if mode == NUMERIC and n > MAX_NUMERIC_W_QUBITS:
        raise CapacityError(
            f"numeric W runs exponentiate the dense (N+1)-dimensional block and are "
            f"capped at N = {MAX_NUMERIC_W_QUBITS}, got N = {n}"
        )
    if model.qubit_count != n:
        raise ArgumentError(f"model has {model.qubit_count} couplings, n = {n}")
    rest = model.lambdas[1:]
    solution = analytic.w_solve_lambda1(rest, model.kappa)
    solved = EffectiveModel(np.concatenate(([solution.lambda1], rest)), model.kappa)
    t = solution.duration

    if mode == ANALYTIC:
        amps = analytic.w_amplitudes(solved, t, solution.rest_coupling_sq)
        qubit1_tol, cavity_tol = 1e-10, 1e-12
    else:
        # single-excitation block, basis |1_1>, ..., |1_N>, |1_c>; start at |1_1>
        start = np.zeros(n + 1, dtype=complex)
        start[0] = 1.0
        block = build_single_excitation(solved, n)
        amps = numeric.evolve_vector(block.matrix, start, t, opts or numeric.PropagatorOptions())
        qubit1_tol = cavity_tol = 1e-7
    qubit1_residual = float(abs(amps[0]))
    cavity_residual = float(abs(amps[-1]))
    if qubit1_residual > qubit1_tol or cavity_residual > cavity_tol:
        raise ProtocolError(
            "W conditions not met at the solved time: "
            f"qubit-1 residual {qubit1_residual:.3e}, cavity residual {cavity_residual:.3e}",
            residual=max(qubit1_residual, cavity_residual),
        )
    register = SingleExcitation(amps[1:-1])
    per_step = ((1, register.norm_sq()),)

    target = analytic.w_target(rest, model.kappa, t, solution.rest_coupling_sq)
    report = RunReport(
        fidelity=metrics.fidelity(register, target),
        success_probability=register.norm_sq(),
        per_step=per_step,
        details={
            "solution": solution,
            "qubit1_residual": qubit1_residual,
            "cavity_residual": cavity_residual,
        },
    )
    return register, report
