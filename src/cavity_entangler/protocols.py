"""End-to-end protocol executors in analytic and numeric modes.

"analytic" evaluates the closed-form constructions of the analytic module
(the two-branch cluster recursion, the W single-excitation amplitudes).
"numeric" is the independent oracle: it exponentiates the exchange
Hamiltonian numerically (matrix exponential or adaptive integrator) and uses
no closed-form amplitude. A cluster step couples one qubit to the cavity, so
its propagator is the exponential of that qubit-cavity generator, applied to
the joint state on the (qubit, cavity) axes in O(2^N). The W Hamiltonian
conserves excitation number, so the W run evolves the (N+1)-dimensional
single-excitation block. Coupling/decoupling a qubit is modeled as
instantaneous switching: a step's generator holds the coupled qubit's exchange
term and the decay term alone, so uncoupled qubits are strictly uncoupled.
"""
from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from . import analytic, metrics, numeric, statespace
from .errors import ArgumentError, CapacityError, ProtocolError
from .hamiltonian import EffectiveModel, build_single_excitation, decay_term, exchange_term
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

    The joint input of numeric-mode cluster runs.
    """
    vec = np.array([1.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    ground = np.array([1.0, 0.0], dtype=complex)
    for j in range(1, n + 1):
        vec = np.kron(vec, plus if j < n else ground)
    cavity = np.array([1.0, 1j], dtype=complex) / math.sqrt(2.0)
    return StateVector(np.kron(vec, cavity), n, 2)


def run_cluster(
    model: EffectiveModel,
    n: int,
    mode: str = ANALYTIC,
    opts: Optional[numeric.PropagatorOptions] = None,
) -> Tuple[StateVector, RunReport]:
    """Run the N-step sequential protocol; return the qubit register and report.

    Analytic mode is ``analytic.cluster_analytic``: the two-branch recursion
    builds the register, and F, P and the cavity-factorization check come
    from the O(N) ``cluster_fidelity_recursive``. Numeric mode propagates the
    joint state step by step, each step with the numerically exponentiated
    qubit-cavity generator of the coupled qubit, factors the cavity out at
    vacuum, and measures F against the normalized ideal cluster state and P
    as the register's squared norm. Either way the photon-1 weight left after
    the final (drain) step is reported as ``details["cavity_residual"]`` and
    raises FactorizationError above ``CAVITY_TOL[mode]`` relative to the
    state's norm: it signals a scheduling bug, not numerical noise.
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
    opts = opts or numeric.PropagatorOptions()
    psi = cluster_initial_state(n)
    cutoff = psi.fock_cutoff
    grid = psi._grid()
    # one qubit plus the cavity: a step at coupling lam has generator lam * exchange + decay
    exchange = exchange_term(1, 1, cutoff)
    decay = decay_term(1, model.kappa, cutoff)
    identity = np.eye(exchange.shape[0])
    per_step = []
    for j, step in enumerate(steps, start=1):
        u = numeric.evolve_vector(step.lam * exchange + decay, identity, step.duration, opts)
        # (qubit', photon', qubit, photon) contracted with the (j, cavity) axes
        grid = np.tensordot(u.reshape(2, cutoff, 2, cutoff), grid, axes=([2, 3], [j - 1, n]))
        per_step.append((j, float(np.vdot(grid, grid).real)))
        grid = np.moveaxis(grid, (0, 1), (j - 1, n))

    psi = StateVector(grid.reshape(-1), n, cutoff)
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
