"""Closed-form propagators, protocol timing, and the cluster/W constructions.

Everything in this module is an exact solution of the exchange-with-decay
Hamiltonian restricted to the photon-number-0/1 sector of one qubit and the
cavity (nothing here integrates an ODE). The numeric module provides the
independent oracle these forms are tested against.

Single-step closed form
-----------------------
With one qubit coupled at rate ``lam`` and cavity decay ``kappa``, write
``G = sqrt(lam^2 - kappa^2/16)`` and ``e(t) = exp(-kappa t/4)``. Diagonalizing
the 2x2 single-excitation block gives, for evolution time t,

    |0_c 0_q>  ->  |0_c 0_q>
    |0_c 1_q>  ->  e(t)[cos(Gt) + (kappa/4G) sin(Gt)] |0_c 1_q>
                   - i e(t)(lam/G) sin(Gt) |1_c 0_q>
    |1_c 0_q>  ->  e(t)[cos(Gt) - (kappa/4G) sin(Gt)] |1_c 0_q>
                   - i e(t)(lam/G) sin(Gt) |0_c 1_q>
    |1_c 1_q>  ->  exp(-kappa t/2) |1_c 1_q>

Note the sign asymmetry between the two stay coefficients: the component that
holds the photon sits on the decaying level and loses amplitude faster. The
two stay coefficients therefore vanish at *different* times:

    load root   t  = [pi - arctan(4G/kappa)] / G   (qubit-excited stay = 0)
    drain root  t' = arctan(4G/kappa) / G          (cavity-excited stay = 0)

Both reduce to pi/(2 lam) at kappa = 0. At either root sin(Gt) = G/lam
exactly, so the swap amplitude is exactly e(t).

The sequential cluster protocol couples qubits one at a time: steps 1..N-1 at
their load roots (each new qubit's excitation swaps fully onto the cavity),
and step N at its drain root so the photon drains fully into the last qubit
and the cavity factorizes exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ArgumentError,
    CapacityError,
    ConvergenceError,
    FactorizationError,
    RegimeError,
    SectorError,
    single_outcome,
)
from .hamiltonian import EffectiveModel
from .records import RunReport
from .statespace import MAX_DENSE_QUBITS, SingleExcitation, StateVector

LOAD = "load"
DRAIN = "drain"

# Photon-1 weight after the drain step, relative to the output norm, above
# which a cluster run raises FactorizationError: it is exact up to the drain
# root's roundoff, so more signals a scheduling bug.
CAVITY_TOL = 1e-10

# Cap on runs x decay rates that one batched recursion stacks. Each run's map
# pair takes 144 bytes and the recursion holds about four copies of the
# stack, so a batch peaks near 40 MB; distinct couplings beyond the cap run
# one decay rate at a time, whose stack is the only one a single rate needs.
BATCH_RUN_MAPS = 1 << 16


@dataclass(frozen=True)
class StepParams:
    """Timing and amplitudes of one full-transfer coupling step."""

    lam: float
    kappa: float
    duration: float           # the chosen stay-root time
    swap_amp: float           # e^{-kappa t/4}(lam/G) sin(Gt) = e^{-kappa t/4} at the root
    double_amp: float         # e^{-kappa t/2}


def step_params(lam: float, kappa: float, role: str = LOAD) -> StepParams:
    """Full-transfer step parameters for one qubit.

    ``role="load"`` zeroes the qubit-excited stay coefficient (used for every
    qubit fed into the chain); ``role="drain"`` zeroes the cavity-excited one
    (used for the final qubit, which absorbs the photon).
    """
    if role not in (LOAD, DRAIN):
        raise ArgumentError(f"role must be 'load' or 'drain', got {role!r}")
    # one chained comparison on the path every step takes; it is False for
    # NaN and inf, and 0 <= kappa < 4 lam implies lam > 0
    if not (0 <= kappa < 4 * lam and lam < math.inf):
        if not 0 <= kappa < math.inf:
            raise ArgumentError(f"kappa must be finite and >= 0, got {kappa}")
        if not 0 < lam < math.inf:
            raise ArgumentError(f"lam must be finite and > 0, got {lam}")
        raise RegimeError(
            f"kappa = {kappa:.3g} >= 4*lam = {4 * lam:.3g}: exchange is overdamped, "
            "no full-transfer time exists"
        )
    g = math.sqrt(lam * lam - kappa * kappa / 16.0)
    if kappa == 0:
        t = math.pi / (2.0 * lam)
    elif role == LOAD:
        t = (math.pi - math.atan(4.0 * g / kappa)) / g
    else:
        t = math.atan(4.0 * g / kappa) / g
    e = math.exp(-kappa * t / 4.0)
    swap = e * (lam / g) * math.sin(g * t)
    return StepParams(lam, kappa, t, swap, math.exp(-kappa * t / 2.0))


def _branch_coefficients(lam: float, kappa: float, duration: float):
    """(stay_qubit, stay_cavity, hop, double) of the four-branch map at any time."""
    g = math.sqrt(lam * lam - kappa * kappa / 16.0)
    e = math.exp(-kappa * duration / 4.0)
    c = math.cos(g * duration)
    s = math.sin(g * duration)
    stay_q = e * (c + (kappa / (4.0 * g)) * s)
    stay_c = e * (c - (kappa / (4.0 * g)) * s)
    hop = -1j * e * (lam / g) * s
    double = math.exp(-kappa * duration / 2.0)
    return stay_q, stay_c, hop, double


def single_step_map(
    psi: StateVector, j: int, p: StepParams, duration: float
) -> StateVector:
    """Apply the closed-form qubit-j/cavity evolution for the given duration.

    Valid only while the coupled sectors hold at most one photon; any weight
    at photon number >= 2 beyond 1e-12 (relative) is rejected because the
    closed form is derived in the 0/1-excitation exchange sector.
    """
    if not 1 <= j <= psi.qubit_count:
        raise ArgumentError(f"qubit index {j} out of range 1..{psi.qubit_count}")
    if duration < 0:
        raise ArgumentError(f"duration must be >= 0, got {duration}")
    if psi.fock_cutoff < 2:
        raise ArgumentError("state has no cavity excitation axis (cutoff < 2)")
    if psi.fock_cutoff > 2:
        high = psi.amplitudes.reshape(-1, psi.fock_cutoff)[:, 2:]
        if np.linalg.norm(high) > 1e-12 * max(psi.norm(), np.finfo(float).tiny):
            raise SectorError(
                "photon-number >= 2 amplitude present: the closed-form step map "
                "is valid only in the 0/1-photon sector"
            )
    stay_q, stay_c, hop, double = _branch_coefficients(p.lam, p.kappa, duration)
    n = psi.qubit_count
    arr = psi.amplitudes.reshape(1 << (j - 1), 2, 1 << (n - j), psi.fock_cutoff).copy()
    q0n1 = arr[:, 0, :, 1].copy()   # cavity excited, qubit j ground
    q1n0 = arr[:, 1, :, 0].copy()   # qubit j excited, cavity empty
    arr[:, 1, :, 0] = stay_q * q1n0 + hop * q0n1
    arr[:, 0, :, 1] = stay_c * q0n1 + hop * q1n0
    arr[:, 1, :, 1] = double * arr[:, 1, :, 1]
    return StateVector(arr.reshape(-1), n, psi.fock_cutoff)


def _check_cluster_size(model: EffectiveModel, n: int) -> None:
    if n < 2:
        raise ArgumentError(f"cluster protocol needs n >= 2, got {n}")
    if model.qubit_count != n:
        raise ArgumentError(f"model has {model.qubit_count} couplings, n = {n}")


def cluster_schedule(model: EffectiveModel, n: int) -> Tuple[StepParams, ...]:
    """One-qubit-at-a-time schedule, qubit j's step at index j-1.

    Load roots for qubits 1..N-1, the drain root for qubit N.
    """
    _check_cluster_size(model, n)
    return tuple(
        step_params(lam, model.kappa, LOAD if j < n else DRAIN)
        for j, lam in enumerate(model.lambdas.tolist(), start=1)
    )


def ideal_cluster(n: int) -> StateVector:
    """The decay-free target: 2^{-N/2} prod_j (|0>_j + |1>_j sigma_z^{j-1}).

    sigma_z^0 is the identity (qubit 1 has no left neighbor); sigma_z uses the
    |1><1| - |0><0| sign convention throughout. It is the cluster register
    at kappa = 0, where every step has a = b = 1 and d = 0 and the drain
    amplitude is 1, so every amplitude is exactly +-2^{-N/2}.
    """
    if not 1 <= n <= MAX_DENSE_QUBITS:
        raise ArgumentError(f"n must be in 1..{MAX_DENSE_QUBITS}, got {n}")
    return StateVector(_split_register([(1.0, 1.0, 0.0)] * (n - 1), 1.0), n, 1)


def _coupling_runs(model: EffectiveModel, n: int):
    """The distinct load couplings, the row of each run among them, and the run lengths.

    One comparison pass over the N-1 load couplings splits them into runs of
    equal consecutive couplings, and only the run heads are sorted to find
    the distinct ones: run r is ``lengths[r]`` steps of coupling
    ``lams[run_rows[r]]``.
    """
    loads = model.lambdas[: n - 1]
    heads = np.flatnonzero(np.concatenate(([True], loads[1:] != loads[:-1])))
    lengths = np.diff(np.append(heads, loads.size))
    # each run's row comes with the sort; a binary search of the unsorted heads
    # in the distinct couplings costs 0.4 s at 10^6 distinct couplings
    lams, run_rows = np.unique(loads[heads], return_inverse=True)
    return lams.tolist(), run_rows, lengths


def _step_coefficients(lams: list, lam_drain: float, kappas: list):
    """Load coefficients (a, b, d) per distinct coupling and decay rate, and the drains.

    At the load root: a = e^{-kappa t/4} (swap), b = a^2 (double survival),
    d = kappa*a/(2 lam) (residual stay of the cavity-excited branch, which the
    load root does not zero). The drain step runs to its own root, where the
    cavity-excited stay vanishes instead.

    Returns ``(coeffs, drain)``: ``step_params`` runs once per coupling of
    ``lams`` and rate of ``kappas``, ``coeffs[i, k]`` holds the (a, b, d) of
    coupling i at rate k, and ``drain[k]`` is the drain's (swap amplitude a',
    cavity-excited stay) at its root at rate k.
    """
    coeffs = np.empty((len(lams), len(kappas), 3))
    drain = []
    for k, kappa in enumerate(kappas):
        for i, lam in enumerate(lams):
            p = step_params(lam, kappa, LOAD)
            a = p.swap_amp
            coeffs[i, k] = a, p.double_amp, kappa * a / (2.0 * p.lam)
        p = step_params(lam_drain, kappa, DRAIN)
        _, stay_c, hop, _ = _branch_coefficients(p.lam, kappa, p.duration)
        drain.append((-hop.imag, stay_c))    # hop = -i a'
    return coeffs, drain


def cluster_analytic(model: EffectiveModel, n: int) -> Tuple[StateVector, RunReport]:
    """Closed-form cluster register via the two-branch recursion (cavity exact vacuum).

    This is the analytic executor behind ``run_cluster(mode="analytic")``.
    After each load step the joint state keeps the shape
    ``2^{-(k+1)/2} (|0_c> x_k + i |1_c> sigma_z^k y_k) (x) remaining qubits``
    with the recursion (sigma_z^0 = identity, x_0 = y_0 = 1):

        x_k = |0>_k x_{k-1} + a_k sigma_z^{k-1} |1>_k y_{k-1}
        y_k = a_k |0>_k x_{k-1} + sigma_z^{k-1} (d_k |0>_k + b_k |1>_k) y_{k-1}

    The d_k |0>_k term is the cavity-excited branch's residual stay at the
    load root; dropping it gives a simpler but inexact recursion that treats
    both stay branches as equal (see tests: the full form matches the numeric
    propagator to 1e-15, the truncated one only to O(kappa/lambda)). The
    drain step, run for the schedule's final duration, maps i|1_c> sigma_z y
    onto qubit N with the swap amplitude a'_N:

        psi_N = 2^{-N/2} (|0>_N x_{N-1} + a'_N sigma_z^{N-1} |1>_N y_{N-1}) (x) |0_c>

    The pair (x_k, sigma_z^k y_k) is linear in (x_{k-1}, sigma_z^{k-1} y_{k-1}),
    so the register is a bond-2 product and factors across any cut h into
    ``L @ R``: L is the (2^h, 2) block [x_h, sigma_z^h y_h] of steps 1..h,
    and R is the (2, 2^{N-h}) block that steps h+1..N-1 and the drain make
    of the two unit seeds (1, 0) and (0, 1). ``_split_register`` builds both
    halves at the cut h = floor((N-1)/2) and forms the register in one real
    matmul, so no step touches more than 2^{N-h+1} entries and the complex
    cast in ``StateVector`` is the register's only full copy.

    Per-step norms 2^{-(k+1)} (|x_k|^2 + |y_k|^2) = (p_k + q_k)/2 come from
    N scalar updates of the halved (p, q, g) map of
    ``cluster_fidelity_recursive``, not from the dense blocks. The fidelity,
    the success probability (the last per-step norm) and the
    cavity-factorization check come from ``cluster_fidelity_recursive``'s
    recursion, the one analytic F and P at every N, run on the coefficients
    the register uses. The drain's cavity-excited stay coefficient, zero at
    the drain root, leaves the weight 2^{-N/2} |stay_c| |y_{N-1}| =
    |stay_c| sqrt(q_{N-1}/2) at photon 1; it is reported as
    ``details["cavity_residual"]``.
    """
    if n > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"dense construction capped at {MAX_DENSE_QUBITS} qubits "
            "(use cluster_fidelity_recursive for larger n)"
        )
    _check_cluster_size(model, n)
    lams, run_rows, lengths = _coupling_runs(model, n)
    coeffs, drain = _step_coefficients(lams, float(model.lambdas[n - 1]), [model.kappa])
    fid, p_success = single_outcome(_recursion(coeffs, run_rows, lengths, drain))

    steps = np.repeat(coeffs[run_rows, 0], lengths, axis=0).tolist()   # (a, b, d) per load step
    per_step = []
    p = q = g = 1.0             # halved |x_k|^2, |y_k|^2, <x_k|sigma_z y_k>
    for k, (a, b, d) in enumerate(steps, start=1):
        a_sq = a * a
        p, q, g = (
            0.5 * (p + a_sq * q),
            0.5 * (a_sq * p + (b * b + d * d) * q + 2.0 * a * d * g),
            0.5 * (-a * p + a * b * q - d * g),
        )
        per_step.append((k, 0.5 * (p + q)))
    per_step.append((n, p_success))

    drain_amp, stay_c = drain[0]
    state = StateVector(_split_register(steps, drain_amp), n, 1)
    report = RunReport(
        fidelity=fid,
        success_probability=p_success,
        per_step=tuple(per_step),
        details={"cavity_residual": abs(stay_c) * math.sqrt(0.5 * q)},
    )
    return state, report


def _split_register(steps: list, drain_amp: float) -> np.ndarray:
    """The real cluster register 2^{-N/2} L @ R, qubit-1-major, for N - 1 (a, b, d) rows.

    Rows 1..h build L from the seed branch pair x_0 = y_0 = 1, the rest and
    the drain build R from the unit seeds; see ``cluster_analytic``.
    """
    n = len(steps) + 1
    cut = (n - 1) // 2
    left = _grow(np.ones((1, 1, 2)), steps[:cut])[0]
    right = _grow(np.eye(2).reshape(2, 1, 2), steps[cut:]) * (1.0, drain_amp)
    return ((left * 2.0 ** (-n / 2.0)) @ right.reshape(2, -1)).reshape(-1)


def _grow(block: np.ndarray, steps: list) -> np.ndarray:
    """Append one qubit per (a, b, d) row to each seed's branch pair.

    ``block`` is (seeds, 2^m, 2): per seed, x and sigma_z y over m qubits,
    sigma_z on the newest. A step maps them to the new qubit's |0> branch
    (x, -a x - d sigma_z y) and its |1> branch (a sigma_z y, b sigma_z y),
    which leaves sigma_z on the new qubit; one (2, 4) matmul does both.
    """
    for a, b, d in steps:
        seeds, size, _ = block.shape
        block = (block @ np.array([[1.0, -a, 0.0, 0.0], [0.0, -d, a, b]])).reshape(
            seeds, 2 * size, 2)
    return block


def cluster_fidelity_recursive(model: EffectiveModel, n: int) -> Tuple[float, float]:
    """(fidelity, success probability) of the cluster run in O(N) time.

    Propagates six real scalars through the recursion instead of the dense
    states. With tilde marking the decay-free target branches (x~ = y~), and
    using that every |0>_k/|1>_k split is orthogonal and sigma_z is an
    involution, the needed quantities are

        s = <x~|x>   u = <x~|y>   p = ||x||^2   q = ||y||^2
        g = <x|sigma_z y>   g~ = <x~|sigma_z y>   (sigma_z on the newest qubit)

    which the step map updates as

        s <- s + a u
        u <- a s + b u + d g~
        p <- p + a^2 q
        q <- a^2 p + (b^2 + d^2) q + 2 a d g
        g <- -a p + a b q - d g
        g~ <- -a s + b u - d g~

    (all six start at 1). The d-coupled cross terms are why six scalars are
    needed rather than four. Final combination with the drain amplitude a':

        F = 2^{-N} (s + a' u)^2 / (p + a'^2 q),   P = 2^{-N} (p + a'^2 q).

    The drain's cavity-excited stay leaves the photon-1 weight
    2^{-N/2} |stay_c| sqrt(q); relative to sqrt(P) it is
    |stay_c| sqrt(q / (p + a'^2 q)), and above ``CAVITY_TOL`` the run raises
    FactorizationError (a mistimed drain, not roundoff).

    The update is two 3x3 linear maps per step, one on (s, u, g~) and one on
    (p, q, g), each halved (so the 2^{-N} prefactors collapse to 1/2). A run
    of equal consecutive couplings repeats one map pair, so each run's pair
    is raised to the run's length by binary powering; the per-run products
    are then multiplied pairwise, later runs on the left, in log2(runs)
    batched matmuls. Equal couplings are one run and cost O(log N) matmuls;
    distinct per-qubit couplings are N-1 runs of length 1. After every
    product each matrix is scaled by the power of two that brings the sum
    of its |entries| into [1/2, 1), and the exponents are summed as
    integers. Power-of-two scaling adds no roundoff, so kappa = 0 gives
    F = P = 1.0 exactly, and no intermediate under- or overflows: F and P
    are assembled with ``math.ldexp`` and read 0.0 only when the true value
    is below the double range (P is 2.4e-453 at N = 20000,
    kappa/lambda = 2/30). These are the only analytic cluster F and P
    (``cluster_analytic`` reports them); F agrees with a 120-bit evaluation
    of the recursion to ~1e-12 at N = 20000.
    """
    return single_outcome(cluster_fidelity_sweep(model, n, [model.kappa]))


def cluster_fidelity_sweep(model: EffectiveModel, n: int, kappas) -> list:
    """``cluster_fidelity_recursive`` at each decay rate of ``kappas``, batched.

    ``model`` gives the couplings; its own ``kappa`` is not read. The runs
    of equal couplings are found once, and the map pairs of up to
    ``BATCH_RUN_MAPS // runs`` decay rates (at least one) are raised and
    multiplied together, stacked beside the run axis, so the result at each
    rate is bit-identical to ``cluster_fidelity_recursive`` with that rate.
    Returns, per decay rate, ``(F, P)`` or the FactorizationError of that
    rate's cavity check, so one mistimed drain does not spoil the other
    rates. No decay rates give an empty list.
    """
    _check_cluster_size(model, n)
    kappas = [float(kappa) for kappa in kappas]
    lams, run_rows, lengths = _coupling_runs(model, n)
    lam_drain = float(model.lambdas[n - 1])
    size = max(1, BATCH_RUN_MAPS // run_rows.size)
    outcomes = []
    for start in range(0, len(kappas), size):
        coeffs, drain = _step_coefficients(lams, lam_drain, kappas[start:start + size])
        outcomes += _recursion(coeffs, run_rows, lengths, drain)
    return outcomes


def _recursion(coeffs, run_rows, lengths, drain) -> list:
    """(F, P) or the FactorizationError per decay rate, from ``_step_coefficients``.

    ``coeffs`` is (distinct coupling, decay rate, 3) with one drain pair per
    decay rate; run r uses row ``run_rows[r]`` for ``lengths[r]`` steps.
    """
    a, b, d = coeffs[..., 0], coeffs[..., 1], coeffs[..., 2]
    one, zero = np.ones_like(a), np.zeros_like(a)
    a_sq = a * a
    maps = 0.5 * np.array([
        [[one, a, zero], [a, b, d], [-a, b, -d]],                                  # (s, u, g~)
        [[one, a_sq, zero], [a_sq, b * b + d * d, 2.0 * a * d], [-a, a * b, -d]],  # (p, q, g)
    ])                                       # (family, 3, 3, distinct coupling, decay rate)
    # (distinct coupling, decay rate x family, 3, 3): rate k's families at 2k and 2k+1
    maps = maps.transpose(3, 4, 0, 1, 2).reshape(len(coeffs), -1, 3, 3)
    powers, exps = _run_powers(maps[run_rows], lengths)
    mantissas, exps = _chain_product(powers, exps)
    sums = mantissas[:, :2].sum(axis=2).tolist()     # the scalars all start at 1
    exps = exps.tolist()
    outcomes = []
    for k, (drain_amp, stay_c) in enumerate(drain):
        (s, u), (p, q) = sums[2 * k], sums[2 * k + 1]
        e_su, e_pq = exps[2 * k], exps[2 * k + 1]
        num = s + drain_amp * u
        den = p + drain_amp * drain_amp * q
        residual = abs(stay_c) * math.sqrt(q / den)   # p and q share the exponent e_pq
        if residual > CAVITY_TOL:
            outcomes.append(FactorizationError(
                f"photon left in the cavity after the drain step: residual {residual:.3e} "
                f"of the output norm exceeds tol {CAVITY_TOL:.1e}",
                residual,
            ))
        else:
            outcomes.append((
                math.ldexp(0.5 * num * num / den, 2 * e_su - e_pq),
                math.ldexp(0.5 * den, e_pq),
            ))
    return outcomes


def _rescaled(maps: np.ndarray):
    """Each trailing 3x3 matrix scaled by 2^-shift so the sum of its |entries| is in [1/2, 1)."""
    # einsum is the cheapest reduction here for one matrix and for 10^4 alike
    _, shift = np.frexp(np.einsum("...ij->...", np.abs(maps)))
    return np.ldexp(maps, -shift[..., None, None]), shift


def _run_powers(maps: np.ndarray, lengths: np.ndarray):
    """maps[r]^lengths[r] over the first axis of an (R, ..., 3, 3) stack, by squaring.

    Returns (mantissa, exponent) as ``_chain_product`` does. Powers of one
    matrix commute, so each run's squares can be taken lowest bit first.
    Only runs with bits left are squared: runs of length 1 cost one copy,
    and a level costs O(number of runs at least 2^level long).
    """
    out = maps.copy()
    out[(lengths & 1) == 0] = np.eye(3)
    exps = np.zeros(maps.shape[:-2], dtype=np.int64)
    alive = np.flatnonzero(lengths > 1)
    square, square_exps, rest = maps[alive], exps[alive], lengths[alive] >> 1
    while alive.size:           # square = maps[alive]^(2^level), rest = lengths >> level
        square, shift = _rescaled(square @ square)
        square_exps = 2 * square_exps + shift
        take = (rest & 1) == 1
        runs = alive[take]
        out[runs], shift = _rescaled(square[take] @ out[runs])
        exps[runs] += square_exps[take] + shift
        rest = rest >> 1
        more = rest > 0
        alive, square, square_exps, rest = alive[more], square[more], square_exps[more], rest[more]
    return out, exps


def _chain_product(maps: np.ndarray, exps: np.ndarray):
    """maps[K-1] @ ... @ maps[0] over the first axis of a (K, ..., 3, 3) stack.

    ``exps`` holds a power-of-two exponent per matrix (the matrix stands for
    maps[k] * 2^exps[k]). Returns (mantissa, exponent) with product =
    mantissa * 2^exponent per trailing matrix; the exponents are integers,
    so nothing under- or overflows.
    """
    while len(maps) > 1:
        if len(maps) % 2:
            maps = np.concatenate([maps, np.broadcast_to(np.eye(3), (1,) + maps.shape[1:])])
            exps = np.concatenate([exps, np.zeros_like(exps[:1])])
        maps, shift = _rescaled(maps[1::2] @ maps[0::2])
        exps = exps[1::2] + exps[0::2] + shift
    return maps[0], exps[0]


# -- W-state dynamics ---------------------------------------------------------

@dataclass(frozen=True)
class WSolution:
    """Self-consistent first coupling and timing for the W protocol.

    The defining conditions are duration = 4*pi/B and
    lambda1^2 = A'^2 exp(kappa*duration/4), with B = sqrt(16 A^2 - kappa^2),
    A^2 the sum of all squared couplings and A'^2 the sum over qubits 2..N.
    """

    lambda1: float
    duration: float
    rest_coupling_sq: float   # A'^2
    iterations: int
    kappa: float

    @property
    def residual(self) -> float:
        """Relative residual of lambda1^2 = A'^2 exp(kappa t / 4)."""
        rhs = self.rest_coupling_sq * math.exp(self.kappa * self.duration / 4.0)
        return abs(self.lambda1**2 - rhs) / self.lambda1**2


def w_solve_lambda1(lambda_rest: Sequence[float], kappa: float) -> WSolution:
    """Solve lambda1 = A' exp(kappa*pi / (2 B(lambda1))) by damped fixed point.

    The map's slope is -0.014 at kappa/A' = 0.1, where the damped iteration
    takes 41 steps and the undamped one 8; towards the overdamped edge
    kappa/A' = 4 sqrt(2) it falls to -0.96 at 5 and -1.11 at 5.65, where the
    undamped map does not converge in 200 steps and the 0.5 damping takes 14
    and 57. Iteration stops at relative 1e-14 so the squared-condition
    residual lands safely below 1e-12.
    """
    rest = _rest_couplings(lambda_rest)
    if not 0 <= kappa < math.inf:
        raise ArgumentError(f"kappa must be finite and >= 0, got {kappa}")
    ap_sq = _sum_sq(rest)
    ap = math.sqrt(ap_sq)

    def b_of(lam1: float) -> float:
        b_sq = 16.0 * (lam1 * lam1 + ap_sq) - kappa * kappa
        if b_sq <= 0:
            raise RegimeError("16 A^2 <= kappa^2: collective exchange is overdamped")
        return math.sqrt(b_sq)

    x = ap
    iterations = 0
    for iterations in range(1, 201):
        x_next = 0.5 * x + 0.5 * ap * math.exp(kappa * math.pi / (2.0 * b_of(x)))
        converged = abs(x_next - x) <= 1e-14 * x_next
        x = x_next
        if converged:
            break
    else:
        raise ConvergenceError(
            "lambda1 fixed point did not converge in 200 iterations",
            residual=abs(x_next - x) / x_next,
        )
    return WSolution(
        lambda1=x,
        duration=4.0 * math.pi / b_of(x),
        rest_coupling_sq=ap_sq,
        iterations=iterations,
        kappa=kappa,
    )


def w_amplitudes(
    model: EffectiveModel, t: float, rest_coupling_sq: Optional[float] = None
) -> np.ndarray:
    """Single-excitation amplitudes at time t for the simultaneous coupling.

    Starting from qubit 1 excited, all others and the cavity empty, the
    dynamics closes in the (N+1)-dimensional single-excitation sector: only
    the coupling-weighted "bright" combination exchanges with the cavity at
    collective rate B/4, everything orthogonal to it is frozen. Returns the
    N qubit amplitudes followed by the cavity amplitude. ``rest_coupling_sq``
    is A'^2 when the caller holds it (``WSolution.rest_coupling_sq``);
    otherwise it is summed from ``model.lambdas[1:]``.
    """
    lams = model.lambdas
    kappa = model.kappa
    lam1 = float(lams[0])
    if rest_coupling_sq is None:
        rest_coupling_sq = _sum_sq(lams[1:])
    a_sq = lam1 * lam1 + rest_coupling_sq   # as w_solve_lambda1 forms A^2
    b_sq = 16.0 * a_sq - kappa * kappa
    if b_sq <= 0:
        raise RegimeError("16 A^2 <= kappa^2: collective exchange is overdamped")
    b = math.sqrt(b_sq)
    phase = b * t / 4.0
    env = math.exp(-kappa * t / 4.0)
    bright = env * (math.cos(phase) + (kappa / b) * math.sin(phase))
    out = np.empty(model.qubit_count + 1, dtype=complex)
    out[0] = 1.0 + (lam1 * lam1 / a_sq) * (bright - 1.0)
    out[1:-1] = (lam1 * lams[1:] / a_sq) * (bright - 1.0)
    out[-1] = -1j * (4.0 * lam1 / b) * math.sin(phase) * env
    return out


def w_target(
    lambda_rest: Sequence[float], kappa: float, t: float, rest_coupling_sq: Optional[float] = None
) -> SingleExcitation:
    """Unnormalized W target over qubits 2..N: e^{-kappa t/8} sum_k (lam_k/A')|1_k>.

    Equal couplings give the uniform W state; the squared norm is exactly
    exp(-kappa t / 4), the success probability. ``rest_coupling_sq`` is A'^2
    when the caller holds it; otherwise it is summed from ``lambda_rest``.
    """
    rest = _rest_couplings(lambda_rest)
    if rest_coupling_sq is None:
        rest_coupling_sq = _sum_sq(rest)
    return SingleExcitation(math.exp(-kappa * t / 8.0) * rest / math.sqrt(rest_coupling_sq))


def _rest_couplings(lambda_rest: Sequence[float]) -> np.ndarray:
    """The couplings of qubits 2..N as a float array, checked non-empty, finite and > 0."""
    rest = np.asarray(lambda_rest, dtype=float)
    if rest.ndim != 1 or not rest.size or not (np.isfinite(rest).all() and rest.min() > 0):
        raise ArgumentError("lambda_rest must be non-empty with all couplings finite and > 0")
    return rest


def _sum_sq(lams: np.ndarray) -> float:
    """Correctly rounded sum of squares.

    The W solver, the amplitudes and the target all take A'^2 from here (a
    W run sums it once, in the solver, and hands it on), and the solver and
    the amplitudes both form A^2 as lambda1^2 + A'^2, so the collective
    rates they derive are equal. A plain left-to-right sum drifts
    ~N eps from the true A'^2 (~1e-11 relative at 10^5 qubits), and the
    register's norm, which numpy sums pairwise, then misses the success
    probability exp(-kappa t / 4) by more than 1e-12.
    """
    return math.fsum((lams * lams).tolist())
