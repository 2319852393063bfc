"""Shared oracle helpers, built independently of the package internals.

Everything here constructs matrices and states from first principles with
plain numpy/scipy so the package has something genuinely independent to be
checked against.
"""
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from cavity_entangler import StateVector


def oracle_hamiltonian(lams, kappa, active, cutoff=2):
    """Exchange Hamiltonian with decay, hand-built with raw krons."""
    n = len(lams)
    low = np.array([[0, 1], [0, 0]], dtype=complex)       # |0><1|
    a_op = np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)
    adag = a_op.conj().T
    h = np.zeros(((1 << n) * cutoff,) * 2, dtype=complex)
    for j in active:
        pre = np.eye(1 << (j - 1), dtype=complex)
        post = np.eye(1 << (n - j), dtype=complex)
        h += lams[j - 1] * (
            np.kron(np.kron(np.kron(pre, low), post), adag)
            + np.kron(np.kron(np.kron(pre, low.conj().T), post), a_op)
        )
    h += -0.5j * kappa * np.kron(np.eye(1 << n, dtype=complex), adag @ a_op)
    return h


def number_operator(n, cutoff=2):
    """Cavity photon number a^dag a: the photon number of each basis ket, cavity innermost."""
    return np.diag(np.tile(np.arange(cutoff), 1 << n)).astype(complex)


def excitation_operator(n, cutoff=2):
    """Total excitation a^dag a + sum_j |1><1|_j: photon number plus the ket's count of 1 bits."""
    ones = [bin(bits).count("1") for bits in range(1 << n)]
    return np.diag(np.add.outer(ones, np.arange(cutoff)).reshape(-1)).astype(complex)


def stabilizer_expectation(psi, a):
    """<K_a> on the normalized qubit register, K_a = sigma_x^(a) sigma_z^(a-1) sigma_z^(a+1).

    sigma_z = |1><1| - |0><0|, the sign convention of the cluster construction;
    neighbours outside the chain are dropped.
    """
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([-1.0, 1.0]).astype(complex)
    k = reduce(np.kron, [x if b == a else z if abs(b - a) == 1 else np.eye(2)
                         for b in range(1, psi.qubit_count + 1)])
    amps = psi.amplitudes
    return float(np.vdot(amps, k @ amps).real / np.vdot(amps, amps).real)


def superpose(terms):
    """Coefficient-weighted sum of (coefficient, StateVector) terms on one register."""
    _, first = terms[0]
    return StateVector(sum(c * s.amplitudes for c, s in terms), first.qubit_count, first.fock_cutoff)


def oracle_evolve(h, vec, t):
    """Dense matrix exponential applied to a raw vector."""
    return expm(-1j * np.asarray(h, dtype=complex) * t) @ np.asarray(vec, dtype=complex)


def oracle_cluster_protocol(lams, kappa):
    """Full protocol run with expm only: returns the final joint state vector.

    Steps 1..N-1 stop at the root of the qubit-excited stay coefficient,
    step N at the root of the cavity-excited one (so the photon fully drains).
    """
    n = len(lams)
    vec = np.array([1.0], dtype=complex)
    for j in range(1, n + 1):
        q = np.array([1, 1], complex) / np.sqrt(2) if j < n else np.array([1, 0], complex)
        vec = np.kron(vec, q)
    psi = np.kron(vec, np.array([1, 1j], complex) / np.sqrt(2))
    for j in range(1, n + 1):
        lam = lams[j - 1]
        g = np.sqrt(lam**2 - kappa**2 / 16)
        if kappa == 0:
            t = np.pi / (2 * lam)
        elif j < n:
            t = (np.pi - np.arctan(4 * g / kappa)) / g
        else:
            t = np.arctan(4 * g / kappa) / g
        psi = oracle_evolve(oracle_hamiltonian(lams, kappa, {j}), psi, t)
    return psi


def ideal_cluster_vector(n):
    """Hand expansion of the decay-free target, sigma_z = |1><1| - |0><0|."""
    vec = np.array([1.0], dtype=complex)
    for q in range(1, n + 1):
        if q == 1:
            flipped = vec
        else:
            w = vec.reshape(-1, 2).copy()
            w[:, 0] *= -1
            flipped = w.reshape(-1)
        vec = np.concatenate([vec.reshape(-1, 1), flipped.reshape(-1, 1)], axis=1).reshape(-1)
    return vec / 2 ** (n / 2)


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
