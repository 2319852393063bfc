"""State vectors over N two-level qubits tensored with one truncated cavity mode.

Basis ordering is qubit-1-major with the cavity innermost: the flat index of
``(bits, photon)`` is ``int(bits, base=2) * fock_cutoff + photon`` where bit 1
of the string belongs to qubit 1. A register without a cavity factor is
represented with ``fock_cutoff = 1`` (photon number pinned to 0), so the same
operations work on protocol outputs after the cavity has been factored out.

States are unnormalized by design: non-Hermitian evolution shrinks the norm
and the squared norm is the success probability. All values are immutable;
every operation returns a new StateVector.

A register known to hold exactly one excitation (the W protocol's output and
target) is a ``SingleExcitation``: the amplitudes of |1_1>, ..., |1_m> only,
O(m) in memory and in every metric, with ``to_dense()`` for the dense form.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError, CapacityError, FactorizationError, TruncationError

MAX_DENSE_QUBITS = 24   # dense 2^N storage; larger cluster registers go
                        # through the O(N) recursion, W registers are
                        # SingleExcitation at any size


def _basis_index(bits: tuple, photon: int, cutoff: int) -> int:
    """Flat index of the ket |bits>|photon>_c: bits non-empty and binary, 0 <= photon < cutoff."""
    if len(bits) == 0:
        raise ArgumentError("qubit_bits must be non-empty")
    if any(b not in (0, 1) for b in bits):
        raise ArgumentError(f"qubit_bits must be binary, got {bits}")
    if photon < 0:
        raise ArgumentError(f"photon_number must be >= 0, got {photon}")
    if photon >= cutoff:
        raise TruncationError(f"photon number {photon} >= cutoff {cutoff}")
    bits_int = 0
    for b in bits:
        bits_int = (bits_int << 1) | b
    return bits_int * cutoff + photon


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense complex amplitudes over the 2^N x fock_cutoff product basis."""

    amplitudes: np.ndarray
    qubit_count: int
    fock_cutoff: int = 2

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)   # owned copy
        if self.qubit_count < 1:
            raise ArgumentError(f"qubit_count must be >= 1, got {self.qubit_count}")
        if self.qubit_count > MAX_DENSE_QUBITS:
            raise CapacityError(
                f"dense state vectors are capped at {MAX_DENSE_QUBITS} qubits"
            )
        if self.fock_cutoff < 1:
            raise ArgumentError(f"fock_cutoff must be >= 1, got {self.fock_cutoff}")
        dim = (1 << self.qubit_count) * self.fock_cutoff
        if amps.shape != (dim,):
            raise ArgumentError(
                f"amplitude vector has shape {amps.shape}, expected ({dim},) "
                f"for {self.qubit_count} qubits and cutoff {self.fock_cutoff}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, bits: Sequence[int], photon: int = 0) -> complex:
        bits = tuple(bits)
        index = _basis_index(bits, photon, self.fock_cutoff)
        if len(bits) != self.qubit_count:
            raise ArgumentError(
                f"label has {len(bits)} bits, register has {self.qubit_count}"
            )
        return complex(self.amplitudes[index])


@dataclass(frozen=True, eq=False)
class SingleExcitation:
    """A qubit register in the span of |1_1>, ..., |1_m> (no cavity factor).

    ``amplitudes[k]`` is the amplitude of the ket with qubit k+1 excited and
    every other qubit in |0>; all other amplitudes are zero.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)   # owned copy
        if amps.ndim != 1 or amps.size < 1:
            raise ArgumentError(f"need a non-empty amplitude vector, got shape {amps.shape}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def qubit_count(self) -> int:
        return self.amplitudes.shape[0]

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def to_dense(self) -> StateVector:
        """The same register as a dense StateVector (fock_cutoff = 1)."""
        m = self.qubit_count
        if m > MAX_DENSE_QUBITS:
            raise CapacityError(f"dense state vectors are capped at {MAX_DENSE_QUBITS} qubits")
        dense = np.zeros(1 << m, dtype=complex)
        dense[1 << np.arange(m - 1, -1, -1)] = self.amplitudes   # qubit 1 is the top bit
        return StateVector(dense, m, 1)


def make_basis_state(bits: Sequence[int], photon: int, cutoff: int) -> StateVector:
    """Unit-norm state with amplitude 1 on the single ket |bits>|photon>_c."""
    bits = tuple(bits)
    index = _basis_index(bits, photon, cutoff)
    amps = np.zeros((1 << len(bits)) * cutoff, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, len(bits), cutoff)


def inner(a, b) -> complex:
    """<a|b>, conjugate-linear in the first argument.

    Both arguments are StateVectors or both are SingleExcitation registers;
    a mix raises ArgumentError.
    """
    if type(a) is not type(b):
        raise ArgumentError(
            f"mixed register types: {type(a).__name__} and {type(b).__name__}"
        )
    # for either type, qubit count and dimension fix the basis
    if (a.qubit_count, a.dim) != (b.qubit_count, b.dim):
        raise ArgumentError(
            f"mismatched registers: {a.qubit_count} qubits, dimension {a.dim} vs "
            f"{b.qubit_count} qubits, dimension {b.dim}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def cavity_residual(s: StateVector, photon: int = 0) -> float:
    """Norm of the amplitude weight outside the cavity sector |photon>_c."""
    if not 0 <= photon < s.fock_cutoff:
        raise ArgumentError(f"photon {photon} outside 0..{s.fock_cutoff - 1}")
    grid = s.amplitudes.reshape(-1, s.fock_cutoff)
    others = [k for k in range(s.fock_cutoff) if k != photon]
    return float(np.linalg.norm(grid[:, others]))


def factor_out_cavity(s: StateVector, photon: int = 0, tol: float = 1e-9) -> StateVector:
    """Split off the cavity factor |photon>_c, returning the qubit register.

    Requires all amplitude weight outside the given photon sector (the
    ``cavity_residual``) to be below ``tol * norm``; the factorization is
    exact for protocol outputs, so any real residual signals a bug upstream.
    Amplitudes are preserved (no normalization); the result uses
    fock_cutoff = 1.
    """
    residual = cavity_residual(s, photon)
    if residual > tol * max(s.norm(), np.finfo(float).tiny):
        raise FactorizationError(
            f"weight outside photon={photon} sector: residual norm {residual:.3e} "
            f"exceeds tol {tol:.1e} (relative)",
            residual,
        )
    kept = s.amplitudes.reshape(-1, s.fock_cutoff)[:, photon]
    return StateVector(kept, s.qubit_count, 1)


# -- text dump format ---------------------------------------------------------
#
# One line per nonzero amplitude: "<bitstring> <photon> <re> <im>", amplitudes
# with 17 significant digits, lines sorted by basis index. Shared by the CLI
# --dump-state flag and the matrix dump (rows "row col re im").

def state_dump_lines(s: StateVector) -> list:
    index = np.flatnonzero(s.amplitudes)
    amps = s.amplitudes[index]
    width = f"0{s.qubit_count}b"
    lines = []
    for idx, real, imag in zip(index.tolist(), amps.real.tolist(), amps.imag.tolist()):
        bits, photon = divmod(idx, s.fock_cutoff)
        lines.append(f"{format(bits, width)} {photon} {real:.17g} {imag:.17g}")
    return lines


def matrix_dump_lines(matrix: np.ndarray) -> list:
    m = np.asarray(matrix)
    rows, cols = np.nonzero(m)          # row-major order
    vals = m[rows, cols]
    return [
        f"{row} {col} {real:.17g} {imag:.17g}"
        for row, col, real, imag in zip(rows.tolist(), cols.tolist(),
                                    vals.real.tolist(), vals.imag.tolist())
    ]
