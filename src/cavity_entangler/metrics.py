"""Fidelity and cluster-stabilizer diagnostics.

The success probability of a protocol output is its squared norm,
``norm_sq()``; the CLI's raw fidelity convention is F * P.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ArgumentError
from .statespace import StateVector, inner

SIGN_THRESHOLD = 1.0 - 1e-9


@dataclass(frozen=True)
class StabilizerReport:
    site: int
    expectation: float
    sign: Optional[int]     # +-1 when |expectation| > 1 - 1e-9, else None


def fidelity(psi: StateVector, target: StateVector) -> float:
    """Normalized overlap |<target|psi>|^2 / (|psi|^2 |target|^2), in [0, 1].

    Invariant under global phases and under rescaling either argument; the
    unnormalized convention survives only in the squared norm. Both
    arguments are StateVectors or both are SingleExcitation registers (O(N));
    a mix raises ArgumentError.
    """
    np_sq = psi.norm_sq()
    nt_sq = target.norm_sq()
    if np_sq == 0 or nt_sq == 0:
        raise ArgumentError("fidelity of a zero-norm state is undefined")
    val = abs(inner(target, psi)) ** 2 / (np_sq * nt_sq)
    return float(min(max(val, 0.0), 1.0))


def stabilizer_expectation(psi: StateVector, a: int) -> StabilizerReport:
    """<K^(a)> on the normalized state, K^(a) = sigma_x^(a) (x) sigma_z^(neighbors).

    Neighbors are {a-1, a+1} clipped to the chain; sigma_z uses the
    |1><1| - |0><0| sign convention, matching the cluster construction.
    """
    if psi.fock_cutoff != 1:
        raise ArgumentError("stabilizers are defined on qubit-register states "
                            "(factor the cavity out first)")
    n = psi.qubit_count
    if not 1 <= a <= n:
        raise ArgumentError(f"site {a} out of range 1..{n}")
    norm_sq = psi.norm_sq()
    if norm_sq == 0:
        raise ArgumentError("stabilizer expectation of a zero-norm state is undefined")
    arr = psi.amplitudes.reshape([2] * n).copy()
    arr = np.flip(arr, axis=a - 1)                   # sigma_x on site a
    for b in (a - 1, a + 1):
        if 1 <= b <= n:
            sel = [slice(None)] * n
            sel[b - 1] = 0
            arr[tuple(sel)] *= -1                    # sigma_z, minus on |0>
    expectation = float(np.vdot(psi.amplitudes, arr.reshape(-1)).real / norm_sq)
    expectation = min(max(expectation, -1.0), 1.0)
    sign = None
    if abs(expectation) > SIGN_THRESHOLD:
        sign = 1 if expectation > 0 else -1
    return StabilizerReport(site=a, expectation=expectation, sign=sign)
