"""Fidelity of a protocol output against its target.

The success probability of a protocol output is its squared norm,
``norm_sq()``; the CLI's raw fidelity convention is F * P.
"""
from __future__ import annotations

from .errors import ArgumentError
from .statespace import StateVector, inner


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
