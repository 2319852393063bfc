"""Shared protocol records: schedules and run reports."""
from __future__ import annotations

from dataclasses import dataclass, field
from .errors import ArgumentError


@dataclass(frozen=True)
class Schedule:
    """Ordered coupling steps (qubit index, coupling rad/s, duration s)."""

    steps: tuple

    def __post_init__(self):
        steps = tuple((int(j), float(lam), float(t)) for j, lam, t in self.steps)
        object.__setattr__(self, "steps", steps)
        if any(t <= 0 for _, _, t in steps):
            raise ArgumentError("all step durations must be > 0")
        qubits = [j for j, _, _ in steps]
        if qubits != list(range(1, len(qubits) + 1)):
            raise ArgumentError(f"steps must visit qubits 1..N in order, got {qubits}")


@dataclass(frozen=True)
class RunReport:
    """Fidelity, success probability, and per-step norms from a protocol run."""

    fidelity: float
    success_probability: float
    per_step: tuple          # ((step index, norm^2 after step), ...)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "per_step", tuple((int(i), float(v)) for i, v in self.per_step)
        )
