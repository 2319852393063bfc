"""Shared protocol records: run reports."""
from __future__ import annotations

from dataclasses import dataclass, field


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
