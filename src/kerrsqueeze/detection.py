"""Everything between the chip waveguide and the detector.

Losses are power dB entries (never amplitude dB); the chain efficiency is
eta = 10^(sum/10) and acts on a normalized variance as the vacuum admixture
v -> (1 - eta) + eta * v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from .core import check_eta
from .errors import InfeasibleMeasurement, InvalidEfficiency, NonPositive, PositiveLossEntry


@dataclass(frozen=True)
class LossBudget:
    """Ordered list of labelled dB losses between chip and detector."""

    entries: Tuple[Tuple[str, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple((str(l), float(v)) for l, v in self.entries))
        for label, loss_db in self.entries:
            if loss_db > 0:
                raise PositiveLossEntry(
                    f"budget entry {label!r} has positive dB value {loss_db}"
                )

    @property
    def total_db(self) -> float:
        return sum(v for _, v in self.entries)

    @property
    def eta(self) -> float:
        return 10.0 ** (self.total_db / 10.0)


def efficiency_from_budget(budget: LossBudget | Sequence[Tuple[str, float]]) -> float:
    """Chain efficiency from a loss budget; empty budget means eta = 1."""
    if not isinstance(budget, LossBudget):
        budget = LossBudget(tuple(budget))
    return budget.eta


def propagate_variance(v_chip: float, eta: float) -> float:
    """Variance ratio after the lossy chain: (1 - eta) + eta * v_chip."""
    check_eta(eta)
    if v_chip <= 0:
        raise NonPositive(f"v_chip must be > 0, got {v_chip}")
    return (1.0 - eta) + eta * v_chip


def infer_chip_variance(v_measured: float, eta: float) -> float:
    """Invert the loss map. Refuses measurements at or below the loss floor.

    A measured ratio <= 1 - eta cannot come from any physical on-chip state
    through a chain of efficiency eta; that indicates a mis-calibrated eta
    and must surface as an error, not be clamped.
    """
    if not 0.0 < eta <= 1.0:
        raise InvalidEfficiency(f"eta must be in (0, 1], got {eta}")
    floor = 1.0 - eta
    if v_measured <= floor:
        raise InfeasibleMeasurement(
            f"measured ratio {v_measured} is at or below the loss floor {floor}"
        )
    return (v_measured - floor) / eta
