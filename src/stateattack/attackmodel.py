"""Intruder capability description: the labels and turn phases of the attack
game, the attack counter, and the attack spec with the rules that check it
against a plant. The paper's game automata built from them are in
``reference``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .automata import Nfa, check_secret_set, check_states

ATTACK_YES = "Y"
ATTACK_NO = "N"
RESULT_IN = "1"
RESULT_OUT = "0"
EPSILON = "ε"

RESULT_LABELS = (RESULT_OUT, RESULT_IN)
RESERVED_LABELS = frozenset({ATTACK_YES, ATTACK_NO, RESULT_IN, RESULT_OUT, EPSILON})

PHASE_DECIDE = "A"
PHASE_AWAIT = "AY"
PHASE_SYSTEM = "S"
GAME_PHASES = (PHASE_DECIDE, PHASE_AWAIT, PHASE_SYSTEM)


def check_plant_events(events: Iterable[str]) -> None:
    clash = frozenset(events) & RESERVED_LABELS
    if clash:
        raise ValueError(
            f"reserved label: events {sorted(clash)!r} are reserved for the attack game"
        )


def _check_budget(budget) -> None:
    if not isinstance(budget, int) or isinstance(budget, bool):
        kind = type(budget).__name__
        raise ValueError(f"syntax error: the attack budget must be an integer, not {kind}")
    if budget < 0:
        raise ValueError(f"negative budget: {budget}")


@dataclass(frozen=True, order=True)
class GameCounter:
    """Attack bookkeeping: ``count`` completed attacks, with an empty tag for
    a plain count, "N" while waiting after declining, "Y" while an attack
    result is pending."""

    count: int
    tag: str = ""

    def __post_init__(self):
        if not isinstance(self.count, int) or self.count < 0:
            raise ValueError("attack count must be a non-negative integer")
        if self.tag not in ("", "N", "Y"):
            raise ValueError(f"unknown counter tag {self.tag!r}")

    def __str__(self) -> str:
        return f"{self.count}{self.tag}"


@dataclass(frozen=True)
class AttackSpec:
    """What the intruder can do: the queried state set, the total budget of
    binary state attacks, and the violation mode (anonymity, or opacity with
    a secret set)."""

    attacked: frozenset
    budget: int
    secret: frozenset | None = None

    def __post_init__(self):
        object.__setattr__(self, "attacked", frozenset(self.attacked))
        if self.secret is not None:
            object.__setattr__(self, "secret", frozenset(self.secret))
        _check_budget(self.budget)

    @property
    def mode(self) -> str:
        return "anonymity" if self.secret is None else "opacity"

    def validate_for(self, plant: Nfa) -> None:
        """Raise unless the attack game on ``plant`` is well formed: no plant
        event is a reserved label, the attacked states are plant states, and
        so is a secret set that leaves some state out."""
        check_plant_events(plant.events)
        check_states(self.attacked, plant.states, "attacked states")
        if self.secret is not None:
            check_secret_set(plant, self.secret)
