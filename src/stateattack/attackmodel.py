"""Intruder capability description and the auxiliary game automata that
wrap a plant for analysis: the attacked plant, the attack-budget counter,
the turn structure, and their bounded composition. The automata are the
paper's construction of the attack observer, kept as the reference that
``aobs.build_attack_observer`` is tested against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .automata import Dfa, Nfa, check_secret_set, check_states, compose

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


def system_attack_model(g: Nfa, attacked: Iterable) -> Nfa:
    """The plant with one result self-loop per state: "1" at attacked states,
    "0" everywhere else."""
    check_plant_events(g.events)
    attacked = frozenset(attacked)
    check_states(attacked, g.states, "attacked states")
    loops = {
        (state, RESULT_IN if state in attacked else RESULT_OUT, state)
        for state in g.states
    }
    return Nfa(
        g.states,
        g.events | {RESULT_IN, RESULT_OUT},
        g.transitions | loops,
        g.initial,
    )


def number_attack_model(events: Iterable[str], budget: int) -> Dfa:
    """Counter automaton for at most ``budget`` attacks.

    Plain counts 0..D, waiting counts 0N..DN, and pending counts
    0Y..(D-1)Y; a result consumes the pending attack and increments the
    completed count.
    """
    events = frozenset(events)
    check_plant_events(events)
    _check_budget(budget)
    plain = [GameCounter(k, "") for k in range(budget + 1)]
    waiting = [GameCounter(k, "N") for k in range(budget + 1)]
    attacking = [GameCounter(k, "Y") for k in range(budget)]
    transitions: dict = {}
    for k in range(budget):
        transitions[(plain[k], ATTACK_YES)] = attacking[k]
    for k in range(budget + 1):
        transitions[(plain[k], ATTACK_NO)] = waiting[k]
    for k in range(1, budget + 1):
        for event in events:
            transitions[(plain[k], event)] = plain[k]
    for k in range(budget + 1):
        for event in events:
            transitions[(waiting[k], event)] = plain[k]
    for k in range(budget):
        for result in RESULT_LABELS:
            transitions[(attacking[k], result)] = plain[k + 1]
    return Dfa(
        plain + waiting + attacking,
        events | {ATTACK_YES, ATTACK_NO, RESULT_IN, RESULT_OUT},
        transitions,
        plain[0],
    )


def game_structure(events: Iterable[str]) -> Dfa:
    """Turn structure of one attack round: decide (A), await a result (AY),
    then let the system move (S)."""
    events = frozenset(events)
    check_plant_events(events)
    transitions: dict = {
        (PHASE_DECIDE, ATTACK_NO): PHASE_SYSTEM,
        (PHASE_DECIDE, ATTACK_YES): PHASE_AWAIT,
        (PHASE_AWAIT, RESULT_OUT): PHASE_SYSTEM,
        (PHASE_AWAIT, RESULT_IN): PHASE_SYSTEM,
    }
    for event in events:
        transitions[(PHASE_SYSTEM, event)] = PHASE_DECIDE
    return Dfa(
        GAME_PHASES,
        events | {ATTACK_YES, ATTACK_NO, RESULT_IN, RESULT_OUT},
        transitions,
        PHASE_DECIDE,
    )


def bounded_game_structure(events: Iterable[str], budget: int) -> Dfa:
    """Turn structure refined with the attack counter; states are
    (phase, counter) pairs and only 4*budget+2 of them are reachable.

    Reference only: ``aobs.build_attack_observer`` writes these turn rules
    out directly, and the tests compose this automaton with the observer of
    the attacked plant to check it."""
    events = frozenset(events)
    return compose(game_structure(events), number_attack_model(events, budget))
