"""The paper's constructions, kept as the reference the tests check the
pipeline against: the attacked plant, the attack-budget counter, the turn
structure and their bounded composition, the subset-construction observer,
the classic attack-free checks, and the violating predicate on estimates.

No command runs them and no pipeline module imports this module: the
package loads it on the first access to one of its names, so ``import
stateattack`` and every subcommand run without it."""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

from .attackmodel import (
    ATTACK_NO, ATTACK_YES, GAME_PHASES, PHASE_AWAIT, PHASE_DECIDE, PHASE_SYSTEM, RESULT_IN, RESULT_LABELS,
    RESULT_OUT, AttackSpec, GameCounter, _check_budget, check_plant_events,
)
from .automata import Label, Nfa, State, StateEstimate, _check_declared, check_secret_set, check_states


def violation_predicate(estimate: StateEstimate, attack: AttackSpec) -> bool:
    """Does this estimate already give the intruder what it wants?

    Anonymity mode: the estimate is a singleton. Opacity mode: every member
    is secret.
    """
    if attack.secret is None:
        return len(estimate) == 1
    return estimate.issubset(attack.secret)


class Dfa:
    """Deterministic finite automaton: a partial transition function and a
    single initial state."""

    def __init__(
        self,
        states: Iterable[State],
        events: Iterable[Label],
        transitions: Mapping[tuple, State],
        initial: State,
    ):
        self.states = frozenset(states)
        self.events = frozenset(events)
        self.transitions = dict(transitions)
        self.initial = initial
        edges = [(src, label, dst) for (src, label), dst in self.transitions.items()]
        _check_declared(self, frozenset([initial]), edges)

    def step(self, state: State, label: Label):
        return self.transitions.get((state, label))

    def __repr__(self) -> str:
        return (
            f"Dfa(states={len(self.states)}, events={len(self.events)}, "
            f"transitions={len(self.transitions)})"
        )


def compose(g1: Dfa, g2: Dfa) -> Dfa:
    """Product of two DFAs: shared events synchronize, private events
    interleave with the other side held. Starts at the pair of initial
    states; only the accessible part is returned."""
    events = g1.events | g2.events
    initial = (g1.initial, g2.initial)
    states = {initial}
    transitions: dict = {}
    frontier = deque([initial])
    while frontier:
        pair = frontier.popleft()
        x1, x2 = pair
        for label in events:
            y1 = g1.step(x1, label) if label in g1.events else x1
            y2 = g2.step(x2, label) if label in g2.events else x2
            if y1 is None or y2 is None:
                continue
            target = transitions[(pair, label)] = (y1, y2)
            if target not in states:
                states.add(target)
                frontier.append(target)
    return Dfa(states, events, transitions, initial)


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

    ``aobs.build_attack_observer`` writes these turn rules out directly, and
    the tests compose this automaton with the observer of the attacked plant
    to check it."""
    events = frozenset(events)
    return compose(game_structure(events), number_attack_model(events, budget))


def observer(g: Nfa) -> Dfa:
    """Subset-construction observer of ``g``.

    States are the reachable estimates; a transition on ``e`` exists exactly
    when some member of the source estimate has an ``e``-successor, and leads
    to the union of those successors.
    """
    initial = StateEstimate(g.initial)
    states = {initial}
    transitions: dict = {}
    frontier = deque([initial])
    while frontier:
        estimate = frontier.popleft()
        for event in sorted(g.events):
            image = g.image(estimate.members, event)
            if not image:
                continue
            target = StateEstimate(image)
            transitions[(estimate, event)] = target
            if target not in states:
                states.add(target)
                frontier.append(target)
    return Dfa(states, g.events, transitions, initial)


def check_anonymity_classic(g: Nfa) -> bool:
    """True when no observation sequence pins the current state down to a
    single possibility (every reachable estimate has more than one member)."""
    return all(len(estimate) > 1 for estimate in observer(g).states)


def check_opacity_classic(g: Nfa, secret: Iterable[State]) -> bool:
    """True when every reachable estimate intersects the non-secret states."""
    secret = frozenset(secret)
    check_secret_set(g, secret)
    nonsecret = g.states - secret
    return all(
        any(member in nonsecret for member in estimate)
        for estimate in observer(g).states
    )
