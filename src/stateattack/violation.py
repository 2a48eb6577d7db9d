"""Deciding whether the intruder can ever pin the system down: the violating
predicate on estimates, the backward closure of states from which a violation
stays reachable, and the verifier built from it."""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .aobs import AObsState, AttackObserver, StateType, attractor, build_attack_observer, classify
from .attackmodel import AttackSpec
from .automata import Nfa, StateEstimate, enabled_index

_EMPTY: frozenset = frozenset()


def violation_predicate(estimate: StateEstimate, attack: AttackSpec) -> bool:
    """Does this estimate already give the intruder what it wants?

    Anonymity mode: the estimate is a singleton. Opacity mode: every member
    is secret.
    """
    if attack.secret is None:
        return len(estimate) == 1
    return estimate.issubset(attack.secret)


def is_violating(state: AObsState, attack: AttackSpec) -> bool:
    """A system-move state whose estimate satisfies the violating predicate."""
    return classify(state) is StateType.TYPE_I and violation_predicate(state.estimate, attack)


class SubAutomaton:
    """A restriction of an attack observer to a subset of its states, with the
    parent kept around for enabledness queries on the full graph.

    Only the part reachable from the parent's initial state is kept; when the
    initial state itself is not retained the automaton is empty.
    """

    def __init__(self, parent: AttackObserver, kept: frozenset, initial, transitions: dict):
        self.parent = parent
        self.kept = kept
        self.initial = initial
        self.transitions = transitions
        self._enabled = enabled_index(transitions)

    @classmethod
    def restrict(cls, parent: AttackObserver, keep: Iterable[AObsState]) -> "SubAutomaton":
        keep = frozenset(keep) & parent.states
        if parent.initial not in keep:
            return cls(parent, frozenset(), None, {})
        reached = {parent.initial}
        frontier = deque([parent.initial])
        transitions: dict = {}
        while frontier:
            state = frontier.popleft()
            for label in parent.enabled(state):
                target = parent.step(state, label)
                if target not in keep:
                    continue
                transitions[(state, label)] = target
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        return cls(parent, frozenset(reached), parent.initial, transitions)

    @property
    def is_empty(self) -> bool:
        return self.initial is None

    @property
    def states(self) -> frozenset:
        return self.kept

    @property
    def events(self) -> frozenset:
        return self.parent.events

    def step(self, state: AObsState, label: str):
        return self.transitions.get((state, label))

    def enabled(self, state: AObsState) -> frozenset:
        return self._enabled.get(state, _EMPTY)

    def enabled_in_parent(self, state: AObsState) -> frozenset:
        return self.parent.enabled(state)

    def __repr__(self) -> str:
        return f"SubAutomaton(states={len(self.kept)}, transitions={len(self.transitions)})"


def intermediate_violating_fixpoint(aobs: AttackObserver, attack: AttackSpec) -> frozenset:
    """Least set of attack-observer states from which the intruder can still
    steer the play to a violating estimate: the attractor of the violating
    system-move states, where a result-wait state needs every defined result
    inside and any other state one transition."""
    targets = [s for s in aobs.states if is_violating(s, attack)]
    need = {
        s: len(aobs.enabled(s)) if classify(s) is StateType.TYPE_II else 1
        for s in aobs.states
    }
    return frozenset(attractor(aobs, targets, need))


def build_verifier(aobs: AttackObserver, violating_reachable: Iterable[AObsState]) -> SubAutomaton:
    """Restrict the attack observer to the violating-reachable states."""
    return SubAutomaton.restrict(aobs, violating_reachable)


def witness_labels(verifier: SubAutomaton, attack: AttackSpec) -> list | None:
    """Shortest label sequence in the verifier from its initial state to a
    violating estimate, or None when the verifier is empty."""
    if verifier.is_empty:
        return None
    seen = {verifier.initial}
    frontier: deque = deque([(verifier.initial, [])])
    while frontier:
        state, path = frontier.popleft()
        if is_violating(state, attack):
            return path
        for label in sorted(verifier.enabled(state)):
            target = verifier.step(state, label)
            if target not in seen:
                seen.add(target)
                frontier.append((target, path + [label]))
    return None


def check_violation(g: Nfa, attack: AttackSpec) -> tuple[bool, SubAutomaton]:
    """Full pipeline: build the attack observer, close backwards from the
    violating estimates, and restrict. The verdict is the nonemptiness of the
    resulting verifier."""
    aobs = build_attack_observer(g, attack)
    reachable = intermediate_violating_fixpoint(aobs, attack)
    verifier = build_verifier(aobs, reachable)
    return (not verifier.is_empty, verifier)
