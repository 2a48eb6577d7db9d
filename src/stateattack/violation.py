"""Deciding whether the intruder can ever pin the system down: the violating
predicate on estimates, the backward closure of states from which a violation
stays reachable, and the verifier built from it."""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .aobs import AObsState, AttackObserver, StateType, attractor, build_attack_observer, classify
from .attackmodel import AttackSpec
from .automata import Nfa, StateEstimate


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


def build_verifier(aobs: AttackObserver, violating_reachable: Iterable[AObsState]) -> AttackObserver:
    """Restrict the attack observer to the violating-reachable states."""
    return aobs.restrict(violating_reachable)


def witness_labels(verifier: AttackObserver, attack: AttackSpec) -> list | None:
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


def check_violation(g: Nfa, attack: AttackSpec) -> tuple[bool, AttackObserver]:
    """Full pipeline: build the attack observer, close backwards from the
    violating estimates, and restrict. The verdict is the nonemptiness of the
    resulting verifier."""
    aobs = build_attack_observer(g, attack)
    reachable = intermediate_violating_fixpoint(aobs, attack)
    verifier = build_verifier(aobs, reachable)
    return (not verifier.is_empty, verifier)
