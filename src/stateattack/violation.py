"""Deciding whether the intruder can ever pin the system down: the violating
predicate on estimates, the backward closure of states from which a violation
stays reachable, and the verifier built from it."""

from __future__ import annotations

from typing import Callable, Iterable

from .aobs import AObsState, AttackObserver, attractor, build_attack_observer
from .attackmodel import PHASE_AWAIT, PHASE_SYSTEM, AttackSpec
from .automata import Nfa, StateEstimate


def violation_predicate(estimate: StateEstimate, attack: AttackSpec) -> bool:
    """Does this estimate already give the intruder what it wants?

    Anonymity mode: the estimate is a singleton. Opacity mode: every member
    is secret.
    """
    if attack.secret is None:
        return len(estimate) == 1
    return estimate.issubset(attack.secret)


def mask_violates(graph: AttackObserver, attack: AttackSpec) -> Callable[[int], bool]:
    """``violation_predicate`` as a test on the estimate masks of ``graph``:
    one set bit (``m & (m - 1) == 0``) in anonymity mode, no bit outside the
    secret set (``m & ~secret == 0``) in opacity mode."""
    if attack.secret is None:
        return lambda m: not m & (m - 1)
    outside = ~graph.mask_of(attack.secret)
    return lambda m: not m & outside


def violating_ids(graph: AttackObserver, attack: AttackSpec) -> list:
    """The kept system-move nodes whose estimate mask violates."""
    phase, mask = graph.phase, graph.mask
    violates = mask_violates(graph, attack)
    return [i for i in graph.ids if phase[i] == PHASE_SYSTEM and violates(mask[i])]


def violating_closure(aobs: AttackObserver, attack: AttackSpec) -> dict:
    """The intruder's attractor to the violating system-move nodes, as
    ``{id: rank}``: a result-wait node needs every defined result inside,
    any other node one transition."""
    need = [0] * len(aobs.kept)
    for i in aobs.ids:
        need[i] = len(aobs.kept_targets(i)) if aobs.phase[i] == PHASE_AWAIT else 1
    return attractor(aobs, violating_ids(aobs, attack), need)


def intermediate_violating_fixpoint(aobs: AttackObserver, attack: AttackSpec) -> frozenset:
    """Least set of attack-observer states from which the intruder can still
    steer the play to a violating estimate."""
    return frozenset(map(aobs.state_of, violating_closure(aobs, attack)))


def build_verifier(aobs: AttackObserver, violating_reachable: Iterable[AObsState]) -> AttackObserver:
    """Restrict the attack observer to the violating-reachable states."""
    return aobs.restrict(violating_reachable)


def witness_labels(verifier: AttackObserver, attack: AttackSpec) -> list | None:
    """Shortest label sequence in the verifier from its initial state to a
    violating estimate, the least in label order among the shortest, or None
    when the verifier is empty."""
    if verifier.is_empty:
        return None
    violating = set(violating_ids(verifier, attack))
    came_from = {verifier.initial_id: None}  # id -> (previous id, label)
    queue = [verifier.initial_id]
    for i in queue:  # grows while it is walked: breadth first
        if i in violating:
            path = []
            while came_from[i] is not None:
                i, label = came_from[i]
                path.append(label)
            return path[::-1]
        for label, j in sorted(verifier.kept_targets(i)):
            if j not in came_from:
                came_from[j] = (i, label)
                queue.append(j)
    return None


def check_violation(g: Nfa, attack: AttackSpec) -> tuple[bool, AttackObserver]:
    """Full pipeline: build the attack observer, close backwards from the
    violating estimates, and restrict. The verdict is the nonemptiness of the
    resulting verifier."""
    aobs = build_attack_observer(g, attack)
    verifier = aobs.restrict_ids(violating_closure(aobs, attack))
    return (not verifier.is_empty, verifier)
