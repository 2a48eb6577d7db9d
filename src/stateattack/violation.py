"""Deciding whether the intruder can ever pin the system down: the violating
predicate on estimates, the backward closure of the attack-observer nodes from
which a violation stays reachable, and the verifier built from it. Both stages
work on node ids and make no ``AObsState``."""

from __future__ import annotations

from typing import Callable

from .aobs import AttackObserver, attractor, build_attack_observer
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


def _violation_masks(graph: AttackObserver, attack: AttackSpec) -> tuple:
    """``violation_predicate`` on the estimate masks of ``graph``, as the
    pair (single, outside) for which a mask ``m`` violates exactly when
    ``m & (m - 1 & single | outside) == 0``: one set bit in anonymity mode
    (single = -1, outside = 0), no bit outside the secret set in opacity
    mode (single = 0, outside = the bits of the other plant states)."""
    if attack.secret is None:
        return -1, 0
    return 0, ~graph.mask_of(attack.secret)


def mask_violates(graph: AttackObserver, attack: AttackSpec) -> Callable[[int], bool]:
    """``violation_predicate`` as a test on the estimate masks of ``graph``."""
    single, outside = _violation_masks(graph, attack)
    return lambda m: not m & (m - 1 & single | outside)


def violating_ids(graph: AttackObserver, attack: AttackSpec) -> list:
    """The kept system-move nodes whose estimate mask violates."""
    phase, mask = graph.phase, graph.mask
    single, outside = _violation_masks(graph, attack)
    return [
        i for i in graph.ids
        if phase[i] == PHASE_SYSTEM and not (m := mask[i]) & (m - 1 & single | outside)
    ]


def intermediate_violating_fixpoint(aobs: AttackObserver, attack: AttackSpec) -> dict:
    """Least set of nodes from which the intruder can still steer the play to
    a violating estimate: its attractor to the violating system-move nodes,
    as ``{id: rank}``. A result-wait node needs every defined result inside,
    any other node one transition."""
    need = [d if p == PHASE_AWAIT else k for p, d, k in zip(aobs.phase, aobs.degree, aobs.kept)]
    return attractor(aobs, violating_ids(aobs, attack), need)


def build_verifier(aobs: AttackObserver, closure) -> AttackObserver:
    """``aobs`` restricted to the node ids in ``closure``, or ``aobs`` itself
    when the closure holds every node: the builder numbers nodes breadth
    first, so the restricting walk would meet them all in id order and keep
    every transition."""
    return aobs if len(closure) == len(aobs.ids) else aobs.restrict_ids(closure)


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
    violating estimates (``intermediate_violating_fixpoint``), and restrict to
    the closure (``build_verifier``). The verdict is the nonemptiness of the
    resulting verifier."""
    aobs = build_attack_observer(g, attack)
    verifier = build_verifier(aobs, intermediate_violating_fixpoint(aobs, attack))
    return (not verifier.is_empty, verifier)
