"""Deciding whether the intruder can ever pin the system down: the violating
predicate on estimates, the backward closure of the attack-observer nodes from
which a violation stays reachable, and the verifier built from it. Both stages
work on node ids and make no ``AObsState``."""

from __future__ import annotations

from typing import Callable

from .aobs import AttackObserver, attractor, build_attack_observer
from .attackmodel import PHASE_AWAIT, PHASE_DECIDE, PHASE_SYSTEM, AttackSpec
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
    """The kept system-move nodes whose estimate mask violates, in id order.
    The full graph is scanned once per violation rule and keeps the list
    beside its predecessor index; a restriction takes the ids it keeps."""
    base = graph.parent
    key = single, outside = _violation_masks(graph, attack)
    found = base._violating.get(key)
    if found is None:
        phase, mask = base.phase, base.mask
        found = base._violating[key] = [
            i for i in base.ids
            if phase[i] == PHASE_SYSTEM and not (m := mask[i]) & (m - 1 & single | outside)
        ]
    if graph is base:
        return found
    kept = graph.kept
    return [i for i in found if kept[i]]


_CLOSURE_RULE = {PHASE_DECIDE: 1, PHASE_SYSTEM: 1, PHASE_AWAIT: None}


def intermediate_violating_fixpoint(aobs: AttackObserver, attack: AttackSpec) -> dict:
    """Least set of nodes from which the intruder can still steer the play to
    a violating estimate: its attractor to the violating system-move nodes,
    as ``{id: rank}``. A result-wait node needs every defined result inside,
    any other node one transition."""
    return attractor(aobs, violating_ids(aobs, attack), _CLOSURE_RULE)


def build_verifier(aobs: AttackObserver, closure) -> AttackObserver:
    """``aobs`` restricted to the node ids in ``closure``, or ``aobs`` itself
    when the closure holds every node: the builder numbers nodes breadth
    first, so the restricting walk would meet them all in id order and keep
    every transition."""
    return aobs if len(closure) == len(aobs.ids) else aobs.restrict_ids(closure)


def witness_labels(verifier: AttackObserver, attack: AttackSpec) -> list | None:
    """Shortest label sequence in the verifier from its initial state to a
    violating estimate, the least in label order among the shortest, or None
    when the verifier is empty.

    The search walks the graph's lists. Every node's labels are in label
    order but a result-wait node's ("1", "0"), so its targets are taken in
    reverse. A node keeps the first node that reached it as its parent; the
    label between them is the parent's first one leading to it."""
    if verifier.is_empty:
        return None
    violating = set(violating_ids(verifier, attack))
    labels, succ, start, kept, phase = (
        verifier.labels, verifier.succ, verifier.start, verifier.kept, verifier.phase
    )
    root = verifier.initial_id
    parent = {root: None}  # id -> the id it was first reached from
    queue = [root]
    for i in queue:  # grows while it is walked: breadth first
        if i in violating:
            break
        targets = succ[start[i]:start[i + 1]]
        if phase[i] == PHASE_AWAIT:
            targets.reverse()
        for j in targets:
            if kept[j] and j not in parent:
                parent[j] = i
                queue.append(j)
    else:
        return None
    path = []
    while (p := parent[i]) is not None:
        path.append(labels[p][succ.index(i, start[p], start[p + 1]) - start[p]])
        i = p
    return path[::-1]


def check_violation(g: Nfa, attack: AttackSpec) -> tuple[bool, AttackObserver]:
    """Full pipeline: build the attack observer, close backwards from the
    violating estimates (``intermediate_violating_fixpoint``), and restrict to
    the closure (``build_verifier``). The verdict is the nonemptiness of the
    resulting verifier."""
    aobs = build_attack_observer(g, attack)
    verifier = build_verifier(aobs, intermediate_violating_fixpoint(aobs, attack))
    return (not verifier.is_empty, verifier)
