"""Deciding whether the intruder can ever pin the system down: the violating
nodes, the backward closure of the attack-observer nodes from which a
violation stays reachable, and the verifier built from it. Both stages work
on node ids and make no ``AObsState``."""

from __future__ import annotations

from .aobs import AttackObserver, attractor, build_attack_observer
from .attackmodel import PHASE_AWAIT, PHASE_DECIDE, PHASE_SYSTEM, AttackSpec
from .automata import Nfa


def violating_ids(graph: AttackObserver, attack: AttackSpec) -> list:
    """The kept system-move nodes whose estimate violates, in id order: the
    one test on masks of the rule ``reference.violation_predicate`` states on
    estimates. A mask ``m`` violates when ``m & (m - 1 & single | outside)
    == 0``: single = -1, outside = 0 in anonymity mode; single = 0, outside =
    the non-secret bits in opacity mode. The full graph keeps the list per
    (single, outside) pair, scanned once; a restriction takes the ids it
    keeps."""
    base = graph.parent
    key = single, outside = (-1, 0) if attack.secret is None else (0, ~graph.mask_of(attack.secret))
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

    The search walks the graph's lists, whose labels are in label order at
    every node. A node keeps the first node that reached it as its parent;
    the label between them is the parent's first one leading to it."""
    if verifier.is_empty:
        return None
    violating = set(violating_ids(verifier, attack))
    labels, succ, start, kept = verifier.labels, verifier.succ, verifier.start, verifier.kept
    root = verifier.initial_id
    parent = {root: None}  # id -> the id it was first reached from
    queue = [root]
    for i in queue:  # grows while it is walked: breadth first
        if i in violating:
            break
        for j in succ[start[i]:start[i + 1]]:
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
