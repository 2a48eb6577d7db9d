"""Ground-truth brute force operating directly on the plant: estimate
filtering along a label sequence, the trace-level violating-sequence predicate,
and the two top-level verdicts as a least and a greatest fixpoint on one
explicit attack game. Built to be obviously correct rather than fast; every
pipeline stage is cross-checked against it."""

from __future__ import annotations

from itertools import count
from typing import Iterable, Sequence

from .attackmodel import ATTACK_NO, ATTACK_YES, RESULT_IN, RESULT_LABELS, AttackSpec
from .automata import Nfa, StateEstimate


def _violating(attack: AttackSpec, members: frozenset) -> bool:
    if attack.secret is None:
        return len(members) == 1
    return members <= attack.secret


def filtered_estimate(g: Nfa, attack: AttackSpec, labels: Iterable[str]) -> StateEstimate | None:
    """Run a label sequence directly on the plant, in the form
    ``witness_labels`` returns and ``AttackObserver.run`` walks: a decision
    opens each round, an observed event precedes every round but the first,
    and a Y is followed by its result. An event takes the image, result 1
    keeps the attacked set and result 0 its complement. None when the
    estimate ends empty; a sequence of another shape, or with more Y labels
    than the budget allows, raises ``ValueError``."""
    attack.validate_for(g)
    labels = list(labels)
    if labels.count(ATTACK_YES) > attack.budget:
        raise ValueError("the sequence uses more attacks than the budget allows")
    members = frozenset(g.initial)
    prev = None  # the label before this one; the whole sequence is read, even once empty
    for position, label in enumerate(labels):
        if label in (ATTACK_YES, ATTACK_NO):
            fits = prev is None or prev in g.events
        elif label in RESULT_LABELS:
            fits = prev == ATTACK_YES
            members &= attack.attacked if label == RESULT_IN else g.states - attack.attacked
        elif label in g.events:
            fits = prev == ATTACK_NO or prev in RESULT_LABELS
            members = g.image(members, label)
        else:
            fits = False
        if not fits:
            raise ValueError(f"unexpected label {label!r} at position {position}")
        prev = label
    if prev == ATTACK_YES or prev in g.events:
        raise ValueError(f"the sequence ends inside a round, after {prev!r}")
    return StateEstimate(members) if members else None


def is_violating_attack_sequence(
    g: Nfa, attack: AttackSpec, s: Sequence[str], r_a: Sequence[str]
) -> bool:
    """Trace-level predicate: does some realizable assignment of the
    intermediate attack results make every defined final result end in a
    violating estimate?"""
    if len(r_a) != len(s) + 1:
        raise ValueError("one decision is needed per round, including the first")
    if sum(1 for d in r_a if d == ATTACK_YES) > attack.budget:
        raise ValueError("decision sequence exceeds the attack budget")
    nonattacked = g.states - attack.attacked

    def outcomes(members: frozenset, decision: str) -> list:
        if decision == ATTACK_NO:
            return [members]
        parts = [members & attack.attacked, members & nonattacked]
        return [part for part in parts if part]

    # Depth first on an explicit stack of (round, estimate), so a long trace does not recurse.
    stack = [(0, frozenset(g.initial))]
    while stack:
        i, members = stack.pop()
        parts = outcomes(members, r_a[i])
        if i < len(s):
            for part in reversed(parts):  # the first result is popped first
                nxt = g.image(part, s[i])
                if nxt:
                    stack.append((i + 1, nxt))
        elif all(_violating(attack, part) for part in parts):
            return True
    return False


def _game(g: Nfa, attack: AttackSpec) -> list:
    """The attack game on plant sets: every (phase, estimate, attacks used)
    node reachable from ("A", initial, 0) with its successors, newest node
    first. At "A" the intruder declines (to "S") or, while the budget lasts,
    launches an attack (to "AY"); at "AY" the result keeps the attacked part
    or the rest, whichever is nonempty; at "S" the system produces an event,
    and each nonempty image is a new "A"."""
    nonattacked = g.states - attack.attacked
    events = sorted(g.events)
    initial = ("A", frozenset(g.initial), 0)
    game: dict = {initial: None}  # discovery order
    frontier = [initial]
    while frontier:
        node = frontier.pop()
        phase, members, used = node
        if phase == "A":
            succs = [("S", members, used)] + [("AY", members, used)] * (used < attack.budget)
        elif phase == "AY":
            parts = (members & attack.attacked, members & nonattacked)
            succs = [("S", part, used + 1) for part in parts if part]
        else:
            succs = [("A", nxt, used) for nxt in (g.image(members, e) for e in events) if nxt]
        game[node] = succs
        for succ in succs:
            if succ not in game:
                game[succ] = None
                frontier.append(succ)
    return list(reversed(game.items()))


def _won(game: list, attack: AttackSpec, horizon: int | None) -> set:
    """The least fixpoint: the nodes from which the intruder forces a
    violating estimate within ``horizon`` event rounds (None: any number).
    An "A" node needs one won successor, an "AY" node every one, an "S" node
    a violating estimate or one successor won in an earlier round. Every
    round but the last wins a node, so a horizon of at least the node count
    bounds nothing; then "S" nodes read the growing set, and one sweep may
    chain rounds."""
    bounded = horizon is not None and horizon < len(game)
    won: set = set()
    for _ in range(horizon + 1) if bounded else count():
        earlier = frozenset(won) if bounded else won
        size = len(won)
        grew = True
        while grew:
            grew = False
            for node, succs in game:
                if node in won:
                    continue
                phase, members, _used = node
                if phase == "A":
                    good = not won.isdisjoint(succs)
                elif phase == "AY":
                    good = won.issuperset(succs)
                else:
                    good = _violating(attack, members) or not earlier.isdisjoint(succs)
                if good:
                    won.add(node)
                    grew = True
        if len(won) == size:
            break
    return won


def oracle_check_violation(g: Nfa, attack: AttackSpec, horizon: int | None = None) -> bool:
    """Can an observation sequence of at most ``horizon`` events be paired
    with attack decisions that pin the system down? Every attack branches
    over all of its defined results, and each result branch may then
    continue with its own events: membership of the initial node in the
    least fixpoint of the attack game, unbounded by default."""
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be at least 1")
    attack.validate_for(g)
    return ("A", frozenset(g.initial), 0) in _won(_game(g, attack), attack, horizon)


def oracle_check_enforced(g: Nfa, attack: AttackSpec) -> bool:
    """Can the intruder keep a violation reachable no matter which enabled
    events the system produces and which results the attacks return?

    The greatest fixpoint inside the least one of ``oracle_check_violation``:
    the initial node must stay in the largest set of violation-reachable
    nodes where an "A" node keeps one successor inside, and an "S" or "AY"
    node keeps every successor inside."""
    attack.validate_for(g)
    game = _game(g, attack)
    hold = _won(game, attack, None)
    shrank = True
    while shrank:
        shrank = False
        for node, succs in game:
            if node in hold and (hold.isdisjoint(succs) if node[0] == "A" else not hold.issuperset(succs)):
                hold.discard(node)
                shrank = True
    return ("A", frozenset(g.initial), 0) in hold
