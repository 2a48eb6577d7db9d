"""Ground-truth brute force operating directly on the plant: estimate
filtering along attack traces, the trace-level violating-sequence predicate,
and the two top-level verdicts as a least and a greatest fixpoint on one
explicit attack game. Built to be obviously correct rather than fast; every
pipeline stage is cross-checked against it."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterable, Sequence

from .attackmodel import ATTACK_NO, ATTACK_YES, EPSILON, AttackSpec
from .automata import Nfa, StateEstimate


@dataclass(frozen=True)
class AttackRound:
    """One round of the game: the observed event (the first round observes
    nothing), the intruder's decision, and the attack result (absent exactly
    when the intruder declined)."""

    event: str
    decision: str
    result: str

    def __post_init__(self):
        if self.decision not in (ATTACK_YES, ATTACK_NO):
            raise ValueError(f"decision must be Y or N, got {self.decision!r}")
        if self.decision == ATTACK_NO and self.result != EPSILON:
            raise ValueError("a declined attack has no result")
        if self.decision == ATTACK_YES and self.result not in ("0", "1"):
            raise ValueError("a launched attack must have result 0 or 1")


@dataclass(frozen=True)
class AttackTrace:
    rounds: tuple

    def __post_init__(self):
        object.__setattr__(self, "rounds", tuple(self.rounds))
        for i, rnd in enumerate(self.rounds):
            if i == 0 and rnd.event != EPSILON:
                raise ValueError("the first round observes no event")
            if i > 0 and rnd.event == EPSILON:
                raise ValueError("only the first round may observe no event")

    @classmethod
    def from_labels(cls, labels: Iterable[str], events: Iterable[str]) -> "AttackTrace":
        """Parse a flat label sequence (as walked on the attack observer)
        into rounds."""
        events = frozenset(events)
        rounds = []
        pending_event = EPSILON
        labels = list(labels)
        i = 0
        while i < len(labels):
            label = labels[i]
            if label in events:
                pending_event = label
                i += 1
                label = labels[i] if i < len(labels) else None
            if pending_event is None:
                raise ValueError("two decisions without an intervening event")
            if label == ATTACK_NO:
                rounds.append(AttackRound(pending_event, ATTACK_NO, EPSILON))
                i += 1
            elif label == ATTACK_YES:
                if i + 1 >= len(labels) or labels[i + 1] not in ("0", "1"):
                    raise ValueError("a Y decision must be followed by its result")
                rounds.append(AttackRound(pending_event, ATTACK_YES, labels[i + 1]))
                i += 2
            else:
                raise ValueError(f"unexpected label {label!r}")
            pending_event = None
        return cls(tuple(rounds))

    @property
    def attacks(self) -> int:
        return sum(1 for rnd in self.rounds if rnd.decision == ATTACK_YES)


def _violating(attack: AttackSpec, members: frozenset) -> bool:
    if attack.secret is None:
        return len(members) == 1
    return members <= attack.secret


def filtered_estimate(g: Nfa, attack: AttackSpec, trace: AttackTrace) -> StateEstimate | None:
    """Run the trace directly on the plant: image through each event, then
    intersect with the attacked set (result 1) or its complement (result 0).
    None once any step empties the estimate."""
    if trace.attacks > attack.budget:
        raise ValueError("trace uses more attacks than the budget allows")
    members = frozenset(g.initial)
    for rnd in trace.rounds:
        if rnd.event != EPSILON:
            members = g.image(members, rnd.event)
            if not members:
                return None
        if rnd.decision == ATTACK_YES:
            side = attack.attacked if rnd.result == "1" else g.states - attack.attacked
            members = members & side
            if not members:
                return None
    return StateEstimate(members)


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
