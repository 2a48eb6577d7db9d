"""Ground-truth brute force operating directly on the plant: estimate
filtering along attack traces, the trace-level violating-sequence predicate,
and bounded searches for the two top-level verdicts. Built to be obviously
correct rather than fast; every pipeline stage is cross-checked against it."""

from __future__ import annotations

from dataclasses import dataclass
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


def oracle_check_violation(g: Nfa, attack: AttackSpec, horizon: int | None = None) -> bool:
    """Can an observation sequence of at most ``horizon`` events be paired
    with attack decisions that pin the system down?

    Level-by-level evaluation over (estimate, attacks used) decision points,
    where level j means "achievable with at most j further events". Every
    attack branches over all of its defined results; each result branch may
    then continue with its own events. Every level that changes adds a
    decision point, and the evaluation stops at the first level that does not,
    so the default horizon, the number of decision points, gives the verdict
    without any bound."""
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be at least 1")
    attack.validate_for(g)
    attacked = attack.attacked
    nonattacked = g.states - attacked
    budget = attack.budget

    def parts(members: frozenset) -> list:
        return [p for p in (members & attacked, members & nonattacked) if p]

    def images(members: frozenset) -> list:
        out = []
        for event in g.events:
            nxt = g.image(members, event)
            if nxt:
                out.append(nxt)
        return out

    initial = (frozenset(g.initial), 0)
    nodes = {initial}
    frontier = [initial]
    while frontier:
        members, used = frontier.pop()
        branches = [(members, used)]
        if used < budget:
            branches += [(part, used + 1) for part in parts(members)]
        for branch_members, branch_used in branches:
            for nxt in images(branch_members):
                node = (nxt, branch_used)
                if node not in nodes:
                    nodes.add(node)
                    frontier.append(node)

    def finish_now(members: frozenset, used: int) -> bool:
        if _violating(attack, members):
            return True
        return used < budget and all(_violating(attack, p) for p in parts(members))

    level = {node: finish_now(*node) for node in nodes}
    for _ in range(len(nodes) if horizon is None else horizon):
        nxt_level = {}
        changed = False
        for node in nodes:
            if level[node]:
                nxt_level[node] = True
                continue
            members, used = node
            value = any(level[(img, used)] for img in images(members))
            if not value and used < budget:
                branch_parts = parts(members)
                value = all(
                    _violating(attack, p)
                    or any(level[(img, used + 1)] for img in images(p))
                    for p in branch_parts
                )
            nxt_level[node] = value
            changed = changed or value
        level = nxt_level
        if not changed:
            break
    return level[initial]


def oracle_check_enforced(g: Nfa, attack: AttackSpec) -> bool:
    """Can the intruder keep a violation reachable no matter which enabled
    events the system produces and which results the attacks return?

    AND-OR evaluation over (phase, estimate, attacks used) game nodes:
    decision nodes take the best decision, result nodes and system nodes
    must hold for every defined result / enabled event. The verdict is
    membership of the initial node in the largest such self-sustaining set
    of violation-reachable nodes."""
    attack.validate_for(g)
    nonattacked = g.states - attack.attacked
    budget = attack.budget

    # Reachable game nodes; phases: "A" decide, "AY" result pending, "S" system.
    initial = ("A", frozenset(g.initial), 0)
    nodes: set = set()
    successors: dict = {}
    frontier = [initial]
    nodes.add(initial)
    while frontier:
        node = frontier.pop()
        phase, members, used = node
        succs: list = []
        if phase == "A":
            succs.append(("S", members, used))
            if used < budget:
                succs.append(("AY", members, used))
        elif phase == "AY":
            for part in (members & attack.attacked, members & nonattacked):
                if part:
                    succs.append(("S", part, used + 1))
        else:
            for event in sorted(g.events):
                nxt = g.image(members, event)
                if nxt:
                    succs.append(("A", nxt, used))
        successors[node] = succs
        for succ in succs:
            if succ not in nodes:
                nodes.add(succ)
                frontier.append(succ)

    ordered = sorted(nodes, key=lambda n: (n[0], n[2], sorted(map(str, n[1]))))

    # Violation-reachable nodes, smallest fixpoint: a launched attack keeps
    # the course only when every defined result does.
    reachable: set = set()
    changed = True
    while changed:
        changed = False
        for node in ordered:
            if node in reachable:
                continue
            phase, members, used = node
            if phase == "A":
                good = any(succ in reachable for succ in successors[node])
            elif phase == "AY":
                good = all(succ in reachable for succ in successors[node])
            else:
                good = _violating(attack, members) or any(
                    succ in reachable for succ in successors[node]
                )
            if good:
                reachable.add(node)
                changed = True

    # Holdable nodes, largest fixpoint within the reachable ones: no system
    # event and no attack result may expel the intruder.
    hold = set(reachable)
    removed = True
    while removed:
        removed = False
        for node in ordered:
            if node not in hold:
                continue
            phase, _members, _used = node
            if phase == "A":
                good = any(succ in hold for succ in successors[node])
            else:
                good = all(succ in hold for succ in successors[node])
            if not good:
                hold.discard(node)
                removed = True
    return initial in hold
