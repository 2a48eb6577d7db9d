"""The deterministic game graph every check runs on: estimates tracked
through attack rounds, with states classified by whose move is pending, and
the attractor that solves reachability games on it.

The graph is built in one worklist over (phase, counter, estimate), with
estimates as bitmasks over the plant states. It equals the paper's
construction, the turn and budget structure (``bounded_game_structure``)
composed with the observer of the attacked plant (``system_attack_model``,
``observer``), which stays in ``attackmodel`` and ``automata`` as the
reference the tests check this builder against."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .attackmodel import (
    ATTACK_NO,
    ATTACK_YES,
    RESULT_IN,
    RESULT_OUT,
    AttackSpec,
    GameCounter,
    PHASE_AWAIT,
    PHASE_DECIDE,
    PHASE_SYSTEM,
)
from .automata import Nfa, StateEstimate, _natural_key

_EMPTY: frozenset = frozenset()


class StateType(Enum):
    TYPE_I = "I"      # system to move, estimate just updated
    TYPE_II = "II"    # attack launched, result pending
    TYPE_III = "III"  # intruder deciding whether to attack


@dataclass(frozen=True, order=True)
class AObsState:
    phase: str
    counter: GameCounter
    estimate: StateEstimate

    def __str__(self) -> str:
        return f"({self.phase},{self.counter},{self.estimate})"


def classify(state: AObsState) -> StateType:
    if state.phase == PHASE_SYSTEM:
        return StateType.TYPE_I
    if state.phase == PHASE_AWAIT:
        return StateType.TYPE_II
    return StateType.TYPE_III


class AttackObserver:
    """Deterministic graph of (phase, counter, estimate) triples. ``enabled``
    maps each state with outgoing transitions to the set of their labels; the
    code that adds a state's transitions collects it at the same time, since
    indexing the transitions afterwards hashes every source state again. A
    restriction to part of the states is again an ``AttackObserver``, whose
    ``parent`` is the full graph (the full graph is its own parent); it is
    empty when it keeps no initial state."""

    def __init__(
        self,
        plant: Nfa,
        attack: AttackSpec,
        states: Iterable[AObsState],
        events: Iterable[str],
        transitions: dict,
        enabled: dict,
        initial: AObsState | None,
        parent: "AttackObserver | None" = None,
    ):
        self.plant = plant
        self.attack = attack
        self.states = frozenset(states)
        self.events = frozenset(events)
        self.transitions = transitions
        self.initial = initial
        self._parent = parent  # None for the full graph, so it holds no cycle to itself
        self._enabled = enabled
        self._preds: dict | None = None

    @property
    def parent(self) -> "AttackObserver":
        return self._parent or self

    @property
    def is_empty(self) -> bool:
        return self.initial is None

    def enabled(self, state: AObsState) -> frozenset:
        return self._enabled.get(state, _EMPTY)

    def step(self, state: AObsState, label: str) -> AObsState | None:
        return self.transitions.get((state, label))

    def run(self, labels: Iterable[str]) -> AObsState | None:
        state = self.initial
        for label in labels:
            if state is None:
                return None
            state = self.transitions.get((state, label))
        return state

    def predecessors(self, state: AObsState) -> tuple:
        # Built on first use, since only the full graph is searched backwards.
        if self._preds is None:
            preds: dict = {}
            for (src, label), dst in self.transitions.items():
                preds.setdefault(dst, []).append((src, label))
            self._preds = {dst: tuple(entries) for dst, entries in preds.items()}
        return self._preds.get(state, ())

    def restrict(self, keep: Iterable[AObsState]) -> "AttackObserver":
        """The part of this graph reachable from its initial state inside ``keep``."""
        keep = frozenset(keep)
        reached = {self.initial} & keep
        frontier = deque(reached)
        transitions: dict = {}
        enabled: dict = {}
        while frontier:
            state = frontier.popleft()
            labels = []
            for label in self.enabled(state):
                target = self.transitions[(state, label)]
                if target in keep:
                    transitions[(state, label)] = target
                    labels.append(label)
                    if target not in reached:
                        reached.add(target)
                        frontier.append(target)
            if labels:
                enabled[state] = frozenset(labels)
        initial = self.initial if reached else None
        return AttackObserver(
            self.plant, self.attack, reached, self.events, transitions, enabled, initial,
            self.parent,
        )

    def __repr__(self) -> str:
        return f"AttackObserver(states={len(self.states)}, transitions={len(self.transitions)})"


def _bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_attack_observer(g: Nfa, attack: AttackSpec) -> AttackObserver:
    """Explore the attack observer from (A, 0, initial states) in one worklist.

    An estimate is a bitmask: bit i is the i-th plant state in natural order.
    The intruder declines, (A,k) -N-> (S,kN), or attacks while k < budget,
    (A,k) -Y-> (AY,kY); a result keeps the attacked part (1) or the rest (0)
    when that part is nonempty, (AY,kY) -r-> (S,k+1); a plant event moves a
    system state to the nonempty image, (S,kN) or (S,k) -e-> (A,k). Each mask,
    counter value and graph state becomes exactly one object, so lookups in
    the graph's dictionaries match by identity.
    """
    attack.validate_for(g)
    order = sorted(g.states, key=_natural_key)
    index = {state: i for i, state in enumerate(order)}
    events = sorted(g.events)
    successors = {event: [0] * len(order) for event in events}
    for src, event, dst in g.transitions:
        successors[event][index[src]] |= 1 << index[dst]
    images: dict = {event: {} for event in events}
    attacked = sum(1 << index[state] for state in attack.attacked)
    budget = attack.budget

    def image(event: str, mask: int) -> int:
        memo = images[event]
        out = memo.get(mask)
        if out is None:
            table, out = successors[event], 0
            for i in _bits(mask):
                out |= table[i]
            memo[mask] = out
        return out

    counters: dict = {}
    estimates: dict = {}
    nodes: dict = {}
    queue: deque = deque()

    def node(phase: str, count: int, tag: str, mask: int) -> AObsState:
        key = (phase, count, tag, mask)
        state = nodes.get(key)
        if state is None:
            counter = counters.get((count, tag))
            if counter is None:
                counter = counters[(count, tag)] = GameCounter(count, tag)
            estimate = estimates.get(mask)
            if estimate is None:
                estimate = estimates[mask] = StateEstimate(tuple(order[i] for i in _bits(mask)))
            state = nodes[key] = AObsState(phase, counter, estimate)
            queue.append((phase, count, mask, state))
        return state

    initial = node(PHASE_DECIDE, 0, "", sum(1 << index[state] for state in g.initial))
    transitions: dict = {}
    enabled: dict = {}
    label_sets: dict = {}
    while queue:
        phase, count, mask, state = queue.popleft()
        if phase == PHASE_DECIDE:
            moves = [(ATTACK_NO, PHASE_SYSTEM, count, "N", mask)]
            if count < budget:
                moves.append((ATTACK_YES, PHASE_AWAIT, count, "Y", mask))
        elif phase == PHASE_AWAIT:
            moves = [
                (RESULT_IN, PHASE_SYSTEM, count + 1, "", mask & attacked),
                (RESULT_OUT, PHASE_SYSTEM, count + 1, "", mask & ~attacked),
            ]
        else:
            moves = [(event, PHASE_DECIDE, count, "", image(event, mask)) for event in events]
        labels = []
        for label, phase_to, count_to, tag, part in moves:
            if part:  # an empty estimate: no transition
                transitions[(state, label)] = node(phase_to, count_to, tag, part)
                labels.append(label)
        if labels:
            key = tuple(labels)
            enabled[state] = label_sets.setdefault(key, frozenset(key))
    alphabet = g.events | {ATTACK_YES, ATTACK_NO, RESULT_IN, RESULT_OUT}
    return AttackObserver(g, attack, nodes.values(), alphabet, transitions, enabled, initial)


def attractor(aobs: AttackObserver, targets: Iterable[AObsState], need: Mapping) -> dict:
    """Least set of states from which play can be forced into ``targets``,
    as ``{state: rank}``.

    Targets have rank 0. A state with a count in ``need`` joins once that
    many of its outgoing transitions lead inside, one rank above the last of
    them; a state without a count joins only as a target. A count of 1 is a
    move of the forcing player, a count of all outgoing transitions one of
    its opponent. Linear in the size of the graph.
    """
    ranks = dict.fromkeys(targets, 0)
    missing = dict(need)
    queue = deque(ranks)
    while queue:
        state = queue.popleft()
        rank = ranks[state] + 1
        for pred, _label in aobs.predecessors(state):
            if pred in ranks or pred not in missing:
                continue
            missing[pred] -= 1
            if missing[pred] == 0:
                ranks[pred] = rank
                queue.append(pred)
    return ranks


def enabled_in_aobs(aobs: AttackObserver, state: AObsState) -> frozenset:
    """Labels with a defined outgoing transition at ``state`` in the full
    attack observer."""
    if state not in aobs.states:
        raise ValueError(f"{state} is not an attack-observer state")
    return aobs.enabled(state)
