"""The deterministic game graph every check runs on: estimates tracked
through attack rounds, with states classified by whose move is pending, and
the attractor that solves reachability games on it."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .attackmodel import (
    AttackSpec,
    GameCounter,
    PHASE_AWAIT,
    PHASE_SYSTEM,
    bounded_game_structure,
    system_attack_model,
)
from .automata import Nfa, StateEstimate, compose, enabled_index, observer

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
    """Deterministic graph of (phase, counter, estimate) triples. A restriction
    to part of the states is again an ``AttackObserver``, whose ``parent`` is the
    full graph (the full graph is its own parent); it is empty when it keeps no
    initial state."""

    def __init__(
        self,
        plant: Nfa,
        attack: AttackSpec,
        states: Iterable[AObsState],
        events: Iterable[str],
        transitions: dict,
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
        self._enabled = enabled_index(transitions)
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
        while frontier:
            state = frontier.popleft()
            for label in self.enabled(state):
                target = self.transitions[(state, label)]
                if target in keep:
                    transitions[(state, label)] = target
                    if target not in reached:
                        reached.add(target)
                        frontier.append(target)
        initial = self.initial if reached else None
        return AttackObserver(
            self.plant, self.attack, reached, self.events, transitions, initial, self.parent
        )

    def __repr__(self) -> str:
        return f"AttackObserver(states={len(self.states)}, transitions={len(self.transitions)})"


def build_attack_observer(g: Nfa, attack: AttackSpec) -> AttackObserver:
    """Compose the bounded turn structure with the observer of the attacked
    plant and flatten the pair states into (phase, counter, estimate) triples."""
    attack.validate_for(g)
    attacked_plant = system_attack_model(g, attack.attacked)
    estimator = observer(attacked_plant)
    game = bounded_game_structure(g.events, attack.budget)
    composed = compose(game, estimator)

    def flatten(pair) -> AObsState:
        (phase, counter), estimate = pair
        return AObsState(phase, counter, estimate)

    states = {flatten(s) for s in composed.states}
    transitions = {
        (flatten(src), label): flatten(dst)
        for (src, label), dst in composed.transitions.items()
    }
    return AttackObserver(
        g, attack, states, composed.events, transitions, flatten(composed.initial)
    )


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
