"""Mealy-machine attack strategies: a backward-induction progress rank over
the final verifier, strategy synthesis, exhaustive validation of the play
tree, and play simulation against system policies."""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field

from .aobs import AObsState, AttackObserver, attractor
from .attackmodel import ATTACK_NO, ATTACK_YES, EPSILON, PHASE_DECIDE, RESULT_LABELS, AttackSpec
from .automata import Nfa, StateEstimate
from .violation import mask_violates, violating_ids

RANKED = "ranked"
FIRST_VALID = "first-valid"

INFINITE_RANK = math.inf


class StrategyError(RuntimeError):
    """An internal consistency breach: the strategy or the region it was
    synthesized from does not cover a reachable situation."""


def rank_ids(fv: AttackObserver, attack: AttackSpec) -> dict:
    """Worst-case distance (in kept transitions) from each kept node to a
    violating estimate, as ``{id: rank}``: violating system-move nodes are at
    0, decision nodes take the best decision, everything else the worst
    successor. Nodes from which a violation cannot be forced are left out."""
    need = [k if p == PHASE_DECIDE else d for p, d, k in zip(fv.phase, fv.degree, fv.kept)]
    return attractor(fv.parent, violating_ids(fv, attack), need)


def compute_ranks(fv: AttackObserver, attack: AttackSpec) -> Mapping:
    """``rank_ids`` over every kept state, as a read-only ``{AObsState:
    rank}`` mapping, with an infinite rank where a violation cannot be
    forced. It makes state objects only for the keys read or iterated."""
    return _StateRanks(fv, rank_ids(fv, attack))


class _StateRanks(Mapping):
    """The ranks of ``fv``'s kept states, looked up through ``fv.id_of``:
    any other key, a state ``fv`` does not keep or no ``AObsState`` at all,
    is absent."""

    def __init__(self, fv: AttackObserver, ranks: dict):
        self._fv, self._ranks = fv, ranks

    def __getitem__(self, state):
        i = self._fv.id_of(state) if isinstance(state, AObsState) else None
        if i is None:
            raise KeyError(state)
        return self._ranks.get(i, INFINITE_RANK)

    def __iter__(self):
        return map(self._fv.state_of, self._fv.ids)

    def __len__(self) -> int:
        return len(self._fv.ids)


@dataclass
class MealyStrategy:
    """Intruder policy on the node ids of the final verifier ``graph``: its
    states ``ids`` are system-move nodes plus the initial decision node
    ``initial_id``. ``id_edges`` maps (id, observed event) to
    ((output, target id), ...): one attack output per event, branching only
    on the attack result. A violating state ends the play and has no edges.
    ``id_ranks`` maps each state to its rank. ``states`` is the
    ``AObsState`` view of ``ids``, made on first request and cached."""

    graph: AttackObserver
    initial_id: int
    ids: frozenset
    id_edges: dict
    attack: AttackSpec
    id_ranks: Mapping = field(default_factory=dict)
    policy: str = RANKED

    @functools.cached_property
    def states(self) -> frozenset:
        return frozenset(map(self.graph.state_of, self.ids))

    def names(self) -> dict:
        """``{id: str(state)}`` over the strategy's states, in ``AObsState``
        order, without ``AObsState`` objects (``AttackObserver.names``)."""
        return self.graph.names(self.ids)

    def id_edge_list(self, names: dict) -> list:
        """(id, input, output, target id) rows ordered by the source's name
        in ``names`` (see ``names``), the input and the output."""
        rows = [
            (i, event, output, k)
            for (i, event), outputs in self.id_edges.items()
            for output, k in outputs
        ]
        return sorted(rows, key=lambda row: (names[row[0]], row[1], row[2]))

    @property
    def n_edges(self) -> int:
        return sum(len(outputs) for outputs in self.id_edges.values())


def _follow(outputs: tuple, wanted: str):
    """The target of the first of an edge's ``outputs`` that is ``wanted``,
    or None."""
    for output, target in outputs:
        if output == wanted:
            return target
    return None


def _choose_decision(
    fv: AttackObserver, ranks: dict, policy: str, reference: int, turn: int | None
) -> tuple:
    """Pick the attack decision at the decision node ``turn`` reached from
    ``reference``, as (decision, the id it leads to). Ranked policy declines
    when that already makes progress, otherwise takes the decision with the
    best worst-case successor, preferring to conserve budget on ties."""
    candidates = [] if turn is None else [
        (decision, j)
        for decision in (ATTACK_NO, ATTACK_YES)
        if (j := fv.target(turn, decision)) is not None
    ]
    if not candidates:
        where = "a node outside it" if turn is None else fv.state_of(turn)
        raise StrategyError(f"no decision keeps the intruder inside the region at {where}")
    if policy == FIRST_VALID:
        return candidates[0]

    def rank(i: int) -> float:
        return ranks.get(i, INFINITE_RANK)

    decision, j = candidates[0]
    if decision == ATTACK_NO and rank(j) < rank(reference):
        return candidates[0]
    return min(candidates, key=lambda cand: (rank(cand[1]), cand[0] != ATTACK_NO))


def synthesize_strategy(
    fv: AttackObserver, aobs: AttackObserver, policy: str = RANKED
) -> MealyStrategy:
    """Walk the final verifier from its initial node, fixing one attack
    decision per (node, observed event) and recording the system-move nodes
    it leads to as the strategy states. A violating node ends every play that
    reaches it, so it is a strategy state without edges of its own.

    The walk runs on node ids and makes no ``AObsState`` objects. ``aobs`` is
    the attack observer ``fv`` restricts, or another build of it (builds
    number their nodes alike); it gives the events the system can play. The
    ranks cover only the strategy states."""
    if fv.is_empty:
        raise ValueError("cannot synthesize a strategy from an empty final verifier")
    if policy not in (RANKED, FIRST_VALID):
        raise ValueError(f"unknown policy {policy!r}")
    attack = aobs.attack
    ranks = rank_ids(fv, attack)
    initial = fv.initial_id
    states = {initial}
    queue: list = []  # the strategy states to expand: not violating
    edges: dict = {}  # (id, event) -> ((output, target id), ...)

    def add_edges(source: int, event: str, turn: int | None) -> None:
        decision, j = _choose_decision(fv, ranks, policy, source, turn)
        if decision == ATTACK_NO:
            outputs = ((ATTACK_NO, j),)
        else:
            results = ((result, fv.target(j, result)) for result in RESULT_LABELS)
            outputs = tuple((ATTACK_YES + result, k) for result, k in results if k is not None)
        edges[source, event] = outputs
        for _, k in outputs:
            if k not in states:
                states.add(k)
                if ranks.get(k) != 0:  # rank 0 only at violating nodes
                    queue.append(k)

    add_edges(initial, EPSILON, initial)
    for i in queue:  # grows while it is walked: breadth first
        for event in sorted(label for label, _ in aobs.kept_targets(i)):
            add_edges(i, event, fv.target(i, event))

    return MealyStrategy(
        fv, initial, frozenset(states), edges, attack,
        {i: ranks.get(i, INFINITE_RANK) for i in states}, policy,
    )


@dataclass(frozen=True)
class StrategyReport:
    sound: bool
    max_rounds: int | None = None
    counterexample: tuple | None = None
    reason: str | None = None


def validate_strategy(
    strategy: MealyStrategy, aobs: AttackObserver, attack: AttackSpec
) -> StrategyReport:
    """Exhaustively unfold the play tree (all system events enabled at each
    estimate, all attack results the attack observer defines) and check that
    every maximal play reaches a violating estimate. The attack budget is
    inherent in the strategy states, whose counters never exceed it.

    The unfolding runs on node ids: ``aobs`` is the full attack observer the
    strategy's graph restricts, or another build of it."""
    edges = strategy.id_edges
    if not strategy.ids or not edges:
        raise ValueError("cannot validate an empty strategy")
    violates, mask = mask_violates(aobs, attack), aobs.mask

    def edge_moves(source: int, event: str, turn: int):
        """(step, target) pairs of the edge for ``event`` at ``source``, decided
        at ``turn``: an attack is followed by every result the strategy lists
        or the attack observer defines, without a target when not listed."""
        outputs = edges[source, event]
        if outputs[0][0] == ATTACK_NO:
            yield (event, ATTACK_NO, None), _follow(outputs, ATTACK_NO)
            return
        pending = aobs.target(turn, ATTACK_YES)
        for result in RESULT_LABELS:
            target = _follow(outputs, ATTACK_YES + result)
            if target is not None or (pending is not None and aobs.target(pending, result) is not None):
                yield (event, ATTACK_YES, result), target

    def moves(state: int):
        """(step, target) pairs below a system-move state in exploration
        order; a step without a target is a move the strategy has no edge for."""
        for event, turn in sorted(aobs.kept_targets(state)):
            if not edges.get((state, event)):
                yield (event, None, None), None
                return
            yield from edge_moves(state, event, turn)

    initial = strategy.initial_id
    if not edges.get((initial, EPSILON)):
        return StrategyReport(False, None, (), "no initial decision")
    # Depth-first over an explicit stack of [state, pending moves, worst rounds
    # below]; the bottom frame stands for the initial decision. ``prefix``
    # holds the steps from the initial decision to the move being tried.
    stack: list = [[None, edge_moves(initial, EPSILON, initial), 0]]
    prefix: list = []
    memo: dict = {}  # state -> max rounds to violation
    on_path: set = set()
    while True:
        frame = stack[-1]
        step, target = next(frame[1], (None, None))
        if step is None:
            state, _, worst = stack.pop()
            if state is None:
                return StrategyReport(True, worst, None, None)
            on_path.discard(state)
            memo[state] = below = worst
            frame = stack[-1]
        else:
            prefix.append(step)
            if target is None:
                missing = "enabled event" if step[1] is None else "attack result"
                return StrategyReport(False, None, tuple(prefix), f"no edge for {missing}")
            if violates(mask[target]):
                below = 0
            elif target in memo:
                below = memo[target]
            elif target in on_path:
                return StrategyReport(False, None, tuple(prefix), "non-terminating play")
            else:
                on_path.add(target)
                stack.append([target, moves(target), 0])
                continue
        prefix.pop()
        frame[2] = max(frame[2], 1 + below)


@dataclass(frozen=True)
class RandomSeeded:
    seed: int = 0


@dataclass(frozen=True)
class Adversarial:
    pass


@dataclass(frozen=True)
class PlayRound:
    event: str
    decision: str
    result: str | None
    estimate: StateEstimate
    true_state: object


@dataclass(frozen=True)
class PlayTrace:
    rounds: tuple
    outcome: str  # "violated", "exhausted", or "stalled"

    @property
    def final_estimate(self) -> StateEstimate | None:
        return self.rounds[-1].estimate if self.rounds else None

    @property
    def final_true_state(self):
        return self.rounds[-1].true_state if self.rounds else None


def simulate_play(
    g: Nfa,
    strategy: MealyStrategy,
    system_policy,
    max_rounds: int = 1000,
) -> PlayTrace:
    """Run one play: the system's events are drawn from those enabled at the
    true plant state (tracked internally), attack results come from the true
    state's membership in the attacked set, and the play stops at the first
    violating estimate."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    graph, edges, ranks = strategy.graph, strategy.id_edges, strategy.id_ranks
    violates, mask = mask_violates(graph, strategy.attack), graph.mask
    attacked = strategy.attack.attacked
    rng = random.Random(system_policy.seed) if isinstance(system_policy, RandomSeeded) else None

    def advance(state: int, event: str, true_state) -> tuple:
        """Resolve one round at ``state``: the strategy's decision for
        ``event``, the result induced by the true plant state, and the next
        strategy state."""
        outputs = edges.get((state, event))
        if not outputs:
            raise StrategyError(f"strategy has no edge for event {event!r} at {graph.state_of(state)}")
        if outputs[0][0] == ATTACK_NO:
            return ATTACK_NO, None, _follow(outputs, ATTACK_NO)
        result = "1" if true_state in attacked else "0"
        target = _follow(outputs, ATTACK_YES + result)
        if target is None:
            raise StrategyError(
                f"strategy misses result {result!r} for event {event!r} at {graph.state_of(state)}"
            )
        return ATTACK_YES, result, target

    def score(state: int, event: str, true_state) -> float:
        return ranks.get(advance(state, event, true_state)[2], INFINITE_RANK)

    initial = strategy.initial_id
    initial_candidates = sorted(g.initial, key=str)
    if rng is not None:
        true_state = rng.choice(initial_candidates)
    else:
        true_state = max(initial_candidates, key=lambda cand: score(initial, EPSILON, cand))

    rounds: list = []
    decision, result, current = advance(initial, EPSILON, true_state)
    rounds.append(PlayRound(EPSILON, decision, result, graph.state_of(current).estimate, true_state))

    while not violates(mask[current]):
        if len(rounds) >= max_rounds:
            return PlayTrace(tuple(rounds), "exhausted")
        moves = g.moves(true_state)
        if not moves:
            return PlayTrace(tuple(rounds), "stalled")
        if rng is not None:
            event, true_state = rng.choice(moves)
        else:
            event, true_state = max(moves, key=lambda mv: score(current, mv[0], mv[1]))
        decision, result, current = advance(current, event, true_state)
        rounds.append(PlayRound(event, decision, result, graph.state_of(current).estimate, true_state))
    return PlayTrace(tuple(rounds), "violated")
