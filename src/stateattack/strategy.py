"""Mealy-machine attack strategies: a backward-induction progress rank over
the final verifier, strategy synthesis, exhaustive validation of the play
tree, and play simulation against system policies."""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from .aobs import AObsState, AttackObserver, attractor
from .attackmodel import ATTACK_NO, ATTACK_YES, EPSILON, PHASE_DECIDE, RESULT_LABELS, AttackSpec
from .automata import Nfa, StateEstimate
from .violation import violating_ids, violation_predicate

RANKED = "ranked"
FIRST_VALID = "first-valid"

INFINITE_RANK = math.inf


class StrategyError(RuntimeError):
    """An internal consistency breach: the strategy or the region it was
    synthesized from does not cover a reachable situation."""


def compute_ranks(fv: AttackObserver, attack: AttackSpec) -> dict:
    """Worst-case distance (in kept transitions) from each kept state to a
    violating estimate: violating system-move states are at 0, decision
    states take the best decision, everything else the worst successor.
    States from which a violation cannot be forced get an infinite rank."""
    need = [0] * len(fv.kept)
    for i in fv.ids:
        need[i] = 1 if fv.phase[i] == PHASE_DECIDE else len(fv.kept_targets(i))
    ranks = attractor(fv.parent, violating_ids(fv, attack), need)
    return {fv.state_of(i): ranks.get(i, INFINITE_RANK) for i in fv.ids}


@dataclass
class MealyStrategy:
    """Intruder policy: states are system-move states of the final verifier
    plus its initial decision state; each edge maps an observed event to an
    attack output, branching only on the attack result."""

    initial: AObsState
    states: frozenset
    edges: dict
    attack: AttackSpec
    ranks: Mapping = field(default_factory=dict)
    policy: str = RANKED

    def outputs(self, state: AObsState, event: str) -> tuple:
        return self.edges.get((state, event), ())

    def decision(self, state: AObsState, event: str) -> str | None:
        outputs = self.outputs(state, event)
        if not outputs:
            return None
        return ATTACK_NO if outputs[0][0] == ATTACK_NO else ATTACK_YES

    def successor(self, state: AObsState, event: str, result: str | None = None) -> AObsState | None:
        wanted = ATTACK_NO if result is None else ATTACK_YES + result
        for output, target in self.outputs(state, event):
            if output == wanted:
                return target
        return None

    def edge_list(self) -> list:
        """Deterministically ordered (state, input, output, target) rows."""
        rows = [
            (src, event, output, target)
            for (src, event), outputs in self.edges.items()
            for output, target in outputs
        ]
        return sorted(rows, key=lambda row: (str(row[0]), row[1], row[2]))

    @property
    def n_edges(self) -> int:
        return sum(len(outputs) for outputs in self.edges.values())


def _choose_decision(
    fv: AttackObserver,
    ranks: Mapping,
    policy: str,
    reference: AObsState,
    turn_state: AObsState,
) -> str:
    """Pick the attack decision at a decision state reached from
    ``reference``. Ranked policy declines when that already makes progress,
    otherwise takes the decision with the best worst-case successor,
    preferring to conserve budget on ties."""
    candidates: list = []
    no_target = fv.step(turn_state, ATTACK_NO)
    if no_target is not None:
        candidates.append((ATTACK_NO, no_target))
    yes_target = fv.step(turn_state, ATTACK_YES)
    if yes_target is not None:
        candidates.append((ATTACK_YES, yes_target))
    if not candidates:
        raise StrategyError(f"no decision keeps the intruder inside the region at {turn_state}")
    if policy == FIRST_VALID:
        return candidates[0][0]
    here = ranks.get(reference, INFINITE_RANK)
    if no_target is not None and ranks.get(no_target, INFINITE_RANK) < here:
        return ATTACK_NO
    best = min(
        candidates,
        key=lambda cand: (ranks.get(cand[1], INFINITE_RANK), 0 if cand[0] == ATTACK_NO else 1),
    )
    return best[0]


def synthesize_strategy(
    fv: AttackObserver, aobs: AttackObserver, policy: str = RANKED
) -> MealyStrategy:
    """Walk the final verifier from its initial state, fixing one attack
    decision per (state, observed event) and recording the resulting
    system-move states as the strategy states."""
    if fv.is_empty:
        raise ValueError("cannot synthesize a strategy from an empty final verifier")
    if policy not in (RANKED, FIRST_VALID):
        raise ValueError(f"unknown policy {policy!r}")
    attack = aobs.attack
    ranks = compute_ranks(fv, attack)
    initial = fv.initial
    states = {initial}
    edges: dict = {}

    def add_edges(source: AObsState, event: str, turn_state: AObsState) -> list:
        decision = _choose_decision(fv, ranks, policy, source, turn_state)
        if decision == ATTACK_NO:
            target = fv.step(turn_state, ATTACK_NO)
            edges[(source, event)] = ((ATTACK_NO, target),)
            return [target]
        pending = fv.step(turn_state, ATTACK_YES)
        outputs = []
        for result in RESULT_LABELS:
            target = fv.step(pending, result)
            if target is not None:
                outputs.append((ATTACK_YES + result, target))
        edges[(source, event)] = tuple(outputs)
        return [target for _, target in outputs]

    queue: deque = deque()
    for target in add_edges(initial, EPSILON, initial):
        if target not in states:
            states.add(target)
            queue.append(target)
    while queue:
        state = queue.popleft()
        for event in sorted(aobs.enabled(state)):
            for target in add_edges(state, event, fv.step(state, event)):
                if target not in states:
                    states.add(target)
                    queue.append(target)
    return MealyStrategy(initial, frozenset(states), edges, attack, ranks, policy)


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
    inherent in the strategy states, whose counters never exceed it."""
    if not strategy.states or not strategy.edges:
        raise ValueError("cannot validate an empty strategy")

    def edge_moves(source: AObsState, event: str, turn_state: AObsState):
        """(step, target) pairs of the edge for ``event`` at ``source``, decided
        at ``turn_state``: an attack is followed by every result the strategy
        lists or the attack observer defines, without a target when not listed."""
        if strategy.decision(source, event) == ATTACK_NO:
            yield (event, ATTACK_NO, None), strategy.successor(source, event)
            return
        pending = aobs.step(turn_state, ATTACK_YES)
        for result in RESULT_LABELS:
            target = strategy.successor(source, event, result)
            if target is not None or aobs.step(pending, result) is not None:
                yield (event, ATTACK_YES, result), target

    def moves(state: AObsState):
        """(step, target) pairs below a system-move state in exploration
        order; a step without a target is a move the strategy has no edge for."""
        for event in sorted(aobs.enabled(state)):
            if not strategy.outputs(state, event):
                yield (event, None, None), None
                return
            yield from edge_moves(state, event, aobs.step(state, event))

    if not strategy.outputs(strategy.initial, EPSILON):
        return StrategyReport(False, None, (), "no initial decision")
    # Depth-first over an explicit stack of [state, pending moves, worst rounds
    # below]; the bottom frame stands for the initial decision. ``prefix``
    # holds the steps from the initial decision to the move being tried.
    root = edge_moves(strategy.initial, EPSILON, strategy.initial)
    stack: list = [[None, root, 0]]
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
            if violation_predicate(target.estimate, attack):
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
    attack = strategy.attack
    rng = random.Random(system_policy.seed) if isinstance(system_policy, RandomSeeded) else None

    def advance(state: AObsState, event: str, true_state) -> tuple:
        """Resolve one round at ``state``: the strategy's decision for
        ``event``, the result induced by the true plant state, and the next
        strategy state."""
        decision = strategy.decision(state, event)
        if decision is None:
            raise StrategyError(f"strategy has no edge for event {event!r} at {state}")
        if decision == ATTACK_NO:
            return ATTACK_NO, None, strategy.successor(state, event)
        result = "1" if true_state in attack.attacked else "0"
        target = strategy.successor(state, event, result)
        if target is None:
            raise StrategyError(f"strategy misses result {result!r} for event {event!r} at {state}")
        return ATTACK_YES, result, target

    def score(state: AObsState, event: str, true_state) -> float:
        return strategy.ranks.get(advance(state, event, true_state)[2], INFINITE_RANK)

    initial_candidates = sorted(g.initial, key=str)
    if rng is not None:
        true_state = rng.choice(initial_candidates)
    else:
        true_state = max(
            initial_candidates,
            key=lambda cand: score(strategy.initial, EPSILON, cand),
        )

    rounds: list = []
    decision, result, current = advance(strategy.initial, EPSILON, true_state)
    rounds.append(PlayRound(EPSILON, decision, result, current.estimate, true_state))

    while len(rounds) < max_rounds:
        if violation_predicate(current.estimate, attack):
            return PlayTrace(tuple(rounds), "violated")
        moves = [
            (event, target)
            for event in sorted(g.enabled(true_state))
            for target in sorted(g.successors(true_state, event), key=str)
        ]
        if not moves:
            return PlayTrace(tuple(rounds), "stalled")
        if rng is not None:
            event, true_state = rng.choice(moves)
        else:
            event, true_state = max(moves, key=lambda mv: score(current, mv[0], mv[1]))
        decision, result, current = advance(current, event, true_state)
        rounds.append(PlayRound(event, decision, result, current.estimate, true_state))
    if violation_predicate(current.estimate, attack):
        return PlayTrace(tuple(rounds), "violated")
    return PlayTrace(tuple(rounds), "exhausted")
