"""Shared fixtures: the ten-state running example, compact constructors for
attack-observer states, the deterministic random-instance corpus, the
paper's composed construction of the attack observer, the strategy
synthesis that walks on past the first violation, and the reference
strategy validation and play simulation that test the violating predicate
on estimates."""

import random
from collections import deque

from stateattack import AttackSpec, Nfa
from stateattack.aobs import AObsState, AttackObserver
from stateattack.attackmodel import (
    ATTACK_NO,
    ATTACK_YES,
    EPSILON,
    RESULT_LABELS,
    GameCounter,
    bounded_game_structure,
    system_attack_model,
)
from stateattack.automata import StateEstimate, _natural_key, compose, observer
from stateattack.strategy import (
    FIRST_VALID,
    INFINITE_RANK,
    RANKED,
    MealyStrategy,
    PlayRound,
    PlayTrace,
    RandomSeeded,
    StrategyError,
    StrategyReport,
    rank_ids,
)
from stateattack.violation import violation_predicate

TEN_STATE_TRANSITIONS = [
    ("1", "a", "2"), ("1", "a", "3"), ("1", "d", "6"), ("1", "d", "9"),
    ("2", "b", "4"), ("2", "c", "5"),
    ("3", "b", "5"), ("3", "c", "4"),
    ("4", "c", "5"), ("5", "c", "4"),
    ("6", "b", "7"), ("6", "b", "8"),
    ("7", "c", "8"), ("8", "c", "7"),
    ("9", "b", "7"),
    ("10", "d", "9"), ("10", "a", "2"),
]


def ten_state_plant() -> Nfa:
    return Nfa(
        [str(i) for i in range(1, 11)],
        ["a", "b", "c", "d"],
        TEN_STATE_TRANSITIONS,
        ["1", "10"],
    )


ATTACK_24 = AttackSpec(frozenset({"2", "4"}), 1)
ATTACK_2489 = AttackSpec(frozenset({"2", "4", "8", "9"}), 1)


def est(text: str) -> StateEstimate:
    return StateEstimate(tuple(text.split(",")))


def ctr(text: str) -> GameCounter:
    if text.endswith(("N", "Y")):
        return GameCounter(int(text[:-1]), text[-1])
    return GameCounter(int(text))


def aob(phase: str, counter: str, members: str) -> AObsState:
    return AObsState(phase, ctr(counter), est(members))


def chain_instance(length: int = 1200):
    """Two ``length``-state chains told apart only at their ends, with no
    attacks: the strategy is one long line, and every play is ``length + 1``
    rounds deep."""
    xs = [f"x{i}" for i in range(length)]
    ys = [f"y{i}" for i in range(length)]
    transitions = [(chain[i], "a", chain[i + 1]) for chain in (xs, ys) for i in range(length - 1)]
    transitions += [(xs[-1], "b", xs[-1]), (ys[-1], "c", ys[-1])]
    plant = Nfa(xs + ys, ["a", "b", "c"], transitions, [xs[0], ys[0]])
    return plant, AttackSpec(frozenset(), 0)


MASTER_SEED = 20260809


def random_instance(rng: random.Random):
    """One random deadlock-free plant (2..5 states, 1..3 events) with a random
    attack description (budget 0..2, anonymity or opacity)."""
    n = rng.randint(2, 5)
    states = [str(i) for i in range(1, n + 1)]
    events = ["a", "b", "c"][: rng.randint(1, 3)]
    transitions = set()
    for s in states:
        for _ in range(rng.randint(1, 2)):
            transitions.add((s, rng.choice(events), rng.choice(states)))
    for _ in range(rng.randint(0, n)):
        transitions.add((rng.choice(states), rng.choice(events), rng.choice(states)))
    initial = rng.sample(states, rng.randint(1, n))
    plant = Nfa(states, events, transitions, initial)
    attacked = frozenset(s for s in states if rng.random() < 0.45)
    budget = rng.randint(0, 2)
    if rng.random() < 0.35:
        secret = frozenset(rng.sample(states, rng.randint(0, n - 1)))
        return plant, AttackSpec(attacked, budget, secret)
    return plant, AttackSpec(attacked, budget)


def corpus(count: int = 220, seed: int = MASTER_SEED) -> list:
    rng = random.Random(seed)
    return [random_instance(rng) for _ in range(count)]


def composed_attack_observer(g: Nfa, attack: AttackSpec) -> AttackObserver:
    """The attack observer as the paper constructs it: the bounded turn
    structure composed with the observer of the attacked plant, with the pair
    states flattened into the (phase, count, tag, mask) node keys that
    ``build_attack_observer`` uses."""
    attack.validate_for(g)
    attacked_plant = system_attack_model(g, attack.attacked)
    estimator = observer(attacked_plant)
    game = bounded_game_structure(g.events, attack.budget)
    composed = compose(game, estimator)

    order = sorted(g.states, key=_natural_key)
    bit = {state: b for b, state in enumerate(order)}

    def flatten(pair) -> tuple:
        """The (phase, count, tag, mask) key of a composed pair state."""
        (phase, counter), estimate = pair
        return phase, counter.count, counter.tag, sum(1 << bit[s] for s in estimate)

    nodes = [flatten(s) for s in composed.states]
    ids = {node: i for i, node in enumerate(nodes)}
    outgoing: list = [[] for _ in nodes]
    for (src, label), dst in composed.transitions.items():
        outgoing[ids[flatten(src)]].append((label, ids[flatten(dst)]))
    labels = [tuple(label for label, _ in edges) for edges in outgoing]
    targets = [tuple(dst for _, dst in edges) for edges in outgoing]
    return AttackObserver(attack, order, nodes, labels, targets, ids[flatten(composed.initial)])


def _full_decision(fv, ranks, policy, reference, turn) -> str:
    """The attack decision at the node ``turn``, reached from ``reference``."""
    candidates: list = []
    no_target = None if turn is None else fv.target(turn, ATTACK_NO)
    if no_target is not None:
        candidates.append((ATTACK_NO, no_target))
    yes_target = None if turn is None else fv.target(turn, ATTACK_YES)
    if yes_target is not None:
        candidates.append((ATTACK_YES, yes_target))
    if not candidates:
        where = "a node outside it" if turn is None else fv.state_of(turn)
        raise StrategyError(f"no decision keeps the intruder inside the region at {where}")
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


def full_strategy(fv: AttackObserver, aobs: AttackObserver, policy: str = RANKED) -> MealyStrategy:
    """The strategy over every final-verifier node a decision leads to,
    violating or not: the reference ``synthesize_strategy`` is checked
    against, up to the first violation. Its ranks cover every kept node."""
    attack = aobs.attack
    ranks = rank_ids(fv, attack)
    initial = fv.initial_id
    states = {initial}
    edges: dict = {}

    def add_edges(source: int, event: str, turn: int | None) -> list:
        decision = _full_decision(fv, ranks, policy, source, turn)
        if decision == ATTACK_NO:
            target = fv.target(turn, ATTACK_NO)
            edges[(source, event)] = ((ATTACK_NO, target),)
            return [target]
        pending = fv.target(turn, ATTACK_YES)
        outputs = []
        for result in RESULT_LABELS:
            target = fv.target(pending, result)
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
        for event in sorted(label for label, _ in aobs.kept_targets(state)):
            for target in add_edges(state, event, fv.target(state, event)):
                if target not in states:
                    states.add(target)
                    queue.append(target)
    return MealyStrategy(
        fv, initial, frozenset(states), edges, attack,
        {i: ranks.get(i, INFINITE_RANK) for i in fv.ids}, policy,
    )


def reference_validate(strategy: MealyStrategy, aobs: AttackObserver, attack: AttackSpec) -> StrategyReport:
    """``validate_strategy`` with the violating predicate tested on the
    estimates of the states, not on their masks."""
    if not strategy.ids or not strategy.id_edges:
        raise ValueError("cannot validate an empty strategy")
    edges, state_of = strategy.id_edges, strategy.graph.state_of

    def edge_moves(source: int, event: str, turn: int):
        outputs = dict(edges[source, event])
        if ATTACK_NO in outputs:
            yield (event, ATTACK_NO, None), outputs[ATTACK_NO]
            return
        pending = aobs.target(turn, ATTACK_YES)
        for result in RESULT_LABELS:
            target = outputs.get(ATTACK_YES + result)
            if target is not None or (pending is not None and aobs.target(pending, result) is not None):
                yield (event, ATTACK_YES, result), target

    def moves(state: int):
        for event, turn in sorted(aobs.kept_targets(state)):
            if not edges.get((state, event)):
                yield (event, None, None), None
                return
            yield from edge_moves(state, event, turn)

    initial = strategy.initial_id
    if not edges.get((initial, EPSILON)):
        return StrategyReport(False, None, (), "no initial decision")
    stack: list = [[None, edge_moves(initial, EPSILON, initial), 0]]
    prefix: list = []
    memo: dict = {}
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
            if violation_predicate(state_of(target).estimate, attack):
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


def reference_play(g: Nfa, strategy: MealyStrategy, system_policy, max_rounds: int = 1000) -> PlayTrace:
    """``simulate_play`` with the violating predicate tested on estimates and
    the plant's moves sorted afresh every round."""
    attack = strategy.attack
    edges, ranks, state_of = strategy.id_edges, strategy.id_ranks, strategy.graph.state_of
    rng = random.Random(system_policy.seed) if isinstance(system_policy, RandomSeeded) else None

    def advance(state: int, event: str, true_state) -> tuple:
        outputs = dict(edges.get((state, event), ()))
        if not outputs:
            raise StrategyError(f"strategy has no edge for event {event!r} at {state_of(state)}")
        if ATTACK_NO in outputs:
            return ATTACK_NO, None, outputs[ATTACK_NO]
        result = "1" if true_state in attack.attacked else "0"
        target = outputs.get(ATTACK_YES + result)
        if target is None:
            raise StrategyError(
                f"strategy misses result {result!r} for event {event!r} at {state_of(state)}"
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
    rounds.append(PlayRound(EPSILON, decision, result, state_of(current).estimate, true_state))
    while len(rounds) < max_rounds:
        if violation_predicate(state_of(current).estimate, attack):
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
        rounds.append(PlayRound(event, decision, result, state_of(current).estimate, true_state))
    if violation_predicate(state_of(current).estimate, attack):
        return PlayTrace(tuple(rounds), "violated")
    return PlayTrace(tuple(rounds), "exhausted")
