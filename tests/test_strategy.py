"""Strategy layer: progress ranks, synthesis under both choice policies,
exhaustive play-tree validation, and play simulation."""

import math
from pathlib import Path

import pytest

from helpers import aob, chain_instance, full_strategy, reference_play, reference_validate

from stateattack import (
    Adversarial,
    AttackSpec,
    MealyStrategy,
    Nfa,
    RandomSeeded,
    StrategyError,
    check_enforced,
    check_violation,
    compute_ranks,
    final_verifier,
    parse_model,
    parse_spec,
    rank_ids,
    serialize_strategy,
    simulate_play,
    synthesize_strategy,
    validate_strategy,
)
from stateattack.aobs import AObsState
from stateattack.attackmodel import EPSILON, PHASE_DECIDE, PHASE_SYSTEM
from stateattack.violation import violation_predicate


@pytest.fixture(scope="module")
def fv_2489(plant, attack_2489):
    return check_enforced(plant, attack_2489)[1]


@pytest.fixture(scope="module")
def ranked_2489(fv_2489, aobs_2489):
    return synthesize_strategy(fv_2489, aobs_2489, "ranked")


# --- ranks -------------------------------------------------------------------


def test_ranks_zero_exactly_at_violating_states(fv_2489, attack_2489):
    ranks = compute_ranks(fv_2489, attack_2489)
    for state, value in ranks.items():
        if len(state.estimate) == 1 and state.phase == "S":
            assert value == 0
        else:
            assert value > 0


def test_ranks_fixture_values(fv_2489, attack_2489):
    ranks = compute_ranks(fv_2489, attack_2489)
    assert ranks[aob("A", "0", "4,5")] == 2  # attack, then the worse result
    assert ranks[aob("AY", "0Y", "4,5")] == 1
    assert ranks[aob("S", "0N", "2,3")] == 3
    assert ranks[aob("S", "0N", "1,10")] == 5
    assert ranks[aob("A", "0", "1,10")] == 6


def test_ranks_infinite_on_cycle_without_exit(plant, attack_24, aobs_24):
    loop = {
        aob("A", "0", "1,10"), aob("S", "0N", "1,10"),
        aob("A", "0", "2,3"), aob("S", "0N", "2,3"),
        aob("A", "0", "4,5"), aob("S", "0N", "4,5"),
    }
    sub = aobs_24.restrict_ids([aobs_24.id_of(state) for state in loop])
    assert sub.states == frozenset(loop)
    ranks = compute_ranks(sub, attack_24)
    assert all(math.isinf(value) for value in ranks.values())


def value_iteration_ranks(fv, attack) -> dict:
    """Reference ranks by plain value iteration over the kept transitions:
    0 at violating system-move states, 1 + min at decision states, 1 + max
    elsewhere, and infinite where no value is ever resolved."""
    def violating(i):
        state = fv.state_of(i)
        return state.phase == PHASE_SYSTEM and violation_predicate(state.estimate, attack)

    ranks = {i: 0 if violating(i) else math.inf for i in fv.ids}
    changed = True
    while changed:
        changed = False
        for i in fv.ids:
            successors = [ranks[j] for _label, j in fv.kept_targets(i)]
            if violating(i) or not successors:
                continue
            best = min if fv.phase[i] == PHASE_DECIDE else max
            value = 1 + best(successors)
            if value < ranks[i]:
                ranks[i] = value
                changed = True
    return {fv.state_of(i): rank for i, rank in ranks.items()}


def test_ranks_match_value_iteration(fv_2489, attack_2489, instances):
    cases = [(fv_2489, attack_2489)]
    for plant, attack in instances[:80]:
        enforced, fv = check_enforced(plant, attack)
        if enforced:
            cases.append((fv, attack))
    assert len(cases) > 20
    for fv, attack in cases:
        assert compute_ranks(fv, attack) == value_iteration_ranks(fv, attack)


@pytest.mark.parametrize("strict_paper", [False, True])
def test_ranks_view_equals_the_eager_dict(instances, strict_paper):
    for plant, attack in instances:
        fv = check_enforced(plant, attack, strict_paper)[1]
        by_id = rank_ids(fv, attack)
        eager = {fv.state_of(i): by_id.get(i, math.inf) for i in fv.ids}
        ranks = compute_ranks(fv, attack)
        assert dict(ranks) == eager
        assert ranks == eager and len(ranks) == len(eager)


def test_ranks_view_holds_only_kept_states(fv_2489, attack_2489):
    ranks = compute_ranks(fv_2489, attack_2489)
    full = fv_2489.parent
    outside = next(full.state_of(i) for i in full.ids if not fv_2489.kept[i])
    assert len(ranks) == len(fv_2489.ids) == 27 < len(full.ids)
    for key in (outside, None, "x"):
        assert key not in ranks
        assert ranks.get(key) is None and ranks.get(key, -1) == -1
        with pytest.raises(KeyError):
            ranks[key]
    assert fv_2489.initial in ranks and ranks.get(fv_2489.initial) == 6


# --- synthesis ---------------------------------------------------------------

EXPECTED_RANKED_EDGES = {
    ("(A,0,{1,10})", "ε", "N", "(S,0N,{1,10})"),
    ("(S,0N,{1,10})", "a", "N", "(S,0N,{2,3})"),
    ("(S,0N,{1,10})", "d", "N", "(S,0N,{6,9})"),
    ("(S,0N,{2,3})", "b", "Y0", "(S,1,{5})"),
    ("(S,0N,{2,3})", "b", "Y1", "(S,1,{4})"),
    ("(S,0N,{2,3})", "c", "Y0", "(S,1,{5})"),
    ("(S,0N,{2,3})", "c", "Y1", "(S,1,{4})"),
    ("(S,0N,{6,9})", "b", "Y0", "(S,1,{7})"),
    ("(S,0N,{6,9})", "b", "Y1", "(S,1,{8})"),
    ("(S,1,{4})", "c", "N", "(S,1N,{5})"),
    ("(S,1,{5})", "c", "N", "(S,1N,{4})"),
    ("(S,1,{7})", "c", "N", "(S,1N,{8})"),
    ("(S,1,{8})", "c", "N", "(S,1N,{7})"),
    ("(S,1N,{4})", "c", "N", "(S,1N,{5})"),
    ("(S,1N,{5})", "c", "N", "(S,1N,{4})"),
    ("(S,1N,{7})", "c", "N", "(S,1N,{8})"),
    ("(S,1N,{8})", "c", "N", "(S,1N,{7})"),
}


def rows_before_violation(rows: set, initial: str) -> tuple:
    """(states, rows) a play meets from ``initial`` up to its first violating
    state, a system-move state with a singleton estimate: the states reached,
    and the rows leaving a state that is not violating."""
    def violating(state: str) -> bool:
        return state.startswith("(S,") and "," not in state[state.index("{"):]

    states, expanded = {initial}, [initial]
    for source in expanded:  # grows while it is walked
        for src, _event, _output, dst in sorted(rows):
            if src == source and dst not in states:
                states.add(dst)
                if not violating(dst):
                    expanded.append(dst)
    return states, {row for row in rows if row[0] in expanded}


def test_ranked_strategy_edges_fixture(ranked_2489):
    # EXPECTED_RANKED_EDGES is the strategy walked past every violation;
    # synthesis stops at the first one.
    states, expected = rows_before_violation(EXPECTED_RANKED_EDGES, "(A,0,{1,10})")
    assert len(expected) == 9
    names = ranked_2489.names()
    rows = {
        (names[src], event, output, names[dst])
        for src, event, output, dst in ranked_2489.id_edge_list(names)
    }
    assert rows == expected
    assert {str(state) for state in ranked_2489.states} == states
    assert len(ranked_2489.states) == 8


def before_violation(strategy: MealyStrategy, attack: AttackSpec) -> dict:
    """The edges of ``strategy`` whose source a play reaches from the
    initial state without passing a violating state."""
    state_of = strategy.graph.state_of
    expanded = [strategy.initial_id]
    for state in expanded:  # grows while it is walked
        for (src, _event), outputs in strategy.id_edges.items():
            if src != state:
                continue
            for _output, dst in outputs:
                if dst not in expanded and not violation_predicate(state_of(dst).estimate, attack):
                    expanded.append(dst)
    return {key: outputs for key, outputs in strategy.id_edges.items() if key[0] in expanded}


def plays(plant, strategy, simulate=simulate_play, max_rounds=60) -> list:
    """The plays under seeds 0-2 and the adversarial system, or the error
    that ended one."""
    out = []
    for policy in [RandomSeeded(seed) for seed in range(3)] + [Adversarial()]:
        try:
            out.append(simulate(plant, strategy, policy, max_rounds))
        except StrategyError as exc:
            out.append(str(exc))
    return out


def test_synthesis_equals_the_full_walk_up_to_the_first_violation(instances):
    compared = 0
    for plant, attack in instances:
        for strict in (False, True):
            enforced, fv = check_enforced(plant, attack, strict)
            if not enforced:
                continue
            for policy in ("ranked", "first-valid"):
                strategy = synthesize_strategy(fv, fv.parent, policy)
                full = full_strategy(fv, fv.parent, policy)
                assert strategy.id_edges == before_violation(full, attack)
                assert strategy.initial_id == full.initial_id
                assert strategy.id_ranks == {i: full.id_ranks[i] for i in strategy.ids}
                assert (validate_strategy(strategy, fv.parent, attack)
                        == validate_strategy(full, fv.parent, attack))
                assert plays(plant, strategy) == plays(plant, full)
                compared += 1
    assert compared > 400


def test_synthesis_makes_objects_only_for_strategy_states(plant, attack_2489, monkeypatch):
    made = []

    def counting(self, *args, _init=AObsState.__init__, **kwargs):
        made.append(self)
        _init(self, *args, **kwargs)

    monkeypatch.setattr(AObsState, "__init__", counting)
    for g, attack, size in ((plant, attack_2489, 8), (*chain_instance(1200), 1203)):
        made.clear()
        _, fv = check_enforced(g, attack)
        strategy = synthesize_strategy(fv, fv.parent)
        assert validate_strategy(strategy, fv.parent, attack).sound
        assert made == []
        plays(g, strategy, max_rounds=len(fv.ids) + 1)
        serialize_strategy(strategy)
        assert len(made) <= len(strategy.ids) == size
        assert set(made) <= strategy.states
        assert set(strategy.id_ranks) == strategy.ids


def test_validation_and_plays_equal_the_state_keyed_reference(instances):
    compared = 0
    for plant, attack in instances:
        for strict in (False, True):
            enforced, fv = check_enforced(plant, attack, strict)
            if not enforced:
                continue
            for policy in ("ranked", "first-valid"):
                strategy = synthesize_strategy(fv, fv.parent, policy)
                names = strategy.names()
                assert list(names) == sorted(strategy.ids, key=fv.state_of)
                assert names == {i: str(fv.state_of(i)) for i in strategy.ids}
                assert (validate_strategy(strategy, fv.parent, attack)
                        == reference_validate(strategy, fv.parent, attack))
                assert plays(plant, strategy) == plays(plant, strategy, reference_play)
                compared += 1
    assert compared > 400


def test_deep_chain_validation_and_plays_equal_the_state_keyed_reference():
    g, attack = chain_instance(1200)
    _, fv = check_enforced(g, attack)
    strategy = synthesize_strategy(fv, fv.parent)
    report = validate_strategy(strategy, fv.parent, attack)
    assert (report.sound, report.max_rounds) == (True, 1201)
    assert report == reference_validate(strategy, fv.parent, attack)
    assert plays(g, strategy, max_rounds=1201) == plays(g, strategy, reference_play, 1201)


def test_strategy_decision_and_successor_lookup(ranked_2489):
    i, edges = ranked_2489.graph.id_of, ranked_2489.id_edges
    outputs = dict(edges[i(aob("S", "0N", "2,3")), "b"])
    assert outputs == {"Y0": i(aob("S", "1", "5")), "Y1": i(aob("S", "1", "4"))}
    assert edges[i(aob("S", "0N", "1,10")), "a"] == (("N", i(aob("S", "0N", "2,3"))),)


def test_every_edge_is_a_final_verifier_path(ranked_2489, fv_2489):
    for src, event, output, dst in ranked_2489.id_edge_list(ranked_2489.names()):
        base = src if event == EPSILON else fv_2489.target(src, event)
        assert base is not None
        if output == "N":
            assert fv_2489.target(base, "N") == dst
        else:
            pending = fv_2489.target(base, "Y")
            assert fv_2489.target(pending, output[1]) == dst


def test_strategy_edge_shape_invariants(ranked_2489, instances):
    strategies = [ranked_2489]
    for plant, attack in instances[:25]:
        enforced, fv = check_enforced(plant, attack)
        if enforced:
            strategies.append(synthesize_strategy(fv, fv.parent))
    for strategy in strategies:
        for (src, event), outputs in strategy.id_edges.items():
            if event == EPSILON:
                assert src == strategy.initial_id
            kinds = [output[0] for output, _ in outputs]
            if kinds[0] == "N":
                assert kinds == ["N"]
            else:
                assert set(kinds) == {"Y"} and 1 <= len(outputs) <= 2
                assert len({output for output, _ in outputs}) == len(outputs)


def test_single_state_plant_budget_zero_strategy():
    g = Nfa(["x"], ["a"], [], ["x"])
    attack = AttackSpec(frozenset(), 0)
    enforced, fv = check_enforced(g, attack)
    assert enforced
    aobs = fv.parent
    strategy = synthesize_strategy(fv, aobs)
    assert strategy.n_edges == 1
    [(src, event, output, dst)] = strategy.id_edge_list(strategy.names())
    assert (event, output) == (EPSILON, "N")
    assert len(fv.state_of(dst).estimate) == 1


def test_synthesize_rejects_empty_final_verifier(plant, attack_24):
    _, verifier = check_violation(plant, attack_24)
    fv = final_verifier(verifier, verifier.parent)
    with pytest.raises(ValueError):
        synthesize_strategy(fv, verifier.parent)


def test_synthesis_from_an_unpruned_verifier_reports_the_escape(instances):
    # A verifier still holds states the system can leave, so some walks meet
    # an event that leads out of it.
    escapes = 0
    for plant, attack in instances:
        violated, verifier = check_violation(plant, attack)
        if violated:
            try:
                synthesize_strategy(verifier, verifier.parent)
            except StrategyError:
                escapes += 1
    assert escapes > 0


def test_synthesize_rejects_unknown_policy(fv_2489, aobs_2489):
    with pytest.raises(ValueError):
        synthesize_strategy(fv_2489, aobs_2489, "greedy")


# --- validation --------------------------------------------------------------


def test_ranked_strategy_is_sound(ranked_2489, aobs_2489, attack_2489):
    report = validate_strategy(ranked_2489, aobs_2489, attack_2489)
    assert report.sound
    assert report.counterexample is None
    assert report.max_rounds == 3


def test_validation_of_deep_play_tree():
    # Two 1,200-state chains told apart only at their ends: every play is
    # 1,201 rounds deep, far beyond Python's recursion limit.
    length = 1200
    xs = [f"x{i}" for i in range(length)]
    ys = [f"y{i}" for i in range(length)]
    transitions = [(chain[i], "a", chain[i + 1]) for chain in (xs, ys) for i in range(length - 1)]
    transitions += [(xs[-1], "b", xs[-1]), (ys[-1], "c", ys[-1])]
    g = Nfa(xs + ys, ["a", "b", "c"], transitions, [xs[0], ys[0]])
    attack = AttackSpec(frozenset(), 0)
    enforced, fv = check_enforced(g, attack)
    assert enforced
    strategy = synthesize_strategy(fv, fv.parent)
    report = validate_strategy(strategy, fv.parent, attack)
    assert report.sound
    assert report.max_rounds == 1201


def test_first_valid_strategy_loops_forever(fv_2489, aobs_2489, attack_2489):
    lazy = synthesize_strategy(fv_2489, aobs_2489, "first-valid")
    report = validate_strategy(lazy, aobs_2489, attack_2489)
    assert not report.sound
    assert report.reason == "non-terminating play"
    assert report.counterexample is not None
    assert report.counterexample[-1][0] == "c"  # stuck circling the pair


def test_tampered_strategy_detected(ranked_2489, fv_2489, aobs_2489, attack_2489):
    # rewire b at {2,3} to decline forever into the {4,5} cycle
    source = aobs_2489.id_of(aob("S", "0N", "2,3"))
    hold = aobs_2489.id_of(aob("S", "0N", "4,5"))
    edges = dict(ranked_2489.id_edges)
    edges[(source, "b")] = (("N", hold),)
    edges[(hold, "c")] = (("N", hold),)
    tampered = MealyStrategy(
        ranked_2489.graph,
        ranked_2489.initial_id,
        ranked_2489.ids | {hold},
        edges,
        ranked_2489.attack,
        ranked_2489.id_ranks,
        ranked_2489.policy,
    )
    report = validate_strategy(tampered, aobs_2489, attack_2489)
    assert not report.sound
    assert report.reason == "non-terminating play"


def test_validation_rejects_empty_strategy(aobs_2489, attack_2489):
    empty = MealyStrategy(aobs_2489, aobs_2489.initial_id, frozenset(), {}, attack_2489)
    with pytest.raises(ValueError):
        validate_strategy(empty, aobs_2489, attack_2489)


def test_validation_follows_every_defined_attack_result():
    # Under the strict reading the result-wait state after d keeps only the
    # branch of result 1 in the final verifier, so the strategy lists no
    # output for result 0, which the system can still give.
    samples = Path(__file__).parent.parent / "samples"
    plant = parse_model((samples / "model.json").read_text())
    attack = parse_spec((samples / "attack-wide.json").read_text(), plant)
    _, fv = check_enforced(plant, attack, strict_paper=True)
    strategy = synthesize_strategy(fv, fv.parent)
    report = validate_strategy(strategy, fv.parent, attack)
    assert not report.sound
    assert report.counterexample == (("ε", "N", None), ("d", "Y", "0"))
    assert report.reason == "no edge for attack result"

def test_play_tree_budget_and_disclosure(ranked_2489, aobs_2489, attack_2489):
    budget = attack_2489.budget
    edges, state_of = ranked_2489.id_edges, ranked_2489.graph.state_of
    stack = [(target, 1 if output[0] == "Y" else 0)
             for output, target in edges[ranked_2489.initial_id, EPSILON]]
    seen = set()
    while stack:
        state, used = stack.pop()
        assert used <= budget
        if len(state_of(state).estimate) == 1:
            continue  # violation reached; play over
        if (state, used) in seen:
            continue
        seen.add((state, used))
        for event, _turn in sorted(aobs_2489.kept_targets(state)):
            outputs = edges.get((state, event))
            assert outputs, f"missing edge at {state_of(state)} for {event}"
            for output, target in outputs:
                stack.append((target, used + (1 if output[0] == "Y" else 0)))


# --- simulation --------------------------------------------------------------


def test_seeded_plays_disclose_the_true_state(plant, ranked_2489, attack_2489):
    bound = ranked_2489.id_ranks[ranked_2489.initial_id]
    for seed in range(30):
        trace = simulate_play(plant, ranked_2489, RandomSeeded(seed), 50)
        assert trace.outcome == "violated"
        assert len(trace.rounds) <= bound
        assert tuple(trace.final_estimate) == (trace.final_true_state,)


def test_adversarial_play_terminates_within_rank(plant, ranked_2489):
    bound = ranked_2489.id_ranks[ranked_2489.initial_id]
    trace = simulate_play(plant, ranked_2489, Adversarial(), 50)
    assert trace.outcome == "violated"
    assert len(trace.rounds) <= bound


def test_known_initial_state_violates_at_round_zero():
    g = Nfa(["1", "2"], ["a"], [("1", "a", "2"), ("2", "a", "1")], ["1"])
    attack = AttackSpec(frozenset(), 0)
    enforced, fv = check_enforced(g, attack)
    assert enforced
    strategy = synthesize_strategy(fv, fv.parent)
    trace = simulate_play(g, strategy, RandomSeeded(3), 10)
    assert trace.outcome == "violated"
    assert len(trace.rounds) == 1
    assert trace.rounds[0].event == EPSILON


def test_play_stalls_where_the_true_state_has_no_moves():
    g = Nfa(["1", "2"], ["a"], [("1", "a", "1")], ["1", "2"])
    attack = AttackSpec(frozenset(), 0)
    enforced, fv = check_enforced(g, attack)
    strategy = synthesize_strategy(fv, fv.parent)
    assert enforced and validate_strategy(strategy, fv.parent, attack).sound
    trace = simulate_play(g, strategy, RandomSeeded(0), 10)
    assert trace.outcome == "stalled"
    assert [rnd.true_state for rnd in trace.rounds] == ["2"]  # 2 has no move


def test_simulation_reports_missing_edge(plant, ranked_2489):
    edges = dict(ranked_2489.id_edges)
    del edges[(ranked_2489.graph.id_of(aob("S", "0N", "1,10")), "d")]
    broken = MealyStrategy(
        ranked_2489.graph,
        ranked_2489.initial_id,
        ranked_2489.ids,
        edges,
        ranked_2489.attack,
        ranked_2489.id_ranks,
        ranked_2489.policy,
    )
    with pytest.raises(StrategyError):
        simulate_play(plant, broken, Adversarial(), 20)


@pytest.mark.parametrize("max_rounds", [0, -3])
def test_simulation_needs_a_round(plant, ranked_2489, max_rounds):
    with pytest.raises(ValueError, match="max_rounds must be at least 1"):
        simulate_play(plant, ranked_2489, Adversarial(), max_rounds)
