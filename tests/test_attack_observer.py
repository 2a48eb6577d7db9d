"""The attack-observer game graph: the worklist builder against the paper's
composed construction, fixture sizes, transition chains, phases, and
the estimate-filtering semantics cross-checked against the direct trace
evaluation."""

import random
from collections import deque
from pathlib import Path

import pytest

from helpers import (
    ATTACK_24,
    ATTACK_2489,
    aob,
    composed_attack_observer,
    random_instance,
)

from stateattack import (
    AObsState,
    AttackObserver,
    AttackSpec,
    FIRST_VALID,
    GameCounter,
    Nfa,
    PHASE_AWAIT,
    PHASE_DECIDE,
    PHASE_SYSTEM,
    RANKED,
    StateEstimate,
    build_attack_observer,
    check_enforced,
    check_violation,
    compute_ranks,
    filtered_estimate,
    parse_model,
    parse_spec,
    rank_ids,
    synthesize_strategy,
    witness_labels,
)
from stateattack.oracle import AttackRound, AttackTrace

SAMPLES = Path(__file__).parent.parent / "samples"


def assert_matches_reference(plant, attack):
    """The builder's graph equals the composed one and holds one object per
    state."""
    built = build_attack_observer(plant, attack)
    reference = composed_attack_observer(plant, attack)
    assert built.states == reference.states
    assert built.transitions == reference.transitions
    assert built.initial == reference.initial
    held = {state: state for state in built.states}
    assert built.initial is held[built.initial]
    for (src, _label), dst in built.transitions.items():
        assert src is held[src] and dst is held[dst]
    return built


def test_builder_matches_composition_on_corpus(instances):
    for plant, attack in instances:
        assert_matches_reference(plant, attack)


@pytest.mark.parametrize("attack", [ATTACK_24, ATTACK_2489], ids=["24", "2489"])
def test_builder_matches_composition_on_fixtures(plant, attack):
    assert_matches_reference(plant, attack)


@pytest.mark.parametrize("spec", ["attack-narrow.json", "attack-wide.json", "attack-opacity.json"])
def test_builder_matches_composition_on_samples(spec):
    plant = parse_model((SAMPLES / "model.json").read_text())
    assert_matches_reference(plant, parse_spec((SAMPLES / spec).read_text(), plant))


def await_ids(aobs):
    return [i for i in aobs.ids if aobs.phase[i] == PHASE_AWAIT]


def test_builder_budget_zero_never_attacks(plant):
    aobs = assert_matches_reference(plant, AttackSpec(frozenset({"2", "4"}), 0))
    assert not await_ids(aobs)
    assert all(label != "Y" for _src, label in aobs.transitions)


@pytest.mark.parametrize("attacked, result", [(frozenset(), "0"), (None, "1")], ids=["none", "all"])
def test_builder_one_result_when_attack_is_uninformative(plant, attacked, result):
    attack = AttackSpec(plant.states if attacked is None else attacked, 2)
    aobs = assert_matches_reference(plant, attack)
    assert await_ids(aobs)
    assert all([label for label, _j in aobs.kept_targets(i)] == [result] for i in await_ids(aobs))


def test_builder_several_initial_states():
    g = Nfa(["p", "q", "r", "s"], ["a"],
            [("p", "a", "q"), ("q", "a", "r"), ("r", "a", "p"), ("s", "a", "s")],
            ["p", "q", "s"])
    aobs = assert_matches_reference(g, AttackSpec(frozenset({"q"}), 1))
    assert aobs.initial == aob("A", "0", "p,q,s")


def test_builder_dead_end_plant_state():
    g = Nfa(["x", "y", "z"], ["a", "b"], [("x", "a", "y"), ("x", "b", "z"), ("z", "b", "z")], ["x"])
    aobs = assert_matches_reference(g, AttackSpec(frozenset({"y"}), 1))
    assert aob("S", "0N", "y") in aobs.states
    assert aobs.kept_targets(aobs.id_of(aob("S", "0N", "y"))) == []


def test_builder_orders_members_naturally():
    g = Nfa(["1", "2", "10"], ["a"], [("1", "a", "10"), ("1", "a", "2"), ("10", "a", "1")], ["1"])
    aobs = assert_matches_reference(g, AttackSpec(frozenset({"10"}), 1))
    target = aobs.run(["N", "a"])
    assert target.estimate.members == ("2", "10")
    assert aobs.run(["N", "a", "Y", "1"]).estimate.members == ("10",)


def test_builder_masks_wider_than_a_machine_word():
    names = [f"s{i}" for i in range(70)]
    stay = [(name, "a", name) for name in names]
    jump = [(name, "b", names[-1]) for name in names[::2]]
    g = Nfa(names, ["a", "b"], stay + jump, names)
    attacked = frozenset(names[::3])
    aobs = assert_matches_reference(g, AttackSpec(attacked, 1))
    assert aobs.initial.estimate.members == tuple(names)
    assert aobs.run(["Y", "0"]).estimate.members == tuple(n for n in names if n not in attacked)
    assert aobs.run(["N", "b"]).estimate.members == ("s69",)


def test_attack_observer_fixture_34_states(aobs_24):
    assert len(aobs_24.states) == 34
    assert aobs_24.initial == aob("A", "0", "1,10")


def test_attack_observer_fixture_chains(aobs_24):
    assert aobs_24.run(["N"]) == aob("S", "0N", "1,10")
    assert aobs_24.run(["N", "a"]) == aob("A", "0", "2,3")
    assert aobs_24.run(["N", "a", "Y"]) == aob("AY", "0Y", "2,3")
    assert aobs_24.run(["N", "a", "Y", "1"]) == aob("S", "1", "2")
    assert aobs_24.run(["N", "a", "Y", "0"]) == aob("S", "1", "3")


def test_attack_observer_fixture_40_states(aobs_2489):
    assert len(aobs_2489.states) == 40
    assert aob("S", "1", "9") in aobs_2489.states
    assert aobs_2489.run(["N", "d", "Y", "1"]) == aob("S", "1", "9")


def test_attack_observer_fixture_40_state_edges(aobs_2489):
    expected = {
        (aob("AY", "0Y", "6,9"), "1", aob("S", "1", "9")),
        (aob("AY", "0Y", "6,9"), "0", aob("S", "1", "6")),
        (aob("AY", "0Y", "7,8"), "1", aob("S", "1", "8")),
        (aob("AY", "0Y", "7,8"), "0", aob("S", "1", "7")),
        (aob("S", "1", "9"), "b", aob("A", "1", "7")),
        (aob("S", "1", "6"), "b", aob("A", "1", "7,8")),
        (aob("S", "1", "7"), "c", aob("A", "1", "8")),
        (aob("S", "1", "8"), "c", aob("A", "1", "7")),
        (aob("S", "1N", "7"), "c", aob("A", "1", "8")),
        (aob("AY", "0Y", "1,10"), "0", aob("S", "1", "1,10")),
    }
    edges = {(src, label, dst) for (src, label), dst in aobs_2489.transitions.items()}
    assert expected <= edges
    # {1,10} has no attacked member, so result 1 is undefined there
    assert aobs_2489.target(aobs_2489.id_of(aob("AY", "0Y", "1,10")), "1") is None


def test_verdicts_make_no_state_objects_until_asked(plant, attack_2489, monkeypatch):
    made = []
    for cls in (AObsState, GameCounter, StateEstimate):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            made.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    violated, verifier = check_violation(plant, attack_2489)
    enforced, fv = check_enforced(plant, attack_2489)
    assert violated and enforced and witness_labels(verifier, attack_2489)
    assert made == []
    initial = fv.initial
    assert compute_ranks(fv, attack_2489)[initial] == 6  # looked up, not made
    assert made.count("AObsState") == 1
    assert len(fv.states) == 27 and made.count("AObsState") == 27  # once per node
    assert fv.initial is initial is fv.parent.initial
    assert fv.labels is fv.parent.labels and fv.targets is fv.parent.targets


def test_lookups_make_no_state_objects(plant, attack_2489):
    aobs = build_attack_observer(plant, attack_2489)
    i = aobs.id_of(aob("S", "0N", "2,3"))
    assert i is not None
    assert aobs.id_of(aob("S", "0N", "2,99")) is None  # 99 is no plant state
    assert {label for label, _j in aobs.kept_targets(i)} == {"b", "c"}
    assert not any(aobs._objects)
    target = aobs.state_of(aobs.target(i, "b"))  # makes the one object it returns
    assert [made for made in aobs._objects if made is not None] == [target]


def test_names_follow_the_state_objects(instances):
    for plant, attack in instances[:60]:
        aobs = build_attack_observer(plant, attack)
        names = aobs.names(aobs.ids)
        assert not any(aobs._objects)
        assert list(names) == sorted(aobs.ids, key=aobs.state_of)
        assert names == {i: str(aobs.state_of(i)) for i in aobs.ids}


def test_restrictions_keep_each_id_once(instances):
    for plant, attack in instances[:60]:
        for graph in (check_violation(plant, attack)[1], check_enforced(plant, attack)[1]):
            assert len(graph.ids) == len(set(graph.ids)) == len(graph.states)
            assert graph.kept.count(1) == len(graph.ids)


def test_transition_count_follows_the_kept_transitions(instances):
    for plant, attack in instances[:60]:
        verifier = check_violation(plant, attack)[1]
        for graph in (verifier.parent, verifier, check_enforced(plant, attack)[1]):
            counts = len(graph.states), len(graph.transitions)
            assert graph.n_transitions == counts[1]
            assert repr(graph) == "AttackObserver(states={}, transitions={})".format(*counts)


def test_degree_counts_the_kept_transitions(instances):
    """On the full graph, the verifier and the final verifier in both
    pruning modes."""
    for plant, attack in instances:
        verifier = check_violation(plant, attack)[1]
        finals = [check_enforced(plant, attack, strict)[1] for strict in (False, True)]
        for graph in (verifier.parent, verifier, *finals):
            lengths = [len(graph.kept_targets(i)) for i in graph.ids]
            assert [graph.degree[i] for i in graph.ids] == lengths
            assert len(graph.degree) == len(graph.kept)
            assert not any(d for d, kept in zip(graph.degree, graph.kept) if not kept)
            assert graph.n_transitions == sum(lengths)


def test_fixpoints_list_no_kept_transitions(instances, monkeypatch):
    """The verdicts and the ranks seed their counters from ``degree``;
    synthesis lists the transitions of each strategy state it expands, at
    most once."""
    calls = []
    kept_targets = AttackObserver.kept_targets

    def counting(self, i):
        calls.append(i)
        return kept_targets(self, i)

    monkeypatch.setattr(AttackObserver, "kept_targets", counting)
    for plant, attack in instances:
        check_violation(plant, attack)
        for strict in (False, True):
            enforced, fv = check_enforced(plant, attack, strict)
            if enforced:
                rank_ids(fv, attack)
            assert calls == []
            if enforced:
                for policy in (RANKED, FIRST_VALID):
                    strategy = synthesize_strategy(fv, fv.parent, policy)
                    assert len(calls) == len(set(calls)) <= len(strategy.ids)
                    assert set(calls) <= strategy.ids
                    calls.clear()


def test_preds_invert_the_targets(plant, aobs_24, attack_24):
    """``preds`` lists each source once per transition into a target, in
    source order, and a view reads the full graph's lists."""
    verifier = check_violation(plant, attack_24)[1]
    for graph in (aobs_24, verifier):
        full = graph.parent
        expected: dict = {j: [] for j in full.ids}
        for (src, _label), dst in full.transitions.items():
            expected[full.id_of(dst)].append(full.id_of(src))
        assert graph.preds == [expected[j] for j in full.ids]
    assert any(len(sources) > len(set(sources)) for sources in aobs_24.preds)


def test_enabled_fixture(aobs_24):
    i = aobs_24.id_of
    assert {label for label, _j in aobs_24.kept_targets(i(aob("S", "0N", "1,10")))} == {"a", "d"}
    # {1,10} misses the attacked set entirely, so only result 0 is possible
    pending = i(aob("AY", "0Y", "1,10"))
    assert aobs_24.kept_targets(pending) == [("0", i(aob("S", "1", "1,10")))]
    assert i(aob("S", "1N", "1")) is None  # no node of the graph


def test_enabled_deadlocked_estimate():
    g = Nfa(["x"], ["a"], [], ["x"])
    aobs = build_attack_observer(g, AttackSpec(frozenset(), 0))
    assert aobs.kept_targets(aobs.id_of(aob("S", "0N", "x"))) == []


def test_build_propagates_attack_validation_errors(plant):
    with pytest.raises(ValueError):
        build_attack_observer(plant, AttackSpec(frozenset({"99"}), 1))
    with pytest.raises(ValueError):
        build_attack_observer(plant, AttackSpec(frozenset(), 1, plant.states))


@pytest.mark.parametrize("index", range(0, 40, 7))
def test_phase_determines_outgoing_labels(index, instances):
    plant, attack = instances[index]
    aobs = build_attack_observer(plant, attack)
    for i in aobs.ids:
        labels = {label for label, _j in aobs.kept_targets(i)}
        if aobs.phase[i] == PHASE_DECIDE:
            assert labels <= {"Y", "N"}
        elif aobs.phase[i] == PHASE_AWAIT:
            assert labels <= {"0", "1"} and labels
        else:
            assert labels <= plant.events


@pytest.mark.parametrize("index", range(0, 40, 7))
def test_budget_bookkeeping_and_state_bound(index, instances):
    plant, attack = instances[index]
    aobs = build_attack_observer(plant, attack)
    assert len(aobs.states) <= (4 * attack.budget + 2) * 2 ** len(plant.states)
    for (src, label), dst in aobs.transitions.items():
        if label == "Y":
            assert src.counter.tag == "" and src.counter.count < attack.budget
            assert dst.counter.count == src.counter.count and dst.counter.tag == "Y"
        elif label in ("0", "1"):
            assert dst.counter.count == src.counter.count + 1


def test_result_transitions_filter_estimates(aobs_24, plant):
    attacked = frozenset({"2", "4"})
    for (src, label), dst in aobs_24.transitions.items():
        if label == "1":
            assert frozenset(dst.estimate) == frozenset(src.estimate) & attacked
        elif label == "0":
            assert frozenset(dst.estimate) == frozenset(src.estimate) - attacked
        elif label in ("Y", "N"):
            assert dst.estimate == src.estimate


def witness_paths(aobs):
    """One shortest label path per reachable state."""
    paths = {aobs.initial_id: []}
    frontier = deque([aobs.initial_id])
    while frontier:
        i = frontier.popleft()
        for label, j in sorted(aobs.kept_targets(i)):
            if j not in paths:
                paths[j] = paths[i] + [label]
                frontier.append(j)
    return {aobs.state_of(i): path for i, path in paths.items()}


@pytest.mark.parametrize("index", range(0, 60, 6))
def test_estimates_match_direct_trace_evaluation(index, instances):
    plant, attack = instances[index]
    aobs = build_attack_observer(plant, attack)
    for state, path in witness_paths(aobs).items():
        if state.phase != PHASE_SYSTEM:
            continue
        trace = AttackTrace.from_labels(path, plant.events)
        assert filtered_estimate(plant, attack, trace) == state.estimate


def test_random_traces_agree_with_observer_walk():
    rng = random.Random(99)
    for _ in range(120):
        plant, attack = random_instance(rng)
        aobs = build_attack_observer(plant, attack)
        rounds = []
        labels = []
        used = 0
        for i in range(rng.randint(1, 4)):
            event = "ε" if i == 0 else rng.choice(sorted(plant.events))
            if used < attack.budget and rng.random() < 0.5:
                decision, result = "Y", rng.choice(["0", "1"])
                used += 1
            else:
                decision, result = "N", "ε"
            rounds.append(AttackRound(event, decision, result))
            if i > 0:
                labels.append(event)
            labels.append(decision)
            if decision == "Y":
                labels.append(result)
        trace = AttackTrace(tuple(rounds))
        direct = filtered_estimate(plant, attack, trace)
        walked = aobs.run(labels)
        if direct is None:
            assert walked is None
        else:
            assert walked is not None and walked.estimate == direct
