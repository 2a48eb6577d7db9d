"""The attack-observer game graph: the worklist builder against the paper's
composed construction and the builder with one index over whole node keys,
on fixed and on drawn plants, the builder's memory at huge budgets, the
objects a verdict leaves for the cyclic collector, the phases the ranks
read and the few that synthesis and the initial rank read, the violating
ids a graph keeps per rule, fixture sizes, transition chains, phases, and
the estimate-filtering semantics cross-checked against the direct trace
evaluation."""

import argparse
import gc
import random
import tracemalloc
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from helpers import (
    ATTACK_24,
    ATTACK_2489,
    aob,
    composed_attack_observer,
    random_instance,
    worklist_attack_observer,
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
    oracle_check_enforced,
    oracle_check_violation,
    parse_model,
    parse_spec,
    rank_ids,
    synthesize_strategy,
    witness_labels,
)
from stateattack import cli
from stateattack.reference import violation_predicate
from stateattack.violation import violating_ids

SAMPLES = Path(__file__).parent.parent / "samples"
COLUMNS = ("phase", "count", "tag", "mask", "labels", "succ", "start", "degree")


def assert_matches_reference(plant, attack):
    """The builder's graph equals the composed one, holds one object per
    state, and equals the single-index worklist build id for id. Restricting
    it to all its ids walks them in id order, as the verdicts' full-cover
    shortcut and a second build's strategy lookups rely on."""
    built = build_attack_observer(plant, attack)
    worklist = worklist_attack_observer(plant, attack)
    for column in COLUMNS:
        assert list(getattr(built, column)) == list(getattr(worklist, column)), column
    assert built.ids == list(range(len(worklist.ids)))
    assert built.restrict_ids(built.ids).ids == built.ids
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


def test_every_node_lists_its_labels_in_label_order(instances):
    """The builder emits every node's labels strictly increasing, result-wait
    nodes with both results included, so the witness search, synthesis and
    validation read them as stored."""
    plant = parse_model((SAMPLES / "model.json").read_text())
    samples = [(plant, parse_spec((SAMPLES / spec).read_text(), plant))
               for spec in ("attack-narrow.json", "attack-wide.json", "attack-opacity.json")]
    expobs = (exponential_observer_plant(8), AttackSpec(frozenset({"6"}), 2))
    for g, attack in [*instances, *samples, expobs]:
        aobs = build_attack_observer(g, attack)
        out_of_order = [i for i in aobs.ids if list(aobs.labels[i]) != sorted(set(aobs.labels[i]))]
        assert not out_of_order, [aobs.labels[i] for i in out_of_order[:3]]


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


def test_builder_memory_does_not_grow_with_the_budget():
    """The plays die after two attacks: any budget from 2 up gives the same
    twelve nodes, and the builder allocates nothing per unused count."""
    g = Nfa(["1", "2"], ["a"], [("1", "a", "2")], ["1", "2"])
    tracemalloc.start()
    try:
        aobs = build_attack_observer(g, AttackSpec(frozenset({"1"}), 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(aobs.ids), aobs.n_transitions, max(aobs.count)) == (12, 12, 2)
    assert peak < 1 << 20
    small = build_attack_observer(g, AttackSpec(frozenset({"1"}), 2))
    for column in COLUMNS:
        assert getattr(aobs, column) == getattr(small, column), column


@hs.composite
def plants_with_attacks(draw):
    """Plants of 6 to 8 states and 1 to 3 events, with an attacked set, a
    budget of 0 to 3 and, in opacity mode, a secret set."""
    n = draw(hs.integers(6, 8))
    states = [str(i) for i in range(1, n + 1)]
    events = ["a", "b", "c"][: draw(hs.integers(1, 3))]
    edge = hs.tuples(hs.sampled_from(states), hs.sampled_from(events), hs.sampled_from(states))
    transitions = draw(hs.sets(edge, min_size=n, max_size=2 * n + 3))
    initial = draw(hs.lists(hs.sampled_from(states), min_size=1, max_size=3, unique=True))
    attacked = draw(hs.frozensets(hs.sampled_from(states)))
    budget = draw(hs.integers(0, 3))
    secret = draw(hs.none() | hs.frozensets(hs.sampled_from(states), max_size=n - 1))
    return Nfa(states, events, transitions, initial), AttackSpec(attacked, budget, secret)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(plants_with_attacks())
def test_builder_and_verdicts_match_the_references_on_larger_plants(instance):
    """The builder equals the single-index worklist build id for id, and
    both verdicts equal the brute-force oracles."""
    plant, attack = instance
    built = build_attack_observer(plant, attack)
    worklist = worklist_attack_observer(plant, attack)
    for column in COLUMNS:
        assert list(getattr(built, column)) == list(getattr(worklist, column)), column
    assert check_violation(plant, attack)[0] == oracle_check_violation(plant, attack)
    assert check_enforced(plant, attack)[0] == oracle_check_enforced(plant, attack)


def exponential_observer_plant(n: int) -> Nfa:
    """0 loops on a and b and moves to 1 on a, each i in 1..n-2 moves to
    i+1 on a and b, and n-1 moves to 0 on a: the observer reaches almost
    every subset of the states."""
    states = [str(i) for i in range(n)]
    transitions = [("0", "a", "0"), ("0", "b", "0"), ("0", "a", "1"), (str(n - 1), "a", "0")]
    for i in range(1, n - 1):
        transitions += [(str(i), "a", str(i + 1)), (str(i), "b", str(i + 1))]
    return Nfa(states, ["a", "b"], transitions, ["0"])


def test_verdicts_keep_no_per_node_objects():
    """The graph is held in flat lists: a verdict and its ranks on 18,464
    nodes leave a few dozen objects for the cyclic collector to track, not
    one or two per node."""
    plant, attack = exponential_observer_plant(12), AttackSpec(frozenset({"6"}), 2)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        enforced, fv = check_enforced(plant, attack)
        ranks = rank_ids(fv, attack)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert enforced and len(fv.parent.ids) == 18_464 and ranks
    assert added < 200


class CountingList(list):
    """A list that counts the items read from it, one by one or by iteration."""

    reads = 0

    def __getitem__(self, key):
        self.reads += len(range(*key.indices(len(self)))) if isinstance(key, slice) else 1
        return super().__getitem__(key)

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


def test_ranks_read_only_the_phases_they_reach():
    """On 18,464 nodes, of which 46 can be forced to a violation, the ranks
    read the phase of no more than a quarter of the nodes: the attractor
    reads a node's phase only when it reaches the node, and the violating
    nodes come from the scan the verdict made."""
    plant, attack = exponential_observer_plant(12), AttackSpec(frozenset({"6"}), 2)
    enforced, fv = check_enforced(plant, attack)
    nodes = len(fv.parent.ids)
    expected = rank_ids(fv, attack)
    fv.phase = phase = CountingList(fv.phase)
    assert rank_ids(fv, attack) == expected
    assert enforced and nodes == 18_464 and len(expected) == 46
    assert phase.reads <= nodes // 4


def test_synthesis_and_the_initial_rank_search_only_what_they_read(monkeypatch):
    """The 2-state strategy and the initial rank of ``check-enforced`` read
    the ranks of two nodes, and the on-demand search stops once they are
    known: a few phases and predecessor entries of 18,464 nodes, where the
    complete ranks read 2,081 phases and 2,126 entries."""
    plant, attack = exponential_observer_plant(12), AttackSpec(frozenset({"6"}), 2)
    enforced, fv = check_enforced(plant, attack)
    assert enforced and fv is fv.parent and len(fv.ids) == 18_464
    pstart, psrc = fv.preds
    monkeypatch.setattr(cli, "check_enforced", lambda *args: (True, fv))
    args = argparse.Namespace(strict_paper=False)
    reads = {}
    for reader in ("synthesize", "check-enforced"):
        fv.phase = phase = CountingList(fv.phase)
        fv._preds = pstart, (entries := CountingList(psrc))
        if reader == "synthesize":
            strategy = synthesize_strategy(fv, fv.parent)
        else:
            report = cli._report(reader, plant, attack, args)[0]
        reads[reader] = phase.reads, entries.reads
    assert len(strategy.ids) == 2 and strategy.id_ranks == {0: 1, 1: 0}
    assert report["rank_initial"] == 1 and report["forceable"]
    assert all(phases <= 10 and entries <= 10 for phases, entries in reads.values()), reads


def test_violating_ids_are_scanned_once_per_rule():
    """The full graph scans for each violation rule once and keeps the list; a
    restriction gets the ids of it that it keeps, in id order."""
    plant = exponential_observer_plant(6)
    anonymity = AttackSpec(frozenset({"2"}), 2)
    opacity = AttackSpec(frozenset({"2"}), 2, frozenset({"1", "2", "3"}))
    aobs = build_attack_observer(plant, anonymity)
    for attack in (anonymity, opacity):
        found = violating_ids(aobs, attack)
        assert violating_ids(aobs, attack) is found
        assert found == [
            i for i in aobs.ids
            if aobs.phase[i] == PHASE_SYSTEM and violation_predicate(aobs.state_of(i).estimate, attack)
        ]
    assert len(aobs._violating) == 2
    assert violating_ids(aobs, anonymity) != violating_ids(aobs, opacity)
    # Without the initial decline (node 1) the first move is an attack, and
    # the restricting walk meets the nodes in another order than their ids.
    view = aobs.restrict_ids([i for i in aobs.ids if i != 1])
    assert 0 < len(view.ids) < len(aobs.ids) and view.ids != sorted(view.ids)
    for attack in (anonymity, opacity):
        violating = set(violating_ids(aobs, attack))
        assert violating_ids(view, attack) == sorted(i for i in view.ids if i in violating)
    assert len(aobs._violating) == 2


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
    full = fv.parent
    assert fv.labels is full.labels and fv.succ is full.succ and fv.start is full.start


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
    """The ``psrc`` slice of a target lists each source once per transition
    into it, in source order, and a view reads the full graph's index."""
    verifier = check_violation(plant, attack_24)[1]
    for graph in (aobs_24, verifier):
        full = graph.parent
        expected: dict = {j: [] for j in full.ids}
        for (src, _label), dst in full.transitions.items():
            expected[full.id_of(dst)].append(full.id_of(src))
        assert graph.preds is full.preds
        pstart, psrc = graph.preds
        assert len(pstart) == len(full.ids) + 1 and len(psrc) == len(full.succ)
        assert [psrc[pstart[j]:pstart[j + 1]] for j in full.ids] == [expected[j] for j in full.ids]
    pstart, psrc = aobs_24.preds
    assert any(len(set(psrc[pstart[j]:pstart[j + 1]])) < pstart[j + 1] - pstart[j] for j in aobs_24.ids)


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
        assert filtered_estimate(plant, attack, path) == state.estimate


def test_random_traces_agree_with_observer_walk():
    rng = random.Random(99)
    for _ in range(120):
        plant, attack = random_instance(rng)
        aobs = build_attack_observer(plant, attack)
        labels = []
        used = 0
        for i in range(rng.randint(1, 4)):
            if i > 0:
                labels.append(rng.choice(sorted(plant.events)))
            if used < attack.budget and rng.random() < 0.5:
                labels += ["Y", rng.choice(["0", "1"])]
                used += 1
            else:
                labels.append("N")
        direct = filtered_estimate(plant, attack, labels)
        walked = aobs.run(labels)
        if direct is None:
            assert walked is None
        else:
            assert walked is not None and walked.estimate == direct
