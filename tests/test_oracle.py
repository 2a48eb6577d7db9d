"""Direct-on-the-plant brute force: trace filtering, the trace-level
violating-sequence predicate, and the two bounded searches, cross-checked
against the observer pipeline."""

import random

import pytest

from helpers import est, random_instance, ten_state_plant

from stateattack import (
    AttackSpec,
    EPSILON,
    Nfa,
    build_attack_observer,
    check_violation,
    filtered_estimate,
    is_violating_attack_sequence,
    oracle_check_enforced,
    oracle_check_violation,
)
from stateattack.oracle import AttackRound, AttackTrace


def trace_of(*rounds) -> AttackTrace:
    return AttackTrace(tuple(AttackRound(*r) for r in rounds))


# --- traces ------------------------------------------------------------------


def test_round_validation():
    with pytest.raises(ValueError):
        AttackRound("a", "N", "0")  # a declined attack has no result
    with pytest.raises(ValueError):
        AttackRound("a", "Y", EPSILON)
    with pytest.raises(ValueError):
        AttackRound("a", "X", EPSILON)


def test_trace_validation():
    with pytest.raises(ValueError):
        trace_of(("a", "N", EPSILON))  # first round observes nothing
    with pytest.raises(ValueError):
        trace_of((EPSILON, "N", EPSILON), (EPSILON, "N", EPSILON))


def test_trace_from_labels():
    trace = AttackTrace.from_labels(["N", "a", "Y", "1", "b", "N"], {"a", "b"})
    assert trace.rounds == trace_of(
        (EPSILON, "N", EPSILON), ("a", "Y", "1"), ("b", "N", EPSILON)
    ).rounds
    assert trace.attacks == 1
    with pytest.raises(ValueError):
        AttackTrace.from_labels(["N", "Y", "0"], {"a"})  # two decisions in a row
    with pytest.raises(ValueError):
        AttackTrace.from_labels(["N", "a", "Y"], {"a"})  # dangling attack


@pytest.mark.parametrize("labels", [["x"], ["N", "a", "x"], ["N", "a", "1"]])
def test_trace_from_labels_rejects_unexpected_labels(labels):
    with pytest.raises(ValueError, match="unexpected label"):
        AttackTrace.from_labels(labels, {"a"})


# --- estimate filtering ------------------------------------------------------


def test_filtered_estimate_fixture_trace():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 1)
    trace = trace_of((EPSILON, "N", EPSILON), ("a", "Y", "1"))
    assert filtered_estimate(g, attack, trace) == est("2")


def test_filtered_estimate_uninformative_round():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 1)
    assert filtered_estimate(g, attack, trace_of((EPSILON, "N", EPSILON))) == est("1,10")


def test_filtered_estimate_undefined_when_emptied():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 1)
    # result 1 is impossible at {1,10}
    assert filtered_estimate(g, attack, trace_of((EPSILON, "Y", "1"))) is None


def test_filtered_estimate_enforces_budget():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 0)
    with pytest.raises(ValueError):
        filtered_estimate(g, attack, trace_of((EPSILON, "Y", "0")))


# --- the trace-level predicate -----------------------------------------------


def test_violating_sequence_fixture():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 1)
    assert is_violating_attack_sequence(g, attack, ["a"], ["N", "Y"])
    assert not is_violating_attack_sequence(g, attack, [], ["N"])


def test_violating_sequence_validates_shape():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 1)
    with pytest.raises(ValueError):
        is_violating_attack_sequence(g, attack, ["a"], ["N"])
    with pytest.raises(ValueError):
        is_violating_attack_sequence(g, attack, ["a"], ["Y", "Y"])


@pytest.mark.parametrize("looping_initial,violating", [(False, True), (True, False)])
def test_violating_sequence_on_a_trace_deeper_than_the_recursion_limit(looping_initial, violating):
    """A 1,500-state chain read along its 1,499 events: the estimate ends as
    the last state alone, unless a second initial state loops beside it."""
    states = [str(i) for i in range(1500)]
    transitions = [(states[i], "a", states[i + 1]) for i in range(1499)]
    initial = ["0"]
    if looping_initial:
        states.append("loop")
        transitions.append(("loop", "a", "loop"))
        initial.append("loop")
    g = Nfa(states, ["a"], transitions, initial)
    attack = AttackSpec(frozenset(), 0)
    assert is_violating_attack_sequence(g, attack, ["a"] * 1499, ["N"] * 1500) is violating


def aobs_path_oracle(plant, attack, s, r_a):
    """Literal reading evaluated by walking the attack observer: some
    realizable prefix of results such that all defined final results land on
    a violating estimate."""
    aobs = build_attack_observer(plant, attack)

    def final_labels(decision):
        if decision == "N":
            return [["N"]]
        return [["Y", "0"], ["Y", "1"]]

    def prefixes(i, state):
        """Phase-A nodes reachable right before decision round i+1, over all
        realizable result choices for the intermediate rounds."""
        if i == len(s):
            yield state
            return
        options = [["N"]] if r_a[i] == "N" else [["Y", "0"], ["Y", "1"]]
        for choice in options:
            labels = choice + [s[i]]
            nxt = state
            for label in labels:
                nxt = aobs.target(nxt, label) if nxt is not None else None
            if nxt is not None:
                yield from prefixes(i + 1, nxt)

    for state in prefixes(0, aobs.initial_id):
        settled = []
        for labels in final_labels(r_a[len(s)]):
            nxt = state
            for label in labels:
                nxt = aobs.target(nxt, label) if nxt is not None else None
            if nxt is not None:
                estimate = aobs.state_of(nxt).estimate
                settled.append(len(estimate) == 1 if attack.secret is None
                               else frozenset(estimate) <= attack.secret)
        if settled and all(settled):
            return True
    return False


def test_violating_sequence_matches_observer_walk():
    rng = random.Random(4242)
    for _ in range(80):
        plant, attack = random_instance(rng)
        k = rng.randint(0, 2)
        s = [rng.choice(sorted(plant.events)) for _ in range(k)]
        while True:
            r_a = [rng.choice("YN") for _ in range(k + 1)]
            if sum(1 for d in r_a if d == "Y") <= attack.budget:
                break
        assert is_violating_attack_sequence(plant, attack, s, r_a) == aobs_path_oracle(
            plant, attack, s, r_a
        ), (plant.transitions, attack, s, r_a)


def test_literal_predicate_diverges_from_all_results_search():
    # An intermediate attack whose 0-branch is a dead end: the literal
    # trace-level predicate holds (pick result 1), while both the pipeline
    # and the all-results search reject.
    g = Nfa(
        ["u", "v", "w", "z", "t"],
        ["e"],
        [("u", "e", "t"), ("v", "e", "v"), ("w", "e", "w"), ("z", "e", "z"), ("t", "e", "t")],
        ["u", "v", "w", "z"],
    )
    attack = AttackSpec(frozenset({"u", "v"}), 2)
    assert is_violating_attack_sequence(g, attack, ["e"], ["Y", "Y"])
    verdict, verifier = check_violation(g, attack)
    assert not verdict
    assert not oracle_check_violation(g, attack, len(verifier.parent.states))


# --- bounded searches --------------------------------------------------------


def test_oracle_violation_fixture_verdicts():
    g = ten_state_plant()
    a24 = AttackSpec(frozenset({"2", "4"}), 1)
    horizon = len(build_attack_observer(g, a24).states)
    assert oracle_check_violation(g, a24, horizon)
    uninformative = AttackSpec(frozenset(), 5)
    assert not oracle_check_violation(
        g, uninformative, len(build_attack_observer(g, uninformative).states)
    )


def test_oracle_violation_immediate_for_known_initial_state():
    g = Nfa(["1", "2"], ["a"], [("1", "a", "2")], ["1"])
    assert oracle_check_violation(g, AttackSpec(frozenset(), 0), 1)


def test_oracle_violation_rejects_zero_horizon():
    g = ten_state_plant()
    with pytest.raises(ValueError):
        oracle_check_violation(g, AttackSpec(frozenset(), 0), 0)


def test_oracle_enforced_fixture_verdicts():
    g = ten_state_plant()
    assert not oracle_check_enforced(g, AttackSpec(frozenset({"2", "4"}), 1))
    assert oracle_check_enforced(g, AttackSpec(frozenset({"2", "4", "8", "9"}), 1))


def test_oracle_violation_horizon_default_is_unbounded(instances):
    for g, attack in instances:
        assert oracle_check_violation(g, attack) == oracle_check_violation(g, attack, 10_000)
