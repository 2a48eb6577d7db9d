"""Direct-on-the-plant brute force: estimate filtering along label
sequences, the trace-level violating-sequence predicate, and the two verdicts
on the attack game, cross-checked against the observer pipeline and a
bounded recursion."""

import ast
import random
from pathlib import Path

import pytest

from helpers import (
    corpus,
    est,
    forced_within,
    literal_oracle_check_enforced,
    random_instance,
    ten_state_plant,
)

from stateattack import (
    AttackSpec,
    Nfa,
    build_attack_observer,
    check_enforced,
    check_violation,
    filtered_estimate,
    is_violating_attack_sequence,
    oracle_check_enforced,
    oracle_check_violation,
    violation_predicate,
    witness_labels,
)
import stateattack.oracle
from stateattack.oracle import _game


def test_oracle_imports_only_the_plant_and_attack_model():
    """The oracle checks the pipeline, so it reads none of it: its package
    imports are the plant and the attack spec alone."""
    tree = ast.parse(Path(stateattack.oracle.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add("stateattack." * bool(node.level) + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    package = {m for m in modules if m.startswith("stateattack")}
    assert package == {"stateattack.attackmodel", "stateattack.automata"}


# --- label sequences ---------------------------------------------------------


def test_round_validation():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 1)
    with pytest.raises(ValueError, match="ends inside a round"):
        filtered_estimate(g, attack, ["N", "a", "Y"])  # a Y without its result
    with pytest.raises(ValueError, match="unexpected label"):
        filtered_estimate(g, attack, ["Y", "a"])  # an event where the result belongs
    with pytest.raises(ValueError, match="unexpected label"):
        filtered_estimate(g, attack, ["N", "0"])  # a result after N


def test_trace_validation():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 1)
    with pytest.raises(ValueError, match="unexpected label"):
        filtered_estimate(g, attack, ["a", "N"])  # the first round observes nothing
    with pytest.raises(ValueError, match="unexpected label"):
        filtered_estimate(g, attack, ["N", "Y", "0"])  # two decisions without an event
    with pytest.raises(ValueError, match="ends inside a round"):
        filtered_estimate(g, attack, ["N", "a"])  # an event opens a round with no decision


@pytest.mark.parametrize("labels", [["x"], ["N", "a", "x"], ["N", "a", "1"]])
def test_filtered_estimate_rejects_unexpected_labels(labels):
    g = Nfa(["1", "2"], ["a"], [("1", "a", "2"), ("2", "a", "1")], ["1"])
    with pytest.raises(ValueError, match="unexpected label"):
        filtered_estimate(g, AttackSpec(frozenset({"1"}), 1), labels)


# --- estimate filtering ------------------------------------------------------


def test_filtered_estimate_walks_each_round():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 1)
    assert filtered_estimate(g, attack, []) == est("1,10")
    assert filtered_estimate(g, attack, ["N", "a", "N"]) == est("2,3")
    assert filtered_estimate(g, attack, ["N", "a", "Y", "0"]) == est("3")


def test_filtered_estimate_fixture_trace():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 1)
    assert filtered_estimate(g, attack, ["N", "a", "Y", "1"]) == est("2")


def test_filtered_estimate_uninformative_round():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 1)
    assert filtered_estimate(g, attack, ["N"]) == est("1,10")


def test_filtered_estimate_undefined_when_emptied():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 1)
    # result 1 is impossible at {1,10}
    assert filtered_estimate(g, attack, ["Y", "1"]) is None
    assert filtered_estimate(g, attack, ["Y", "1", "a", "N"]) is None


def test_filtered_estimate_enforces_budget():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 0)
    with pytest.raises(ValueError, match="budget"):
        filtered_estimate(g, attack, ["Y", "0"])
    # the budget is read before the walk, which would end empty at the first result
    with pytest.raises(ValueError, match="budget"):
        filtered_estimate(g, AttackSpec(frozenset({"2", "4"}), 1), ["Y", "1", "a", "Y", "0"])


def test_every_witness_replays_on_the_plant_alone():
    """The witness of ``check_violation`` is a certificate: read on the plant
    alone, without the attack observer, it ends in a violating estimate.
    Over the corpus and 700 more random plants."""
    rng = random.Random(3)
    plants = corpus() + [random_instance(rng) for _ in range(700)]
    replayed = {"anonymity": 0, "opacity": 0}
    for g, attack in plants:
        _, verifier = check_violation(g, attack)
        labels = witness_labels(verifier, attack)
        if labels is None:
            continue
        estimate = filtered_estimate(g, attack, labels)
        assert estimate is not None and violation_predicate(estimate, attack), (g, attack, labels)
        replayed["anonymity" if attack.secret is None else "opacity"] += 1
    assert replayed == {"anonymity": 488, "opacity": 141}


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


# --- the two verdicts --------------------------------------------------------


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


@pytest.mark.parametrize("budget", [0, 1, 2])
def test_oracle_violation_at_short_horizons_matches_its_definition(instances, budget):
    for g, attack in instances:
        attack = AttackSpec(attack.attacked, budget, attack.secret)
        verdicts = [oracle_check_violation(g, attack, horizon) for horizon in range(1, 7)]
        assert verdicts == [forced_within(g, attack, horizon) for horizon in range(1, 7)]
        nodes = len(_game(g, attack))
        verdicts.append(oracle_check_violation(g, attack, nodes))
        assert verdicts == sorted(verdicts)  # never falls as the horizon grows
        assert verdicts[-1] == oracle_check_violation(g, attack)


def test_strict_paper_decides_the_literal_rule():
    """``check_enforced(..., strict_paper=True)`` against the oracle's own
    greatest fixpoint under the literal rule, over the corpus and 700 more
    random plants at budgets b to b + 2."""
    rng = random.Random(3)
    plants = corpus() + [random_instance(rng) for _ in range(700)]
    checks = enforced = 0
    for g, attack in plants:
        for budget in range(attack.budget, attack.budget + 3):
            attack_b = AttackSpec(attack.attacked, budget, attack.secret)
            verdict = check_enforced(g, attack_b, strict_paper=True)[0]
            assert verdict == literal_oracle_check_enforced(g, attack_b), (g, attack_b)
            checks += 1
            enforced += verdict
    assert checks == 2760 and 0 < enforced < checks
