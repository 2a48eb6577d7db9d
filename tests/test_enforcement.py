"""Enforcement analysis: which states of each type the pruning holds, the
pruning to the holdable region, its order-insensitivity, the attractor's
per-phase rules against the need lists they replaced, the verdicts'
shortcuts for a verifier that keeps every node, and the enforcement
verdict."""

from pathlib import Path

import pytest

from helpers import aob, need_list_attractor

from stateattack import (
    PHASE_AWAIT,
    PHASE_DECIDE,
    PHASE_SYSTEM,
    AttackObserver,
    AttackSpec,
    Nfa,
    build_attack_observer,
    build_verifier,
    check_enforced,
    check_violation,
    compute_ranks,
    final_verifier,
    intermediate_violating_fixpoint,
    parse_model,
    parse_spec,
    rank_ids,
    witness_labels,
)
from stateattack.aobs import AObsState, attractor
from stateattack.enforcement import _PRUNING_RULE, _STRICT_PRUNING_RULE
from stateattack.strategy import _RANK_RULE
from stateattack.violation import _CLOSURE_RULE, violating_ids

SAMPLES = Path(__file__).parent.parent / "samples"
SAMPLE_ATTACKS = ("attack-narrow.json", "attack-wide.json", "attack-opacity.json")

DEADLOCKED = Nfa(["x"], ["a"], [], ["x"])  # one state with no transition


@pytest.fixture(scope="module")
def verifier_24(plant, attack_24):
    return check_violation(plant, attack_24)[1]


@pytest.fixture(scope="module")
def fv_2489(plant, attack_2489):
    return check_enforced(plant, attack_2489)[1]


def closure_holds(sub: AttackObserver, i: int) -> bool:
    """The paper's survival condition of a kept node: a system-move node
    keeps every event the full graph enables, a result-wait node every
    result it defines, and a decision node at least one decision."""
    full = sub.parent
    if sub.phase[i] == PHASE_SYSTEM:
        return all(sub.target(i, e) is not None for e, _j in full.kept_targets(i))
    if sub.phase[i] == PHASE_AWAIT:
        return all(
            sub.target(i, r) is not None
            for r in ("0", "1")
            if full.target(i, r) is not None
        )
    return any(sub.target(i, d) is not None for d in ("Y", "N"))


def held(v: AttackObserver, strict_paper: bool = False) -> frozenset:
    return final_verifier(v, v.parent, strict_paper).states


def test_type1_not_vulnerable_when_an_event_escapes(verifier_24):
    # d is enabled at {1,10} in the full graph but its target was pruned
    state = aob("S", "0N", "1,10")
    assert state in verifier_24.states
    assert not closure_holds(verifier_24, verifier_24.id_of(state))
    assert state not in held(verifier_24)


def test_type1_vulnerable_when_all_events_stay(fv_2489):
    state = aob("S", "0N", "2,3")
    assert state in fv_2489.states
    assert closure_holds(fv_2489, fv_2489.id_of(state))


def test_type1_vacuously_vulnerable_when_deadlocked():
    _, verifier = check_violation(DEADLOCKED, AttackSpec(frozenset(), 0))
    assert aob("S", "0N", "x") in held(verifier)


def test_type2_vulnerable_when_both_results_stay(fv_2489):
    i = fv_2489.id_of(aob("AY", "0Y", "4,5"))
    assert {label for label, _j in fv_2489.kept_targets(i)} == {"0", "1"}
    assert closure_holds(fv_2489, i)


def test_type2_readings_differ_after_pruning_a_result(fv_2489):
    pruned = fv_2489.parent.restrict_ids(set(fv_2489.ids) - {fv_2489.id_of(aob("S", "1", "5"))})
    state = aob("AY", "0Y", "4,5")
    assert not closure_holds(pruned, pruned.id_of(state))
    assert state not in held(pruned)
    assert state in held(pruned, strict_paper=True)


def test_type3_vulnerable_through_either_decision(fv_2489):
    # attacking keeps the intruder inside at {4,5}, declining at {1,10}
    i = fv_2489.id_of
    assert fv_2489.target(i(aob("A", "0", "4,5")), "Y") == i(aob("AY", "0Y", "4,5"))
    assert {label for label, _j in fv_2489.kept_targets(i(aob("A", "0", "1,10")))} == {"N"}


def test_type3_not_vulnerable_with_both_successors_pruned(fv_2489):
    dropped = {fv_2489.id_of(aob("S", "0N", "4,5")), fv_2489.id_of(aob("AY", "0Y", "4,5"))}
    pruned = fv_2489.parent.restrict_ids(set(fv_2489.ids) - dropped)
    state = aob("A", "0", "4,5")
    assert state in pruned.states
    assert not closure_holds(pruned, pruned.id_of(state))
    assert state not in held(pruned)


def test_final_verifier_empty_for_narrow_attack_set(plant, attack_24):
    _, verifier = check_violation(plant, attack_24)
    fv = final_verifier(verifier, verifier.parent)
    assert fv.is_empty


def test_final_verifier_fixture_27_states(fv_2489):
    assert len(fv_2489.states) == 27
    for name in ["A,0,{1,10}", "S,0N,{2,3}", "AY,0Y,{4,5}", "S,1,{4}", "S,1,{5}"]:
        phase, counter, members = name.split(",", 2)
        assert aob(phase, counter, members.strip("{}")) in fv_2489.states
    # the two states the literal pruning rule would keep
    assert aob("AY", "0Y", "6,9") not in fv_2489.states
    assert aob("S", "1", "9") not in fv_2489.states


def test_final_verifier_strict_reading_keeps_escaped_result_branch(plant, attack_2489):
    enforced, fv = check_enforced(plant, attack_2489, strict_paper=True)
    assert enforced
    assert len(fv.states) == 29
    assert aob("AY", "0Y", "6,9") in fv.states
    assert aob("S", "1", "9") in fv.states


def test_final_verifier_unchanged_for_deterministic_single_initial_budget_zero():
    g = Nfa(["1", "2", "3"], ["a", "b"], [("1", "a", "2"), ("2", "b", "3")], ["1"])
    attack = AttackSpec(frozenset(), 0)
    verdict, verifier = check_violation(g, attack)
    assert verdict
    fv = final_verifier(verifier, verifier.parent)
    assert fv.states == verifier.states
    assert fv.transitions == verifier.transitions
    assert check_enforced(g, attack)[0]  # estimates are singletons throughout


def test_check_enforced_verdicts(plant, attack_24, attack_2489):
    assert not check_enforced(plant, attack_24)[0]
    assert check_enforced(plant, attack_2489)[0]


def test_enforced_implies_violating(instances):
    for plant, attack in instances[:80]:
        enforced, fv = check_enforced(plant, attack)
        violating, verifier = check_violation(plant, attack)
        if enforced:
            assert violating
        assert fv.states <= verifier.states


def test_final_verifier_closure(fv_2489, instances):
    for i in fv_2489.ids:
        assert closure_holds(fv_2489, i)
    for plant, attack in instances[:40]:
        _, fv = check_enforced(plant, attack)
        for i in fv.ids:
            assert closure_holds(fv, i)


def greatest_closed_restriction(verifier: AttackObserver, strict_paper: bool = False) -> frozenset:
    """Alternative pruning schedule: drop any offending node, one at a time,
    in reverse state order, ignoring accessibility until the very end. In the
    strict reading a result-wait node is always closed."""
    full = verifier.parent
    kept = set(verifier.ids)
    changed = True
    while changed:
        changed = False
        for i in sorted(kept, key=verifier.sort_key, reverse=True):
            # evaluate the closure on the raw kept set, not the reachable part
            if verifier.phase[i] == PHASE_SYSTEM:
                ok = all(verifier.target(i, e) in kept for e, _j in full.kept_targets(i))
            elif verifier.phase[i] == PHASE_AWAIT:
                ok = strict_paper or all(
                    verifier.target(i, r) in kept
                    for r in ("0", "1")
                    if full.target(i, r) is not None
                )
            else:
                ok = any(verifier.target(i, d) in kept for d in ("Y", "N"))
            if not ok:
                kept.discard(i)
                changed = True
                break
    return frozenset(kept)


@pytest.mark.parametrize("strict_paper", [False, True])
def test_pruning_is_order_insensitive(plant, attack_24, attack_2489, instances, strict_paper):
    cases = [(plant, attack_24), (plant, attack_2489), (DEADLOCKED, AttackSpec(frozenset(), 0))]
    cases += instances[:30]
    for case_plant, case_attack in cases:
        _, verifier = check_violation(case_plant, case_attack)
        fv = final_verifier(verifier, verifier.parent, strict_paper)
        closed = greatest_closed_restriction(verifier, strict_paper)
        expected = verifier.parent.restrict_ids(closed)
        assert fv.states == expected.states
        assert fv.transitions == expected.transitions


def closure_need(graph: AttackObserver) -> list:
    """The intruder's counts for the violation closure: every defined result
    at a result-wait node, one transition elsewhere."""
    return [d if p == PHASE_AWAIT else k for p, d, k in zip(graph.phase, graph.degree, graph.kept)]


def pruning_need(graph: AttackObserver, strict_paper: bool) -> list:
    """The system's counts for the pruning: every decision at a decision
    node, one event at a system-move node, and one result at a result-wait
    node, or none with ``strict_paper``."""
    await_need = 0 if strict_paper else 1
    return [
        (d if p == PHASE_DECIDE else 1 if p == PHASE_SYSTEM else await_need) if k else 0
        for p, d, k in zip(graph.phase, graph.degree, graph.kept)
    ]


def rank_need(graph: AttackObserver) -> list:
    """The intruder's counts for the ranks: one decision at a decision node,
    every kept transition elsewhere."""
    return [k if p == PHASE_DECIDE else d for p, d, k in zip(graph.phase, graph.degree, graph.kept)]


def pruned_by_attractor(v: AttackObserver, strict_paper: bool) -> AttackObserver:
    """``final_verifier`` without its full-cover shortcut, on the need-list
    attractor: the system's attractor to the nodes ``v`` leaves out, and the
    restriction to the rest."""
    aobs = v.parent
    outside = [i for i in aobs.ids if not v.kept[i]]
    expelled = need_list_attractor(aobs, outside, pruning_need(aobs, strict_paper))
    return aobs.restrict_ids([i for i in v.ids if i not in expelled])


RULES = {
    "closure": (_CLOSURE_RULE, closure_need),
    "pruning": (_PRUNING_RULE, lambda graph: pruning_need(graph, False)),
    "strict pruning": (_STRICT_PRUNING_RULE, lambda graph: pruning_need(graph, True)),
    "ranks": (_RANK_RULE, rank_need),
}


def sample_instances() -> list:
    plant = parse_model((SAMPLES / "model.json").read_text())
    return [(plant, parse_spec((SAMPLES / name).read_text(), plant)) for name in SAMPLE_ATTACKS]


@pytest.mark.parametrize("name", list(RULES))
def test_rules_match_the_need_lists(instances, name):
    """``attractor`` with each per-phase rule gives the ranks of the need-list
    attractor with the matching counts: on the full graph, the verifier and
    the final verifiers of both pruning modes, towards their violating nodes,
    and on the full graph towards the nodes each restriction leaves out."""
    rule, need = RULES[name]
    for plant, attack in [*instances, *sample_instances()]:
        _, verifier = check_violation(plant, attack)
        aobs = verifier.parent
        views = [verifier, *(final_verifier(verifier, aobs, strict) for strict in (False, True))]
        cases = [(graph, violating_ids(graph, attack)) for graph in (aobs, *views)]
        cases += [(aobs, [i for i in aobs.ids if not view.kept[i]]) for view in views]
        for graph, targets in cases:
            assert attractor(graph, targets, rule) == need_list_attractor(graph, targets, need(graph))


def assert_same_restriction(graph: AttackObserver, reference: AttackObserver, attack) -> None:
    assert list(graph.ids) == list(reference.ids)
    assert graph.kept == reference.kept
    assert graph.degree == reference.degree
    assert graph.n_transitions == reference.n_transitions
    assert witness_labels(graph, attack) == witness_labels(reference, attack)
    assert rank_ids(graph, attack) == rank_ids(reference, attack)


@pytest.mark.parametrize("strict_paper", [False, True], ids=["default", "strict"])
def test_full_cover_shortcuts_equal_the_restrictions(instances, strict_paper):
    """A closure that holds every node makes the verifier the full graph and
    the final verifier that same graph; both equal the restricting path."""
    shortcuts = 0
    for plant, attack in instances:
        _, verifier = check_violation(plant, attack)
        aobs = verifier.parent
        closure = intermediate_violating_fixpoint(aobs, attack)
        restricted = aobs.restrict_ids(closure)
        assert_same_restriction(verifier, restricted, attack)
        composed = build_verifier(aobs, closure)
        assert_same_restriction(composed, verifier, attack)
        assert (composed is aobs) == (verifier is aobs)
        fv = final_verifier(verifier, aobs, strict_paper)
        assert_same_restriction(fv, pruned_by_attractor(restricted, strict_paper), attack)
        shortcuts += verifier is aobs
    assert (shortcuts, len(instances) - shortcuts) == (112, 108)


def test_stages_make_no_state_objects(instances, monkeypatch):
    """The closure, the verifier, the final verifier in both pruning modes and
    the ranks' mapping work on node ids and make no ``AObsState``."""
    made = []

    def counting(self, *args, _init=AObsState.__init__, **kwargs):
        made.append(self)
        _init(self, *args, **kwargs)

    monkeypatch.setattr(AObsState, "__init__", counting)
    for plant, attack in instances:
        aobs = build_attack_observer(plant, attack)
        verifier = build_verifier(aobs, intermediate_violating_fixpoint(aobs, attack))
        for strict_paper in (False, True):
            fv = final_verifier(verifier, aobs, strict_paper)
            assert len(compute_ranks(fv, attack)) == len(fv.ids)
    assert len(made) == 0
