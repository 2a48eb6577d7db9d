"""Enforcement analysis: which states of each type the pruning holds, the
pruning to the holdable region, its order-insensitivity, and the
enforcement verdict."""

import pytest

from helpers import aob

from stateattack import (
    PHASE_AWAIT,
    PHASE_SYSTEM,
    AttackObserver,
    AttackSpec,
    Nfa,
    check_enforced,
    check_violation,
    final_verifier,
)

DEADLOCKED = Nfa(["x"], ["a"], [], ["x"])  # one state with no transition


@pytest.fixture(scope="module")
def verifier_24(plant, attack_24):
    return check_violation(plant, attack_24)[1]


@pytest.fixture(scope="module")
def fv_2489(plant, attack_2489):
    return check_enforced(plant, attack_2489)[1]


def closure_holds(sub: AttackObserver, state) -> bool:
    """The paper's survival condition of a kept state: a system-move state
    keeps every event the full graph enables, a result-wait state every
    result it defines, and a decision state at least one decision."""
    if state.phase == PHASE_SYSTEM:
        return all(sub.step(state, e) is not None for e in sub.parent.enabled(state))
    if state.phase == PHASE_AWAIT:
        return all(
            sub.step(state, r) is not None
            for r in ("0", "1")
            if sub.parent.step(state, r) is not None
        )
    return any(sub.step(state, d) is not None for d in ("Y", "N"))


def held(v: AttackObserver, strict_paper: bool = False) -> frozenset:
    return final_verifier(v, v.parent, strict_paper).states


def test_type1_not_vulnerable_when_an_event_escapes(verifier_24):
    # d is enabled at {1,10} in the full graph but its target was pruned
    state = aob("S", "0N", "1,10")
    assert state in verifier_24.states
    assert not closure_holds(verifier_24, state)
    assert state not in held(verifier_24)


def test_type1_vulnerable_when_all_events_stay(fv_2489):
    state = aob("S", "0N", "2,3")
    assert state in fv_2489.states
    assert closure_holds(fv_2489, state)


def test_type1_vacuously_vulnerable_when_deadlocked():
    _, verifier = check_violation(DEADLOCKED, AttackSpec(frozenset(), 0))
    assert aob("S", "0N", "x") in held(verifier)


def test_type2_vulnerable_when_both_results_stay(fv_2489):
    state = aob("AY", "0Y", "4,5")
    assert fv_2489.enabled(state) == frozenset({"0", "1"})
    assert closure_holds(fv_2489, state)


def test_type2_readings_differ_after_pruning_a_result(fv_2489):
    pruned = fv_2489.parent.restrict(fv_2489.states - {aob("S", "1", "5")})
    state = aob("AY", "0Y", "4,5")
    assert not closure_holds(pruned, state)
    assert state not in held(pruned)
    assert state in held(pruned, strict_paper=True)


def test_type3_vulnerable_through_either_decision(fv_2489):
    # attacking keeps the intruder inside at {4,5}, declining at {1,10}
    assert fv_2489.step(aob("A", "0", "4,5"), "Y") == aob("AY", "0Y", "4,5")
    assert fv_2489.enabled(aob("A", "0", "1,10")) == frozenset({"N"})


def test_type3_not_vulnerable_with_both_successors_pruned(fv_2489):
    pruned = fv_2489.parent.restrict(
        fv_2489.states - {aob("S", "0N", "4,5"), aob("AY", "0Y", "4,5")}
    )
    state = aob("A", "0", "4,5")
    assert state in pruned.states
    assert not closure_holds(pruned, state)
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
    for state in fv_2489.states:
        assert closure_holds(fv_2489, state)
    for plant, attack in instances[:40]:
        _, fv = check_enforced(plant, attack)
        for state in fv.states:
            assert closure_holds(fv, state)


def greatest_closed_restriction(verifier: AttackObserver, strict_paper: bool = False) -> frozenset:
    """Alternative pruning schedule: drop any offending state, one at a time,
    in reverse order, ignoring accessibility until the very end. In the
    strict reading a result-wait state is always closed."""
    kept = set(verifier.states)
    changed = True
    while changed:
        changed = False
        for state in sorted(kept, reverse=True):
            # evaluate the closure on the raw kept set, not the reachable part
            if state.phase == PHASE_SYSTEM:
                ok = all(
                    verifier.step(state, e) in kept
                    for e in verifier.parent.enabled(state)
                )
            elif state.phase == PHASE_AWAIT:
                ok = strict_paper or all(
                    verifier.step(state, r) in kept
                    for r in ("0", "1")
                    if verifier.parent.step(state, r) is not None
                )
            else:
                ok = any(verifier.step(state, d) in kept for d in ("Y", "N"))
            if not ok:
                kept.discard(state)
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
        expected = verifier.parent.restrict(closed)
        assert fv.states == expected.states
        assert fv.transitions == expected.transitions