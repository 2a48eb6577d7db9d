"""Acceptance suite: the nine product criteria, each checked at its stated
tolerance (exact set/boolean equality throughout) with one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
from collections import deque
from contextlib import contextmanager

import pytest

from helpers import ATTACK_24, ATTACK_2489, aob, corpus, ten_state_plant

from stateattack import (
    Adversarial,
    AttackSpec,
    EPSILON,
    PHASE_SYSTEM,
    RandomSeeded,
    bounded_game_structure,
    build_attack_observer,
    check_anonymity_classic,
    check_enforced,
    check_opacity_classic,
    check_violation,
    compute_ranks,
    filtered_estimate,
    intermediate_violating_fixpoint,
    number_attack_model,
    observer,
    oracle_check_enforced,
    oracle_check_violation,
    simulate_play,
    synthesize_strategy,
    validate_strategy,
)


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {summary}")
        raise
    print(f"PASS criterion {number}: {summary}")


@pytest.fixture(scope="module")
def plant():
    return ten_state_plant()


@pytest.fixture(scope="module")
def instances():
    return corpus(count=220)


def test_criterion_1_observer_fixture(plant):
    with criterion(1, "observer of the ten-state example has the exact 5-state shape"):
        obs = observer(plant)
        assert len(obs.states) == 5
        edges = {(str(src), ev, str(dst)) for (src, ev), dst in obs.transitions.items()}
        assert edges == {
            ("{1,10}", "a", "{2,3}"),
            ("{1,10}", "d", "{6,9}"),
            ("{2,3}", "b", "{4,5}"),
            ("{2,3}", "c", "{4,5}"),
            ("{6,9}", "b", "{7,8}"),
            ("{4,5}", "c", "{4,5}"),
            ("{7,8}", "c", "{7,8}"),
        }


def test_criterion_2_classic_checks(plant):
    with criterion(2, "attack-free anonymity/opacity verdicts"):
        assert check_anonymity_classic(plant) is True
        assert check_opacity_classic(plant, {"7", "8"}) is False
        assert check_opacity_classic(plant, {"2", "5"}) is True


def test_criterion_3_attack_observer_fixture(plant):
    with criterion(3, "attack observer: 34 states, initial state, and result chains"):
        aobs = build_attack_observer(plant, ATTACK_24)
        assert len(aobs.states) == 34
        assert aobs.initial == aob("A", "0", "1,10")
        assert aobs.run(["N", "a", "Y", "0"]) == aob("S", "1", "3")
        assert aobs.run(["N", "a", "Y", "1"]) == aob("S", "1", "2")


def test_criterion_4_closure_fixture(plant):
    with criterion(4, "backward closure is exactly the expected 16-state set"):
        aobs = build_attack_observer(plant, ATTACK_24)
        expected = {
            aob("S", "1", "2"), aob("S", "1", "3"),
            aob("S", "1", "4"), aob("S", "1", "5"),
            aob("S", "1N", "4"), aob("S", "1N", "5"),
            aob("S", "0N", "1,10"), aob("S", "0N", "2,3"), aob("S", "0N", "4,5"),
            aob("AY", "0Y", "2,3"), aob("AY", "0Y", "4,5"),
            aob("A", "0", "2,3"), aob("A", "0", "4,5"),
            aob("A", "1", "4"), aob("A", "1", "5"),
            aob("A", "0", "1,10"),
        }
        closure = intermediate_violating_fixpoint(aobs, ATTACK_24)
        assert closure.keys() == {aobs.id_of(state) for state in expected}


def test_criterion_5_verdicts(plant):
    with criterion(5, "violation and enforcement verdicts on both attack sets"):
        assert check_violation(plant, ATTACK_24)[0] is True
        enforced, fv = check_enforced(plant, ATTACK_24)
        assert enforced is False
        assert fv.is_empty and len(fv.states) == 0
        enforced, fv = check_enforced(plant, ATTACK_2489)
        assert enforced is True
        for state in (
            aob("A", "0", "1,10"),
            aob("S", "0N", "2,3"),
            aob("AY", "0Y", "4,5"),
            aob("S", "1", "4"),
            aob("S", "1", "5"),
        ):
            assert state in fv.states


def test_criterion_6_strategy_fixture(plant):
    with criterion(6, "synthesized strategy edges, soundness, and attack budget"):
        _, fv = check_enforced(plant, ATTACK_2489)
        aobs = fv.parent
        strategy = synthesize_strategy(fv, aobs, "ranked")
        names = strategy.names()
        rows = {
            (names[src], event, output, names[dst])
            for src, event, output, dst in strategy.id_edge_list(names)
        }
        assert ("(A,0,{1,10})", EPSILON, "N", "(S,0N,{1,10})") in rows
        assert ("(S,0N,{1,10})", "a", "N", "(S,0N,{2,3})") in rows
        assert ("(S,0N,{1,10})", "d", "N", "(S,0N,{6,9})") in rows
        assert ("(S,0N,{2,3})", "b", "Y0", "(S,1,{5})") in rows
        assert ("(S,0N,{2,3})", "b", "Y1", "(S,1,{4})") in rows

        report = validate_strategy(strategy, aobs, ATTACK_2489)
        assert report.sound is True

        # every maximal play ends on a singleton estimate with at most 1 attack
        edges = strategy.id_edges
        stack = [
            (target, 1 if output.startswith("Y") else 0)
            for output, target in edges[strategy.initial_id, EPSILON]
        ]
        seen = set()
        while stack:
            state, used = stack.pop()
            assert used <= 1
            if len(aobs.state_of(state).estimate) == 1:
                continue
            if state in seen:
                continue
            seen.add(state)
            events = sorted(label for label, _j in aobs.kept_targets(state))
            assert events, "an unresolved play has no continuation"
            for event in events:
                outputs = edges.get((state, event))
                assert outputs
                for output, target in outputs:
                    stack.append((target, used + (1 if output.startswith("Y") else 0)))


def shared_traces(aobs, plant, limit_depth=None):
    """One complete-round trace per reachable estimation state (plus, when
    asked, every path of at most `limit_depth` labels)."""
    paths = {aobs.initial_id: []}
    frontier = deque([aobs.initial_id])
    while frontier:
        i = frontier.popleft()
        for label, j in sorted(aobs.kept_targets(i)):
            if j not in paths:
                paths[j] = paths[i] + [label]
                frontier.append(j)
    out = [
        (path, aobs.state_of(i))
        for i, path in paths.items()
        if aobs.phase[i] == PHASE_SYSTEM
    ]
    if limit_depth:
        stack = [(aobs.initial_id, [])]
        while stack:
            i, path = stack.pop()
            if aobs.phase[i] == PHASE_SYSTEM:
                out.append((path, aobs.state_of(i)))
            if len(path) >= limit_depth:
                continue
            for label, j in sorted(aobs.kept_targets(i)):
                stack.append((j, path + [label]))
    return out


def test_criterion_7_oracle_equivalence(instances):
    summary = {}
    with criterion(7, "direct brute force agrees with the pipeline on the corpus"):
        strict_divergences = []
        for index, (plant, attack) in enumerate(instances):
            aobs = build_attack_observer(plant, attack)

            # (a) estimates along shared traces
            exhaustive = 5 if index < 50 else None
            for labels, state in shared_traces(aobs, plant, exhaustive):
                assert filtered_estimate(plant, attack, labels) == state.estimate

            # (b) violation verdicts
            verdict, _ = check_violation(plant, attack)
            assert verdict == oracle_check_violation(plant, attack, len(aobs.states))

            # (c) enforcement verdicts; literal-pruning divergences are
            # collected and reported, everything else must agree exactly
            enforced, _ = check_enforced(plant, attack)
            expected = oracle_check_enforced(plant, attack)
            assert enforced == expected
            strict, _ = check_enforced(plant, attack, strict_paper=True)
            if strict != expected:
                strict_divergences.append(index)
        summary["strict"] = strict_divergences
    print(
        f"      criterion 7 note: {len(summary['strict'])} instances diverge under the "
        f"literal pruning rule (reported, tolerated); zero unexplained disagreements"
    )


def test_criterion_7_appendix_state_count_bounds(instances):
    with criterion("7-appendix", "state-count bounds hold on the corpus"):
        for plant, attack in instances:
            aobs = build_attack_observer(plant, attack)
            bound = (4 * attack.budget + 2) * 2 ** len(plant.states)
            assert len(aobs.states) <= bound
            assert len(number_attack_model(plant.events, attack.budget).states) == (
                3 * attack.budget + 2
            )
            assert len(bounded_game_structure(plant.events, attack.budget).states) == (
                4 * attack.budget + 2
            )


def test_criterion_8_degenerate_budget_and_monotonicity(instances):
    with criterion(8, "budget-zero collapse to the classic checks and budget monotonicity"):
        for plant, attack in instances:
            frozen = AttackSpec(attack.attacked, 0, attack.secret)
            verdict, _ = check_violation(plant, frozen)
            if attack.secret is None:
                assert verdict == (not check_anonymity_classic(plant))
            else:
                assert verdict == (not check_opacity_classic(plant, attack.secret))
            verdicts = [
                check_violation(plant, AttackSpec(attack.attacked, budget, attack.secret))[0]
                for budget in range(3)
            ]
            assert verdicts == sorted(verdicts)


def test_criterion_9_simulation_soundness(instances):
    qualifying = 0
    with criterion(9, "simulated plays disclose the true state within the rank bound"):
        for plant, attack in instances:
            enforced, fv = check_enforced(plant, attack)
            if not enforced:
                continue
            ranks = compute_ranks(fv, attack)
            bound = ranks[fv.initial]
            if math.isinf(bound):
                continue
            qualifying += 1
            strategy = synthesize_strategy(fv, fv.parent, "ranked")
            plays = [simulate_play(plant, strategy, RandomSeeded(seed), 10 + 2 * int(bound))
                     for seed in range(100)]
            plays.append(simulate_play(plant, strategy, Adversarial(), 10 + 2 * int(bound)))
            for trace in plays:
                assert trace.outcome == "violated"
                assert len(trace.rounds) <= bound
                last = trace.rounds[-1]
                if attack.secret is None:
                    assert tuple(last.estimate) == (last.true_state,)
                else:
                    assert last.true_state in attack.secret
                    assert last.estimate.issubset(attack.secret)
    print(f"      criterion 9 note: {qualifying} corpus instances qualified "
          f"(enforceable with a finite starting rank)")
