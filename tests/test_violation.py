"""Violation analysis: the violating predicate, the backward closure, the
verifier restriction, and the end-to-end verdict."""

from helpers import ATTACK_24, aob, est

from stateattack import (
    AttackSpec,
    Nfa,
    PHASE_AWAIT,
    PHASE_DECIDE,
    PHASE_SYSTEM,
    build_attack_observer,
    build_verifier,
    check_anonymity_classic,
    check_opacity_classic,
    check_violation,
    intermediate_violating_fixpoint,
    violation_predicate,
    witness_labels,
)

EXPECTED_CLOSURE_24 = {
    aob("S", "1", "2"), aob("S", "1", "3"), aob("S", "1", "4"), aob("S", "1", "5"),
    aob("S", "1N", "4"), aob("S", "1N", "5"),
    aob("S", "0N", "1,10"), aob("S", "0N", "2,3"), aob("S", "0N", "4,5"),
    aob("AY", "0Y", "2,3"), aob("AY", "0Y", "4,5"),
    aob("A", "0", "2,3"), aob("A", "0", "4,5"),
    aob("A", "1", "4"), aob("A", "1", "5"),
    aob("A", "0", "1,10"),
}


def test_violation_predicate_anonymity():
    assert violation_predicate(est("3"), ATTACK_24)
    assert not violation_predicate(est("2,3"), ATTACK_24)


def test_violation_predicate_opacity():
    attack = AttackSpec(frozenset(), 0, frozenset({"7", "8"}))
    assert violation_predicate(est("7,8"), attack)
    assert not violation_predicate(est("6,9"), attack)


def test_fixpoint_fixture_sixteen_states(aobs_24, attack_24):
    closure = intermediate_violating_fixpoint(aobs_24, attack_24)
    assert closure.keys() == {aobs_24.id_of(state) for state in EXPECTED_CLOSURE_24}


def test_fixpoint_empty_without_violating_seed(plant):
    attack = AttackSpec(frozenset(), 2)  # uninformative attacks, anonymous plant
    aobs = build_attack_observer(plant, attack)
    assert intermediate_violating_fixpoint(aobs, attack) == {}


class GameClosureOracle:
    """Independent evaluation of the backward closure on (estimate, used)
    decision points, by chaotic iteration straight off the plant relation.
    An attack round is only available after an intervening event."""

    def __init__(self, plant, attack):
        self.plant = plant
        self.attack = attack
        estimates = {frozenset(plant.initial)}
        stack = [frozenset(plant.initial)]
        while stack:
            members = stack.pop()
            derived = [p for p in self.parts(members) if p != members]
            derived += [plant.image(members, e) for e in plant.events]
            for nxt in derived:
                if nxt and nxt not in estimates:
                    estimates.add(nxt)
                    stack.append(nxt)
        self.nodes = {(q, u) for q in estimates for u in range(attack.budget + 1)}
        self.decision_wins = self._fixpoint()

    def parts(self, members):
        return [p for p in (members & self.attack.attacked, members - self.attack.attacked) if p]

    def violating(self, members):
        if self.attack.secret is None:
            return len(members) == 1
        return members <= self.attack.secret

    def _system_wins(self, members, used, wins):
        if self.violating(members):
            return True
        for event in self.plant.events:
            nxt = self.plant.image(members, event)
            if nxt and (nxt, used) in wins:
                return True
        return False

    def _fixpoint(self):
        wins = set()
        changed = True
        while changed:
            changed = False
            for members, used in self.nodes:
                if (members, used) in wins:
                    continue
                good = self._system_wins(members, used, wins)
                if not good and used < self.attack.budget:
                    good = all(
                        self._system_wins(part, used + 1, wins)
                        for part in self.parts(members)
                    )
                if good:
                    wins.add((members, used))
                    changed = True
        return wins

    def expects(self, state) -> bool:
        members = frozenset(state.estimate)
        used = state.counter.count
        if state.phase == PHASE_DECIDE:
            return (members, used) in self.decision_wins
        if state.phase == PHASE_AWAIT:
            return all(
                self._system_wins(part, used + 1, self.decision_wins)
                for part in self.parts(members)
            )
        return self._system_wins(members, used, self.decision_wins)


def test_fixpoint_matches_game_closure_oracle(instances):
    for plant, attack in instances[:60]:
        aobs = build_attack_observer(plant, attack)
        closure = intermediate_violating_fixpoint(aobs, attack)
        oracle = GameClosureOracle(plant, attack)
        for i in aobs.ids:
            assert (i in closure) == oracle.expects(aobs.state_of(i)), (
                plant.transitions,
                attack,
                aobs.state_of(i),
            )


def sweep_schedule_closure(aobs, attack):
    """The canonical pass order: seed the violating system-move nodes, then
    alternately absorb result-wait, decision, and system-move nodes until no
    new system-move node appears."""
    phase = aobs.phase
    type1 = {
        i
        for i in aobs.ids
        if phase[i] == PHASE_SYSTEM and violation_predicate(aobs.state_of(i).estimate, attack)
    }
    while True:
        type2 = {
            i
            for i in aobs.ids
            if phase[i] == PHASE_AWAIT
            and all(
                aobs.target(i, r) in type1
                for r in ("0", "1")
                if aobs.target(i, r) is not None
            )
        }
        type3 = {
            i
            for i in aobs.ids
            if phase[i] == PHASE_DECIDE
            and any(aobs.target(i, d) in type1 | type2 for d in ("Y", "N"))
        }
        new1 = {
            i
            for i in aobs.ids
            if phase[i] == PHASE_SYSTEM
            and i not in type1
            and any(j in type3 for _e, j in aobs.kept_targets(i))
        }
        if not new1:
            return type1 | type2 | type3
        type1 |= new1


def test_fixpoint_is_sweep_order_insensitive(aobs_24, attack_24, instances):
    assert intermediate_violating_fixpoint(aobs_24, attack_24).keys() == sweep_schedule_closure(
        aobs_24, attack_24
    )
    for plant, attack in instances[:40]:
        aobs = build_attack_observer(plant, attack)
        assert intermediate_violating_fixpoint(aobs, attack).keys() == sweep_schedule_closure(
            aobs, attack
        )


def test_verifier_fixture_sixteen_states(aobs_24, attack_24):
    closure = intermediate_violating_fixpoint(aobs_24, attack_24)
    verifier = build_verifier(aobs_24, closure)
    assert verifier.states == frozenset(EXPECTED_CLOSURE_24)
    i = verifier.id_of
    assert verifier.target(i(aob("S", "0N", "1,10")), "a") == i(aob("A", "0", "2,3"))
    assert verifier.target(i(aob("S", "0N", "1,10")), "d") is None  # pruned branch
    assert verifier.target(i(aob("AY", "0Y", "2,3")), "0") == i(aob("S", "1", "3"))


def test_verifier_empty_when_initial_not_kept(aobs_24):
    verifier = build_verifier(aobs_24, [aobs_24.id_of(aob("S", "1", "2"))])
    assert verifier.is_empty
    assert list(verifier.ids) == []


def test_verifier_fixture_thirty_states(plant, attack_2489, aobs_2489):
    _, verifier = check_violation(plant, attack_2489)
    assert len(verifier.states) == 30
    assert aob("S", "1", "9") in verifier.states
    assert aob("S", "1", "6") in verifier.states
    assert aob("S", "1", "1,10") not in verifier.states


def test_check_violation_verdicts(plant, attack_24, attack_2489):
    assert check_violation(plant, attack_24)[0]
    assert check_violation(plant, attack_2489)[0]
    assert not check_violation(plant, AttackSpec(frozenset(), 5))[0]


def test_verifier_states_all_in_closure_and_transitions_in_parent(instances):
    for plant, attack in instances[:40]:
        _, verifier = check_violation(plant, attack)
        closure = intermediate_violating_fixpoint(verifier.parent, attack)
        assert set(verifier.ids) <= closure.keys()
        full = verifier.parent
        for i in verifier.ids:
            for label, j in verifier.kept_targets(i):
                assert full.target(i, label) == j


def test_budget_zero_collapses_to_classic_checks(instances):
    for plant, attack in instances[:60]:
        frozen = AttackSpec(attack.attacked, 0, attack.secret)
        verdict, _ = check_violation(plant, frozen)
        if attack.secret is None:
            assert verdict == (not check_anonymity_classic(plant))
        else:
            assert verdict == (not check_opacity_classic(plant, attack.secret))


def test_verdict_monotone_in_budget(instances):
    for plant, attack in instances[:40]:
        verdicts = [
            check_violation(plant, AttackSpec(attack.attacked, budget, attack.secret))[0]
            for budget in range(3)
        ]
        assert verdicts == sorted(verdicts)


def test_witness_labels_fixture(plant, attack_24):
    _, verifier = check_violation(plant, attack_24)
    labels = witness_labels(verifier, attack_24)
    assert labels is not None
    assert verifier.parent.run(labels) is not None
    assert violation_predicate(verifier.parent.run(labels).estimate, attack_24)


def test_witness_labels_none_for_empty():
    g = Nfa(["1", "2"], ["a"], [("1", "a", "2"), ("2", "a", "1")], ["1", "2"])
    attack = AttackSpec(frozenset(), 1)
    verdict, verifier = check_violation(g, attack)
    assert not verdict
    assert witness_labels(verifier, attack) is None
