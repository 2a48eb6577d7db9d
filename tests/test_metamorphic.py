"""Metamorphic laws on the random corpus: changes to an instance that must
leave the verdicts and the sizes of the verifiers alone."""

import pytest

from stateattack import AttackSpec, Nfa, check_enforced, check_violation


def outcome(plant, attack, strict_paper):
    """Violation verdict, enforcement verdict, and the sizes of the verifier
    and the final verifier."""
    violated, verifier = check_violation(plant, attack)
    enforced, fv = check_enforced(plant, attack, strict_paper)
    return violated, enforced, len(verifier.states), len(fv.states)


@pytest.mark.parametrize("strict_paper", [False, True])
def test_attacking_the_complement_changes_nothing(instances, strict_paper):
    """An attack on A answers the same question as one on S without A, with
    the results swapped, so the two games are the same up to renaming."""
    for plant, attack in instances:
        complement = AttackSpec(plant.states - attack.attacked, attack.budget, attack.secret)
        assert outcome(plant, complement, strict_paper) == outcome(plant, attack, strict_paper)


def with_unreachable_states(plant: Nfa, attack: AttackSpec) -> tuple:
    """The plant plus two states no initial state reaches, with transitions
    of their own (one of them into the reachable part); one is attacked and,
    in opacity mode, one is secret."""
    event = sorted(plant.events)[0]
    transitions = set(plant.transitions) | {
        ("u1", event, "u2"), ("u2", event, "u1"), ("u2", event, sorted(plant.states)[0]),
    }
    grown = Nfa(plant.states | {"u1", "u2"}, plant.events, transitions, plant.initial)
    secret = None if attack.secret is None else attack.secret | {"u2"}
    return grown, AttackSpec(attack.attacked | {"u1"}, attack.budget, secret)


@pytest.mark.parametrize("strict_paper", [False, True])
def test_unreachable_states_change_nothing(instances, strict_paper):
    for plant, attack in instances:
        grown, grown_attack = with_unreachable_states(plant, attack)
        assert outcome(grown, grown_attack, strict_paper) == outcome(plant, attack, strict_paper)
