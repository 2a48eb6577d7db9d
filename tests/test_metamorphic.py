"""Metamorphic laws on the random corpus: changes to an instance that must
leave the verdicts, the sizes of the game graphs and the strategies alone."""

import random

import pytest

from stateattack import (
    FIRST_VALID,
    RANKED,
    AttackSpec,
    Nfa,
    check_enforced,
    check_violation,
    rank_ids,
    synthesize_strategy,
    validate_strategy,
    witness_labels,
)
from stateattack.strategy import INFINITE_RANK


def outcome(plant, attack, strict_paper):
    """The verdicts; the node and transition counts of the attack observer,
    the verifier and the final verifier; the witness length; the initial
    rank; and per policy the strategy's state and edge counts and its
    validation."""
    violated, verifier = check_violation(plant, attack)
    enforced, fv = check_enforced(plant, attack, strict_paper)
    witness = witness_labels(verifier, attack)
    result = [
        violated,
        enforced,
        [(len(graph.ids), graph.n_transitions) for graph in (verifier.parent, verifier, fv)],
        None if witness is None else len(witness),
    ]
    if enforced:
        result.append(rank_ids(fv, attack).get(fv.initial_id, INFINITE_RANK))
        for policy in (RANKED, FIRST_VALID):
            strategy = synthesize_strategy(fv, fv.parent, policy)
            report = validate_strategy(strategy, fv.parent, attack)
            result.append((len(strategy.ids), strategy.n_edges, report.sound, report.max_rounds))
    return result


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


def renamed(plant: Nfa, attack: AttackSpec, rng: random.Random) -> tuple:
    """The instance under a random bijective renaming of its states and its
    events. The new names are numbered at random, so they sort in another
    order than the old ones."""

    def renaming(names, prefix: str) -> dict:
        names = sorted(names)
        return {name: f"{prefix}{n}" for name, n in zip(names, rng.sample(range(len(names)), len(names)))}

    state, event = renaming(plant.states, "q"), renaming(plant.events, "e")

    def image(states) -> frozenset:
        return frozenset(state[s] for s in states)

    transitions = [(state[s], event[e], state[t]) for s, e, t in plant.transitions]
    moved = Nfa(state.values(), event.values(), transitions, image(plant.initial))
    secret = None if attack.secret is None else image(attack.secret)
    return moved, AttackSpec(image(attack.attacked), attack.budget, secret)


@pytest.mark.parametrize("strict_paper", [False, True])
def test_renaming_states_and_events_changes_nothing(instances, strict_paper):
    rng = random.Random(8)
    for plant, attack in instances:
        expected = outcome(plant, attack, strict_paper)
        for _ in range(2):
            assert outcome(*renamed(plant, attack, rng), strict_paper) == expected
