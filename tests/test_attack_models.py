"""Attack-side automata: the attacked plant, the budget counter, the turn
structure, and their bounded composition."""

import pytest

from helpers import ten_state_plant

from stateattack import (
    AttackSpec,
    GameCounter,
    Nfa,
    bounded_game_structure,
    game_structure,
    number_attack_model,
    observer,
    system_attack_model,
)

EVENTS = frozenset("abcd")


# --- attacked plant ----------------------------------------------------------


def test_system_attack_model_fixture():
    g = ten_state_plant()
    ga = system_attack_model(g, {"2", "4"})
    assert ga.events == g.events | {"0", "1"}
    assert ga.initial == g.initial
    loops = {(s, lab, t) for (s, lab, t) in ga.transitions if lab in ("0", "1")}
    assert loops == {("2", "1", "2"), ("4", "1", "4")} | {
        (s, "0", s) for s in g.states - {"2", "4"}
    }
    assert ga.transitions - loops == g.transitions


@pytest.mark.parametrize("attacked", [set(), None])
def test_system_attack_model_degenerate_sets(attacked):
    g = ten_state_plant()
    attacked = g.states if attacked is None else attacked
    ga = system_attack_model(g, attacked)
    label = "1" if attacked else "0"
    assert {(s, label, s) for s in g.states} <= ga.transitions


def test_system_attack_model_result_loops_partition_states():
    g = ten_state_plant()
    ga = system_attack_model(g, {"2", "4"})
    for state in g.states:
        loops = {lab for (s, lab, t) in ga.transitions if s == state == t and lab in ("0", "1")}
        assert loops == ({"1"} if state in {"2", "4"} else {"0"})


def test_system_attack_model_rejects_foreign_states():
    g = ten_state_plant()
    with pytest.raises(ValueError):
        system_attack_model(g, {"2", "99"})


def test_system_attack_model_rejects_reserved_plant_events():
    g = Nfa(["1", "2"], ["Y"], [("1", "Y", "2")], ["1"])
    with pytest.raises(ValueError):
        system_attack_model(g, {"1"})


def test_observer_of_attacked_plant_splits_estimates():
    ga = system_attack_model(ten_state_plant(), {"2", "4"})
    obs = observer(ga)
    assert {str(q) for q in obs.states} == {
        "{1,10}", "{2,3}", "{6,9}", "{4,5}", "{7,8}", "{2}", "{3}", "{4}", "{5}",
    }
    edges = {(str(src), e, str(dst)) for (src, e), dst in obs.transitions.items()}
    assert ("{2,3}", "1", "{2}") in edges
    assert ("{2,3}", "0", "{3}") in edges
    assert ("{4,5}", "1", "{4}") in edges
    assert ("{4,5}", "0", "{5}") in edges
    assert ("{1,10}", "0", "{1,10}") in edges  # no attacked member: no split
    assert ("{7,8}", "0", "{7,8}") in edges
    assert not any(e == "1" for (src, e, dst) in edges if src == "{1,10}")


# --- budget counter ----------------------------------------------------------


@pytest.mark.parametrize(
    "count,tag,message",
    [(-1, "", "non-negative integer"), (0, "Z", "unknown counter tag")],
)
def test_game_counter_rejects_bad_fields(count, tag, message):
    with pytest.raises(ValueError, match=message):
        GameCounter(count, tag)


def test_number_attack_model_budget_one():
    model = number_attack_model(EVENTS, 1)
    assert model.states == frozenset(
        GameCounter(count, tag) for count, tag in [(0, ""), (1, ""), (0, "N"), (1, "N"), (0, "Y")]
    )
    assert {str(s) for s in model.states} == {"0", "1", "0N", "1N", "0Y"}
    assert model.initial == GameCounter(0)


def test_number_attack_model_budget_zero_has_no_pending_states():
    model = number_attack_model(EVENTS, 0)
    assert model.states == frozenset({GameCounter(0), GameCounter(0, "N")})
    assert model.step(GameCounter(0), "Y") is None


def test_number_attack_model_size_is_linear_in_budget():
    for budget in range(5):
        model = number_attack_model(EVENTS, budget)
        assert len(model.states) == 3 * budget + 2


def test_number_attack_model_transition_families():
    model = number_attack_model(EVENTS, 2)
    assert model.step(GameCounter(0), "Y") == GameCounter(0, "Y")
    assert model.step(GameCounter(2), "Y") is None
    assert model.step(GameCounter(2), "N") == GameCounter(2, "N")
    assert model.step(GameCounter(0, "Y"), "0") == GameCounter(1)
    assert model.step(GameCounter(1, "Y"), "1") == GameCounter(2)
    assert model.step(GameCounter(1, "N"), "a") == GameCounter(1)
    assert model.step(GameCounter(1), "a") == GameCounter(1)
    assert model.step(GameCounter(0), "a") is None  # events wait for the first decision


def test_number_attack_model_rejects_negative_budget():
    with pytest.raises(ValueError):
        number_attack_model(EVENTS, -1)


# --- turn structure ----------------------------------------------------------


def test_game_structure_shape():
    game = game_structure(EVENTS)
    assert game.states == frozenset({"A", "AY", "S"})
    assert game.events == EVENTS | {"Y", "N", "0", "1"}
    assert game.step("A", "N") == "S"
    assert game.step("A", "Y") == "AY"
    assert game.step("AY", "0") == "S"
    assert game.step("AY", "1") == "S"
    for event in EVENTS:
        assert game.step("S", event) == "A"
    assert len(game.transitions) == 4 + len(EVENTS)


def test_game_structure_round_trip():
    game = game_structure(EVENTS)
    assert game.step(game.step(game.step(game.initial, "Y"), "0"), "a") == "A"


# --- bounded composition -----------------------------------------------------


def test_bounded_game_structure_budget_one():
    product = bounded_game_structure(EVENTS, 1)
    names = {(phase, str(counter)) for phase, counter in product.states}
    assert names == {
        ("A", "0"), ("S", "0N"), ("AY", "0Y"), ("S", "1"), ("A", "1"), ("S", "1N"),
    }


def test_bounded_game_structure_budget_zero():
    product = bounded_game_structure(EVENTS, 0)
    names = {(phase, str(counter)) for phase, counter in product.states}
    assert names == {("A", "0"), ("S", "0N")}


@pytest.mark.parametrize("budget", range(5))
def test_bounded_game_structure_reachable_size(budget):
    assert len(bounded_game_structure(EVENTS, budget).states) == 4 * budget + 2


@pytest.mark.parametrize("budget", range(4))
def test_bounded_game_structure_phase_counter_consistency(budget):
    product = bounded_game_structure(EVENTS, budget)
    for phase, counter in product.states:
        if phase == "A":
            assert counter.tag == ""
        elif phase == "AY":
            assert counter.tag == "Y"
        else:
            assert counter.tag == "N" or (counter.tag == "" and counter.count >= 1)


def test_bounded_game_structure_counts_completed_attacks():
    product = bounded_game_structure(EVENTS, 3)
    for ((phase, counter), label), (nphase, ncounter) in product.transitions.items():
        if label == "Y":
            assert counter.tag == "" and counter.count < 3
            assert ncounter == GameCounter(counter.count, "Y")
        elif label == "N":
            assert ncounter == GameCounter(counter.count, "N")
        elif label in ("0", "1"):
            assert counter.tag == "Y"
            assert ncounter == GameCounter(counter.count + 1)
        else:
            assert ncounter == GameCounter(counter.count)


# --- attack description ------------------------------------------------------


def test_attack_spec_modes():
    assert AttackSpec(frozenset(), 0).mode == "anonymity"
    assert AttackSpec(frozenset(), 0, frozenset({"1"})).mode == "opacity"


def test_attack_spec_rejects_negative_budget():
    with pytest.raises(ValueError):
        AttackSpec(frozenset(), -2)


def test_attack_spec_validation_against_plant():
    g = ten_state_plant()
    AttackSpec(frozenset({"2"}), 1).validate_for(g)
    with pytest.raises(ValueError):
        AttackSpec(frozenset({"nope"}), 1).validate_for(g)
    with pytest.raises(ValueError):
        AttackSpec(frozenset(), 1, g.states).validate_for(g)
