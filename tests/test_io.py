"""Document formats and DOT exports."""

import json
from pathlib import Path

import pytest

from helpers import TEN_STATE_TRANSITIONS, ten_state_plant

from stateattack import (
    AttackSpec,
    FIRST_VALID,
    InputError,
    Nfa,
    RANKED,
    build_attack_observer,
    check_enforced,
    check_opacity_classic,
    check_violation,
    export_dot,
    oracle_check_enforced,
    oracle_check_violation,
    parse_model,
    parse_spec,
    serialize_model,
    serialize_spec,
    serialize_strategy,
    synthesize_strategy,
)
from stateattack.cli import main
from stateattack.serialize import strategy_edge_rows

GOLDEN = Path(__file__).parent / "golden"
SAMPLES = Path(__file__).parent.parent / "samples"


def model_text() -> str:
    return json.dumps(
        {
            "states": [str(i) for i in range(1, 11)],
            "events": ["a", "b", "c", "d"],
            "initial": ["1", "10"],
            "transitions": [list(t) for t in TEN_STATE_TRANSITIONS],
        }
    )


def test_parse_model_fixture():
    g = parse_model(model_text())
    assert len(g.states) == 10
    assert g.initial == frozenset({"1", "10"})
    assert g.transitions == ten_state_plant().transitions


def test_parse_model_syntax_error():
    with pytest.raises(InputError, match="syntax error"):
        parse_model("{not json")
    with pytest.raises(InputError, match="syntax error"):
        parse_model('["a list"]')
    nested = "[" * 200000 + "]" * 200000  # deeper than the decoder's recursion limit
    with pytest.raises(InputError, match="syntax error in model document"):
        parse_model(nested)
    with pytest.raises(InputError, match="syntax error in attack document"):
        parse_spec(nested, ten_state_plant())


_ROW_MESSAGE = "syntax error in model document: each transition must be [source, event, target]"


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("transitions", {"1": "a"}, "syntax error in model document: 'transitions' must be a list"),
        ("transitions", "1a2", "syntax error in model document: 'transitions' must be a list"),
        ("transitions", [["1", "a", "2"], "1a2"], _ROW_MESSAGE),
        ("transitions", [["1", "a", "2"], {"1": "a"}], _ROW_MESSAGE),
        ("transitions", [["1", "a"]], _ROW_MESSAGE),
        ("transitions", [["1", "a", "2", "3"]], _ROW_MESSAGE),
        ("transitions", [[]], _ROW_MESSAGE),
        *[("transitions", [["1", "a", "2"], ["1", item, "2"]], _ROW_MESSAGE)
          for item in (1, True, None, ["a"], {"a": 1})],
        *[("states", ["1", item], "syntax error in model document: 'states' must be a list of strings")
          for item in (1, True, None, ["a"], {"a": 1})],
        ("events", "ab", "syntax error in model document: 'events' must be a list of strings"),
        ("initial", [2], "syntax error in model document: 'initial' must be a list of strings"),
    ],
)
def test_parse_model_rejects_malformed_shapes(key, value, message):
    doc = json.loads(model_text())
    doc[key] = value
    with pytest.raises(InputError) as raised:
        parse_model(json.dumps(doc))
    assert str(raised.value) == message


def test_parsed_plant_builds_its_indexes_on_first_use():
    """Parsing builds no index; the first lookup builds the one index
    ``_out``, which serves the others too."""
    g = parse_model(model_text())
    assert not {"_index", "_moves", "_out"} & set(vars(g))
    assert g.successors("1", "a") == {"2", "3"}
    assert "_out" in vars(g) and not {"_index", "_moves"} & set(vars(g))
    assert g.moves("1") is g.moves("1")


def test_parse_model_unknown_identifier():
    doc = json.loads(model_text())
    doc["transitions"].append(["1", "a", "99"])
    with pytest.raises(InputError, match="unknown identifier"):
        parse_model(json.dumps(doc))


def test_parse_model_reserved_label():
    doc = json.loads(model_text())
    doc["events"].append("Y")
    with pytest.raises(InputError, match="reserved label"):
        parse_model(json.dumps(doc))


def test_model_round_trip_is_identity_on_canonical_form():
    g = parse_model(model_text())
    canonical = serialize_model(g)
    assert serialize_model(parse_model(canonical)) == canonical


def test_parse_spec_both_modes():
    model = parse_model(model_text())
    attack = parse_spec('{"attacked_states": ["2","4"], "budget": 1}', model)
    assert attack == AttackSpec(frozenset({"2", "4"}), 1)
    attack = parse_spec(
        '{"attacked_states": [], "budget": 0,'
        ' "mode": {"opacity": {"secret_states": ["7","8"]}}}',
        model,
    )
    assert attack.mode == "opacity"
    assert attack.secret == frozenset({"7", "8"})


def test_parse_spec_diagnostics():
    model = parse_model(model_text())
    with pytest.raises(InputError, match="negative budget"):
        parse_spec('{"attacked_states": [], "budget": -1}', model)
    with pytest.raises(InputError, match="unknown identifier"):
        parse_spec('{"attacked_states": ["nope"], "budget": 1}', model)
    with pytest.raises(InputError, match="syntax error"):
        parse_spec('{"attacked_states": [], "budget": "one"}', model)
    with pytest.raises(InputError, match="syntax error"):
        parse_spec('{"attacked_states": [], "budget": 1, "mode": "secrecy"}', model)


def _model_with(**change) -> str:
    return json.dumps({**json.loads(model_text()), **change})


def _spec_with(**change) -> str:
    return json.dumps({"attacked_states": ["2"], "budget": 1, **change})


def _opacity(secret) -> dict:
    return {"opacity": {"secret_states": sorted(secret)}}


PLANT = ten_state_plant()
RESERVED_PLANT = Nfa(PLANT.states, PLANT.events | {"Y"}, PLANT.transitions, PLANT.initial)


@pytest.mark.parametrize(
    "category,parse,library",
    [
        pytest.param(
            "unknown identifier",
            lambda: parse_model(_model_with(initial=["1", "99"])),
            lambda: Nfa(PLANT.states, PLANT.events, PLANT.transitions, ["1", "99"]),
            id="initial-state",
        ),
        pytest.param(
            "unknown identifier",
            lambda: parse_model(_model_with(transitions=[["1", "a", "99"]])),
            lambda: Nfa(PLANT.states, PLANT.events, [("1", "a", "99")], PLANT.initial),
            id="transition-endpoint",
        ),
        pytest.param(
            "unknown identifier",
            lambda: parse_model(_model_with(transitions=[["1", "z", "2"]])),
            lambda: Nfa(PLANT.states, PLANT.events, [("1", "z", "2")], PLANT.initial),
            id="transition-label",
        ),
        pytest.param(
            "unknown identifier",
            lambda: parse_spec(_spec_with(attacked_states=["nope"]), PLANT),
            lambda: AttackSpec(frozenset({"nope"}), 1).validate_for(PLANT),
            id="attacked-state",
        ),
        pytest.param(
            "unknown identifier",
            lambda: parse_spec(_spec_with(attacked_states=["nope"]), PLANT),
            lambda: oracle_check_violation(PLANT, AttackSpec(frozenset({"nope"}), 1)),
            id="oracle-attacked-state",
        ),
        pytest.param(
            "unknown identifier",
            lambda: parse_spec(_spec_with(mode=_opacity({"99"})), PLANT),
            lambda: build_attack_observer(PLANT, AttackSpec(frozenset({"2"}), 1, {"99"})),
            id="secret-state",
        ),
        pytest.param(
            "reserved label",
            lambda: parse_model(_model_with(events=["a", "b", "c", "d", "Y"])),
            lambda: build_attack_observer(RESERVED_PLANT, AttackSpec(frozenset({"2"}), 1)),
            id="reserved-event",
        ),
        pytest.param(
            "reserved label",
            lambda: parse_model(_model_with(events=["a", "b", "c", "d", "Y"])),
            lambda: oracle_check_enforced(RESERVED_PLANT, AttackSpec(frozenset({"2"}), 1)),
            id="oracle-reserved-event",
        ),
        pytest.param(
            "negative budget",
            lambda: parse_spec(_spec_with(budget=-1), PLANT),
            lambda: AttackSpec(frozenset({"2"}), -1),
            id="negative-budget",
        ),
        pytest.param(
            "syntax error",
            lambda: parse_spec(_spec_with(budget=True), PLANT),
            lambda: AttackSpec(frozenset({"2"}), True),
            id="bool-budget",
        ),
        pytest.param(
            "invalid secret set",
            lambda: parse_spec(_spec_with(mode=_opacity(PLANT.states)), PLANT),
            lambda: AttackSpec(frozenset({"2"}), 1, PLANT.states).validate_for(PLANT),
            id="secret-covers-all",
        ),
        pytest.param(
            "invalid secret set",
            lambda: parse_spec(_spec_with(mode=_opacity(PLANT.states)), PLANT),
            lambda: check_opacity_classic(PLANT, PLANT.states),
            id="classic-secret-covers-all",
        ),
    ],
)
def test_each_rule_has_one_diagnostic_on_both_paths(category, parse, library):
    """The parsers leave every rule on how a document's parts relate to the
    library type that owns it, so both paths give the same message."""
    with pytest.raises(InputError) as parsed:
        parse()
    with pytest.raises(ValueError) as built:
        library()
    assert not isinstance(built.value, InputError)
    assert str(parsed.value).startswith(f"{category}: ")
    assert str(built.value) == str(parsed.value)


def test_spec_round_trip():
    model = parse_model(model_text())
    for attack in (
        AttackSpec(frozenset({"2", "4"}), 1),
        AttackSpec(frozenset(), 2, frozenset({"7", "8"})),
    ):
        assert parse_spec(serialize_spec(attack), model) == attack


def test_verifier_dot_matches_golden():
    _, verifier = check_violation(ten_state_plant(), AttackSpec(frozenset({"2", "4"}), 1))
    assert export_dot(verifier, "verifier") == (GOLDEN / "verifier.dot").read_text(
        encoding="utf-8"
    )


def test_empty_automaton_dot():
    _, fv = check_enforced(ten_state_plant(), AttackSpec(frozenset({"2", "4"}), 1))
    dot = export_dot(fv, "final_verifier")
    assert 'empty [shape=plaintext label="empty"]' in dot


def test_dot_export_rejects_unknown_types():
    with pytest.raises(TypeError, match="cannot export dict to DOT"):
        export_dot({}, "graph")


def test_strategy_dot_uses_slash_labels():
    enforced, fv = check_enforced(
        ten_state_plant(), AttackSpec(frozenset({"2", "4", "8", "9"}), 1)
    )
    strategy = synthesize_strategy(fv, fv.parent)
    dot = export_dot(strategy, "strategy")
    assert '[label="ε/N"]' in dot
    assert '[label="b/Y0"]' in dot
    assert '[label="b/Y1"]' in dot


def test_strategy_json_round_trip_fields():
    enforced, fv = check_enforced(
        ten_state_plant(), AttackSpec(frozenset({"2", "4", "8", "9"}), 1)
    )
    strategy = synthesize_strategy(fv, fv.parent)
    doc = json.loads(serialize_strategy(strategy))
    assert doc["initial"] == "(A,0,{1,10})"
    assert doc["budget"] == 1
    assert len(doc["edges"]) == strategy.n_edges
    assert {"from": "(S,0N,{2,3})", "input": "b", "output": "Y1", "to": "(S,1,{4})"} in doc[
        "edges"
    ]


def dumped_strategy(strategy) -> str:
    """The strategy document as ``json.dumps`` writes it."""
    names = strategy.names()
    document = {
        "initial": names[strategy.initial_id],
        "states": list(names.values()),
        "edges": strategy_edge_rows(strategy, names),
        "policy": strategy.policy,
        "budget": strategy.attack.budget,
    }
    return json.dumps(document, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def test_strategy_json_matches_json_dumps_on_corpus(instances):
    written = 0
    for plant, attack in instances:
        enforced, fv = check_enforced(plant, attack)
        if enforced:
            for policy in (RANKED, FIRST_VALID):
                strategy = synthesize_strategy(fv, fv.parent, policy)
                assert serialize_strategy(strategy) == dumped_strategy(strategy)
                written += 1
    assert written > 100


def test_strategy_json_escapes_like_json_dumps():
    # Quotes, backslashes and non-ASCII letters in state and event names.
    states = ['q"0', "q\\1", "é2", 'ü"\\3']
    plant = Nfa(
        states,
        ["ß", "e"],
        [('q"0', "ß", "q\\1"), ('q"0', "ß", "é2"), ("é2", "e", 'ü"\\3'), ("q\\1", "e", 'q"0')],
        ['q"0', "é2"],
    )
    enforced, fv = check_enforced(plant, AttackSpec(frozenset({'q"0', "q\\1"}), 1))
    assert enforced
    for policy in (RANKED, FIRST_VALID):
        strategy = synthesize_strategy(fv, fv.parent, policy)
        text = serialize_strategy(strategy)
        assert text == dumped_strategy(strategy)
        assert "é" in text and '\\"' in text and "\\\\" in text


def test_strategy_json_of_a_strategy_without_edges():
    model = parse_model((SAMPLES / "model.json").read_text())
    attack = parse_spec((SAMPLES / "attack-opacity.json").read_text(), model)
    enforced, fv = check_enforced(model, attack, strict_paper=True)
    strategy = synthesize_strategy(fv, fv.parent)
    assert enforced and len(strategy.ids) == 1 and strategy.n_edges == 0
    text = serialize_strategy(strategy)
    assert text == dumped_strategy(strategy)
    assert '"edges": [],' in text


def test_observer_dot_renders_estimates(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(model_text())
    argv = ["export-dot", "--stage", "observer", "--model", str(model), "--attacked", "", "--budget", "0"]
    assert main(argv) == 0
    dot = capsys.readouterr().out
    assert '"{1,10}" [peripheries=2];' in dot and '"{7,8}";' in dot


def test_exports_are_deterministic():
    g = ten_state_plant()
    attack = AttackSpec(frozenset({"2", "4"}), 1)
    first = export_dot(check_violation(g, attack)[1], "verifier")
    second = export_dot(check_violation(g, attack)[1], "verifier")
    assert first == second
    assert serialize_model(g) == serialize_model(parse_model(serialize_model(g)))
