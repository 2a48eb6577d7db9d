"""Command-line behavior: reports, artifacts, and the exit-code contract."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from helpers import MASTER_SEED, TEN_STATE_TRANSITIONS, corpus, dfa_dot

import stateattack
from stateattack.cli import STAGES, _dispatch, build_parser, main
from stateattack.reference import check_anonymity_classic, check_opacity_classic, observer
from stateattack.serialize import parse_model, serialize_model


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "states": [str(i) for i in range(1, 11)],
                "events": ["a", "b", "c", "d"],
                "initial": ["1", "10"],
                "transitions": [list(t) for t in TEN_STATE_TRANSITIONS],
            }
        )
    )
    return str(path)


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "attack.json"
    path.write_text('{"attacked_states": ["2", "4"], "budget": 1, "mode": "anonymity"}')
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_observer_report(capsys, model_path):
    code, out = run(capsys, "observer", "--model", model_path)
    report = json.loads(out)
    assert code == 0
    assert report["observer_states"] == 5
    assert "{1,10}" in report["states"]


def test_check_classic_report(capsys, model_path):
    code, out = run(
        capsys, "check-classic", "--model", model_path, "--mode", "opacity", "--secret", "7,8",
    )
    report = json.loads(out)
    assert code == 0
    assert report["anonymous"] is True
    assert report["opaque"] is False


def test_attack_free_commands_equal_the_reference_constructions(capsys, tmp_path):
    """``observer``, ``check-classic`` and the observer stage read the attack
    game at budget 0. Over the corpus and the sample they print what the
    subset-construction observer and the classic checks give: the report
    lists the estimates in ``StateEstimate`` order, and both DOT texts are
    the ``Dfa`` writer's. Some plant's estimates sort otherwise by name, as
    {1} sorts before {1,2} but prints after it. The commands run as ``main``
    runs them, on one parser."""
    parser = build_parser()

    def cli(*argv):
        code = _dispatch(parser.parse_args(argv))
        return code, capsys.readouterr().out

    rng = random.Random(MASTER_SEED)
    model, dot_path = tmp_path / "model.json", tmp_path / "observer.dot"
    plants = [plant for plant, _ in corpus()] + [parse_model((SAMPLES / "model.json").read_text())]
    reordered = 0
    for plant in plants:
        model.write_text(serialize_model(plant))
        obs = observer(plant)
        states = [str(estimate) for estimate in sorted(obs.states)]
        reordered += states != sorted(states)
        expected = {
            "command": "observer",
            "observer_states": len(obs.states),
            "observer_transitions": len(obs.transitions),
            "states": states,
        }
        code, out = cli("observer", "--model", str(model), "--format", "dot", "--out", str(dot_path))
        assert (code, json.loads(out)) == (0, expected)
        assert dot_path.read_text(encoding="utf-8") == dfa_dot(obs, "observer")
        stage = ["export-dot", "--stage", "observer", "--model", str(model), "--attacked", "", "--budget", "0"]
        assert cli(*stage) == (0, dfa_dot(obs, "observer"))
        code, out = cli("check-classic", "--model", str(model))
        anonymous = check_anonymity_classic(plant)
        assert (code, json.loads(out)) == (0, {"command": "check-classic", "anonymous": anonymous})
        names = sorted(plant.states)
        for _ in range(3):
            secret = rng.sample(names, rng.randint(0, len(names) - 1))
            argv = ["check-classic", "--model", str(model), "--mode", "opacity", "--secret", ",".join(secret)]
            report = json.loads(cli(*argv)[1])
            assert report["anonymous"] == anonymous
            assert report["opaque"] == check_opacity_classic(plant, secret)
    assert reordered


def test_check_violation_report(capsys, model_path, spec_path):
    code, out = run(capsys, "check-violation", "--model", model_path, "--spec", spec_path)
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] is True
    assert report["attack_observer_states"] == 34
    assert report["verifier_states"] == 16
    assert report["witness"] is not None


def test_check_enforced_report(capsys, model_path, spec_path):
    code, out = run(capsys, "check-enforced", "--model", model_path, "--spec", spec_path)
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] is False
    assert report["final_verifier_states"] == 0
    assert report["rank_initial"] is None


def test_check_enforced_inline_attack_flags(capsys, model_path):
    code, out = run(
        capsys, "check-enforced", "--model", model_path,
        "--attacked", "2,4,8,9", "--budget", "1",
    )
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] is True
    assert report["final_verifier_states"] == 27
    assert report["rank_initial"] == 6


def test_fail_on_violation_exit_code(capsys, model_path, spec_path):
    code, _ = run(
        capsys, "check-violation", "--model", model_path, "--spec", spec_path,
        "--fail-on-violation",
    )
    assert code == 1
    code, _ = run(
        capsys, "check-enforced", "--model", model_path, "--spec", spec_path,
        "--fail-on-violation",
    )
    assert code == 0  # not enforced, so no failure even with the flag


def test_synthesize_writes_strategy_file(capsys, tmp_path, model_path):
    out_path = tmp_path / "strategy.json"
    code, out = run(
        capsys, "synthesize", "--model", model_path,
        "--attacked", "2,4,8,9", "--budget", "1", "--out", str(out_path),
    )
    report = json.loads(out)
    assert code == 0
    assert report["sound"] is True
    written = json.loads(out_path.read_text())
    edges = {(e["from"], e["input"], e["output"], e["to"]) for e in written["edges"]}
    assert ("(A,0,{1,10})", "ε", "N", "(S,0N,{1,10})") in edges
    assert ("(S,0N,{2,3})", "b", "Y0", "(S,1,{5})") in edges
    assert ("(S,0N,{2,3})", "b", "Y1", "(S,1,{4})") in edges
    assert ("(S,0N,{1,10})", "d", "N", "(S,0N,{6,9})") in edges


def test_synthesize_without_enforceable_attack_reports_cleanly(capsys, model_path, spec_path):
    code, out = run(capsys, "synthesize", "--model", model_path, "--spec", spec_path)
    assert code == 0
    report = json.loads(out)
    assert report["enforced"] is False
    assert report["strategy_states"] == 0


def test_simulate_report(capsys, model_path):
    code, out = run(
        capsys, "simulate", "--model", model_path,
        "--attacked", "2,4,8,9", "--budget", "1", "--seed", "11",
    )
    report = json.loads(out)
    assert code == 0
    assert report["outcome"] == "violated"
    assert report["rounds"][0]["event"] == "ε"


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_simulate_without_rounds_exits_2(capsys, model_path, rounds):
    for attacked in ("2,4,8,9", "2,4"):  # enforced, and not enforced
        code = main([
            "simulate", "--model", model_path, "--attacked", attacked, "--budget", "1",
            "--max-rounds", rounds,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: max_rounds must be at least 1\n"


def test_oracle_report(capsys, model_path, spec_path):
    code, out = run(capsys, "oracle", "--model", model_path, "--spec", spec_path)
    report = json.loads(out)
    assert code == 0
    assert report["violation"] is True
    assert report["enforced"] is False


def test_oracle_reports_the_horizon_it_was_given(capsys, model_path, spec_path):
    _, out = run(capsys, "oracle", "--model", model_path, "--spec", spec_path)
    assert json.loads(out)["horizon"] is None  # the default bounds nothing
    _, out = run(capsys, "oracle", "--model", model_path, "--spec", spec_path, "--horizon", "1")
    assert json.loads(out)["horizon"] == 1


def test_build_aobs_report_and_artifacts(capsys, tmp_path, model_path, spec_path):
    inputs = ["--model", model_path, "--spec", spec_path]
    out_path = tmp_path / "aobs"
    code, out = run(capsys, "build-aobs", *inputs, "--out", str(out_path))
    assert code == 0
    assert json.loads(out) == {
        "command": "build-aobs", "initial": "(A,0,{1,10})", "states": 34, "transitions": 47,
    }
    assert out_path.read_text() == out
    code, out = run(capsys, "build-aobs", *inputs, "--format", "dot", "--out", str(out_path))
    assert code == 0 and json.loads(out)["states"] == 34
    assert out_path.read_text() == run(capsys, "export-dot", *inputs, "--stage", "aobs")[1]


def test_observer_out_file_is_the_report(capsys, tmp_path, model_path):
    out_path = tmp_path / "observer.json"
    _, out = run(capsys, "observer", "--model", model_path, "--out", str(out_path))
    assert out_path.read_text() == out  # with its final newline, as every --out JSON file


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--format", "dot"],
        ["export-dot", "--fail-on-violation", "--format", "json"],
        ["observer", "--fail-on-violation"],
        ["build-aobs", "--fail-on-violation"],
        ["check-classic", "--format", "json"],
        ["check-classic", "--budget", "0"],
        ["oracle", "--format", "json"],
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(
    capsys, tmp_path, model_path, spec_path, argv
):
    out_path = tmp_path / "artifact"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--model", model_path, "--spec", spec_path, "--out", str(out_path)])
    assert exit_info.value.code == 2
    assert not out_path.exists()
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["build-aobs", "check-violation", "check-enforced", "synthesize"]
)
def test_artifacts_are_made_only_for_out(capsys, monkeypatch, command):
    def unwanted(*_args):
        raise AssertionError("artifact made without --out")

    monkeypatch.setattr("stateattack.cli.export_dot", unwanted)
    monkeypatch.setattr("stateattack.cli.serialize_strategy", unwanted)
    model, spec = str(SAMPLES / "model.json"), str(SAMPLES / "attack-wide.json")
    for fmt in ("json", "dot"):
        assert main([command, "--model", model, "--spec", spec, "--format", fmt]) == 0
    assert capsys.readouterr().err == ""


def test_strict_paper_flag_changes_final_verifier(capsys, model_path):
    _, out = run(
        capsys, "check-enforced", "--model", model_path,
        "--attacked", "2,4,8,9", "--budget", "1", "--strict-paper",
    )
    assert json.loads(out)["final_verifier_states"] == 29


def test_export_dot_stages(capsys, tmp_path, model_path, spec_path):
    code, out = run(capsys, "export-dot", "--model", model_path, "--spec", spec_path)
    assert code == 0 and out.startswith("digraph plant")
    out_path = tmp_path / "verifier.dot"
    code, _ = run(
        capsys, "export-dot", "--model", model_path, "--spec", spec_path,
        "--stage", "verifier", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_text().startswith("digraph verifier")
    code, out = run(
        capsys, "export-dot", "--model", model_path,
        "--attacked", "2,4,8,9", "--budget", "1", "--stage", "strategy",
    )
    assert code == 0 and "b/Y0" in out
    # The attack-free stages need no attack flags, and check those given.
    for stage in ("model", "observer"):
        code, out = run(capsys, "export-dot", "--model", model_path, "--stage", stage)
        assert code == 0
        assert run(capsys, "export-dot", "--model", model_path, "--stage", stage,
                   "--attacked", "", "--budget", "0") == (0, out)
        assert run(capsys, "export-dot", "--model", model_path, "--stage", stage,
                   "--attacked", "99", "--budget", "0")[0] == 2
    assert run(capsys, "export-dot", "--model", model_path, "--stage", "aobs")[0] == 2


def test_input_errors_exit_2(capsys, tmp_path, model_path):
    bad_model = tmp_path / "bad.json"
    bad_model.write_text("{broken")
    assert run(capsys, "observer", "--model", str(bad_model))[0] == 2
    bad_model.write_text("[" * 200000 + "]" * 200000)  # deeper than the decoder's recursion limit
    assert run(capsys, "check-violation", "--model", str(bad_model),
               "--attacked", "1", "--budget", "1")[0] == 2
    assert run(capsys, "check-violation", "--model", model_path,
               "--attacked", "2,99", "--budget", "1")[0] == 2
    assert run(capsys, "check-violation", "--model", model_path,
               "--attacked", "2", "--budget", "-1")[0] == 2
    assert run(capsys, "check-violation", "--model", model_path)[0] == 2  # no spec at all
    assert run(capsys, "observer", "--model", str(tmp_path / "missing.json"))[0] == 2
    bad_model.write_bytes(b"\xff{}")  # not UTF-8
    for argv in (["observer", "--model", str(bad_model)],
                 ["check-violation", "--model", model_path, "--spec", str(bad_model)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad_model}: ")


@pytest.mark.parametrize("command", ["synthesize", "export-dot"])
def test_unwritable_out_exits_2(capsys, tmp_path, command):
    out = tmp_path / "missing" / "x.json"
    code = main([command, "--model", str(SAMPLES / "model.json"),
                 "--spec", str(SAMPLES / "attack-wide.json"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize(
    "model_change,mode,category",
    [
        ({"states": "1"}, None, "syntax error"),
        ({"transitions": {}}, None, "syntax error"),
        ({"initial": ["99"]}, None, "unknown identifier"),
        ({"initial": []}, None, "syntax error"),
        ({"transitions": [["1", "a"]]}, None, "syntax error"),
        ({"transitions": [["1", "z", "2"]]}, None, "unknown identifier"),
        ({}, {"opacity": ["7"]}, "syntax error"),
        ({}, {"opacity": {"secret_states": ["99"]}}, "unknown identifier"),
        ({"states": [str(i) for i in range(1, 11)] + ["\ud800"]}, None, "syntax error"),
        ({"events": ["a", "b", "c", "d", "\ud800"]}, None, "syntax error"),
    ],
)
def test_malformed_documents_exit_2_with_their_category(
    capsys, tmp_path, model_path, model_change, mode, category
):
    model, spec = tmp_path / "changed.json", tmp_path / "attack.json"
    model.write_text(json.dumps({**json.loads(Path(model_path).read_text()), **model_change}))
    attack = {"attacked_states": ["2"], "budget": 1, "mode": mode or "anonymity"}
    spec.write_text(json.dumps(attack))
    code = main(["check-violation", "--model", str(model), "--spec", str(spec)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {category}") and captured.err.count("\n") == 1


def test_secret_flag_covering_every_state_exits_2(capsys, model_path):
    every_state = ",".join(str(i) for i in range(1, 11))
    code = main([
        "check-enforced", "--model", model_path, "--attacked", "2", "--budget", "1",
        "--mode", "opacity", "--secret", every_state,
    ])
    assert code == 2
    assert "invalid secret set" in capsys.readouterr().err


def test_state_names_with_reserved_characters_exit_2(capsys, tmp_path):
    """Names holding ',' would print estimates alike: {1,2,3} twice here."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "states": ["0", "1", "2,3", "1,2", "3"],
        "events": ["a", "b"],
        "initial": ["0"],
        "transitions": [["0", "a", "1"], ["0", "a", "2,3"], ["0", "b", "1,2"], ["0", "b", "3"]],
    }))
    code = main(["observer", "--model", str(model)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: reserved character:") and captured.err.count("\n") == 1


def test_state_names_with_non_decimal_digits_agree_with_the_oracle(capsys, tmp_path):
    """str.isdigit calls "\u00b2" a digit, yet int cannot read it and the
    natural sort key's digit-run split leaves it in a text part."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "states": ["\u00b2", "1\u00b2"],
        "events": ["a"],
        "initial": ["\u00b2", "1\u00b2"],
        "transitions": [["\u00b2", "a", "1\u00b2"], ["1\u00b2", "a", "1\u00b2"]],
    }))
    inputs = ["--model", str(model), "--attacked", "\u00b2", "--budget", "1"]
    code, out = run(capsys, "oracle", *inputs)
    oracle = json.loads(out)
    assert code == 0
    for command, verdict in [("check-violation", "violation"), ("check-enforced", "enforced")]:
        code, out = run(capsys, command, *inputs)
        assert code == 0
        assert json.loads(out)["verdict"] is oracle[verdict]


@pytest.mark.parametrize(
    "inline,document",
    [
        (["--attacked", " 1", "--budget", "1"], {"attacked_states": [" 1"], "budget": 1}),
        (
            ["--attacked", "", "--budget", "0", "--mode", "opacity", "--secret", " 1"],
            {"attacked_states": [], "budget": 0, "mode": {"opacity": {"secret_states": [" 1"]}}},
        ),
    ],
)
@pytest.mark.parametrize("command", ["check-violation", "synthesize", "oracle"])
def test_inline_state_names_are_taken_verbatim(capsys, tmp_path, inline, document, command):
    """States "1" and " 1": only " 1" moves on b. An inline name that lost
    its blank would attack, or keep secret, the other state."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "states": ["1", " 1"],
        "events": ["a", "b"],
        "initial": ["1", " 1"],
        "transitions": [["1", "a", "1"], [" 1", "a", " 1"], [" 1", "b", " 1"]],
    }))
    spec = tmp_path / "attack.json"
    spec.write_text(json.dumps(document))
    from_flags = run(capsys, command, "--model", str(model), *inline)
    assert from_flags == run(capsys, command, "--model", str(model), "--spec", str(spec))
    assert from_flags[0] == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--spec", "attack-narrow.json", "--budget", "0"],
        ["--spec", "attack-narrow.json", "--attacked", "1"],
        ["--spec", "attack-narrow.json", "--secret", "7,8"],
        ["--spec", "attack-narrow.json", "--mode", "opacity"],
        ["--attacked", "2,4", "--budget", "1", "--secret", "7,8"],
    ],
)
def test_conflicting_attack_flags_exit_2(capsys, flags):
    flags = [str(SAMPLES / flag) if flag.endswith(".json") else flag for flag in flags]
    code = main(["check-violation", "--model", str(SAMPLES / "model.json"), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: conflicting attack flags:") and captured.err.count("\n") == 1


def test_reports_are_deterministic(capsys, model_path, spec_path):
    _, first = run(capsys, "check-violation", "--model", model_path, "--spec", spec_path)
    _, second = run(capsys, "check-violation", "--model", model_path, "--spec", spec_path)
    assert first == second


SAMPLES = Path(__file__).parent.parent / "samples"


# Per sample spec, without and with --strict-paper: the "sound" field of the
# synthesize report (None when nothing is enforced) and simulate's exit code.
STRATEGY_OUTCOMES = {
    "attack-narrow.json": ((None, 0), (None, 0)),
    "attack-wide.json": ((True, 0), (False, 3)),
    "attack-opacity.json": ((None, 0), (False, 3)),
}


@pytest.mark.parametrize(
    "attack_file,violated,enforced",
    [
        ("attack-narrow.json", True, False),
        ("attack-wide.json", True, True),
        ("attack-opacity.json", True, False),
    ],
)
def test_committed_samples_end_to_end(capsys, attack_file, violated, enforced):
    model = str(SAMPLES / "model.json")
    spec = str(SAMPLES / attack_file)
    _, out = run(capsys, "check-violation", "--model", model, "--spec", spec)
    assert json.loads(out)["verdict"] is violated
    _, out = run(capsys, "check-enforced", "--model", model, "--spec", spec)
    assert json.loads(out)["verdict"] is enforced
    for strict, (sound, simulate_code) in zip(([], ["--strict-paper"]), STRATEGY_OUTCOMES[attack_file]):
        code, out = run(capsys, "synthesize", "--model", model, "--spec", spec, *strict)
        assert code == 0
        assert json.loads(out).get("sound") is sound
        code = main(["simulate", "--model", model, "--spec", spec, *strict])
        err = capsys.readouterr().err
        assert code == simulate_code
        if code == 3:
            assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("attack_file", sorted(STRATEGY_OUTCOMES))
@pytest.mark.parametrize(
    "command,stage",
    [
        ("build-aobs", "aobs"),
        ("check-violation", "verifier"),
        ("check-enforced", "final-verifier"),
        ("synthesize", "strategy"),
    ],
)
def test_dot_out_file_is_the_exported_stage(capsys, tmp_path, attack_file, command, stage):
    """A command's ``--format dot --out`` file is its stage's ``export-dot``
    text, whether or not the intruder can enforce a violation."""
    inputs = ["--model", str(SAMPLES / "model.json"), "--spec", str(SAMPLES / attack_file)]
    out_path = tmp_path / "stage.dot"
    run(capsys, command, *inputs, "--format", "dot", "--out", str(out_path))
    assert out_path.read_bytes() == run(capsys, "export-dot", *inputs, "--stage", stage)[1].encode()


@pytest.mark.parametrize("command", ["check-enforced", "synthesize"])
def test_forceable_with_finite_rank(capsys, command):
    model, spec = str(SAMPLES / "model.json"), str(SAMPLES / "attack-wide.json")
    report = json.loads(run(capsys, command, "--model", model, "--spec", spec)[1])
    assert report["forceable"] is True
    assert report["rank_initial"] == 6


@pytest.mark.parametrize("command", ["check-enforced", "synthesize"])
def test_forceable_false_when_only_held(capsys, command):
    model, spec = str(SAMPLES / "model.json"), str(SAMPLES / "attack-opacity.json")
    report = json.loads(run(capsys, command, "--model", model, "--spec", spec, "--strict-paper")[1])
    assert report.get("verdict", report.get("enforced")) is True
    assert report["forceable"] is False
    assert report["rank_initial"] == "inf"


@pytest.mark.parametrize("command", ["check-enforced", "synthesize"])
def test_forceable_null_when_not_enforced(capsys, model_path, spec_path, command):
    report = json.loads(run(capsys, command, "--model", model_path, "--spec", spec_path)[1])
    assert report["forceable"] is None


def test_unexpected_error_is_one_line_exit_4(capsys, monkeypatch, model_path, spec_path):
    def broken(*_args):
        raise RuntimeError("internal breach")

    monkeypatch.setattr("stateattack.cli.check_violation", broken)
    code = main(["check-violation", "--model", model_path, "--spec", spec_path])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: RuntimeError: internal breach\n"


def run_fresh(*argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter that imports the package tested here."""
    src = str(Path(stateattack.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *argv], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)


def test_importing_the_package_leaves_the_cli_out():
    """The command line and argparse load only when a command runs."""
    probe = "import sys, stateattack; print({'stateattack.cli', 'argparse'} & sys.modules.keys())"
    result = run_fresh("-c", probe)
    assert (result.returncode, result.stdout) == (0, "set()\n"), result.stderr


def test_no_subcommand_imports_the_reference_module():
    """Every subcommand, with every stage, format, policy and pruning rule,
    runs in one interpreter that never loads ``stateattack.reference``."""
    result = run_fresh(str(Path(__file__).parent / "reference_boundary.py"))
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout)
    assert report["reference_loaded"] is False and report["runs"] > 100


REFERENCE_NAMES = (
    "Dfa", "bounded_game_structure", "check_anonymity_classic", "check_opacity_classic", "compose",
    "game_structure", "number_attack_model", "observer", "system_attack_model", "violation_predicate",
)


def test_reference_names_load_on_first_access():
    """``import stateattack`` leaves ``reference`` out; each of its names then
    resolves from the package to the object in ``reference``, and an unknown
    name still raises ``AttributeError``."""
    probe = "\n".join([
        "import sys, stateattack",
        "print('stateattack.reference' in sys.modules)",
        f"names = {REFERENCE_NAMES!r}",
        "print(all(getattr(stateattack, n) is getattr(stateattack.reference, n) for n in names))",
        "try:\n    stateattack.no_such_name\nexcept AttributeError as exc:\n    print(exc)",
    ])
    result = run_fresh("-c", probe)
    assert result.stdout.splitlines() == [
        "False", "True", "module 'stateattack' has no attribute 'no_such_name'"
    ], result.stderr


def test_closed_standard_output_exits_2(model_path, spec_path):
    """A reader that went away before the report is written: one ``error:``
    line and exit 2, with nothing more at shutdown."""
    read, write = os.pipe()
    os.close(read)
    try:
        argv = ["-m", "stateattack.cli", "check-enforced", "--model", model_path, "--spec", spec_path]
        result = run_fresh(*argv, stdout=write)
    finally:
        os.close(write)
    assert result.returncode == 2
    assert result.stderr == "error: cannot write standard output: [Errno 32] Broken pipe\n"


# --- the command-line contract ------------------------------------------------

# (option strings, dest, default, choices, type, required) of each action of a
# subcommand, in the order its usage line lists them.
HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, None, False)
MODEL = (("--model",), "model", None, None, None, True)
SPEC = (("--spec",), "spec", None, None, None, False)
MODE = (("--mode",), "mode", "anonymity", ("anonymity", "opacity"), None, False)
SECRET = (("--secret",), "secret", None, None, None, False)
ATTACKED = (("--attacked",), "attacked", None, None, None, False)
BUDGET = (("--budget",), "budget", None, None, int, False)
OUT = (("--out",), "out", None, None, None, False)
FORMAT = (("--format",), "format", "json", ("json", "dot"), None, False)
FAILS = (("--fail-on-violation",), "fail_on_violation", False, None, None, False)
STRICT = (("--strict-paper",), "strict_paper", False, None, None, False)
POLICY = (("--policy",), "policy", "ranked", ("ranked", "first-valid"), None, False)
INPUTS = (HELP, MODEL, SPEC, MODE, SECRET, ATTACKED, BUDGET, OUT)
STAGE_CHOICES = ("model", "observer", "aobs", "verifier", "final-verifier", "strategy")
PARSER_CONTRACT = {
    "observer": ("build the plant observer", (HELP, MODEL, OUT, FORMAT)),
    "check-classic": (
        "attack-free anonymity/opacity checks", (HELP, MODEL, OUT, FAILS, SPEC, MODE, SECRET),
    ),
    "build-aobs": ("build the attack observer", (*INPUTS, FORMAT)),
    "check-violation": ("can the intruder ever pin the system down?", (*INPUTS, FORMAT, FAILS)),
    "check-enforced": ("can the intruder force a violation?", (*INPUTS, FORMAT, FAILS, STRICT)),
    "synthesize": ("synthesize an attack strategy", (*INPUTS, FORMAT, FAILS, STRICT, POLICY)),
    "simulate": (
        "simulate plays of a synthesized strategy",
        (
            *INPUTS, FAILS, STRICT, POLICY,
            (("--seed",), "seed", None, None, int, False),
            (("--max-rounds",), "max_rounds", 1000, None, int, False),
        ),
    ),
    "oracle": (
        "brute-force verdicts computed directly on the plant",
        (*INPUTS, FAILS, (("--horizon",), "horizon", None, None, int, False)),
    ),
    "export-dot": (
        "render a pipeline stage as DOT",
        (*INPUTS, STRICT, POLICY, (("--stage",), "stage", "model", STAGE_CHOICES, None, False)),
    ),
}


def test_every_subcommand_keeps_its_flags():
    [subparsers] = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    helps = {action.dest: action.help for action in subparsers._choices_actions}
    assert list(subparsers.choices) == list(PARSER_CONTRACT)
    for command, (help_text, actions) in PARSER_CONTRACT.items():
        assert helps[command] == help_text
        assert tuple(
            (
                tuple(action.option_strings), action.dest, action.default,
                None if action.choices is None else tuple(action.choices),
                action.type, action.required,
            )
            for action in subparsers.choices[command]._actions
        ) == actions, command


@pytest.mark.parametrize("command", list(PARSER_CONTRACT))
def test_every_subcommand_renders_its_help(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: stateattack {command} [-h] --model MODEL")


# --- malformed documents, generated ------------------------------------------

COMMANDS = (
    "observer", "check-classic", "build-aobs", "check-violation", "check-enforced",
    "synthesize", "simulate", "oracle", "export-dot",
)
ATTACK_SAMPLES = ("attack-narrow.json", "attack-opacity.json", "attack-wide.json")
# No replacement is an integer above the samples' budget of 1, so no mutated
# document asks for a bigger game than the samples do.
WRONG_VALUES = (None, 0, -1, 1.5, True, "x", "", [], {}, float("nan"))


@hs.composite
def mutated(draw, value):
    """``value`` with one part changed: replaced by a value of another type,
    wrapped in a list, dropped, or duplicated within its list."""
    if isinstance(value, (dict, list)) and value and draw(hs.booleans()):
        copy = dict(value) if isinstance(value, dict) else list(value)
        key = draw(hs.sampled_from(sorted(copy) if isinstance(copy, dict) else range(len(copy))))
        change = draw(hs.sampled_from(("inside", "drop", "duplicate")))
        if change == "drop":
            del copy[key]
        elif change == "duplicate" and isinstance(copy, list):
            copy.append(copy[key])
        else:
            copy[key] = draw(mutated(copy[key]))
        return copy
    return [value] if draw(hs.booleans()) else draw(hs.sampled_from(WRONG_VALUES))


@settings(max_examples=60, deadline=None)
@given(
    command=hs.sampled_from(COMMANDS),
    attack_name=hs.sampled_from(ATTACK_SAMPLES),
    data=hs.data(),
)
def test_mutated_samples_exit_cleanly(command, attack_name, data):
    """Every subcommand ends a mutated sample document with a report or one
    ``error:`` line: never a traceback and never the exit code of an
    unforeseen error."""
    model = json.loads((SAMPLES / "model.json").read_text())
    attack = json.loads((SAMPLES / attack_name).read_text())
    if data.draw(hs.booleans(), label="mutate the model"):
        model = data.draw(mutated(model), label="model")
    else:
        attack = data.draw(mutated(attack), label="attack")
    with tempfile.TemporaryDirectory() as folder:
        model_file, attack_file = Path(folder, "model.json"), Path(folder, "attack.json")
        model_file.write_text(json.dumps(model))
        attack_file.write_text(json.dumps(attack))
        argv = [command, "--model", str(model_file)]
        if command != "observer":
            argv += ["--spec", str(attack_file)]
        if command == "export-dot":
            argv += ["--stage", data.draw(hs.sampled_from(STAGES), label="stage")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))


def test_every_command_takes_a_state_name_with_a_long_digit_run(capsys, tmp_path):
    """A digit run longer than ``int`` reads (4,300 digits) sorts by its
    length and digits: every subcommand and every ``export-dot`` stage
    reports, and the model writes back."""
    long_name = "7" * 5000
    plant = {
        "states": [long_name, "1", "2"],
        "events": ["a"],
        "initial": [long_name, "1"],
        "transitions": [[long_name, "a", "2"], ["1", "a", "1"], ["2", "a", "2"]],
    }
    model = tmp_path / "model.json"
    model.write_text(json.dumps(plant))
    assert serialize_model(parse_model(model.read_text())).count(long_name) == 3
    inputs = ["--model", str(model), "--attacked", "1", "--budget", "1"]
    argvs = [[command, *inputs] for command in COMMANDS if command not in ("observer", "check-classic")]
    argvs += [["observer", "--model", str(model)], ["check-classic", "--model", str(model)]]
    argvs += [["export-dot", *inputs, "--stage", stage] for stage in STAGES]
    for argv in argvs:
        code = main(argv)
        assert (code, capsys.readouterr().err) == (0, ""), argv
