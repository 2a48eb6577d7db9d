"""Golden reports: the command line's output on the committed samples, compared
byte for byte with the files under ``tests/golden/reports``.

Each case is one ``main()`` call on ``samples/model.json`` with one of the
three sample specs, with and without ``--strict-paper`` where the command
takes it; ``observer`` reads the model alone. A run that exits 0
is held to ``<case>.json`` (or ``.dot``), its standard output; any other run
to ``<case>.exit<code>``, its standard error. To rewrite the files after an
intended change of the reports, run ``PYTHONPATH=src python
tests/test_golden.py`` from the repository root and review the diff.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stateattack import cli, reference
from stateattack.aobs import AObsState
from stateattack.automata import StateEstimate
from stateattack.cli import STAGES, main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "reports"
SPECS = ("narrow", "wide", "opacity")


def cases() -> dict:
    """Case name -> (argv, extension of its standard output)."""
    table = {}
    for spec in SPECS:
        for strict in (False, True):
            flags = ["--strict-paper"] if strict else []
            suffix = f"{spec}{'-strict' if strict else ''}"
            variants = [
                ("check-enforced", ["check-enforced"], "json"),
                ("synthesize-ranked", ["synthesize", "--policy", "ranked"], "json"),
                ("synthesize-first-valid", ["synthesize", "--policy", "first-valid"], "json"),
                ("simulate-adversarial", ["simulate"], "json"),
                ("simulate-seed7", ["simulate", "--seed", "7"], "json"),
            ]
            variants += [
                (f"export-dot-{stage}", ["export-dot", "--stage", stage], "dot") for stage in STAGES
            ]
            if not strict:  # these commands take no --strict-paper flag
                variants += [
                    (command, [command], "json")
                    for command in ("check-violation", "check-classic", "build-aobs", "oracle")
                ]
            for name, command, extension in variants:
                argv = command + [
                    "--model", str(ROOT / "samples" / "model.json"),
                    "--spec", str(ROOT / "samples" / f"attack-{spec}.json"),
                ] + flags
                table[f"{name}-{suffix}"] = (argv, extension)
    table["observer"] = (["observer", "--model", str(ROOT / "samples" / "model.json")], "json")
    return table


def produce(argv: list, extension: str) -> tuple:
    """(file suffix, text) of one run: standard output when it exits 0,
    standard error otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        return extension, out.getvalue()
    return f"exit{code}", err.getvalue()


CASES = cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    argv, extension = CASES[case]
    suffix, text = produce(argv, extension)
    stored = sorted(p.name for p in GOLDEN.glob(f"{case}.*"))
    assert stored == [f"{case}.{suffix}"]
    assert (GOLDEN / f"{case}.{suffix}").read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("case", sorted(c for c in CASES if not c.startswith("simulate-")))
def test_report_makes_no_state_objects(case, monkeypatch):
    """Only a play needs ``AObsState`` or ``StateEstimate`` objects (its
    rounds' estimates); every other report and DOT file, the plant
    observer's and the attack-free checks' among them, is written from the
    node ids."""
    made = []

    def counting(self, *args, _init=AObsState.__init__, **kwargs):
        made.append(self)
        _init(self, *args, **kwargs)

    def counting_estimate(self, _post_init=StateEstimate.__post_init__):
        made.append(self)
        _post_init(self)

    monkeypatch.setattr(AObsState, "__init__", counting)
    monkeypatch.setattr(StateEstimate, "__post_init__", counting_estimate)
    produce(*CASES[case])
    assert len(made) == 0


def test_attack_free_checks_build_one_game(monkeypatch):
    """``check-classic`` reads anonymity and opacity off one attack game and
    never builds the subset-construction observer."""
    built = []

    def counting(*args, _build=cli.build_attack_observer):
        built.append(args)
        return _build(*args)

    def forbidden(*args):
        raise AssertionError("reference.observer called")

    monkeypatch.setattr(cli, "build_attack_observer", counting)
    monkeypatch.setattr(reference, "observer", forbidden)
    model = str(ROOT / "samples" / "model.json")
    argv = ["check-classic", "--model", model, "--mode", "opacity", "--secret", "7,8"]
    assert produce(argv, "json") == ("json", (GOLDEN / "check-classic-opacity.json").read_text())
    assert len(built) == 1


def write_all() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    for case, (argv, extension) in sorted(CASES.items()):
        suffix, text = produce(argv, extension)
        (GOLDEN / f"{case}.{suffix}").write_bytes(text.encode("utf-8"))
    print(f"wrote {len(CASES)} files to {GOLDEN}")


if __name__ == "__main__":
    write_all()
