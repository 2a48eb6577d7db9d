"""Run every subcommand on the samples in this one interpreter, and check that
none of them imports ``stateattack.reference``, the paper's constructions
that only the tests read.

The runs cover every subcommand on every sample attack, ``--format dot
--out``, every ``export-dot`` stage, ``--strict-paper``, both synthesis
policies, and an adversarial and a seeded play. The script needs only the
standard library and the package:

    PYTHONPATH=src python tests/reference_boundary.py

It prints one JSON line, the number of runs, the exit codes met and whether
the reference module was loaded, and exits 1 when it was, when a subcommand
was left out, or when a run ended in an error other than a strategy gap."""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from stateattack import cli

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def runs(out: str):
    """Every argument list to run, ``out`` being a path the runs may write."""
    model = ["--model", str(SAMPLES / "model.json")]
    yield ["observer", *model]
    yield ["observer", *model, "--format", "dot", "--out", out]
    yield ["check-classic", *model]
    yield ["check-classic", *model, "--mode", "opacity", "--secret", "7,8"]
    for name in ("attack-narrow.json", "attack-wide.json", "attack-opacity.json"):
        inputs = [*model, "--spec", str(SAMPLES / name)]
        for command in ("build-aobs", "check-violation", "check-enforced", "synthesize"):
            yield [command, *inputs]
            yield [command, *inputs, "--format", "dot", "--out", out]
        yield ["oracle", *inputs]
        for strict in ([], ["--strict-paper"]):
            yield ["check-enforced", *inputs, *strict]
            for policy in ("ranked", "first-valid"):
                yield ["synthesize", *inputs, *strict, "--policy", policy, "--out", out]
                for seed in ([], ["--seed", "1"]):
                    yield ["simulate", *inputs, *strict, "--policy", policy, *seed]
                for stage in cli.STAGES:
                    yield ["export-dot", *inputs, *strict, "--policy", policy, "--stage", stage]
            yield ["export-dot", *inputs, *strict, "--stage", "strategy", "--out", out]


def main() -> int:
    commands, codes = set(), set()
    with tempfile.TemporaryDirectory() as folder:
        argvs = list(runs(str(Path(folder, "artifact"))))
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.add(cli.main(argv))
            commands.add(argv[0])
    loaded = "stateattack.reference" in sys.modules
    print(json.dumps({"runs": len(argvs), "exit_codes": sorted(codes), "reference_loaded": loaded}))
    return int(loaded or commands != set(cli.COMMANDS) or not codes <= {0, 1, 3})


if __name__ == "__main__":
    sys.exit(main())
