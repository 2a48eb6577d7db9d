"""Command-line front end: every subcommand is a thin composition of library
calls that prints one deterministic JSON report to stdout.

``COMMANDS`` declares every subcommand once, with its help and the flags it
reads, and ``FLAGS`` defines every flag once. A subcommand takes only the
flags it reads: ``--format`` where it has a DOT artifact to write,
``--fail-on-violation`` where it checks a property.

Exit codes: 0 when the analysis ran (whatever the verdict), 1 only when
--fail-on-violation is set and the checked property is violated/enforced,
2 on malformed input, a path that cannot be read or written, or a closed
standard output, 3 when the synthesized strategy does not cover a reachable
play, 4 on any other error.
Errors are reported as one ``error: ...`` line on stderr, never as a
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .aobs import build_attack_observer
from .attackmodel import ATTACK_NO, PHASE_SYSTEM, AttackSpec
from .automata import Nfa
from .enforcement import check_enforced
from .oracle import oracle_check_enforced, oracle_check_violation
from .serialize import (
    InputError,
    export_dot,
    parse_model,
    parse_spec,
    serialize_strategy,
    strategy_edge_rows,
)
from .strategy import (
    Adversarial,
    FIRST_VALID,
    MealyStrategy,
    RANKED,
    RandomSeeded,
    StrategyError,
    rank_search,
    simulate_play,
    synthesize_strategy,
    validate_strategy,
)
from .violation import check_violation, violating_ids, witness_labels

STAGES = ("model", "observer", "aobs", "verifier", "final-verifier", "strategy")
_NO_ATTACK = AttackSpec(frozenset(), 0)  # the attack game of the attack-free commands

# Every flag, once: its option string and the keyword arguments of add_argument.
FLAGS = {
    "--model": {"required": True, "help": "path to the plant model document"},
    "--spec": {"help": "path to the attack description document"},
    "--mode": {"choices": ("anonymity", "opacity"), "default": "anonymity"},
    "--secret": {"help": "comma-separated secret states (opacity mode)"},
    "--attacked": {"help": "comma-separated attacked states"},
    "--budget": {"type": int, "help": "maximum number of state attacks"},
    "--out": {"help": "write the produced artifact to this path"},
    "--format": {"choices": ("json", "dot"), "default": "json"},
    "--fail-on-violation": {"action": "store_true"},
    "--strict-paper": {"action": "store_true", "help": "literal pruning rule for result branches"},
    "--policy": {"choices": (RANKED, FIRST_VALID), "default": RANKED},
    "--seed": {"type": int, "help": "seeded random system; omit for the adversarial system"},
    "--max-rounds": {"type": int, "default": 1000},
    "--horizon": {"type": int, "help": "event bound of the violation search (default none)"},
    "--stage": {"choices": STAGES, "default": "model"},
}

# The plant, the attack and --out: all but observer and check-classic take these.
_INPUTS = ("--model", "--spec", "--mode", "--secret", "--attacked", "--budget", "--out")

# Every subcommand, once: its help and the flags it reads, in usage order.
COMMANDS = {
    "observer": ("build the plant observer", ("--model", "--out", "--format")),
    "check-classic": (
        "attack-free anonymity/opacity checks",
        ("--model", "--out", "--fail-on-violation", "--spec", "--mode", "--secret"),
    ),
    "build-aobs": ("build the attack observer", (*_INPUTS, "--format")),
    "check-violation": (
        "can the intruder ever pin the system down?",
        (*_INPUTS, "--format", "--fail-on-violation"),
    ),
    "check-enforced": (
        "can the intruder force a violation?",
        (*_INPUTS, "--format", "--fail-on-violation", "--strict-paper"),
    ),
    "synthesize": (
        "synthesize an attack strategy",
        (*_INPUTS, "--format", "--fail-on-violation", "--strict-paper", "--policy"),
    ),
    "simulate": (
        "simulate plays of a synthesized strategy",
        (*_INPUTS, "--fail-on-violation", "--strict-paper", "--policy", "--seed", "--max-rounds"),
    ),
    "oracle": (
        "brute-force verdicts computed directly on the plant",
        (*_INPUTS, "--fail-on-violation", "--horizon"),
    ),
    "export-dot": (
        "render a pipeline stage as DOT", (*_INPUTS, "--strict-paper", "--policy", "--stage")
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stateattack",
        description="Anonymity/opacity analysis of NFAs under a bounded budget of state attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _names(flag: str | None) -> list:
    """The names in a comma-separated flag value, each taken verbatim."""
    return [name for name in (flag or "").split(",") if name]


def _load_inputs(args):
    """The plant, and the attack the command reads: none for ``observer``.
    ``check-classic`` reads only the secret set and takes no --attacked or
    --budget, so its inline attack attacks nothing with budget 0. The
    attack-free ``export-dot`` stages default --budget to 0 the same way."""
    model = parse_model(_read(args.model))
    if "spec" not in args:
        return model, None
    attacked, budget = vars(args).get("attacked"), vars(args).get("budget")
    if args.spec:
        if args.mode == "opacity" or (attacked, budget, args.secret) != (None, None, None):
            raise InputError(
                "conflicting attack flags: --spec with --attacked, --budget, --secret or --mode opacity"
            )
        return model, parse_spec(_read(args.spec), model)
    if args.secret is not None and args.mode != "opacity":
        raise InputError("conflicting attack flags: --secret needs --mode opacity")
    if budget is None and "budget" in args and vars(args).get("stage") not in ("model", "observer"):
        raise InputError("either --spec or --attacked/--budget is required")
    document = {"attacked_states": _names(attacked), "budget": budget or 0}
    if args.mode == "opacity":
        document["mode"] = {"opacity": {"secret_states": _names(args.secret)}}
    return model, parse_spec(json.dumps(document), model)


def _rank_fields(rank) -> dict:
    """The report fields of the initial rank: ``forceable``, whether the
    intruder can force a violation in finitely many rounds, and
    ``rank_initial``; both None when it cannot even hold one."""
    if rank is None:
        return {"forceable": None, "rank_initial": None}
    finite = not math.isinf(rank)
    return {"forceable": finite, "rank_initial": rank if finite else "inf"}


def _emit(report: dict, args, graph=None, name: str = "") -> None:
    """Print the report. Under --out write there the DOT text of ``graph``
    under --format dot, else a strategy's JSON document, else the report: an
    artifact is made only when it is written."""
    text = json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)
    if args.out:
        if graph is not None and args.format == "dot":
            artifact = export_dot(graph, name)
        elif isinstance(graph, MealyStrategy):
            artifact = serialize_strategy(graph)
        else:
            artifact = text + "\n"
        _write(args.out, artifact)
    print(text)


def _stage(stage: str, model: Nfa, attack: AttackSpec, args):
    """The graph of a pipeline stage (one of ``STAGES``) and its DOT name. The
    strategy stage is the empty final verifier when the intruder cannot
    enforce a violation."""
    if stage == "model":
        return model, "plant"
    if stage == "observer":
        return _observer(model), "observer"
    if stage == "aobs":
        return build_attack_observer(model, attack), "attack_observer"
    if stage == "verifier":
        return check_violation(model, attack)[1], "verifier"
    enforced, fv = check_enforced(model, attack, args.strict_paper)
    if stage == "final-verifier":
        return fv, "final_verifier"
    return (synthesize_strategy(fv, fv.parent, args.policy) if enforced else fv), "strategy"


def _observer(model: Nfa) -> tuple:
    """Sorted DOT node and edge rows of the plant observer, read off the attack game with no attack:
    its system nodes are the estimates, and an event's edge ends at its decision node's one child."""
    game = build_attack_observer(model, _NO_ATTACK)
    names = {i: "{" + ",".join(game.members_of(i)) + "}" for i in game.ids if game.phase[i] == PHASE_SYSTEM}
    initial = game.target(game.initial_id, ATTACK_NO)
    nodes = sorted((text, "peripheries=2" if i == initial else "") for i, text in names.items())
    rows = ((text, label, j) for i, text in names.items() for label, j in game.kept_targets(i))
    edges = sorted((text, label, names[game.target(j, ATTACK_NO)]) for text, label, j in rows)
    return nodes, edges


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a reader that went away shows here, not at shutdown
        return code
    except BrokenPipeError as exc:  # an output that cannot be written, as for --out
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so shutdown flushes there
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # InputError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StrategyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # last resort: one line, not a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def _dispatch(args) -> int:
    model, attack = _load_inputs(args)
    if args.command == "export-dot":
        dot = export_dot(*_stage(args.stage, model, attack, args))
        if args.out:
            _write(args.out, dot)
            print(json.dumps({"command": args.command, "stage": args.stage, "written": args.out}))
        else:
            print(dot, end="")
        return 0
    report, verdict, artifact = _report(args.command, model, attack, args)
    _emit({"command": args.command, **report}, args, *artifact)
    return 1 if verdict and getattr(args, "fail_on_violation", False) else 0


def _report(command: str, model: Nfa, attack: AttackSpec, args):
    """The report fields of ``command``, the verdict that --fail-on-violation
    tests (a violated property, or an enforced attack), and the artifact
    ``_emit`` may write: the graph and DOT name of the command's stage, or ()."""
    if command == "observer":
        (nodes, edges), name = _stage("observer", model, attack, args)
        # ``StateEstimate`` order: a name splits into its members, as no state name holds ',', '{' or '}'.
        states = sorted((text for text, _ in nodes), key=lambda text: text[1:-1].split(","))
        report = {"observer_states": len(nodes), "observer_transitions": len(edges), "states": states}
        return report, False, ((nodes, edges), name)

    if command == "check-classic":  # violations of the attack game with no attack
        game = build_attack_observer(model, _NO_ATTACK)
        report = {}
        holds = report["anonymous"] = not violating_ids(game, _NO_ATTACK)
        if attack.secret is not None:
            holds = report["opaque"] = not violating_ids(game, attack)
        return report, not holds, ()

    if command == "build-aobs":
        aobs, name = _stage("aobs", model, attack, args)
        report = {
            "states": len(aobs.ids),
            "transitions": aobs.n_transitions,
            "initial": aobs.names([aobs.initial_id])[aobs.initial_id],
        }
        return report, False, (aobs, name)

    if command == "check-violation":
        verifier, name = _stage("verifier", model, attack, args)
        verdict = not verifier.is_empty
        report = {
            "mode": attack.mode,
            "verdict": verdict,
            "attack_observer_states": len(verifier.parent.ids),
            "verifier_states": len(verifier.ids),
            "witness": witness_labels(verifier, attack),
        }
        return report, verdict, (verifier, name)

    if command == "check-enforced":
        fv, name = _stage("final-verifier", model, attack, args)
        verdict = not fv.is_empty
        rank_initial = None
        if verdict:
            rank_initial = rank_search(fv, attack)[fv.initial_id]
        report = {
            "mode": attack.mode,
            "verdict": verdict,
            "final_verifier_states": len(fv.ids),
            **_rank_fields(rank_initial),
        }
        return report, verdict, (fv, name)

    if command == "synthesize":
        strategy, name = _stage("strategy", model, attack, args)
        if not isinstance(strategy, MealyStrategy):
            report = {"enforced": False, "forceable": None, "strategy_states": 0}
            return report, False, (strategy, name)
        validation = validate_strategy(strategy, strategy.graph.parent, attack)
        report = {
            "enforced": True,
            "policy": strategy.policy,
            "strategy_states": len(strategy.ids),
            "strategy_edges": strategy.n_edges,
            "sound": validation.sound,
            "max_rounds": validation.max_rounds,
            **_rank_fields(strategy.id_ranks.get(strategy.initial_id)),
            "edges": strategy_edge_rows(strategy, strategy.names()),
        }
        return report, True, (strategy, name)

    if command == "simulate":
        if args.max_rounds < 1:  # whatever the verdict would be
            raise InputError("max_rounds must be at least 1")
        strategy, _ = _stage("strategy", model, attack, args)
        if not isinstance(strategy, MealyStrategy):
            return {"enforced": False, "outcome": None}, False, ()
        policy = RandomSeeded(args.seed) if args.seed is not None else Adversarial()
        trace = simulate_play(model, strategy, policy, args.max_rounds)
        report = {
            "enforced": True,
            "outcome": trace.outcome,
            "rounds": [
                {
                    "event": rnd.event,
                    "decision": rnd.decision,
                    "result": rnd.result,
                    "estimate": str(rnd.estimate),
                    "true_state": str(rnd.true_state),
                }
                for rnd in trace.rounds
            ],
        }
        return report, trace.outcome == "violated", ()

    # oracle, the last command
    violation = oracle_check_violation(model, attack, args.horizon)
    report = {
        "horizon": args.horizon,
        "violation": violation,
        "enforced": oracle_check_enforced(model, attack),
    }
    return report, violation, ()


if __name__ == "__main__":
    sys.exit(main())
