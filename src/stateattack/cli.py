"""Command-line front end: every subcommand is a thin composition of library
calls that prints one deterministic JSON report to stdout.

A subcommand takes only the flags it reads: ``--format`` where it has a DOT
artifact to write, ``--fail-on-violation`` where it checks a property.

Exit codes: 0 when the analysis ran (whatever the verdict), 1 only when
--fail-on-violation is set and the checked property is violated/enforced,
2 on malformed input or a path that cannot be read or written, 3 when the
synthesized strategy does not cover a reachable play, 4 on any other error.
Errors are reported as one ``error: ...`` line on stderr, never as a
traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .aobs import build_attack_observer
from .attackmodel import AttackSpec
from .automata import Nfa, check_anonymity_classic, check_opacity_classic, observer
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
    INFINITE_RANK,
    MealyStrategy,
    RANKED,
    RandomSeeded,
    StrategyError,
    rank_ids,
    simulate_play,
    synthesize_strategy,
    validate_strategy,
)
from .violation import check_violation, witness_labels

STAGES = ("model", "observer", "aobs", "verifier", "final-verifier", "strategy")


def _add_common(parser: argparse.ArgumentParser, needs_spec: bool, dot=False, fails=False) -> None:
    parser.add_argument("--model", required=True, help="path to the plant model document")
    if needs_spec:
        _add_spec(parser)
        parser.add_argument("--attacked", help="comma-separated attacked states")
        parser.add_argument("--budget", type=int, help="maximum number of state attacks")
    parser.add_argument("--out", help="write the produced artifact to this path")
    if dot:
        parser.add_argument("--format", choices=("json", "dot"), default="json")
    if fails:
        parser.add_argument("--fail-on-violation", action="store_true")


def _add_spec(parser: argparse.ArgumentParser) -> None:
    """--spec, or the inline mode and secret set: all that check-classic reads."""
    parser.add_argument("--spec", help="path to the attack description document")
    parser.add_argument("--mode", choices=("anonymity", "opacity"), default="anonymity")
    parser.add_argument("--secret", help="comma-separated secret states (opacity mode)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stateattack",
        description="Anonymity/opacity analysis of NFAs under a bounded budget of state attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("observer", help="build the plant observer")
    _add_common(p, needs_spec=False, dot=True)

    p = sub.add_parser("check-classic", help="attack-free anonymity/opacity checks")
    _add_common(p, needs_spec=False, fails=True)
    _add_spec(p)

    p = sub.add_parser("build-aobs", help="build the attack observer")
    _add_common(p, needs_spec=True, dot=True)

    p = sub.add_parser("check-violation", help="can the intruder ever pin the system down?")
    _add_common(p, needs_spec=True, dot=True, fails=True)

    p = sub.add_parser("check-enforced", help="can the intruder force a violation?")
    _add_common(p, needs_spec=True, dot=True, fails=True)
    p.add_argument("--strict-paper", action="store_true", help="literal pruning rule for result branches")

    p = sub.add_parser("synthesize", help="synthesize an attack strategy")
    _add_common(p, needs_spec=True, dot=True, fails=True)
    p.add_argument("--strict-paper", action="store_true")
    p.add_argument("--policy", choices=(RANKED, FIRST_VALID), default=RANKED)

    p = sub.add_parser("simulate", help="simulate plays of a synthesized strategy")
    _add_common(p, needs_spec=True, fails=True)
    p.add_argument("--strict-paper", action="store_true")
    p.add_argument("--policy", choices=(RANKED, FIRST_VALID), default=RANKED)
    p.add_argument("--seed", type=int, help="seeded random system; omit for the adversarial system")
    p.add_argument("--max-rounds", type=int, default=1000)

    p = sub.add_parser("oracle", help="brute-force verdicts computed directly on the plant")
    _add_common(p, needs_spec=True, fails=True)
    p.add_argument("--horizon", type=int, help="event bound of the violation search (default none)")

    p = sub.add_parser("export-dot", help="render a pipeline stage as DOT")
    _add_common(p, needs_spec=True)
    p.add_argument("--strict-paper", action="store_true")
    p.add_argument("--policy", choices=(RANKED, FIRST_VALID), default=RANKED)
    p.add_argument("--stage", choices=STAGES, default="model")
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _names(flag: str | None) -> list:
    """The names in a comma-separated flag value."""
    return [name.strip() for name in (flag or "").split(",") if name.strip()]


def _load_inputs(args):
    """The plant, and the attack the command reads: none for ``observer``.
    ``check-classic`` reads only the secret set and takes no --attacked or
    --budget, so its inline attack attacks nothing with budget 0."""
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
    if budget is None and "budget" in args:
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


def _strategy_for(model: Nfa, attack: AttackSpec, args):
    """Synthesized strategy for the instance, or None when the intruder
    cannot enforce a violation."""
    enforced, fv = check_enforced(model, attack, args.strict_paper)
    if not enforced:
        return None, fv
    return synthesize_strategy(fv, fv.parent, args.policy), fv


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
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
    command = args.command
    if command == "observer":
        model, _ = _load_inputs(args)
        obs = observer(model)
        report = {
            "command": command,
            "observer_states": len(obs.states),
            "observer_transitions": len(obs.transitions),
            "states": [str(q) for q in sorted(obs.states)],
        }
        _emit(report, args, obs, "observer")
        return 0

    model, attack = _load_inputs(args)

    if command == "check-classic":
        anonymous = check_anonymity_classic(model)
        report = {"command": command, "anonymous": anonymous}
        holds = anonymous
        if attack.secret is not None:
            holds = report["opaque"] = check_opacity_classic(model, attack.secret)
        _emit(report, args)
        return 1 if args.fail_on_violation and not holds else 0

    if command == "build-aobs":
        aobs = build_attack_observer(model, attack)
        report = {
            "command": command,
            "states": len(aobs.ids),
            "transitions": aobs.n_transitions,
            "initial": aobs.names([aobs.initial_id])[aobs.initial_id],
        }
        _emit(report, args, aobs, "attack_observer")
        return 0

    if command == "check-violation":
        verdict, verifier = check_violation(model, attack)
        witness = witness_labels(verifier, attack)
        report = {
            "command": command,
            "mode": attack.mode,
            "verdict": verdict,
            "attack_observer_states": len(verifier.parent.ids),
            "verifier_states": len(verifier.ids),
            "witness": witness,
        }
        _emit(report, args, verifier, "verifier")
        return 1 if args.fail_on_violation and verdict else 0

    if command == "check-enforced":
        verdict, fv = check_enforced(model, attack, args.strict_paper)
        rank_initial = None
        if verdict:
            rank_initial = rank_ids(fv, attack).get(fv.initial_id, INFINITE_RANK)
        report = {
            "command": command,
            "mode": attack.mode,
            "verdict": verdict,
            "final_verifier_states": len(fv.ids),
            **_rank_fields(rank_initial),
        }
        _emit(report, args, fv, "final_verifier")
        return 1 if args.fail_on_violation and verdict else 0

    if command == "synthesize":
        strategy, fv = _strategy_for(model, attack, args)
        if strategy is None:
            report = {"command": command, "enforced": False, "forceable": None, "strategy_states": 0}
            _emit(report, args)
            return 0
        validation = validate_strategy(strategy, fv.parent, attack)
        rank_initial = strategy.id_ranks.get(strategy.initial_id)
        report = {
            "command": command,
            "enforced": True,
            "policy": strategy.policy,
            "strategy_states": len(strategy.ids),
            "strategy_edges": strategy.n_edges,
            "sound": validation.sound,
            "max_rounds": validation.max_rounds,
            **_rank_fields(rank_initial),
            "edges": strategy_edge_rows(strategy, strategy.names()),
        }
        _emit(report, args, strategy, "strategy")
        return 1 if args.fail_on_violation else 0

    if command == "simulate":
        if args.max_rounds < 1:  # whatever the verdict would be
            raise InputError("max_rounds must be at least 1")
        strategy, _ = _strategy_for(model, attack, args)
        if strategy is None:
            _emit({"command": command, "enforced": False, "outcome": None}, args)
            return 0
        policy = RandomSeeded(args.seed) if args.seed is not None else Adversarial()
        trace = simulate_play(model, strategy, policy, args.max_rounds)
        report = {
            "command": command,
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
        _emit(report, args)
        return 1 if args.fail_on_violation and trace.outcome == "violated" else 0

    if command == "oracle":
        violation = oracle_check_violation(model, attack, args.horizon)
        enforced = oracle_check_enforced(model, attack)
        report = {
            "command": command,
            "horizon": args.horizon,
            "violation": violation,
            "enforced": enforced,
        }
        _emit(report, args)
        return 1 if args.fail_on_violation and violation else 0

    if command == "export-dot":
        return _export_stage(model, attack, args)

    raise InputError(f"unknown command {command!r}")


def _export_stage(model: Nfa, attack: AttackSpec, args) -> int:
    stage = args.stage
    if stage == "model":
        dot = export_dot(model, "plant")
    elif stage == "observer":
        dot = export_dot(observer(model), "observer")
    elif stage == "aobs":
        dot = export_dot(build_attack_observer(model, attack), "attack_observer")
    elif stage == "verifier":
        _, verifier = check_violation(model, attack)
        dot = export_dot(verifier, "verifier")
    elif stage == "final-verifier":
        _, fv = check_enforced(model, attack, args.strict_paper)
        dot = export_dot(fv, "final_verifier")
    else:
        strategy, fv = _strategy_for(model, attack, args)
        dot = export_dot(strategy if strategy is not None else fv, "strategy")
    if args.out:
        _write(args.out, dot)
        print(json.dumps({"command": "export-dot", "stage": stage, "written": args.out}))
    else:
        print(dot, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
