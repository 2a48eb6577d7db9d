"""The four operations the benchmark runs on each instance, timed untraced
or traced, plus the checks on their outputs.

Untraced, the verdict operations call the composed ``check_violation`` and
``check_enforced``, as the command line does. Traced, they call the stages
those functions compose one at a time, each inside a span, so the self time
of every layer can be read off. Tests hold the two modes to the same
verdicts and state counts.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

from stateattack import (
    Adversarial,
    RandomSeeded,
    build_attack_observer,
    build_verifier,
    check_enforced,
    check_violation,
    compute_ranks,
    final_verifier,
    intermediate_violating_fixpoint,
    observer,
    parse_model,
    parse_spec,
    serialize_strategy,
    simulate_play,
    synthesize_strategy,
    system_attack_model,
    validate_strategy,
    violation_predicate,
    witness_labels,
)

VERDICT_OPS = ("check-violation", "check-enforced")
STRATEGY_OPS = ("synthesize", "simulate")
RANDOM_PLAYS = 3  # plus one adversarial play per enforced instance

# Layer spans that make up each end-to-end figure. The observer span is an
# extra call whose time is taken out of ``aobs.build`` (see Tracer.self_times).
VERDICT_LAYERS = (
    "serialize.parse", "automata.observer", "aobs.build", "violation.closure",
    "violation.restrict", "violation.witness", "enforcement.prune", "strategy.ranks",
)
STRATEGY_LAYERS = ("strategy.synth", "strategy.validate", "serialize.strategy", "strategy.simulate")


class Tracer:
    """Spans and tracemalloc peaks of one traced pass, kept in memory.

    A span is (id, name, start, end, parent id, instance name). Stage spans
    are children of operation spans, which have no parent.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list = []
        self.peaks: dict = {}  # layer -> highest tracemalloc peak in MB
        self._parent = None
        self._instance = None

    @contextmanager
    def operation(self, name: str, instance: str):
        span_id = len(self.spans)
        self.spans.append(None)  # filled in on exit, so ids follow start order
        self._parent, self._instance = span_id, instance
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[span_id] = (span_id, name, start, time.perf_counter(), None, instance)
            self._parent = None

    def call(self, layer: str, fn, *args):
        if self.memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.spans.append((len(self.spans), layer, start, end, self._parent, self._instance))
            if self.memory:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peaks[layer] = max(self.peaks.get(layer, 0.0), peak)

    def self_times(self) -> dict:
        """Seconds per layer, each span less the part its children cover.

        Stage spans have no children. ``build_attack_observer`` builds the
        observer inside, where no span can reach it, so the separately timed
        observer call of the same operation is subtracted from it instead.
        """
        totals = dict.fromkeys(VERDICT_LAYERS + STRATEGY_LAYERS, 0.0)
        for _id, name, start, end, parent, _instance in self.spans:
            if parent is not None:
                totals[name] += end - start
        totals["aobs.build"] -= totals["automata.observer"]
        return totals


@dataclass
class InstanceRun:
    """What one instance did in one pass: the seconds of every repetition of
    each operation, the operations that raised, output-check failures,
    verdicts and structural counts. Failures and wrong outputs carry the
    repetition they happened in; the verdict operations run once, as
    repetition 0."""

    name: str
    seconds: dict = field(default_factory=dict)     # operation -> [seconds per repetition]
    failures: list = field(default_factory=list)    # (operation, repetition, exception class)
    wrong: list = field(default_factory=list)       # (operation, repetition, reason)
    verdicts: dict = field(default_factory=dict)    # "violated"/"enforced" -> bool
    counts: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(len(times) for times in self.seconds.values())


def _untraced_call(_layer, fn, *args):
    return fn(*args)


def run_instance(instance, tracer: Tracer | None = None, repeats: int = 1,
                 between=None) -> InstanceRun:
    """Run the operations on one instance: the verdict operations once, then
    ``synthesize`` and ``simulate`` ``repeats`` times on the same final
    verifier. With a tracer, the verdict operations run stage by stage;
    without, through the composed calls. ``between``, when given, is called
    before each operation, outside its timing."""
    run = InstanceRun(instance.name)
    call = tracer.call if tracer is not None else _untraced_call

    @contextmanager
    def operation(name: str, rep: int = 0):
        """Time one operation and record an exception as its failure."""
        if between is not None:
            between()
        start = time.perf_counter()
        try:
            if tracer is None:
                yield
            else:
                with tracer.operation(name, instance.name):
                    yield
        except Exception as exc:  # an operation that raises fails; the pass goes on
            run.failures.append((name, rep, type(exc).__name__))
        finally:
            run.seconds.setdefault(name, []).append(time.perf_counter() - start)

    def parse():
        plant = call("serialize.parse", parse_model, instance.model)
        return plant, call("serialize.parse", parse_spec, instance.spec, plant)

    def violation(plant, attack):
        if tracer is None:
            return check_violation(plant, attack)[1]
        attacked_plant = system_attack_model(plant, attack.attacked)
        estimator = call("automata.observer", observer, attacked_plant)
        run.counts["automata.observer_states"] = len(estimator.states)
        aobs = call("aobs.build", build_attack_observer, plant, attack)
        closure = call("violation.closure", intermediate_violating_fixpoint, aobs, attack)
        run.counts["violation.closure_states"] = len(closure)
        return call("violation.restrict", build_verifier, aobs, closure)

    def failed(name: str) -> bool:
        return any(op == name for op, _rep, _error in run.failures)

    verifier = final = ranks = None
    with operation("check-violation"):
        plant, attack = parse()
        verifier = violation(plant, attack)
        witness = call("violation.witness", witness_labels, verifier, attack)
    if not failed("check-violation"):
        _record_violation(run, verifier, witness, attack)

    with operation("check-enforced"):
        plant, attack = parse()
        if tracer is None:
            final = check_enforced(plant, attack)[1]
        else:
            verifier = violation(plant, attack)
            final = call("enforcement.prune", final_verifier, verifier, verifier.parent)
        if not final.is_empty:
            ranks = call("strategy.ranks", compute_ranks, final, attack)
    if failed("check-enforced"):
        return run
    _record_enforcement(run, final)
    if final.is_empty:
        return run

    for rep in range(repeats):
        counts: dict = {}
        _strategy_ops(run, rep, operation, call, plant, attack, final, ranks, counts)
        if rep == 0:
            run.counts.update(counts)
        elif counts != {key: run.counts.get(key) for key in counts}:
            run.wrong.append(("synthesize", rep, "structural counts changed between repetitions"))
    return run


def _strategy_ops(run: InstanceRun, rep: int, operation, call, plant, attack, final, ranks,
                  counts: dict) -> None:
    """One repetition of ``synthesize`` and ``simulate`` on the final
    verifier, with the checks on their outputs; ``counts`` receives the
    structural counts of this repetition."""
    strategy = report = validate_error = text = None
    with operation("synthesize", rep):
        strategy = call("strategy.synth", synthesize_strategy, final, final.parent)
        try:
            report = call("strategy.validate", validate_strategy, strategy, final.parent, attack)
        except Exception as exc:  # still serialize and simulate what was synthesized
            validate_error = exc
        text = call("serialize.strategy", serialize_strategy, strategy)
        if validate_error is not None:
            raise validate_error
    validate_failed = validate_error is not None
    # Its traceback holds this frame, and with it a cycle that would keep a
    # thousand recursion frames alive until the next collection.
    del validate_error
    if strategy is None:  # synthesis itself raised: nothing to simulate
        return
    counts["strategy.states"] = len(strategy.states)
    counts["strategy.edges"] = strategy.n_edges
    counts["strategy.validate_failed"] = int(validate_failed)
    bound = ranks[final.initial]
    if report is not None and report.sound == math.isinf(bound):
        run.wrong.append(("synthesize", rep, f"validation says sound={report.sound} at rank {bound}"))
    if text is not None and len(json.loads(text)["states"]) != len(strategy.states):
        run.wrong.append(("synthesize", rep, "serialized strategy lost states"))

    plays = []
    with operation("simulate", rep):
        # Any play the strategy can force ends within the initial rank, and
        # ranks never exceed the number of kept states.
        max_rounds = len(final.states) + 1
        for policy in [RandomSeeded(seed) for seed in range(RANDOM_PLAYS)] + [Adversarial()]:
            plays.append(call("strategy.simulate", simulate_play, plant, strategy, policy, max_rounds))
    counts["strategy.simulate_rounds"] = sum(len(play.rounds) for play in plays)
    if not math.isinf(bound):
        for play in plays:
            if play.outcome != "violated" or len(play.rounds) > bound:
                run.wrong.append(("simulate", rep, f"{play.outcome} play of {len(play.rounds)} "
                                                   f"rounds under rank {bound}"))


def _record_violation(run: InstanceRun, verifier, witness, attack) -> None:
    """Record the violation verdict and counts, and check that a witness
    exists exactly for a violation and walks the attack observer to a
    violating estimate."""
    aobs = verifier.parent
    run.verdicts["violated"] = not verifier.is_empty
    run.counts["aobs.states"] = len(aobs.states)
    run.counts["aobs.transitions"] = len(aobs.transitions)
    run.counts["violation.verifier_states"] = len(verifier.states)
    if witness is None:
        if not verifier.is_empty:
            run.wrong.append(("check-violation", 0, "violated without a witness"))
        return
    run.counts["violation.witness_len"] = len(witness)
    end = aobs.run(witness)
    if end is None or not violation_predicate(end.estimate, attack):
        run.wrong.append(("check-violation", 0, "witness does not reach a violating estimate"))


def _record_enforcement(run: InstanceRun, final) -> None:
    run.verdicts["enforced"] = not final.is_empty
    run.counts["enforcement.final_states"] = len(final.states)
    kept = run.counts.get("violation.verifier_states")
    if kept is not None:
        run.counts["enforcement.pruned_states"] = kept - len(final.states)
