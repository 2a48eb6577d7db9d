"""Benchmark of the stateattack pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload expobs --seed 1 --seconds 36 --trace 0

Run from anywhere; the package is imported from ``src/`` beside this
directory. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it records the environment, the per-pass figures and every
failed operation. Traced runs also write their spans to
``.perfbench-out/trace-<workload>-<seed>.json``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from reference import ReferenceProbe
from workloads import STRATEGY_REPEATS, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_PROBES = 11  # set-up samples per run, after one discarded warm-up
MIN_PASSES = 3     # untraced passes per run, however long they take
REFERENCE_INTERVAL = 0.5  # seconds between samples of the reference computation

# Sums over instances that must repeat exactly between passes and runs.
COUNTS = (
    "automata.observer_states", "aobs.states", "aobs.transitions",
    "violation.closure_states", "violation.verifier_states", "violation.witness_len",
    "enforcement.final_states", "enforcement.pruned_states",
    "strategy.states", "strategy.edges", "strategy.validate_failed", "strategy.simulate_rounds",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def setup_seconds(workload: str, seed: int) -> list:
    """Wall seconds from starting a fresh interpreter to the point where its
    first parse would begin, once per probe."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    samples = []
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout) - start)
    return samples[1:]  # the first also compiles bytecode


def timed_passes(seconds: float, min_passes: int, steps) -> list:
    """Cycle through ``steps`` (functions of no arguments) and collect their
    results: at least ``min_passes`` cycles, then more while the next cycle
    is expected to end within ``seconds``."""
    start = time.perf_counter()
    results = [[] for _ in steps]
    cycle = 0.0
    while len(results[0]) < min_passes or time.perf_counter() - start + cycle <= seconds:
        began = time.perf_counter()
        for step, out in zip(steps, results):
            out.append(step())
        cycle = time.perf_counter() - began
    return results


def pass_counts(runs) -> dict:
    totals: dict = {}
    for run in runs:
        for key, value in run.counts.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def pass_seconds(runs, ops) -> float:
    return sum(sum(run.seconds.get(op, ())) for run in runs for op in ops)


def repetition_seconds(runs, ops, repeats: int) -> list:
    """Seconds of each repetition of ``ops`` in one pass, summed over the
    instances."""
    totals = [0.0] * repeats
    for run in runs:
        for op in ops:
            for rep, seconds in enumerate(run.seconds.get(op, ())):
                totals[rep] += seconds
    return totals


def oracle_verdicts(instances, first_pass) -> tuple[dict, dict]:
    """Brute-force verdicts per instance, with the violation horizon set to
    the attack-observer size, and the seconds spent on each check."""
    from stateattack import oracle_check_enforced, oracle_check_violation, parse_model, parse_spec

    verdicts: dict = {}
    seconds = {"violation": 0.0, "enforced": 0.0}
    for instance, run in zip(instances, first_pass):
        horizon = run.counts.get("aobs.states")
        if horizon is None:  # check-violation raised: nothing to compare
            continue
        plant = parse_model(instance.model)
        attack = parse_spec(instance.spec, plant)
        start = time.perf_counter()
        violated = oracle_check_violation(plant, attack, horizon)
        middle = time.perf_counter()
        enforced = oracle_check_enforced(plant, attack)
        seconds["violation"] += middle - start
        seconds["enforced"] += time.perf_counter() - middle
        verdicts[instance.name] = {"violated": violated, "enforced": enforced}
    return verdicts, seconds


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def compare_with_earlier_runs(workload: str, seed: int, counts: dict) -> list:
    """Disagreements with the counts an earlier run of the same code and
    inputs recorded; then record these counts for later runs."""
    path = OUT / "counts" / f"{code_digest()}-{workload}-{seed}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    differ = [f"{key}: {earlier[key]} in an earlier run, {value} now"
              for key, value in counts.items() if key in earlier and earlier[key] != value]
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps({**earlier, **counts}, sort_keys=True))
    os.replace(scratch, path)
    return differ


def tally(instances, passes, oracle) -> dict:
    """Operations attempted and failed over all passes, and what was wrong.

    An operation fails when it raises, when a check on its output fails, or
    when its verdict disagrees with the oracle. Every repetition of an
    operation counts on its own."""
    failed: set = set()
    raised: Counter = Counter()
    wrong: Counter = Counter()
    mismatches = 0
    for index, runs in enumerate(passes):
        for instance, run in zip(instances, runs):
            for op, rep, error in run.failures:
                failed.add((index, instance.name, op, rep))
                raised[(op, instance.name, error)] += 1
            for op, rep, reason in run.wrong:
                failed.add((index, instance.name, op, rep))
                wrong[(op, instance.name, reason)] += 1
            expected = oracle.get(instance.name, {})
            for verdict, op in (("violated", "check-violation"), ("enforced", "check-enforced")):
                if verdict in run.verdicts and verdict in expected \
                        and run.verdicts[verdict] != expected[verdict]:
                    mismatches += 1
                    failed.add((index, instance.name, op, 0))
                    wrong[(op, instance.name, f"{verdict}={run.verdicts[verdict]}, oracle says "
                                              f"{expected[verdict]}")] += 1
    counts = [pass_counts(runs) for runs in passes]
    unsteady = sorted({key for c in counts for key in c if len({d[key] for d in counts if key in d}) > 1})
    return {
        "attempted": sum(run.attempted for runs in passes for run in runs),
        "failed": len(failed),
        "mismatches": mismatches,
        "raised": [{"op": op, "instance": name, "error": error, "times": n}
                   for (op, name, error), n in sorted(raised.items())],
        "wrong": [{"op": op, "instance": name, "reason": reason, "times": n}
                  for (op, name, reason), n in sorted(wrong.items())],
        "unsteady_counts": unsteady,
        "counts": counts[0],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(args, instances, setup: list) -> tuple[dict, dict, dict]:
    from pipeline import STRATEGY_OPS, VERDICT_OPS, run_instance

    repeats = STRATEGY_REPEATS[args.workload]

    probe = ReferenceProbe(REFERENCE_INTERVAL)
    references = []  # median reference seconds of each pass

    def one_pass():
        probe.start_pass()
        runs = [run_instance(instance, repeats=repeats, between=probe.between) for instance in instances]
        references.append(probe.end_pass())
        return runs

    (passes,) = timed_passes(args.seconds, MIN_PASSES, [one_pass])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    oracle, _ = oracle_verdicts(instances, passes[0])
    result = tally(instances, passes, oracle)
    verdict = [pass_seconds(runs, VERDICT_OPS) for runs in passes]
    strategy = [repetition_seconds(runs, STRATEGY_OPS, repeats) for runs in passes]
    # Each pass's seconds in units of the reference computation's time in
    # that pass: the host's speed drifts by a fifth over minutes, and the
    # ratio cancels most of what the drift does to both.
    verdict_ref = [v / r for v, r in zip(verdict, references)]
    strategy_ref = [t / r for reps, r in zip(strategy, references) for t in reps]
    metrics = {
        "verdict_ref": metric(statistics.median(verdict_ref), "ref"),
        "strategy_ref": metric(statistics.median(strategy_ref), "ref"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ok_share": metric(1 - result["failed"] / result["attempted"], "share"),
    }
    detail = {"passes": len(passes), "strategy_repeats": repeats,
              "verdict_s_median": statistics.median(verdict),
              "strategy_s_median": statistics.median(t for reps in strategy for t in reps),
              "verdict_s": verdict, "strategy_s": strategy, "reference_s": references, "setup_s": setup}
    return result, metrics, detail


def traced_run(args, instances) -> tuple[dict, dict, dict]:
    """One pass under tracemalloc for memory peaks, then untraced and traced
    passes in turn, the traced ones timing each stage without tracemalloc,
    which slows allocation several times over."""
    from pipeline import STRATEGY_LAYERS, STRATEGY_OPS, VERDICT_LAYERS, VERDICT_OPS, Tracer, run_instance

    started = time.perf_counter()
    memory = Tracer(memory=True)
    tracemalloc.start()
    try:
        memory_pass = [run_instance(instance, memory) for instance in instances]
    finally:
        tracemalloc.stop()
    tracers: list = []

    def untraced_pass():
        return [run_instance(instance) for instance in instances]

    def traced_pass():
        tracers.append(Tracer())
        return [run_instance(instance, tracers[-1]) for instance in instances]

    remaining = args.seconds - (time.perf_counter() - started)
    plain, traced = timed_passes(remaining, 1, [untraced_pass, traced_pass])
    oracle, oracle_s = oracle_verdicts(instances, memory_pass)
    result = tally(instances, [memory_pass, *plain, *traced], oracle)

    median = statistics.median
    selfs = [tracer.self_times() for tracer in tracers]
    counts = result["counts"]
    metrics = {f"{name}_s": metric(median(s[name] for s in selfs), "s")
               for name in VERDICT_LAYERS + STRATEGY_LAYERS}
    for name in ("aobs.build", "enforcement.prune", "strategy.synth"):
        metrics[f"{name.split('.')[0]}.peak_mb"] = metric(memory.peaks.get(name, 0.0), "MB")
    # Both verdict operations build the attack observer.
    metrics["aobs.us_per_state"] = metric(
        1e6 * metrics["aobs.build_s"]["value"] / max(1, 2 * counts.get("aobs.states", 0)), "us")
    metrics["oracle.violation_s"] = metric(oracle_s["violation"], "s")
    metrics["oracle.enforced_s"] = metric(oracle_s["enforced"], "s")
    metrics["oracle.mismatches"] = metric(result["mismatches"], "count")
    for key in COUNTS:
        metrics[key] = metric(counts.get(key, 0), "count")
    for figure, ops, layers in (("verdict", VERDICT_OPS, VERDICT_LAYERS),
                                ("strategy", STRATEGY_OPS, STRATEGY_LAYERS)):
        untraced = [pass_seconds(runs, ops) for runs in plain]
        traced_s = [pass_seconds(runs, ops) for runs in traced]
        metrics[f"trace.untraced_{figure}_s"] = metric(median(untraced), "s")
        # Each traced pass runs right after an untraced one; pairing them
        # keeps drift in machine speed out of the difference.
        metrics[f"trace.{figure}_overhead_s"] = metric(
            median(t - u for t, u in zip(traced_s, untraced)), "s")
        metrics[f"trace.{figure}_layers_s"] = metric(median(sum(s[n] for n in layers) for s in selfs), "s")
    detail = {"passes": {"memory": 1, "untraced": len(plain), "traced": len(tracers)},
              "trace_file": write_spans(args, memory, tracers)}
    return result, metrics, detail


def write_spans(args, memory, tracers) -> str:
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "environment": environment(),
        "span_fields": ["id", "name", "start", "end", "parent", "instance"],
        "passes": [{"tracemalloc": tracer is memory, "spans": tracer.spans}
                   for tracer in [memory, *tracers]],
    }
    path.write_text(json.dumps(document))
    return path.relative_to(ROOT).as_posix()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stateattack" / "__init__.py").is_file():
        print(f"error: no stateattack package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        result, metrics, detail = traced_run(args, generate(args.workload, args.seed))
    else:
        setup = setup_seconds(args.workload, args.seed)
        result, metrics, detail = untraced_run(args, generate(args.workload, args.seed), setup)
    differ = compare_with_earlier_runs(args.workload, args.seed, result["counts"])
    correct = not result["wrong"] and not result["unsteady_counts"] and not differ
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "environment": environment(), **detail,
        "counts": result["counts"], "raised": result["raised"], "wrong": result["wrong"],
        "unsteady_counts": result["unsteady_counts"], "counts_differ_from_earlier_run": differ,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
