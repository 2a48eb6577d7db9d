"""The traced stage-by-stage operations reproduce what the composed calls
decide, so the trace cannot drift from what is timed; failures and oracle
disagreements are counted."""

import pytest

import run as bench
from pipeline import InstanceRun, Tracer, run_instance
from stateattack import check_enforced, check_violation, parse_model, parse_spec
from workloads import Instance, WORKLOADS, generate

# Counts both modes record; the traced mode adds observer and closure sizes.
SHARED = ("aobs.states", "aobs.transitions", "violation.verifier_states",
          "violation.witness_len", "enforcement.final_states", "strategy.states")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_matches_composed(workload):
    for instance in generate(workload, 5):
        plant = parse_model(instance.model)
        attack = parse_spec(instance.spec, plant)
        violated, verifier = check_violation(plant, attack)
        enforced, final = check_enforced(plant, attack)
        tracer = Tracer()
        traced, plain = run_instance(instance, tracer), run_instance(instance)
        for run in (traced, plain):
            assert run.verdicts == {"violated": violated, "enforced": enforced}, instance.name
            assert run.counts["aobs.states"] == len(verifier.parent.states)
            assert run.counts["violation.verifier_states"] == len(verifier.states)
            assert run.counts["enforcement.final_states"] == len(final.states)
            assert not run.wrong, (instance.name, run.wrong)
        assert {k: traced.counts.get(k) for k in SHARED} == {k: plain.counts.get(k) for k in SHARED}
        assert traced.failures == plain.failures
        assert sum(tracer.self_times().values()) <= bench.pass_seconds([traced], traced.seconds)


def test_raising_operation_is_a_failure():
    broken = Instance("broken", '{"states": ["0"]', '{"attacked_states": [], "budget": 0}')
    run = run_instance(broken, Tracer())
    assert run.failures == [("check-violation", 0, "InputError"), ("check-enforced", 0, "InputError")]
    assert run.attempted == 2


# Two self-looping states, one attacked: one attack tells them apart.
PAIR = Instance(
    "pair",
    '{"states": ["1", "2"], "events": ["a"], "initial": ["1", "2"],'
    ' "transitions": [["1", "a", "1"], ["2", "a", "2"]]}',
    '{"attacked_states": ["1"], "budget": 1}',
)


def test_strategy_operations_repeat():
    calls = []
    once, thrice = run_instance(PAIR), run_instance(PAIR, repeats=3, between=lambda: calls.append(1))
    assert len(calls) == 8  # before every operation
    assert {op: len(times) for op, times in thrice.seconds.items()} == {
        "check-violation": 1, "check-enforced": 1, "synthesize": 3, "simulate": 3}
    assert thrice.attempted == 8
    assert thrice.counts == once.counts
    assert not thrice.wrong and not thrice.failures
    assert bench.repetition_seconds([thrice], ("synthesize", "simulate"), 3) == [
        thrice.seconds["synthesize"][rep] + thrice.seconds["simulate"][rep] for rep in range(3)]


def test_every_failed_repetition_counts():
    run = InstanceRun("a", seconds={"synthesize": [0.1, 0.1, 0.1]},
                      failures=[("synthesize", 0, "RecursionError"), ("synthesize", 2, "RecursionError")])
    report = bench.tally([Instance("a", "", "")], [[run]], {})
    assert (report["attempted"], report["failed"]) == (3, 2)
    assert report["raised"] == [{"op": "synthesize", "instance": "a", "error": "RecursionError", "times": 2}]


def test_oracle_disagreement_fails_the_operation():
    instance = PAIR
    run = run_instance(instance)
    assert run.verdicts == {"violated": True, "enforced": True}
    report = bench.tally([instance], [[run]], {instance.name: {"violated": True, "enforced": False}})
    assert report["mismatches"] == 1
    assert report["failed"] == 1
    assert report["wrong"][0]["op"] == "check-enforced"


def test_unsteady_counts_are_reported():
    first, second = InstanceRun("a", counts={"aobs.states": 3}), InstanceRun("a", counts={"aobs.states": 4})
    report = bench.tally([Instance("a", "", "")], [[first], [second]], {})
    assert report["unsteady_counts"] == ["aobs.states"]


def test_counts_compared_across_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    assert bench.compare_with_earlier_runs("deep", 1, {"aobs.states": 3}) == []
    assert bench.compare_with_earlier_runs("deep", 1, {"aobs.states": 3}) == []
    assert bench.compare_with_earlier_runs("deep", 1, {"aobs.states": 4}) != []
