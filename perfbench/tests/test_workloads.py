"""The generators give the same inputs for the same seed, and the graphs
keep their documented sizes under every seed's renaming."""

import json

import pytest

from pipeline import run_instance
from workloads import WORKLOADS, generate

@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)


def test_corpus_shape():
    instances = generate("corpus", 3)
    assert len(instances) == 700
    for instance in instances:
        model, spec = json.loads(instance.model), json.loads(instance.spec)
        assert 2 <= len(model["states"]) <= 8
        assert 1 <= len(model["events"]) <= 3
        assert 0 <= spec["budget"] <= 3
        sources = {row[0] for row in model["transitions"]}
        assert sources == set(model["states"])  # deadlock-free


def test_corpus_seed_only_renames():
    def shape(instance):
        model, spec = json.loads(instance.model), json.loads(instance.spec)
        return (len(model["states"]), len(model["events"]), len(model["initial"]),
                len(model["transitions"]), len(spec["attacked_states"]), spec["budget"],
                len(spec.get("mode", {}).get("opacity", {}).get("secret_states", [])))
    assert list(map(shape, generate("corpus", 3))) == list(map(shape, generate("corpus", 4)))


@pytest.mark.parametrize("seed", [1, 2])
def test_fixed_family_sizes(seed):
    (expobs,) = generate("expobs", seed)
    run = run_instance(expobs)
    assert run.counts["aobs.states"] == 18464
    assert run.counts["strategy.states"] == 6157
    assert run.verdicts == {"violated": True, "enforced": True}
    held, escaping = (run_instance(instance) for instance in generate("deep", seed))
    assert held.counts["aobs.states"] == 2404
    assert held.verdicts == {"violated": True, "enforced": True}
    assert escaping.counts["aobs.states"] == 610
    assert escaping.verdicts == {"violated": True, "enforced": False}
