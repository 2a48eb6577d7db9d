"""Seeded workload generators. Each returns the instances of one workload as
JSON text, the form a command-line call reads, so every timed operation
starts from a parse.

The seed renames states and events and shuffles document order. The graphs
are fixed up to that renaming, ``corpus``'s 700 random plants included, so
the work of a pass and its structural counts do not depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

EVENT_POOL = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Instance:
    name: str
    model: str  # plant model document
    spec: str   # attack description document


def _document(rng: random.Random, states, events, transitions, initial,
              attacked, budget, secret=None) -> tuple[str, str]:
    """Rename states and events with ``rng``, shuffle every list, and return
    (model text, spec text)."""
    state_names = dict(zip(states, map(str, rng.sample(range(10 * len(states)), len(states)))))
    event_names = dict(zip(events, rng.sample(EVENT_POOL, len(events))))
    rows = [[state_names[s], event_names[e], state_names[t]] for s, e, t in transitions]

    def names(items):
        out = [state_names[s] for s in items]
        rng.shuffle(out)
        return out

    rng.shuffle(rows)
    model = {
        "states": names(states),
        "events": [event_names[e] for e in events],
        "initial": names(initial),
        "transitions": rows,
    }
    spec = {"attacked_states": names(attacked), "budget": budget}
    if secret is not None:
        spec["mode"] = {"opacity": {"secret_states": names(secret)}}
    return json.dumps(model), json.dumps(spec)


def expobs_family(n: int = 12, budget: int = 2, attacked: int = 6):
    """The exponential-observer plant: 0 loops on a and b and moves to 1 on
    a, each i in 1..n-2 moves to i+1 on a and b, n-1 moves to 0 on a."""
    states = list(range(n))
    transitions = [(0, "a", 0), (0, "b", 0), (0, "a", 1), (n - 1, "a", 0)]
    for i in range(1, n - 1):
        transitions += [(i, "a", i + 1), (i, "b", i + 1)]
    return states, ["a", "b"], transitions, [0], [attacked], budget


def chain_family(length: int, escape: bool):
    """Two chains x0..x(L-1) and y0..y(L-1) from {x0, y0}, moving on a and
    told apart only at their ends, where x loops on b and y on c. With
    ``escape``, event e takes each end into a dead end of its own, and the
    intruder can no longer hold a violation."""
    xs = [f"x{i}" for i in range(length)]
    ys = [f"y{i}" for i in range(length)]
    transitions = []
    for chain in (xs, ys):
        transitions += [(chain[i], "a", chain[i + 1]) for i in range(length - 1)]
    transitions += [(xs[-1], "b", xs[-1]), (ys[-1], "c", ys[-1])]
    states, events = xs + ys, ["a", "b", "c"]
    if escape:
        states += ["zx", "zy"]
        events += ["e"]
        transitions += [(xs[-1], "e", "zx"), (ys[-1], "e", "zy")]
    return states, events, transitions, [xs[0], ys[0]], [], 0


def random_plant(rng: random.Random):
    """A deadlock-free plant of 2..8 states and 1..3 events with a random
    attack description: budget 0..3, opacity with probability 0.35."""
    n = rng.randint(2, 8)
    states = list(range(n))
    events = ["a", "b", "c"][: rng.randint(1, 3)]
    transitions = set()
    for s in states:
        for _ in range(rng.randint(1, 2)):
            transitions.add((s, rng.choice(events), rng.choice(states)))
    for _ in range(rng.randint(0, n)):
        transitions.add((rng.choice(states), rng.choice(events), rng.choice(states)))
    initial = rng.sample(states, rng.randint(1, n))
    attacked = [s for s in states if rng.random() < 0.45]
    budget = rng.randint(0, 3)
    secret = rng.sample(states, rng.randint(0, n - 1)) if rng.random() < 0.35 else None
    return states, events, sorted(transitions), initial, attacked, budget, secret


CORPUS_SIZE = 700
CORPUS_PLANTS = "corpus/plants"  # seeds the drawing of the corpus's plants
DEEP_ENFORCED_LENGTH = 1200
DEEP_ESCAPE_LENGTH = 300

# Repetitions of ``synthesize`` and ``simulate`` per instance and pass, so
# that a run times the strategy operations for about as long as a third to a
# half of the verdict operations, spread over the whole run.
STRATEGY_REPEATS = {"expobs": 2, "deep": 10, "corpus": 3}


def generate(workload: str, seed: int) -> list:
    """The instances of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "expobs":
        return [Instance("expobs-12", *_document(rng, *expobs_family()))]
    if workload == "deep":
        held, escaping = DEEP_ENFORCED_LENGTH, DEEP_ESCAPE_LENGTH
        return [
            Instance(f"chain-{held}", *_document(rng, *chain_family(held, escape=False))),
            Instance(f"escape-{escaping}", *_document(rng, *chain_family(escaping, escape=True))),
        ]
    if workload == "corpus":
        plants = random.Random(CORPUS_PLANTS)
        return [Instance(f"plant-{i}", *_document(rng, *random_plant(plants)))
                for i in range(CORPUS_SIZE)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("expobs", "deep", "corpus")
