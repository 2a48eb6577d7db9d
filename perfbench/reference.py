"""A fixed pure-Python computation, timed beside the program to follow the
speed of the machine.

It is the subset construction of a 13-state automaton whose subset automaton
has 4,096 states: frozensets, dictionaries and tuples, the kinds of work the
library does, with none of its code. It never changes, so the ratio of the
program's time to its time moves only with the program.
"""

from __future__ import annotations

import gc
import statistics
import time

STATES = 13


def _automaton(n: int) -> dict:
    """0 loops on a and b and moves to 1 on a, each i in 1..n-2 moves to
    i+1 on a and b, and n-1 moves to 0 on a."""
    delta = {(s, e): set() for s in range(n) for e in "ab"}
    delta[0, "a"] |= {0, 1}
    delta[0, "b"].add(0)
    delta[n - 1, "a"].add(0)
    for i in range(1, n - 1):
        delta[i, "a"].add(i + 1)
        delta[i, "b"].add(i + 1)
    return {key: frozenset(targets) for key, targets in delta.items()}


AUTOMATON = _automaton(STATES)


def subset_construction() -> int:
    start = frozenset([0])
    index = {start: 0}
    todo = [start]
    edges = {}
    while todo:
        current = todo.pop()
        for event in "ab":
            target = frozenset(t for s in current for t in AUTOMATON[s, event])
            if target not in index:
                index[target] = len(index)
                todo.append(target)
            edges[index[current], event] = index[target]
    return len(index)


def reference_seconds() -> float:
    """Seconds of one run of the computation. Collection is off meanwhile,
    so the program's heap, which a collection would walk, does not weigh on
    it; the computation makes no cycles."""
    gc.disable()
    try:
        start = time.perf_counter()
        subset_construction()
        return time.perf_counter() - start
    finally:
        gc.enable()


class ReferenceProbe:
    """Times the computation at the start and end of each pass and between
    operations, at most once every ``interval`` seconds, so its samples
    follow the machine through the pass."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list = []
        self.last = 0.0

    def _take(self) -> None:
        self.samples.append(reference_seconds())
        self.last = time.perf_counter()

    def start_pass(self) -> None:
        self.samples = []
        self._take()

    def between(self) -> None:
        if time.perf_counter() - self.last >= self.interval:
            self._take()

    def end_pass(self) -> float:
        """The median sample of the pass."""
        self._take()
        return statistics.median(self.samples)
