"""Finite-automaton core: the plant's NFA container with its one lazy index,
state estimates in their natural order, and the checks of declared states.
The DFA, composition and subset-construction observer of the paper's
constructions are in ``reference``."""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Collection, Hashable, Iterable, Iterator

State = Hashable
Label = str

_SOURCE, _LABEL, _TARGET = itemgetter(0), itemgetter(1), itemgetter(2)  # of an edge
_DIGIT_RUNS = re.compile(r"(\d+)")


@functools.lru_cache(maxsize=4096, typed=True)
def _natural_key(value) -> tuple:
    """Sort key ordering digit runs numerically, so "2" sorts before "10":
    one flat tuple of (0, length, digits) per run of decimal digits, (1, 0,
    text) per text between runs, and (1, 0, the whole name). A run's digits
    are its ASCII digits without leading zeros, so runs compare as ``int``
    reads them, at any length. The runs are the odd positions of the split:
    ``str.isdigit`` also holds for digits such as "²" that ``int`` cannot
    read. Memoised: every estimate made sorts its members with it."""
    text = value if isinstance(value, str) else str(value)
    key: list = []
    for position, part in enumerate(_DIGIT_RUNS.split(text)):
        if position & 1:
            digits = (part if part.isascii() else "".join(str(int(c)) for c in part)).lstrip("0")
            key += (0, len(digits), digits)
        elif part:
            key += (1, 0, part)
    key += (1, 0, text)
    return tuple(key)


@dataclass(frozen=True, order=True)
class StateEstimate:
    """Nonempty set of plant states kept in a canonical order, so equal sets
    compare (and hash) equal."""

    members: tuple[str, ...]

    def __post_init__(self):
        canon = tuple(sorted(set(self.members), key=_natural_key))
        if not canon:
            raise ValueError("a state estimate must be nonempty")
        object.__setattr__(self, "members", canon)

    def __iter__(self) -> Iterator[str]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def issubset(self, other: Iterable[str]) -> bool:
        other = set(other)
        return all(m in other for m in self.members)

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.members) + "}"


class Nfa:
    """Nondeterministic finite automaton with a nonempty set of initial states.

    Immutable after construction; all derived automata in this package are
    built by the free functions below rather than by mutation. The lookups
    ``successors``, ``image`` and ``moves`` all read one index of
    ``transitions``, built on first use.
    """

    def __init__(
        self,
        states: Iterable[State],
        events: Iterable[Label],
        transitions: Iterable[tuple],
        initial: Iterable[State],
    ):
        self.states = frozenset(states)
        self.events = frozenset(events)
        self.transitions = frozenset(map(tuple, transitions))
        self.initial = frozenset(initial)
        if not self.initial:
            raise ValueError("an NFA needs at least one initial state")
        if not set(map(len, self.transitions)) <= {3}:
            raise ValueError("syntax error: each transition must be (source, label, target)")
        _check_declared(self, self.initial, self.transitions)

    @functools.cached_property
    def _out(self) -> dict:
        """State -> its (event, successor) pairs in play order: events sorted,
        the successors of each by their strings. The plant's one index, built
        on first use; a verdict reads the plant only through ``transitions``."""
        out: dict = {}
        for src, label, dst in self.transitions:
            out.setdefault(src, []).append((label, dst))
        return {src: tuple(sorted(pairs, key=lambda move: (move[0], str(move[1])))) for src, pairs in out.items()}

    def successors(self, state: State, label: Label) -> frozenset:
        return self.image((state,), label)

    def image(self, states: Iterable[State], label: Label) -> frozenset:
        out = self._out
        found = set()
        for state in states:
            for event, dst in out.get(state, ()):
                if event == label:
                    found.add(dst)
        return frozenset(found)

    def moves(self, state: State) -> tuple:
        """The (event, successor) pairs of ``state`` in play order: the
        index's own tuple, since a play draws from the moves of every true
        state it passes, often more than once."""
        return self._out.get(state, ())

    def __repr__(self) -> str:
        return (
            f"Nfa(states={len(self.states)}, events={len(self.events)}, "
            f"transitions={len(self.transitions)}, initial={len(self.initial)})"
        )


def check_states(names: frozenset, states: frozenset, what: str) -> None:
    """Raise the "unknown identifier" diagnostic unless all ``names`` are
    among the declared ``states``; ``what`` says which names they are."""
    unknown = names - states
    if unknown:
        listed = sorted(unknown, key=str)
        raise ValueError(f"unknown identifier: {what} {listed!r} are not declared states")


def _check_declared(auto, initial: frozenset, edges: Collection[tuple]) -> None:
    """The initial states and every (source, label, target) edge of ``auto``
    use only its declared states and events. The edges are checked in three
    set passes; the loop runs only to name the first offending edge."""
    check_states(initial, auto.states, "initial states")
    states, events = auto.states, auto.events
    if (
        states.issuperset(map(_SOURCE, edges))
        and states.issuperset(map(_TARGET, edges))
        and events.issuperset(map(_LABEL, edges))
    ):
        return
    for edge in edges:
        src, label, dst = edge
        if src not in states or dst not in states:
            raise ValueError(
                f"unknown identifier: transition endpoint in {edge!r} is not a declared state"
            )
        if label not in events:
            raise ValueError(
                f"unknown identifier: transition label in {edge!r} is not a declared event"
            )


def check_secret_set(g: Nfa, secret: frozenset) -> None:
    """Raise unless the ``secret`` states are plant states of ``g`` that
    leave at least one state out."""
    check_states(secret, g.states, "secret states")
    if secret == g.states:
        raise ValueError("invalid secret set: it must not cover every plant state")
