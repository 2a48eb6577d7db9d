"""Finite-automaton core: NFA/DFA containers, synchronous composition, and the
references that the attack game at budget 0 is tested against: the
subset-construction observer and the classic anonymity and opacity checks."""

from __future__ import annotations

import functools
import re
from collections import deque
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Collection, Hashable, Iterable, Iterator, Mapping, Union

State = Hashable
Label = str

_EMPTY: frozenset = frozenset()
_SOURCE, _LABEL, _TARGET = itemgetter(0), itemgetter(1), itemgetter(2)  # of an edge
_DIGIT_RUNS = re.compile(r"(\d+)")


@functools.lru_cache(maxsize=4096, typed=True)
def _natural_key(value) -> tuple:
    """Sort key ordering digit runs numerically, so "2" sorts before "10":
    one flat tuple of (0, number, "") per run of decimal digits, (1, 0, text)
    per text between runs, and (1, 0, the whole name). The runs are the odd
    positions of the split: ``str.isdigit`` also holds for digits such as
    "²" that ``int`` cannot read. Memoised: every estimate made sorts its
    members with it."""
    text = value if isinstance(value, str) else str(value)
    key: list = []
    for position, part in enumerate(_DIGIT_RUNS.split(text)):
        if position & 1:
            key += (0, int(part), "")
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


class Dfa:
    """Deterministic finite automaton: a partial transition function and a
    single initial state."""

    def __init__(
        self,
        states: Iterable[State],
        events: Iterable[Label],
        transitions: Mapping[tuple, State],
        initial: State,
    ):
        self.states = frozenset(states)
        self.events = frozenset(events)
        self.transitions = dict(transitions)
        self.initial = initial
        edges = [(src, label, dst) for (src, label), dst in self.transitions.items()]
        _check_declared(self, frozenset([initial]), edges)

    def step(self, state: State, label: Label):
        return self.transitions.get((state, label))

    def __repr__(self) -> str:
        return (
            f"Dfa(states={len(self.states)}, events={len(self.events)}, "
            f"transitions={len(self.transitions)})"
        )


Automaton = Union[Nfa, Dfa]


def check_states(names: frozenset, states: frozenset, what: str) -> None:
    """Raise the "unknown identifier" diagnostic unless all ``names`` are
    among the declared ``states``; ``what`` says which names they are."""
    unknown = names - states
    if unknown:
        listed = sorted(unknown, key=str)
        raise ValueError(f"unknown identifier: {what} {listed!r} are not declared states")


def _check_declared(auto: Automaton, initial: frozenset, edges: Collection[tuple]) -> None:
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


def observer(g: Nfa) -> Dfa:
    """Subset-construction observer of ``g``.

    States are the reachable estimates; a transition on ``e`` exists exactly
    when some member of the source estimate has an ``e``-successor, and leads
    to the union of those successors.
    """
    initial = StateEstimate(g.initial)
    states = {initial}
    transitions: dict = {}
    frontier = deque([initial])
    while frontier:
        estimate = frontier.popleft()
        for event in sorted(g.events):
            image = g.image(estimate.members, event)
            if not image:
                continue
            target = StateEstimate(image)
            transitions[(estimate, event)] = target
            if target not in states:
                states.add(target)
                frontier.append(target)
    return Dfa(states, g.events, transitions, initial)


def _initials(auto: Automaton) -> frozenset:
    return frozenset([auto.initial]) if isinstance(auto, Dfa) else auto.initial


def _successors(auto: Automaton, state: State, label: Label) -> frozenset:
    if isinstance(auto, Dfa):
        target = auto.step(state, label)
        return _EMPTY if target is None else frozenset([target])
    return auto.successors(state, label)


def compose(g1: Automaton, g2: Automaton) -> Automaton:
    """Product of two automata: shared events synchronize, private events
    interleave, and targets pair every successor of one side with every
    successor (or the held state) of the other.

    Initial states are all pairs of initial states; only the accessible part
    is returned. The result is a Dfa when both operands are.
    """
    shared = g1.events & g2.events
    events = g1.events | g2.events
    init_pairs = frozenset(product(_initials(g1), _initials(g2)))
    states = set(init_pairs)
    edges: dict = {}
    frontier = deque(sorted(init_pairs, key=str))
    while frontier:
        pair = frontier.popleft()
        x1, x2 = pair
        for label in events:
            if label in shared:
                t1 = _successors(g1, x1, label)
                t2 = _successors(g2, x2, label)
                targets = frozenset(product(t1, t2)) if t1 and t2 else _EMPTY
            elif label in g1.events:
                t1 = _successors(g1, x1, label)
                targets = frozenset((y1, x2) for y1 in t1)
            else:
                t2 = _successors(g2, x2, label)
                targets = frozenset((x1, y2) for y2 in t2)
            if not targets:
                continue
            edges[(pair, label)] = targets
            for target in targets:
                if target not in states:
                    states.add(target)
                    frontier.append(target)
    if isinstance(g1, Dfa) and isinstance(g2, Dfa):
        transitions = {key: next(iter(targets)) for key, targets in edges.items()}
        return Dfa(states, events, transitions, next(iter(init_pairs)))
    triples = {
        (src, label, dst)
        for (src, label), targets in edges.items()
        for dst in targets
    }
    return Nfa(states, events, triples, init_pairs)


def check_anonymity_classic(g: Nfa) -> bool:
    """True when no observation sequence pins the current state down to a
    single possibility (every reachable estimate has more than one member)."""
    return all(len(estimate) > 1 for estimate in observer(g).states)


def check_opacity_classic(g: Nfa, secret: Iterable[State]) -> bool:
    """True when every reachable estimate intersects the non-secret states."""
    secret = frozenset(secret)
    check_secret_set(g, secret)
    nonsecret = g.states - secret
    return all(
        any(member in nonsecret for member in estimate)
        for estimate in observer(g).states
    )
