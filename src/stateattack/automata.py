"""Finite-automaton core: NFA/DFA containers, the subset-construction
observer, synchronous composition, and the classic (attack-free)
current-state anonymity and opacity checks."""

from __future__ import annotations

import functools
import re
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Hashable, Iterable, Iterator, Mapping, Union

State = Hashable
Label = str

_EMPTY: frozenset = frozenset()


@functools.lru_cache(maxsize=4096, typed=True)
def _natural_key(value) -> tuple:
    """Sort key ordering digit runs numerically, so "2" sorts before "10".
    Memoised: every estimate made sorts its members with it."""
    text = value if isinstance(value, str) else str(value)
    key = tuple(
        (0, int(part), "") if part.isdigit() else (1, 0, part)
        for part in re.split(r"(\d+)", text)
        if part
    )
    return key + ((1, 0, text),)


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

    def __contains__(self, state) -> bool:
        return state in self.members

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
    built by the free functions below rather than by mutation.
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
        self.transitions = frozenset((s, e, t) for s, e, t in transitions)
        self.initial = frozenset(initial)
        if not self.initial:
            raise ValueError("an NFA needs at least one initial state")
        if not self.initial <= self.states:
            raise ValueError("initial states must be declared states")
        succ: dict = {}
        enabled: dict = {}
        for src, label, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition endpoint {src!r} or {dst!r} is not a declared state")
            if label not in self.events:
                raise ValueError(f"transition label {label!r} is not a declared event")
            succ.setdefault((src, label), set()).add(dst)
            enabled.setdefault(src, set()).add(label)
        self._succ = {key: frozenset(value) for key, value in succ.items()}
        self._enabled = {src: frozenset(labels) for src, labels in enabled.items()}
        self._moves: dict = {}  # state -> its moves (see ``moves``), filled on lookup

    def successors(self, state: State, label: Label) -> frozenset:
        return self._succ.get((state, label), _EMPTY)

    def image(self, states: Iterable[State], label: Label) -> frozenset:
        out: set = set()
        for state in states:
            out |= self._succ.get((state, label), _EMPTY)
        return frozenset(out)

    def enabled(self, state: State) -> frozenset:
        return self._enabled.get(state, _EMPTY)

    def moves(self, state: State) -> tuple:
        """The (event, successor) pairs of ``state``: events in sorted order,
        the successors of each by their strings. Memoised, since a play draws
        from the moves of every true state it passes, often more than once."""
        moves = self._moves.get(state)
        if moves is None:
            moves = self._moves[state] = tuple(
                (event, target)
                for event in sorted(self.enabled(state))
                for target in sorted(self.successors(state, event), key=str)
            )
        return moves

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
        if self.initial not in self.states:
            raise ValueError("the initial state must be a declared state")
        for (src, label), dst in self.transitions.items():
            if src not in self.states or dst not in self.states:
                raise ValueError(f"transition endpoint {src!r} or {dst!r} is not a declared state")
            if label not in self.events:
                raise ValueError(f"transition label {label!r} is not a declared event")

    def step(self, state: State, label: Label):
        return self.transitions.get((state, label))

    def run(self, labels: Iterable[Label]):
        """Fold the transition function over ``labels``; None once undefined."""
        state = self.initial
        for label in labels:
            if state is None:
                return None
            state = self.transitions.get((state, label))
        return state

    def __repr__(self) -> str:
        return (
            f"Dfa(states={len(self.states)}, events={len(self.events)}, "
            f"transitions={len(self.transitions)})"
        )


Automaton = Union[Nfa, Dfa]


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
    if not secret <= g.states or secret == g.states:
        raise ValueError("secret states must form a proper subset of the plant states")
    nonsecret = g.states - secret
    return all(
        any(member in nonsecret for member in estimate)
        for estimate in observer(g).states
    )
