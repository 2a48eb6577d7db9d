"""The deterministic game graph every check runs on: estimates tracked
through attack rounds, with states classified by whose move is pending, and
the attractor that solves reachability games on it.

The graph is built in one worklist over (phase, counter, estimate), with
estimates as bitmasks over the plant states. It equals the paper's
construction, the turn and budget structure (``bounded_game_structure``)
composed with the observer of the attacked plant (``system_attack_model``,
``observer``), which stays in ``attackmodel`` and ``automata`` as the
reference the tests check this builder against.

Nodes are integer ids in worklist order. The violation closure, the
holdable region, the ranks and the witness are computed on the ids, the
per-node (phase, count, tag, mask) keys and the successor lists, and
restrictions are kept-id views over the same lists. ``AObsState`` objects
are the state-level view of a node: made when a caller asks for one, once
per node, and never on the way to a verdict."""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Iterable

from .attackmodel import (
    ATTACK_NO,
    ATTACK_YES,
    RESULT_IN,
    RESULT_OUT,
    AttackSpec,
    GameCounter,
    PHASE_AWAIT,
    PHASE_DECIDE,
    PHASE_SYSTEM,
)
from .automata import Nfa, StateEstimate, _natural_key

_REACHED = bytes([0, 0, 1]) + bytes(253)  # ``restrict_ids``' marks -> kept flags
_counter = functools.cache(GameCounter)  # (count, tag) -> its one GameCounter, in every graph


@dataclass(frozen=True, order=True)
class AObsState:
    phase: str
    counter: GameCounter
    estimate: StateEstimate

    def __str__(self) -> str:
        counter = self.counter
        return _state_text(self.phase, counter.count, counter.tag, self.estimate.members)


def _state_text(phase: str, count: int, tag: str, members: tuple) -> str:
    """The string of an ``AObsState``, from its fields or a node's columns."""
    return f"({phase},{count}{tag},{{{','.join(map(str, members))}}})"


class AttackObserver:
    """Deterministic graph of (phase, counter, estimate) triples, held as
    integer node ids.

    Node ``i`` has the phase ``phase[i]``, the counter ``count[i]`` with tag
    ``tag[i]``, and the estimate ``mask[i]``, whose bit b is the plant state
    ``order[b]``. ``labels[i]`` and ``targets[i]`` list its outgoing
    transitions as parallel tuples of labels and target ids. The verdict
    algorithms run on these lists. ``AObsState`` objects, with their
    ``GameCounter`` and ``StateEstimate``, are made only when a caller asks
    for the state-level view (``states``, ``transitions``, ``initial``,
    ``run``, ``state_of``), once per node, so equal states are the same
    object. Looking a state up (``id_of``) makes none.

    A restriction to part of the nodes (``restrict_ids``) is again an
    ``AttackObserver`` over the same lists: it keeps the ids in ``ids``,
    flags them in ``kept``, counts the transitions each keeps in ``degree``
    (0 at an id it does not keep), and copies no transitions. Its
    ``parent`` is the full graph (the full graph is its own parent), and it
    is empty when it keeps no initial node.
    """

    def __init__(
        self,
        attack: AttackSpec,
        order: list,
        nodes: list,
        labels: list,
        targets: list,
        initial: int = 0,
    ):
        """The full graph of the (phase, count, tag, mask) ``nodes``."""
        self.attack = attack
        self.order = order
        self._bit = {state: b for b, state in enumerate(order)}  # plant state -> its mask bit
        self.phase, self.count, self.tag, self.mask = zip(*nodes)
        self.labels = labels
        self.targets = targets
        self.initial_id: int | None = initial
        self.ids = range(len(nodes))
        self.kept = bytearray(b"\x01") * len(nodes)
        self.degree = list(map(len, targets))  # id -> its transitions kept here
        self._parent = None  # the full graph holds no cycle to itself
        # Shared with every restriction, so a node has one object everywhere.
        self._objects: list = [None] * len(nodes)  # id -> AObsState, made on demand
        self._estimates: dict = {}  # mask -> its one StateEstimate
        # Built on first use and kept by the full graph (see ``parent``).
        self._index: dict | None = None  # (phase, count, tag, mask) -> id
        self._preds: list | None = None

    @property
    def parent(self) -> "AttackObserver":
        return self._parent or self

    @property
    def is_empty(self) -> bool:
        return self.initial_id is None

    @property
    def preds(self) -> list:
        """``preds[j]``: the ids with a transition into ``j``, once per
        transition, in the order of the sources. Built on first use, and only
        for the full graph, the one searched backwards."""
        base = self.parent
        if base._preds is None:
            preds: list = [[] for _ in base.ids]
            for i, targets in enumerate(base.targets):
                for j in targets:
                    preds[j].append(i)
            base._preds = preds
        return base._preds

    def mask_of(self, states: Iterable[str]) -> int:
        """The estimate mask of a set of plant states."""
        bit = self._bit
        return sum(1 << bit[state] for state in states)

    def kept_targets(self, i: int) -> list:
        """(label, target id) pairs of the transitions of ``i`` kept here."""
        kept = self.kept
        return [(label, j) for label, j in zip(self.labels[i], self.targets[i]) if kept[j]]

    @property
    def n_transitions(self) -> int:
        """The number of transitions kept here."""
        return sum(self.degree)

    def target(self, i: int, label: str) -> int | None:
        """The id ``label`` leads to from ``i`` here, or None."""
        labels = self.labels[i]
        if label in labels:
            j = self.targets[i][labels.index(label)]
            if self.kept[j]:
                return j
        return None

    def restrict_ids(self, keep: Iterable[int]) -> "AttackObserver":
        """The part of this graph reachable from its initial node inside
        ``keep``, a collection of node ids."""
        mark = bytearray(len(self.kept))  # 1: inside, not reached; 2: reached
        kept = self.kept
        for i in keep:
            mark[i] = kept[i]
        targets = self.targets
        degree = [0] * len(mark)
        start = self.initial_id
        reached = [start] if start is not None and mark[start] else []
        if reached:
            mark[start] = 2
        for i in reached:  # grows while it is walked: breadth first
            n = 0
            for j in targets[i]:
                seen = mark[j]
                if seen:  # inside: every inside target of a reached id is reached
                    n += 1
                    if seen == 1:
                        mark[j] = 2
                        reached.append(j)
            degree[i] = n
        base = self.parent
        view = copy.copy(base)  # shares the lists and caches of the full graph
        for name in ("states", "transitions"):  # the full graph's cached views
            view.__dict__.pop(name, None)
        view._parent, view.ids = base, reached
        view.initial_id = start if reached else None
        view.kept = mark.translate(_REACHED)
        view.degree = degree
        return view

    # --- the state-level view ------------------------------------------------

    def state_of(self, i: int) -> AObsState:
        """The one ``AObsState`` object of node ``i``."""
        state = self._objects[i]
        if state is None:
            mask = self.mask[i]
            estimate = self._estimates.get(mask)
            if estimate is None:
                estimate = self._estimates[mask] = StateEstimate(self.members_of(i))
            counter = _counter(self.count[i], self.tag[i])
            state = self._objects[i] = AObsState(self.phase[i], counter, estimate)
        return state

    def members_of(self, i: int) -> tuple:
        """The plant states of node ``i``'s estimate, in natural order."""
        order = self.order
        return tuple(order[b] for b in _bits(self.mask[i]))

    def sort_key(self, i: int) -> tuple:
        """Node ``i``'s place in ``AObsState`` order: that order compares
        (phase, (count, tag), (members,)), which sorts as this flat tuple."""
        return self.phase[i], self.count[i], self.tag[i], self.members_of(i)

    def names(self, ids: Iterable[int]) -> dict:
        """``{id: str(state_of(id))}`` over ``ids`` in ``AObsState`` order,
        made from the node columns without ``AObsState`` objects."""
        keys = sorted((self.sort_key(i), i) for i in ids)
        return {i: _state_text(*key) for key, i in keys}

    def id_of(self, state: AObsState) -> int | None:
        """The id of ``state`` in this graph, or None when it is not here.
        The lookup goes through the node's (phase, count, tag, mask) key, so
        it makes no ``AObsState`` objects."""
        base = self.parent
        index = base._index
        if index is None:
            index = base._index = dict(zip(zip(self.phase, self.count, self.tag, self.mask), base.ids))
        counter = state.counter
        try:
            key = (state.phase, counter.count, counter.tag, self.mask_of(state.estimate))
        except KeyError:  # an estimate member that is no plant state
            return None
        i = index.get(key)
        return i if i is not None and self.kept[i] else None

    @functools.cached_property
    def states(self) -> frozenset:
        return frozenset(map(self.state_of, self.ids))

    @functools.cached_property
    def transitions(self) -> dict:
        state_of = self.state_of
        return {
            (state_of(i), label): state_of(j)
            for i in self.ids
            for label, j in self.kept_targets(i)
        }

    @property
    def initial(self) -> AObsState | None:
        return None if self.initial_id is None else self.state_of(self.initial_id)

    def run(self, labels: Iterable[str]) -> AObsState | None:
        i = self.initial_id
        for label in labels:
            if i is None:
                return None
            i = self.target(i, label)
        return None if i is None else self.state_of(i)

    def __repr__(self) -> str:
        return f"AttackObserver(states={len(self.ids)}, transitions={self.n_transitions})"


def _bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_attack_observer(g: Nfa, attack: AttackSpec) -> AttackObserver:
    """Explore the attack observer from (A, 0, initial states) in one worklist.

    An estimate is a bitmask: bit i is the i-th plant state in natural order.
    The intruder declines, (A,k) -N-> (S,kN), or attacks while k < budget,
    (A,k) -Y-> (AY,kY); a result keeps the attacked part (1) or the rest (0)
    when that part is nonempty, (AY,kY) -r-> (S,k+1); a plant event moves a
    system state to the nonempty image, (S,kN) or (S,k) -e-> (A,k). Nodes are
    numbered in the order the worklist meets them, so the initial node is 0.
    """
    attack.validate_for(g)
    order = sorted(g.states, key=_natural_key)
    index = {state: i for i, state in enumerate(order)}
    events = sorted(g.events)
    successors = {event: [0] * len(order) for event in events}
    for src, event, dst in g.transitions:
        successors[event][index[src]] |= 1 << index[dst]
    tables = [successors[event] for event in events]
    attacked = sum(1 << index[state] for state in attack.attacked)
    budget = attack.budget
    images: dict = {}  # mask -> its image under each event, in ``events`` order

    nodes: list = [(PHASE_DECIDE, 0, "", sum(1 << index[state] for state in g.initial))]
    ids: dict = {nodes[0]: 0}
    labels: list = []
    targets: list = []
    label_tuples: dict = {}
    for phase, count, _tag, mask in nodes:  # the worklist: nodes grows while it is walked
        if phase == PHASE_DECIDE:
            moves = [(ATTACK_NO, (PHASE_SYSTEM, count, "N", mask))]
            if count < budget:
                moves.append((ATTACK_YES, (PHASE_AWAIT, count, "Y", mask)))
        elif phase == PHASE_AWAIT:
            moves = [
                (RESULT_IN, (PHASE_SYSTEM, count + 1, "", mask & attacked)),
                (RESULT_OUT, (PHASE_SYSTEM, count + 1, "", mask & ~attacked)),
            ]
        else:
            image = images.get(mask)
            if image is None:
                image = images[mask] = [0] * len(events)
                for b in _bits(mask):
                    for e, table in enumerate(tables):
                        image[e] |= table[b]
            moves = [(event, (PHASE_DECIDE, count, "", part)) for event, part in zip(events, image)]
        out_labels = []
        out_targets = []
        for label, key in moves:
            if key[3]:  # an empty estimate: no transition
                j = ids.get(key)
                if j is None:
                    j = ids[key] = len(nodes)
                    nodes.append(key)
                out_labels.append(label)
                out_targets.append(j)
        key = tuple(out_labels)
        labels.append(label_tuples.setdefault(key, key))
        targets.append(tuple(out_targets))
    return AttackObserver(attack, order, nodes, labels, targets)


def attractor(graph: AttackObserver, targets: Iterable[int], need: list) -> dict:
    """Least set of nodes from which play can be forced into ``targets``, as
    ``{id: rank}``.

    Targets have rank 0. A node ``i`` with ``need[i] > 0`` joins once that
    many of its outgoing transitions lead inside, one rank above the last of
    them; a node with ``need[i] == 0`` joins only as a target. A count of 1
    is a move of the forcing player, a count of all outgoing transitions one
    of its opponent. Linear in the size of the graph.
    """
    ranks = dict.fromkeys(targets, 0)
    missing = list(need)
    for i in ranks:
        missing[i] = 0
    preds = graph.preds
    queue = list(ranks)
    for j in queue:  # grows while it is walked: breadth first, so by rank
        rank = ranks[j] + 1
        for i in preds[j]:
            left = missing[i]
            if left:
                missing[i] = left - 1
                if left == 1:
                    ranks[i] = rank
                    queue.append(i)
    return ranks

