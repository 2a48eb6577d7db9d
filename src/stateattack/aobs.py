"""The deterministic game graph every check runs on: estimates tracked
through attack rounds, with states classified by whose move is pending, and
the attractor that solves reachability games on it.

The graph is built in one worklist over (phase, counter, estimate), with
estimates as bitmasks over the plant states. It equals the paper's
construction, the turn and budget structure (``bounded_game_structure``)
composed with the observer of the attacked plant (``system_attack_model``,
``observer``), which ``reference`` keeps for the tests to check this
builder against. The worklist finds the nodes it has met through one
``{mask: id}`` index per phase and counter value, made on demand, and only
for decision and plain system nodes: the other nodes have a single parent,
the decision node they follow.

Nodes are integer ids in worklist order, which is breadth first. The graph
is held in flat lists with no per-node container: four node columns (phase,
count, tag, mask), the successor ids of every node in one list with an
offset list (compressed sparse rows), and the predecessor index in the same
form. The violation closure, the holdable region, the ranks and the witness
are computed on these lists, and restrictions are kept-id views over them. A
verifier whose closure holds every node is the full graph itself: a
restriction to every node would walk them in id order and keep them all.
``AObsState`` objects are the state-level view of a node: made when a
caller asks for one, once per node, and never on the way to a verdict."""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import length_hint
from typing import Iterable

from .attackmodel import (
    ATTACK_NO,
    ATTACK_YES,
    RESULT_IN,
    RESULT_LABELS,
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
# The label tuples of decision and result-wait nodes.
_NO_AND_YES, _NO_ONLY = (ATTACK_NO, ATTACK_YES), (ATTACK_NO,)
_IN_ONLY, _OUT_ONLY = (RESULT_IN,), (RESULT_OUT,)


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
    integer node ids in flat lists.

    Node ``i`` has the phase ``phase[i]``, the counter ``count[i]`` with tag
    ``tag[i]``, and the estimate ``mask[i]``, whose bit b is the plant state
    ``order[b]``. Its outgoing transitions lead to the ids
    ``succ[start[i]:start[i + 1]]``, labelled in turn by ``labels[i]``, a
    tuple in label order; label tuples are shared between nodes. The verdict
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
        phase: list,
        count: list,
        tag: list,
        mask: list,
        labels: list,
        succ: list,
        start: list,
        initial: int = 0,
    ):
        """The full graph of the node columns ``phase``, ``count``, ``tag``
        and ``mask``, with node ``i``'s transitions labelled ``labels[i]``
        and leading to ``succ[start[i]:start[i + 1]]``."""
        self.attack = attack
        self.order = order
        self.phase, self.count, self.tag, self.mask = phase, count, tag, mask
        self.labels = labels
        self.succ = succ
        self.start = start
        self.initial_id: int | None = initial
        self.ids = list(range(len(phase)))  # a list: iterating it makes no int objects
        self.kept = bytearray(b"\x01") * len(phase)
        self.degree = list(map(len, labels))  # id -> its transitions kept here
        self._parent = None  # the full graph holds no cycle to itself
        # Shared with every restriction, so a node has one object everywhere.
        self._objects: list = [None] * len(phase)  # id -> AObsState, made on demand
        self._estimates: dict = {}  # mask -> its one StateEstimate
        # Built on first use and kept by the full graph (see ``parent``).
        self._index: dict | None = None  # (phase, count, tag, mask) -> id
        self._preds: tuple | None = None
        self._violating: dict = {}  # (single, outside) -> the ids ``violating_ids`` found

    @property
    def parent(self) -> "AttackObserver":
        return self._parent or self

    @property
    def is_empty(self) -> bool:
        return self.initial_id is None

    @property
    def preds(self) -> tuple:
        """``(pstart, psrc)``: the ids with a transition into ``j`` are
        ``psrc[pstart[j]:pstart[j + 1]]``, once per transition, in the order
        of the sources. Built on first use by one counting sort, and only for
        the full graph, the one searched backwards."""
        base = self.parent
        if base._preds is None:
            succ, start = base.succ, base.start
            counts = [0] * len(base.ids)  # j -> the transitions into it
            for j in succ:
                counts[j] += 1
            pstart = list(accumulate(counts, initial=0))
            fill = pstart.copy()  # j -> the next free slot of its sources
            psrc = [0] * len(succ)
            for i in base.ids:
                for j in succ[start[i]:start[i + 1]]:
                    k = fill[j]
                    psrc[k] = i
                    fill[j] = k + 1
            base._preds = pstart, psrc
        return base._preds

    @functools.cached_property
    def _bit(self) -> dict:
        """Plant state -> its mask bit. Built on the first ``mask_of`` of the
        full graph, which its restrictions read too."""
        return dict(zip(self.order, range(len(self.order))))

    def mask_of(self, states: Iterable[str]) -> int:
        """The estimate mask of a set of plant states."""
        bit = self.parent._bit
        return sum(1 << bit[state] for state in states)

    def kept_targets(self, i: int) -> list:
        """(label, target id) pairs of the transitions of ``i`` kept here."""
        kept, start = self.kept, self.start
        targets = self.succ[start[i]:start[i + 1]]
        return [(label, j) for label, j in zip(self.labels[i], targets) if kept[j]]

    @property
    def n_transitions(self) -> int:
        """The number of transitions kept here."""
        return sum(self.degree)

    def target(self, i: int, label: str) -> int | None:
        """The id ``label`` leads to from ``i`` here, or None."""
        labels = self.labels[i]
        if label in labels:
            j = self.succ[self.start[i] + labels.index(label)]
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
        succ, start = self.succ, self.start
        degree = [0] * len(mark)
        root = self.initial_id
        reached = [root] if root is not None and mark[root] else []
        if reached:
            mark[root] = 2
        for i in reached:  # grows while it is walked: breadth first
            n = 0
            for j in succ[start[i]:start[i + 1]]:
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
        view.initial_id = root if reached else None
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

    A decision node is the only predecessor of its two children, so they are
    appended without a lookup. Only decision nodes (A,k) and plain system
    nodes (S,k) can be met twice: they are found through one ``{mask: id}``
    index per phase and counter value, made when the worklist first reaches
    that value, so nothing is sized by the budget. A system move depends on
    the mask alone: its labels and nonempty images are computed once per mask.
    Each node goes straight into the four node columns and its targets into
    ``succ``; the offsets ``start`` follow from the label tuples at the end.
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
    system_moves: dict = {}  # mask -> (labels, nonempty images) of its system nodes
    label_tuples: dict = {}

    initial = sum(1 << index[state] for state in g.initial)
    phase, count, tag, mask = [PHASE_DECIDE], [0], [""], [initial]  # the node columns
    labels: list = []
    succ: list = []
    decisions: dict = {0: {initial: 0}}  # count -> {mask: id} of the (A,count) nodes
    plain: dict = {}  # count -> {mask: id} of the (S,count) nodes
    # The worklist: the columns grow while they are walked.
    for p, k, m in zip(phase, count, mask):
        if p == PHASE_DECIDE:
            j = len(phase)
            phase.append(PHASE_SYSTEM)
            count.append(k)
            tag.append("N")
            mask.append(m)
            succ.append(j)
            if k < budget:
                phase.append(PHASE_AWAIT)
                count.append(k)
                tag.append("Y")
                mask.append(m)
                succ.append(j + 1)
                labels.append(_NO_AND_YES)
            else:
                labels.append(_NO_ONLY)
            continue
        # The children's phase, counter and indexes, and their nonempty masks.
        if p == PHASE_AWAIT:
            p, layers, k = PHASE_SYSTEM, plain, k + 1
            inside, outside = m & attacked, m & ~attacked
            if not outside:
                out_labels, parts = _IN_ONLY, (inside,)
            elif not inside:
                out_labels, parts = _OUT_ONLY, (outside,)
            else:
                out_labels, parts = RESULT_LABELS, (outside, inside)
        else:
            p, layers = PHASE_DECIDE, decisions
            moves = system_moves.get(m)
            if moves is None:
                image = [0] * len(events)
                for b in _bits(m):
                    for e, table in enumerate(tables):
                        image[e] |= table[b]
                key = tuple(event for event, part in zip(events, image) if part)
                moves = (label_tuples.setdefault(key, key), [part for part in image if part])
                system_moves[m] = moves
            out_labels, parts = moves
        layer = layers.get(k)
        if layer is None:
            layer = layers[k] = {}
        for part in parts:
            j = layer.get(part)
            if j is None:
                j = layer[part] = len(phase)
                phase.append(p)
                count.append(k)
                tag.append("")
                mask.append(part)
            succ.append(j)
        labels.append(out_labels)
    start = list(accumulate(map(len, labels), initial=0))  # labels[i] is as long as i's targets
    return AttackObserver(attack, order, phase, count, tag, mask, labels, succ, start)


def attractor(graph: AttackObserver, targets: Iterable[int], rule: dict) -> dict:
    """Least set of nodes from which play can be forced into ``targets``, as
    ``{id: rank}``, over the transitions ``graph`` keeps.

    Targets have rank 0. ``rule`` maps each phase to what a node of that
    phase needs before it joins, one rank above the last transition that
    brought it in: 1 when the forcing player moves (one transition inside),
    None when its opponent moves (every kept transition inside), and 0 when
    the node joins only as a target. The counters start from a copy of
    ``degree``, one pass over the graph; after it, a node's phase is read
    only when a transition into the set reaches it, so the work follows what
    the set reaches, not the size of the graph.

    This runs the worklist to the end, as the closure, the pruning and
    ``rank_ids`` need: they read every rank. ``AttractorSearch`` runs the
    same worklist only as far as the ranks asked for.
    """
    # Written out here and in ``AttractorSearch``: on small graphs the whole
    # run takes microseconds, and a shared set-up call cost 2-3% of it.
    ranks = dict.fromkeys(targets, 0)
    missing = graph.degree.copy()  # once reached: minus the transitions still needed inside
    for i in ranks:
        missing[i] = 0
    pstart, psrc = graph.preds
    queue = list(ranks)
    _expand(queue, ranks, queue, missing, graph.phase, pstart, psrc, rule)
    return ranks


class AttractorSearch(dict):
    """The ranks of ``attractor``, searched on demand: a dict of the ranks
    found so far, every target's from the start, whose lookup ``search[i]``
    expands the worklist only until ``i`` is ranked, or to the end when it
    never will be, and then gives ``math.inf``. The queue is breadth first,
    so by rank, and lists the same ids in the same order however far it has
    run: a rank is final once assigned, and each rank found here equals the
    one ``attractor`` gives. ``get`` and ``in`` do not search. Before the
    first lookup only the counter copy is paid, a pass over the graph."""

    def __init__(self, graph: AttackObserver, targets: Iterable[int], rule: dict):
        super().__init__(dict.fromkeys(targets, 0))
        missing = graph.degree.copy()
        for i in self:
            missing[i] = 0
        pstart, psrc = graph.preds
        queue = list(self)
        self._walk = iter(queue)  # the next entry to expand; reaches the ids appended later
        self._work = queue, missing, graph.phase, pstart, psrc, rule
        self._step = 1

    def __missing__(self, i: int) -> float:
        """Expand the queue in batches of 1, 2, 4, ... entries, counted over
        all lookups, until ``i`` is ranked: the search expands fewer than
        twice the entries its lookups need."""
        walk = self._walk
        while length_hint(walk):  # 0 once every entry is expanded
            _expand(islice(walk, self._step), self, *self._work)
            self._step *= 2
            if i in self:
                return self[i]
        return math.inf


def _expand(entries, ranks: dict, queue: list, missing: list, phase: list, pstart: list, psrc: list,
            rule: dict) -> None:
    """Expand the queue entries ``entries`` yields: rank each node whose
    counter the entry's incoming transitions complete, and append it."""
    for j in entries:  # the queue grows while it is walked: breadth first, so by rank
        rank = ranks[j] + 1
        for i in psrc[pstart[j]:pstart[j + 1]]:
            left = missing[i]
            if left > 0:  # the first transition of i found inside
                need = rule[phase[i]]
                left = -left if need is None else -need
            if left < 0:
                missing[i] = left + 1
                if left == -1:
                    ranks[i] = rank
                    queue.append(i)
