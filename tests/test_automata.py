"""Automaton core: estimates, observer, composition, and the attack-free
anonymity/opacity checks."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from helpers import corpus, est, nested_natural_key, ten_state_plant

from stateattack import (
    AttackSpec,
    Dfa,
    Nfa,
    StateEstimate,
    build_attack_observer,
    check_anonymity_classic,
    check_opacity_classic,
    compose,
    game_structure,
    number_attack_model,
    observer,
)
from stateattack.automata import _natural_key
from stateattack.violation import violating_ids


@hs.composite
def small_nfas(draw, max_states=5, max_events=3, min_states=2):
    n = draw(hs.integers(min_states, max_states))
    states = [str(i) for i in range(1, n + 1)]
    events = ["a", "b", "c"][: draw(hs.integers(1, max_events))]
    n_edges = draw(hs.integers(min_value=n, max_value=2 * n + 3))
    transitions = set()
    for _ in range(n_edges):
        transitions.add(
            (
                draw(hs.sampled_from(states)),
                draw(hs.sampled_from(events)),
                draw(hs.sampled_from(states)),
            )
        )
    initial = draw(hs.lists(hs.sampled_from(states), min_size=1, unique=True))
    return Nfa(states, events, transitions, initial)


@hs.composite
def small_dfas(draw, max_states=4):
    """A partial DFA over a random subset of the events a, b and c, whose
    states need not all be reachable."""
    states = [str(i) for i in range(1, draw(hs.integers(1, max_states)) + 1)]
    events = sorted(draw(hs.sets(hs.sampled_from("abc"))))
    targets = hs.one_of(hs.none(), hs.sampled_from(states))
    transitions = {(s, e): t for s in states for e in events if (t := draw(targets)) is not None}
    return Dfa(states, events, transitions, draw(hs.sampled_from(states)))


def accessible(g) -> set:
    """The states of the DFA ``g`` reachable from its initial state."""
    seen, stack = {g.initial}, [g.initial]
    while stack:
        state = stack.pop()
        for event in g.events:
            target = g.step(state, event)
            if target is not None and target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def reach_by_word(g, word):
    """Brute-force image of a word, straight off the raw transition relation."""
    current = set(g.initial)
    for event in word:
        current = {t for s in current for (src, ev, t) in g.transitions if src == s and ev == event}
        if not current:
            return frozenset()
    return frozenset(current)


# --- construction checks -----------------------------------------------------


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Nfa(["x"], ["a"], [], []), "at least one initial state"),
        pytest.param(
            lambda: Nfa(["x"], ["a"], [], ["y"]),
            r"unknown identifier: initial states \['y'\]",
            id="<lambda>-initial states must be declared",
        ),
        (lambda: Nfa(["x"], ["a"], [("x", "a", "y")], ["x"]), "endpoint"),
        (lambda: Nfa(["x"], ["a"], [("x", "b", "x")], ["x"]), "not a declared event"),
        pytest.param(
            lambda: Dfa(["x"], ["a"], {}, "y"),
            r"unknown identifier: initial states \['y'\]",
            id="<lambda>-initial state must be a declared state",
        ),
        (lambda: Dfa(["x"], ["a"], {("x", "a"): "y"}, "x"), "endpoint"),
        (lambda: Dfa(["x"], ["a"], {("x", "b"): "x"}, "x"), "not a declared event"),
    ],
)
def test_automata_reject_undeclared_parts(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _first_offending_edge(states, events, transitions) -> str:
    """The message of the per-edge check: the first edge, in the order of
    the transition set, with an undeclared endpoint or label."""
    for edge in frozenset(map(tuple, transitions)):
        src, label, dst = edge
        if src not in states or dst not in states:
            return f"unknown identifier: transition endpoint in {edge!r} is not a declared state"
        if label not in events:
            return f"unknown identifier: transition label in {edge!r} is not a declared event"
    raise AssertionError("no offending edge")


@pytest.mark.parametrize("seed", range(8))
def test_undeclared_edges_are_named_as_the_per_edge_loop_names_them(seed):
    """The set checks find that an edge is undeclared; the message names the
    edge the per-edge loop meets first, among several bad ones."""
    plant, _ = corpus(8)[seed]
    rows = sorted(plant.transitions)
    rows += [(rows[0][0], "z", rows[0][2]), ("ghost", rows[1][1], rows[1][2]), (rows[2][0], "a", "ghost")]
    expected = _first_offending_edge(plant.states, plant.events, rows)
    with pytest.raises(ValueError) as raised:
        Nfa(plant.states, plant.events, rows, plant.initial)
    assert str(raised.value) == expected


def test_transition_rows_must_have_three_parts():
    with pytest.raises(ValueError, match="each transition must be"):
        Nfa(["x"], ["a"], [("x", "a")], ["x"])


@pytest.mark.parametrize(
    "call,args",
    [("successors", ("1", "a")), ("image", (["1"], "a")), ("moves", ("1",))],
)
def test_plant_index_is_built_on_first_use(call, args):
    """Every lookup reads the one per-source index ``_out``, and nothing else
    is cached beside it."""
    g = ten_state_plant()
    before = set(vars(g))
    assert "_out" not in before
    getattr(g, call)(*args)
    assert set(vars(g)) - before == {"_out"}
    assert not {"_index", "_moves"} & set(vars(g))


def _dead_end_plant() -> Nfa:
    """A plant whose state "z" has no moves and whose ("x", "a") has two
    successors."""
    rows = [("x", "a", "z"), ("x", "a", "y"), ("x", "b", "x"), ("y", "b", "x")]
    return Nfa(["x", "y", "z"], ["a", "b"], rows, ["x"])


def test_plant_lookups_agree_with_an_eager_index_over_the_corpus():
    """Also on a dead-end state, a (state, event) with several successors and
    a name that is not a plant state, where every lookup is empty."""
    stranger = "not a state"
    for plant in [plant for plant, _ in corpus()] + [_dead_end_plant()]:
        assert stranger not in plant.states
        succ: dict = {}
        for src, label, dst in plant.transitions:
            succ.setdefault((src, label), set()).add(dst)
        for state in sorted(plant.states) + [stranger]:
            labels = {label for (src, label) in succ if src == state}
            assert plant.moves(state) == tuple(
                (label, dst) for label in sorted(labels) for dst in sorted(succ[state, label], key=str)
            )
            for label in sorted(plant.events):
                assert plant.successors(state, label) == succ.get((state, label), set())
        members = sorted(plant.states)[::2] + [stranger]
        for label in sorted(plant.events):
            expected = set().union(*(succ.get((state, label), set()) for state in members))
            assert plant.image(members, label) == expected
    plant = _dead_end_plant()
    assert plant.moves("z") == ()
    assert plant.successors("x", "a") == {"y", "z"}
    assert plant.moves("x") == (("a", "y"), ("a", "z"), ("b", "x"))


# --- natural order -----------------------------------------------------------

# Names built of digit runs (ASCII and Arabic-Indic, some with leading
# zeros), letters and "\u00b2", which str.isdigit calls a digit but neither
# int nor the digit-run split reads as one; and free text of the same.
_NAME_PIECES = ["0", "00", "7", "007", "10", "\u0662", "\u0660\u0667", "1\u0662", "a", "b", "Z", "\u00b2", ""]
_NAMES = hs.one_of(
    hs.lists(hs.sampled_from(_NAME_PIECES), max_size=4).map("".join),
    hs.text("0179ab\u0660\u0662\u00b2", max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(hs.lists(_NAMES, min_size=2, max_size=8))
def test_flat_natural_key_orders_as_the_nested_key(names):
    for a in names:
        for b in names:
            assert (_natural_key(a) < _natural_key(b)) == (nested_natural_key(a) < nested_natural_key(b))
            assert (_natural_key(a) == _natural_key(b)) == (a == b)


def test_natural_key_reads_digit_runs_by_position():
    names = ["x10", "x2", "\u00b2", "1\u00b2", "10", "\u0662", "1", "", "007", "7"]
    assert sorted(names, key=_natural_key) == [
        "1", "1\u00b2", "\u0662", "007", "7", "10", "", "x2", "x10", "\u00b2"
    ]


# --- state estimates ---------------------------------------------------------


def test_estimate_is_canonical():
    assert StateEstimate(("10", "1")) == StateEstimate(("1", "10", "1"))
    assert est("2,10").members == ("2", "10")  # numeric fragments sort numerically
    assert str(est("10,1")) == "{1,10}"


def test_estimate_rejects_empty():
    with pytest.raises(ValueError):
        StateEstimate(())


def test_estimate_membership_helpers():
    e = est("1,10")
    assert "10" in e and "2" not in e
    assert len(e) == 2
    assert e.issubset({"1", "10", "4"})
    assert not e.issubset({"1"})


# --- observer ----------------------------------------------------------------


def test_observer_ten_state_fixture():
    obs = observer(ten_state_plant())
    assert len(obs.states) == 5
    assert obs.initial == est("1,10")
    edges = {(str(src), ev, str(dst)) for (src, ev), dst in obs.transitions.items()}
    assert edges == {
        ("{1,10}", "a", "{2,3}"),
        ("{1,10}", "d", "{6,9}"),
        ("{2,3}", "b", "{4,5}"),
        ("{2,3}", "c", "{4,5}"),
        ("{4,5}", "c", "{4,5}"),
        ("{6,9}", "b", "{7,8}"),
        ("{7,8}", "c", "{7,8}"),
    }


def test_observer_single_state_no_transitions():
    g = Nfa(["s"], ["a"], [], ["s"])
    obs = observer(g)
    assert obs.states == frozenset({est("s")})
    assert obs.transitions == {}


@settings(max_examples=40, deadline=None)
@given(small_nfas())
def test_moves_list_the_raw_relation_in_play_order(g):
    for state in sorted(g.states):
        expected = sorted((e, t) for s, e, t in g.transitions if s == state)
        assert list(g.moves(state)) == expected  # state names sort alike as strings
        assert g.moves(state) is g.moves(state)


@settings(max_examples=40, deadline=None)
@given(small_nfas())
def test_observer_sound_on_all_short_words(g):
    obs = observer(g)
    for length in range(0, 6):
        for word in itertools.product(sorted(g.events), repeat=length):
            expected = reach_by_word(g, word)
            reached = obs.initial
            for event in word:
                reached = obs.step(reached, event)  # None stays None: no state is None
            if not expected:
                assert reached is None
            else:
                assert reached is not None
                assert frozenset(reached.members) == expected


def test_observer_is_deterministic_structure():
    obs = observer(ten_state_plant())
    assert isinstance(obs, Dfa)
    # one target per (state, event) is inherent to the mapping form
    assert len(obs.transitions) == len(set(obs.transitions))


# --- composition -------------------------------------------------------------


def test_compose_game_and_counter_budget_one_fragment():
    events = frozenset("abcd")
    product = compose(game_structure(events), number_attack_model(events, 1))
    names = {(phase, str(counter)) for phase, counter in product.states}
    assert names == {
        ("A", "0"), ("S", "0N"), ("AY", "0Y"), ("S", "1"), ("A", "1"), ("S", "1N"),
    }


@settings(max_examples=30, deadline=None)
@given(small_dfas())
def test_compose_neutral_single_state(g):
    unit = Dfa(["u"], [], {}, "u")
    product = compose(g, unit)
    reachable = accessible(g)
    assert product.states == frozenset((s, "u") for s in reachable)
    assert product.initial == (g.initial, "u")
    edges = {(s, e, t) for ((s, _), e), (t, _) in product.transitions.items()}
    assert edges == {(s, e, t) for (s, e), t in g.transitions.items() if s in reachable}


@settings(max_examples=30, deadline=None)
@given(small_dfas(), small_dfas())
def test_compose_agrees_with_pairwise_walk(g1, g2):
    product = compose(g1, g2)
    assert product.initial == (g1.initial, g2.initial)
    assert accessible(product) == product.states
    for x1, x2 in product.states:
        for event in product.events:
            y1 = g1.step(x1, event) if event in g1.events else x1
            y2 = g2.step(x2, event) if event in g2.events else x2
            expected = None if y1 is None or y2 is None else (y1, y2)
            assert product.step((x1, x2), event) == expected


@settings(max_examples=25, deadline=None)
@given(small_dfas(), small_dfas())
def test_compose_symmetric_up_to_swap(g1, g2):
    left = compose(g1, g2)
    right = compose(g2, g1)
    swap = lambda pair: (pair[1], pair[0])
    assert {swap(s) for s in left.states} == right.states
    assert {(swap(s), e): swap(t) for (s, e), t in left.transitions.items()} == right.transitions


# --- attack-free checks ------------------------------------------------------


def test_classic_checks_on_fixture():
    g = ten_state_plant()
    assert check_anonymity_classic(g)
    assert not check_opacity_classic(g, {"7", "8"})
    assert check_opacity_classic(g, {"2", "5"})


def test_classic_anonymity_false_for_single_initial_deterministic():
    g = Nfa(["1", "2"], ["a"], [("1", "a", "2")], ["1"])
    assert not check_anonymity_classic(g)


def test_classic_opacity_empty_secret_trivially_true():
    g = ten_state_plant()
    assert check_opacity_classic(g, set())


def test_classic_opacity_requires_proper_subset():
    g = ten_state_plant()
    with pytest.raises(ValueError):
        check_opacity_classic(g, g.states)


@settings(max_examples=30, deadline=None)
@given(small_nfas(max_states=6))
def test_classic_checks_match_direct_definition(g):
    # Exhaustive word enumeration is complete once words are as long as the
    # observer has states; keep instances where that is tractable. The
    # attack game at budget 0, which the command line reads both properties
    # from, is checked beside the classic checks: a property holds when the
    # game has no violating node.
    obs = observer(g)
    assume(len(obs.states) <= 6)
    singleton_found = False
    hidden_found = False
    secret = frozenset(sorted(g.states)[: len(g.states) // 2])
    nonsecret = g.states - secret
    for length in range(len(obs.states) + 1):
        for word in itertools.product(sorted(g.events), repeat=length):
            reached = reach_by_word(g, word)
            if len(reached) == 1:
                singleton_found = True
            if reached and not (reached & nonsecret):
                hidden_found = True
    no_attack = AttackSpec(frozenset(), 0)
    game = build_attack_observer(g, no_attack)
    assert check_anonymity_classic(g) == (not singleton_found)
    assert (not violating_ids(game, no_attack)) == (not singleton_found)
    if secret != g.states:
        assert check_opacity_classic(g, secret) == (not hidden_found)
        assert (not violating_ids(game, AttackSpec(frozenset(), 0, secret))) == (not hidden_found)
