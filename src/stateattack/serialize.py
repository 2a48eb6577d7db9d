"""File formats and exports: JSON documents for plant models and attack
descriptions, a JSON form for synthesized strategies, and deterministic DOT
renderings of every structure the pipeline builds."""

from __future__ import annotations

import json

from .aobs import AObsState, AttackObserver, StateType, classify
from .attackmodel import AttackSpec, RESERVED_LABELS
from .automata import Dfa, Nfa, _natural_key
from .strategy import MealyStrategy


class InputError(ValueError):
    """Malformed model or attack document; the message carries the diagnostic
    category (syntax error, unknown identifier, reserved label, negative
    budget)."""


def _load_json(text: str, what: str) -> dict:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"syntax error in {what} document: {exc}") from exc
    if not isinstance(document, dict):
        raise InputError(f"syntax error in {what} document: expected a JSON object")
    return document


def _string_list(document: dict, key: str, what: str) -> list:
    value = document.get(key)
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise InputError(f"syntax error in {what} document: {key!r} must be a list of strings")
    return value


def parse_model(text: str) -> Nfa:
    """Read a plant model document:

    {"states": [...], "events": [...], "initial": [...],
     "transitions": [[source, event, target], ...]}
    """
    document = _load_json(text, "model")
    states = _string_list(document, "states", "model")
    events = _string_list(document, "events", "model")
    initial = _string_list(document, "initial", "model")
    raw_transitions = document.get("transitions")
    if not isinstance(raw_transitions, list):
        raise InputError("syntax error in model document: 'transitions' must be a list")
    reserved = sorted(set(events) & RESERVED_LABELS)
    if reserved:
        raise InputError(f"reserved label: events {reserved!r} are reserved for the attack game")
    state_set = set(states)
    event_set = set(events)
    for name in initial:
        if name not in state_set:
            raise InputError(f"unknown identifier: initial state {name!r} is not declared")
    if not initial:
        raise InputError("syntax error in model document: at least one initial state is required")
    transitions = []
    for row in raw_transitions:
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(x, str) for x in row)):
            raise InputError(
                "syntax error in model document: each transition must be [source, event, target]"
            )
        src, event, dst = row
        if src not in state_set or dst not in state_set:
            raise InputError(f"unknown identifier: transition endpoint in {row!r} is not declared")
        if event not in event_set:
            raise InputError(f"unknown identifier: transition event in {row!r} is not declared")
        transitions.append((src, event, dst))
    return Nfa(states, events, transitions, initial)


def serialize_model(g: Nfa) -> str:
    document = {
        "states": sorted(g.states, key=_natural_key),
        "events": sorted(g.events),
        "initial": sorted(g.initial, key=_natural_key),
        "transitions": sorted([list(t) for t in g.transitions]),
    }
    return json.dumps(document, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def parse_spec(text: str, model: Nfa) -> AttackSpec:
    """Read an attack description document:

    {"attacked_states": [...], "budget": N,
     "mode": "anonymity" | {"opacity": {"secret_states": [...]}}}
    """
    document = _load_json(text, "attack")
    attacked = _string_list(document, "attacked_states", "attack")
    for name in attacked:
        if name not in model.states:
            raise InputError(f"unknown identifier: attacked state {name!r} is not a plant state")
    budget = document.get("budget")
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise InputError("syntax error in attack document: 'budget' must be an integer")
    if budget < 0:
        raise InputError(f"negative budget: {budget}")
    mode = document.get("mode", "anonymity")
    secret = None
    if mode == "anonymity":
        pass
    elif isinstance(mode, dict) and set(mode) == {"opacity"}:
        inner = mode["opacity"]
        if not isinstance(inner, dict):
            raise InputError("syntax error in attack document: 'opacity' must be an object")
        secret = _string_list(inner, "secret_states", "attack")
        for name in secret:
            if name not in model.states:
                raise InputError(f"unknown identifier: secret state {name!r} is not a plant state")
        if frozenset(secret) == model.states:
            raise InputError("invalid secret set: it must not cover every plant state")
    else:
        raise InputError(
            "syntax error in attack document: 'mode' must be \"anonymity\" "
            "or {\"opacity\": {\"secret_states\": [...]}}"
        )
    return AttackSpec(frozenset(attacked), budget, None if secret is None else frozenset(secret))


def serialize_spec(attack: AttackSpec) -> str:
    mode = (
        "anonymity"
        if attack.secret is None
        else {"opacity": {"secret_states": sorted(attack.secret, key=_natural_key)}}
    )
    document = {
        "attacked_states": sorted(attack.attacked, key=_natural_key),
        "budget": attack.budget,
        "mode": mode,
    }
    return json.dumps(document, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def strategy_edge_rows(strategy: MealyStrategy, names: dict) -> list:
    """The strategy's edges as JSON rows, named by ``strategy.names()``."""
    return [
        {"from": names[i], "input": event, "output": output, "to": names[k]}
        for i, event, output, k in strategy.id_edge_list(names)
    ]


def serialize_strategy(strategy: MealyStrategy) -> str:
    names = strategy.names()
    document = {
        "initial": names[strategy.initial_id],
        "states": list(names.values()),
        "edges": strategy_edge_rows(strategy, names),
        "policy": strategy.policy,
        "budget": strategy.attack.budget,
    }
    return json.dumps(document, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


_TYPE_FILL = {
    StateType.TYPE_I: "mistyrose",
    StateType.TYPE_II: "lightblue",
    StateType.TYPE_III: "palegreen",
}


def _empty_dot(name: str) -> str:
    return f"digraph {name} {{\n  empty [shape=plaintext label=\"empty\"];\n}}\n"


def export_dot(obj, name: str = "automaton") -> str:
    """Deterministic DOT text for any constructed structure. Attack-observer
    states are colored by type (system-move red, result-wait blue, decision
    green); strategy edges are labeled input/output."""
    if isinstance(obj, MealyStrategy):
        return _strategy_dot(obj, name)
    if isinstance(obj, AttackObserver):
        return _graph_dot(name, obj, sorted(obj.states))
    if isinstance(obj, Dfa):
        return _graph_dot(name, obj, sorted(obj.states, key=str))
    if isinstance(obj, Nfa):
        edges = [((src, label), dst) for src, label, dst in obj.transitions]
        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        for state in sorted(obj.states, key=str):
            shape = "doublecircle" if state in obj.initial else "circle"
            lines.append(f"  {_quote(str(state))} [shape={shape}];")
        for (src, label), dst in sorted(edges, key=lambda kv: (str(kv[0][0]), kv[0][1], str(kv[1]))):
            lines.append(f"  {_quote(str(src))} -> {_quote(str(dst))} [label={_quote(label)}];")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot export {type(obj).__name__} to DOT")


def _graph_dot(name: str, graph, states: list) -> str:
    """DOT text of a deterministic graph (``Dfa`` or ``AttackObserver``) with
    its states listed in ``states`` order."""
    if not states:
        return _empty_dot(name)
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box style=filled fillcolor=white];"]
    for state in states:
        attrs = []
        if isinstance(state, AObsState):
            attrs.append(f"fillcolor={_TYPE_FILL[classify(state)]}")
        if state == graph.initial:
            attrs.append("peripheries=2")
        suffix = f" [{' '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(str(state))}{suffix};")
    edges = sorted(graph.transitions.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
    for (src, label), dst in edges:
        lines.append(f"  {_quote(str(src))} -> {_quote(str(dst))} [label={_quote(str(label))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _strategy_dot(strategy: MealyStrategy, name: str) -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box style=filled fillcolor=white];"]
    names = strategy.names()
    for i, label in names.items():
        attrs = [f"fillcolor={_TYPE_FILL[classify(strategy.graph.state_of(i))]}"]
        if i == strategy.initial_id:
            attrs.append("peripheries=2")
        lines.append(f"  {_quote(label)} [{' '.join(attrs)}];")
    for i, event, output, k in strategy.id_edge_list(names):
        lines.append(
            f"  {_quote(names[i])} -> {_quote(names[k])} [label={_quote(f'{event}/{output}')}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
