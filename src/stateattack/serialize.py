"""File formats and exports: JSON documents for plant models and attack
descriptions, a JSON form for synthesized strategies, and deterministic DOT
renderings of every structure the pipeline builds."""

from __future__ import annotations

import json
import re

from .aobs import AttackObserver
from .attackmodel import PHASE_AWAIT, PHASE_DECIDE, PHASE_SYSTEM, AttackSpec, check_plant_events
from .automata import Dfa, Nfa, _natural_key
from .strategy import MealyStrategy


class InputError(ValueError):
    """Malformed model or attack document; the message leads with its
    category. The parsers raise "syntax error" (the document's shape, or a
    state or event name holding a lone surrogate, which UTF-8 cannot encode)
    and "reserved character" (a state name holding ',', '{' or '}'). The rest
    come from the type owning the rule, as a ValueError the parsers re-raise:
    "unknown identifier" from ``Nfa`` and ``AttackSpec.validate_for``,
    "reserved label" from ``check_plant_events``, "negative budget" and a
    non-integer budget's "syntax error" from ``AttackSpec``, and "invalid
    secret set" from ``check_secret_set``."""


def _load_json(text: str, what: str) -> dict:
    try:
        document = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise InputError(f"syntax error in {what} document: {exc}") from exc
    if not isinstance(document, dict):
        raise InputError(f"syntax error in {what} document: expected a JSON object")
    return document


def _string_list(document: dict, key: str, what: str) -> list:
    value = document.get(key)
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise InputError(f"syntax error in {what} document: {key!r} must be a list of strings")
    return value


# Estimates print as {a,b}, so a state name holding one of these characters
# could print like another estimate.
_RESERVED_CHARS = re.compile("[,{}]")


def parse_model(text: str) -> Nfa:
    """Read a plant model document:

    {"states": [...], "events": [...], "initial": [...],
     "transitions": [[source, event, target], ...]}
    """
    document = _load_json(text, "model")
    states = _string_list(document, "states", "model")
    events = _string_list(document, "events", "model")
    initial = _string_list(document, "initial", "model")
    transitions = document.get("transitions")
    if not isinstance(transitions, list):
        raise InputError("syntax error in model document: 'transitions' must be a list")
    for row in transitions:
        if not (isinstance(row, list) and len(row) == 3 and all(isinstance(x, str) for x in row)):
            raise InputError(
                "syntax error in model document: each transition must be [source, event, target]"
            )
    if not initial:
        raise InputError("syntax error in model document: at least one initial state is required")
    if _RESERVED_CHARS.search("".join(states)):
        clash = [name for name in states if _RESERVED_CHARS.search(name)]
        raise InputError(f"reserved character: state names {clash!r} hold ',', '{{' or '}}'")
    try:  # a lone surrogate is valid JSON, yet no report holding it can be printed
        "".join([*states, *events]).encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise InputError(f"syntax error in model document: lone surrogate {bad!r} in a name") from exc
    try:
        check_plant_events(events)
        return Nfa(states, events, transitions, initial)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


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
    mode = document.get("mode", "anonymity")
    secret = None
    if isinstance(mode, dict) and set(mode) == {"opacity"}:
        inner = mode["opacity"]
        if not isinstance(inner, dict):
            raise InputError("syntax error in attack document: 'opacity' must be an object")
        secret = _string_list(inner, "secret_states", "attack")
    elif mode != "anonymity":
        raise InputError(
            "syntax error in attack document: 'mode' must be \"anonymity\" "
            "or {\"opacity\": {\"secret_states\": [...]}}"
        )
    try:
        attack = AttackSpec(attacked, document.get("budget"), secret)
        attack.validate_for(model)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return attack


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
    """The strategy document, {"budget", "edges", "initial", "policy",
    "states"}, in the layout of ``json.dumps(document, indent=2,
    ensure_ascii=False, sort_keys=True)`` plus a newline. It is written
    directly, with the encoder's own string quoting, since ``indent`` sends
    ``json.dumps`` to its pure-Python encoder."""
    names = strategy.names()
    quote = json.encoder.encode_basestring
    quoted = {i: quote(text) for i, text in names.items()}
    edges = [
        f'    {{\n      "from": {quoted[i]},\n      "input": {quote(event)},\n'
        f'      "output": {quote(output)},\n      "to": {quoted[k]}\n    }}'
        for i, event, output, k in strategy.id_edge_list(names)
    ]
    return (
        f'{{\n  "budget": {strategy.attack.budget},\n  "edges": {_json_items(edges)},\n'
        f'  "initial": {quoted[strategy.initial_id]},\n  "policy": {quote(strategy.policy)},\n'
        f'  "states": {_json_items(["    " + text for text in quoted.values()])}\n}}\n'
    )


def _json_items(items: list) -> str:
    """A JSON list of the indented ``items`` at depth 1 of a document with
    ``indent=2``."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


_PHASE_FILL = {PHASE_SYSTEM: "mistyrose", PHASE_AWAIT: "lightblue", PHASE_DECIDE: "palegreen"}

_BOXES = ("  rankdir=LR;", "  node [shape=box style=filled fillcolor=white];")


def export_dot(obj, name: str = "automaton") -> str:
    """Deterministic DOT text for any constructed structure. Attack-observer
    states are colored by type (system-move red, result-wait blue, decision
    green); strategy edges are labeled input/output."""
    if isinstance(obj, Nfa):
        nodes = [
            (str(state), "shape=doublecircle" if state in obj.initial else "shape=circle")
            for state in sorted(obj.states, key=str)
        ]
        edges = sorted((str(src), label, str(dst)) for src, label, dst in obj.transitions)
        return _dot(name, ("  rankdir=LR;",), nodes, edges)
    if isinstance(obj, Dfa):
        nodes = [
            (str(state), "peripheries=2" if state == obj.initial else "")
            for state in sorted(obj.states, key=str)
        ]
        rows = [(str(src), str(label), str(dst)) for (src, label), dst in obj.transitions.items()]
        edges = sorted(rows)
        return _dot(name, _BOXES, nodes, edges)
    if isinstance(obj, MealyStrategy):
        graph, names = obj.graph, obj.names()
        rows = obj.id_edge_list(names)
        edges = [(names[i], f"{event}/{output}", names[k]) for i, event, output, k in rows]
    elif isinstance(obj, AttackObserver):
        graph, names = obj, obj.names(obj.ids)
        rows = [(names[i], label, names[j]) for i in obj.ids for label, j in obj.kept_targets(i)]
        edges = sorted(rows)
    else:
        raise TypeError(f"cannot export {type(obj).__name__} to DOT")
    nodes = []
    for i, text in names.items():
        fill = f"fillcolor={_PHASE_FILL[graph.phase[i]]}"
        nodes.append((text, f"{fill} peripheries=2" if i == obj.initial_id else fill))
    return _dot(name, _BOXES, nodes, edges)


def _dot(name: str, header: tuple, nodes: list, edges: list) -> str:
    """DOT text of the ``header`` lines, the (name, attributes) ``nodes`` and
    the (source, label, target) ``edges``, in the order given. A graph
    without nodes is drawn as one "empty" label."""
    if not nodes:
        return f'digraph {name} {{\n  empty [shape=plaintext label="empty"];\n}}\n'
    lines = [f"digraph {name} {{", *header]
    for node, attrs in nodes:
        lines.append(f"  {_quote(node)} [{attrs}];" if attrs else f"  {_quote(node)};")
    for src, label, dst in edges:
        lines.append(f"  {_quote(src)} -> {_quote(dst)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
