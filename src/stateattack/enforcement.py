"""Deciding whether the intruder can force a violation no matter what the
system does: the holdable region that yields the final verifier, and the
enforcement verdict."""

from __future__ import annotations

from .aobs import AttackObserver, attractor
from .attackmodel import PHASE_AWAIT, PHASE_DECIDE, PHASE_SYSTEM, AttackSpec
from .automata import Nfa
from .violation import check_violation

# What a node of each phase needs to join the system's attractor.
_PRUNING_RULE = {PHASE_DECIDE: None, PHASE_SYSTEM: 1, PHASE_AWAIT: 1}
_STRICT_PRUNING_RULE = {**_PRUNING_RULE, PHASE_AWAIT: 0}


def final_verifier(v: AttackObserver, aobs: AttackObserver, strict_paper: bool = False) -> AttackObserver:
    """Prune the verifier down to the states the intruder can hold: those
    outside the system's attractor to the states the verifier left out.

    The system expels the intruder from a system-move state by any event and
    from a result-wait state by any result, or never with ``strict_paper``;
    a decision state expels the intruder when all of its decisions do.
    A verifier that keeps every node of ``aobs`` leaves nothing to expel.
    """
    if len(v.ids) == len(aobs.ids):
        return v
    rule = _STRICT_PRUNING_RULE if strict_paper else _PRUNING_RULE
    expelled = attractor(aobs, [i for i in aobs.ids if not v.kept[i]], rule)
    held = [i for i in v.ids if i not in expelled]
    if len(held) == len(v.ids):
        return v
    return aobs.restrict_ids(held)


def check_enforced(
    g: Nfa, attack: AttackSpec, strict_paper: bool = False
) -> tuple[bool, AttackObserver]:
    """Full pipeline: the violation verifier pruned to the holdable region.
    The verdict is the nonemptiness of the final verifier."""
    _, verifier = check_violation(g, attack)
    fv = final_verifier(verifier, verifier.parent, strict_paper)
    return (not fv.is_empty, fv)
