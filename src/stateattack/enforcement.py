"""Deciding whether the intruder can force a violation no matter what the
system does: per-type vulnerability predicates, the holdable region that
yields the final verifier, and the enforcement verdict."""

from __future__ import annotations

from .aobs import AObsState, AttackObserver, attractor
from .attackmodel import ATTACK_NO, ATTACK_YES, PHASE_DECIDE, PHASE_SYSTEM, RESULT_LABELS, AttackSpec
from .automata import Nfa
from .violation import check_violation


def is_vulnerable_type1(v: AttackObserver, state: AObsState) -> bool:
    """A kept system-move state survives when no system event can leave the
    kept region: every event enabled in the full attack observer must have
    its transition retained."""
    for label in v.parent.enabled(state):
        if v.step(state, label) is None:
            return False
    return True


def is_vulnerable_type2(
    v: AttackObserver,
    aobs: AttackObserver,
    state: AObsState,
    strict_paper: bool = False,
) -> bool:
    """A kept result-wait state survives when every possible attack result
    keeps the intruder inside the kept region, on a surviving system-move
    state.

    By default the results quantified over are those defined in the full
    attack observer, so a pruned result branch disqualifies the state; with
    ``strict_paper`` only results still present in the restriction are
    considered, which lets a state pass vacuously after losing a branch.
    """
    source = v if strict_paper else aobs
    for result in RESULT_LABELS:
        if source.step(state, result) is None:
            continue
        target = v.step(state, result)
        if target is None or not is_vulnerable_type1(v, target):
            return False
    return True


def is_vulnerable_type3(v: AttackObserver, state: AObsState, strict_paper: bool = False) -> bool:
    """A kept decision state survives when at least one of its decisions
    leads to a surviving state."""
    no_target = v.step(state, ATTACK_NO)
    if no_target is not None and is_vulnerable_type1(v, no_target):
        return True
    yes_target = v.step(state, ATTACK_YES)
    if yes_target is not None and is_vulnerable_type2(v, v.parent, yes_target, strict_paper):
        return True
    return False


def final_verifier(v: AttackObserver, aobs: AttackObserver, strict_paper: bool = False) -> AttackObserver:
    """Prune the verifier down to the states the intruder can hold: those
    outside the system's attractor to the states the verifier left out.

    The system expels the intruder from a system-move state by any event and
    from a result-wait state by any result, or never with ``strict_paper``;
    a decision state expels the intruder when all of its decisions do.
    """
    need = [0] * len(v.kept)
    for i in v.ids:
        phase = v.phase[i]
        if phase == PHASE_DECIDE:
            need[i] = len(aobs.kept_targets(i))
        elif phase == PHASE_SYSTEM or not strict_paper:
            need[i] = 1
    expelled = attractor(aobs, [i for i in aobs.ids if not v.kept[i]], need)
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
