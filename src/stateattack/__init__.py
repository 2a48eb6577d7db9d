"""Anonymity and opacity analysis of nondeterministic finite automata under
a bounded budget of binary state attacks, with Mealy attack-strategy
synthesis."""

from .aobs import AObsState, AttackObserver, build_attack_observer
from .attackmodel import (
    ATTACK_NO,
    ATTACK_YES,
    EPSILON,
    AttackSpec,
    GAME_PHASES,
    GameCounter,
    PHASE_AWAIT,
    PHASE_DECIDE,
    PHASE_SYSTEM,
    RESERVED_LABELS,
)
from .automata import Nfa, StateEstimate
from .enforcement import check_enforced, final_verifier
from .oracle import (
    filtered_estimate,
    is_violating_attack_sequence,
    oracle_check_enforced,
    oracle_check_violation,
)
from .serialize import (
    InputError,
    export_dot,
    parse_model,
    parse_spec,
    serialize_model,
    serialize_spec,
    serialize_strategy,
)
from .strategy import (
    Adversarial,
    FIRST_VALID,
    MealyStrategy,
    PlayTrace,
    RANKED,
    RandomSeeded,
    StrategyError,
    StrategyReport,
    compute_ranks,
    rank_ids,
    simulate_play,
    synthesize_strategy,
    validate_strategy,
)
from .violation import build_verifier, check_violation, intermediate_violating_fixpoint, witness_labels

__version__ = "0.1.0"

# The paper's constructions, which the tests check the pipeline against, are
# loaded from ``reference`` on first access, so no command imports them.
_REFERENCE = frozenset({
    "Dfa", "bounded_game_structure", "check_anonymity_classic", "check_opacity_classic", "compose",
    "game_structure", "number_attack_model", "observer", "system_attack_model", "violation_predicate",
})


def __getattr__(name: str):
    if name in _REFERENCE:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
