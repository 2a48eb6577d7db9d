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
    bounded_game_structure,
    game_structure,
    number_attack_model,
    system_attack_model,
)
from .automata import (
    Dfa,
    Nfa,
    StateEstimate,
    check_anonymity_classic,
    check_opacity_classic,
    compose,
    observer,
)
from .enforcement import check_enforced, final_verifier
from .oracle import (
    AttackRound,
    AttackTrace,
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
from .violation import (
    build_verifier,
    check_violation,
    intermediate_violating_fixpoint,
    violation_predicate,
    witness_labels,
)

__version__ = "0.1.0"
