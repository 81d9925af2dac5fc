"""Workbench for independence-friendly logic with chance moves.

Compiles sentences over finite structures into extensive games with
imperfect information, computes their exact equilibrium-semantics truth
values, and answers conditional win-probability queries.
"""

from .errors import (
    BudgetError,
    EventError,
    GameError,
    IfGameError,
    NatureStrategyError,
    ParseError,
    ProfileError,
    StructureError,
    ZeroProbabilityEventError,
)
from .formula import (
    And,
    App,
    ChainAtom,
    ChanceOr,
    ChanceQ,
    Const,
    Exists,
    Forall,
    Formula,
    Literal,
    Or,
    RelAtom,
    Var,
    free_variables,
    implies,
    negate,
    occurrences,
)
from .game import (
    EXIST,
    NATURE,
    UNIV,
    ExtensiveGame,
    InfoSet,
    build_semantic_game,
    export_dot,
)
from .parser import (
    EventPredicate,
    format_formula,
    parse_event,
    parse_extensive_game,
    parse_formula,
    parse_nature_strategy,
    parse_profile,
    parse_structure,
)
from .solver import (
    ConditionalValue,
    Equilibrium,
    PayoffMatrix,
    build_matrix,
    conditional_value,
    simulate,
    solve,
    solve_zero_sum,
    truth_value,
    verify_equilibrium,
)
from .strategy import (
    BehavioralStrategy,
    MixedStrategy,
    ReducedStrategy,
    StrategyList,
    embedded_nature,
    enumerate_reduced,
    follows,
    play_masses,
    reduced_from_rules,
    uniform_nature,
)
from .structure import Assignment, Structure, compile_literal

__version__ = "0.1.0"
