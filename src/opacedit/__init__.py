"""Opacity verification and edit-function synthesis for partially observed
discrete event systems with incomparable intruder/defender observations."""

from .automata import (
    FiniteAutomaton,
    ModelError,
    ObservationProfile,
    ParseError,
    Trace,
    fmt_state_set,
    format_model,
    parse_model,
    project,
)
from .observers import (
    ObserverAutomaton,
    build_observer,
    standard_observers,
)
from .game import (
    DELETE,
    EditAction,
    EditGameStructure,
    OPS_ALL,
    PASSTHROUGH,
    build_edit_game,
    enumerate_actions,
    insertion,
    substitution,
)
from .trimming import TrimmedGameStructure, trim_game
from .mechanism import (
    EditMechanism,
    MealyEditFunction,
    Mechanism,
    POLICIES,
    build_uem,
    format_mealy,
    parse_mealy,
    refine_to_em,
    synthesize,
)
from .opacity import (
    OpacityVerdict,
    OracleVerdict,
    default_depth,
    edit_step,
    evaluate_editor,
    verify_cso,
)
from .harness import (
    EditUndefinedError,
    SimulationError,
    SimulationStep,
    certifying_depth,
    exact_ic_check,
    find_edit_strategy,
    iter_memoryless_editors,
    oracle_ic_enforcing,
    random_instance,
    simulate,
)

__version__ = "0.1.0"
