"""Constructive free interpolation and ODE oscillation in the unit disc."""

from .geometry import DiscSequence, GeometryError
from .growth import GrowthError, GrowthFunction
from .counting import (
    ConditionReport,
    CountingError,
    carleson_delta,
    check_concentration,
    check_korenblum_sum,
    concentration_korenblum_comparison,
    counting_N,
    counting_n,
    counting_sandwich_check,
    separation,
    sigma_log_comparison,
)
from .products import (
    CanonicalProduct,
    ProductsError,
    prime_counting_criteria_check,
)
from .interpolation import (
    CoefficientLadder,
    Interpolant,
    InterpolationError,
    LadderError,
    TargetData,
    build_interpolant,
    build_ladder,
    growth_report,
    ladder_for_sequence,
    max_term_bound_report,
    select_exponents,
)
from .oscillation import (
    OscillationError,
    OscillationSolution,
    SharpnessSequence,
    build_coefficient,
    osc_targets,
    sharpness_counting_check,
    sharpness_growth_witness,
    sharpness_sequence,
)
from .harness import ConfigError, Scenario, generate_sequence, generate_targets, run_scenario

__version__ = "0.1.0"
