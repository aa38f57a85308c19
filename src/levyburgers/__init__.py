"""Shock structure of inviscid Burgers flows with Levy potential data.

Sample a two-sided Levy potential on a grid, solve the entropy flow at
time t exactly through the concave majorant of the shifted potential,
extract the shock structure, and run the regeneration constructions and
statistical checks on top.
"""

from .errors import (
    GridError,
    InputError,
    InsufficientDataError,
    LevyBurgersError,
    OutOfDomainError,
    ParameterError,
    WindowTooSmallError,
)
from .fixtures import jump_down, jump_up, step_path, zero_path
from .hull import ConcaveMajorant, query, upper_concave_majorant
from .levy import (
    GridSpec,
    JumpDist,
    LevyParams,
    LevyPath,
    PropertyFlags,
    abruptness_integral_estimate,
    classify,
    derived_seed,
    sample_path,
    stable_increments,
)
from .regen import (
    IndependenceReport,
    RegenReport,
    RkResult,
    distance_correlation,
    independence_test,
    permutation_pvalue,
    regen_report,
    rk_sequence,
    rst_scan,
)
from .shocks import (
    JumpSignReport,
    Rarefaction,
    RefinementRow,
    Shock,
    ShockReport,
    SignPatternReport,
    contact_jump_signs,
    epsilon_regular_indices,
    extract_shocks,
    refinement_study,
    sign_pattern,
    window_stats,
    zero_set_indices,
)
from .solver import (
    BurgersSolution,
    EulerianValues,
    evaluate_solution,
    lagrangian_position,
    moreau_envelope,
    prox_fixed_points,
    solve,
    solve_naive,
)

__version__ = "0.1.0"
