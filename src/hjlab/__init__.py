"""Min-plus (Lax-Oleinik) laboratory for forced Hamilton-Jacobi dynamics.

The package computes action-minimizing trajectories for Lagrangians of the
form |v|^beta/beta - U(x,t) with a bounded forcing potential, builds the
moving-bump potentials that accelerate minimizers, and provides the tropical
kernel algebra and experiment harness used to measure terminal-velocity
growth against the (log T)^(2/beta) scaling law.
"""

__version__ = "0.1.0"

from .core import (
    ModelParams,
    PotentialField,
    Trajectory,
    average_speed,
    legendre,
)
from .potentials import (
    GluedSchedule,
    PaceCurve,
    accelerating_potential,
    bump,
    glued_potential,
    glued_schedule,
    pace_main_gap,
    pace_residue,
    pace_s2_gap,
    periodic_potential,
    random_potential,
)
from .minimizer import (
    GridSpec,
    ValueTable,
    backtrack,
    comoving_window,
    refine,
    solve_dp,
    terminal_velocity,
    velocity_bound_lower,
    velocity_bound_upper,
)
from .laxoleinik import (
    GridFunction,
    Kernel,
    domination_defect,
    flow_defect,
    kernel,
    kernel_bounds_defect,
    lipschitz_in_large_constant,
    minplus_apply,
    minplus_compose,
)
