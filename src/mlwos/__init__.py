"""Walk-on-spheres and multilevel Monte Carlo point solvers for the Laplace
Dirichlet problem, with deterministic splittable sampling and the empirical
studies (variance decay, divergence probability, error versus work) used to
compare the estimators."""

from .geometry import (
    Ball,
    BoundaryCondition,
    Domain,
    Hemisphere,
    PROBLEM_NAMES,
    Problem,
    Square,
    ball_problem,
    boundary_value,
    get_problem,
    hemisphere_problem,
    square_problem,
)
from .walk import (
    DEFAULT_MAX_STEPS,
    StepLimitExceeded,
    StreamKey,
    run_many,
)
from .estimator import (
    EstimateReport,
    Ladder,
    LevelStats,
    adaptive_mlmc,
    allocation_targets,
    auto_sample_count,
    build_ladder,
    coarsest_level,
    default_ladder,
    mc_estimate,
    mlmc_estimate,
    model_allocation,
    optimal_allocation,
    sample_level,
    solve,
    solve_cells,
    solve_reps,
    stream_context,
)
from .studies import (
    FitResult,
    StudyRecord,
    fit_loglog,
    pdiv_study,
    rms_error,
    variance_study,
    work_error_study,
)

__version__ = "0.1.0"
