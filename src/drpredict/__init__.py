"""drpredict: distributionally robust treatment-effect prediction.

Point estimation of average treatment effects, sharp/Neyman bounds on the
treatment-effect variance, minimax-robust effect predictions under
divergence-ball ambiguity, large-sample inference, and simulation /
calibration utilities.
"""

from .bounds import BoundsMethod, variance_bounds
from .calibration import (
    RadiusBenchmark,
    SplitRule,
    split_benchmark,
)
from .covariance import (
    NearEqualVariancesWarning,
    check_status,
    prediction_sd_grid,
    sigma_neyman,
)
from .exceptions import DrPredictError, NumericalError, ParseError, ValidationError
from .inference import (
    Estimates,
    TwoStepIntervals,
    check_two_step_args,
    estimate_robust_many,
    plain_im_intervals,
    two_step_intervals,
)
from .sample import ExperimentalSample, load_sample
from .simulation import (
    GaussianDGP,
    PopulationTruth,
    SimulationReport,
    case_preset,
    draw_sample,
    population_truth,
    run_coverage_study,
    write_reports_csv,
)
from .solver import (
    RobustConfig,
    penalty_derivs,
    solve_minimax,
    solve_minimax_many,
    sweep_delta,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exceptions
    "DrPredictError",
    "ParseError",
    "ValidationError",
    "NumericalError",
    # data model
    "ExperimentalSample",
    "load_sample",
    # variance bounds
    "BoundsMethod",
    "variance_bounds",
    # minimax solver
    "RobustConfig",
    "penalty_derivs",
    "solve_minimax",
    "solve_minimax_many",
    "sweep_delta",
    # asymptotic covariance
    "NearEqualVariancesWarning",
    "sigma_neyman",
    "prediction_sd_grid",
    "check_status",
    # inference
    "Estimates",
    "TwoStepIntervals",
    "estimate_robust_many",
    "check_two_step_args",
    "plain_im_intervals",
    "two_step_intervals",
    # simulation
    "GaussianDGP",
    "PopulationTruth",
    "SimulationReport",
    "case_preset",
    "draw_sample",
    "population_truth",
    "run_coverage_study",
    "write_reports_csv",
    # calibration
    "SplitRule",
    "RadiusBenchmark",
    "split_benchmark",
]
