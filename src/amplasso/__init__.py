"""Approximate message passing for l1-penalized regression, with the scalar
recursion that predicts its risk exactly in the large-system limit.

The library is organized bottom-up:

    scalars          soft threshold, priors, Gaussian expectations
    state_evolution  the variance recursion, its fixed point, penalty calibration
    instances        seeded random problem generators and sanity checks
    lasso            reference proximal-gradient solver with KKT certificates
    amp              the message-passing iteration and its diagnostics
    experiments      sweep harness, curve dumps, penalty optimization
    cli              command line front end (entry point `amplasso`)
"""

from ._version import __version__
from .amp import AmpDiagnostics, AmpState, run_amp, run_amp_grid
from .errors import AmplassoError, ConsistencyError, ConvergenceError, DivergenceError
from .experiments import (ExperimentConfig, ExperimentRecord, MinimumLambdaResult,
                          dump_se_curves, minimum_lambda, run_sweep, write_records_csv)
from .instances import Instance, generate, singular_edge_check
from .lasso import LassoSolution, solve_lasso, solve_lasso_path
from .scalars import (Prior, cross_mse_functional, eta_prime_expectation,
                      get_preset, l1_expectation, mse_functional, soft_threshold)
from .state_evolution import (PredictionBundle, SEParams, alpha_min, calibrate_lambda,
                              fixed_point, invert_calibration, predicted_risk, se_derivative,
                              se_map, se_sequence, two_time_recursion)

__all__ = [
    "__version__",
    "AmplassoError", "ConsistencyError", "ConvergenceError", "DivergenceError",
    "Prior", "soft_threshold", "mse_functional",
    "eta_prime_expectation", "l1_expectation", "cross_mse_functional", "get_preset",
    "SEParams", "PredictionBundle", "se_map", "se_sequence",
    "alpha_min", "fixed_point", "se_derivative", "calibrate_lambda",
    "invert_calibration", "predicted_risk", "two_time_recursion",
    "Instance", "generate", "singular_edge_check",
    "LassoSolution", "solve_lasso", "solve_lasso_path",
    "AmpState", "AmpDiagnostics", "run_amp", "run_amp_grid",
    "ExperimentConfig", "ExperimentRecord", "MinimumLambdaResult", "run_sweep",
    "write_records_csv", "dump_se_curves", "minimum_lambda",
]
