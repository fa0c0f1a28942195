"""Sparse projection-posterior inference for linear regression.

Draw from the conjugate normal-inverse-gamma posterior, push each draw
through an l1-penalized quadratic projection to get sparse coefficient
vectors, and read off credible regions whose credibility level is
calibrated so their frequentist coverage comes out right.
"""

from .calibration import (CalibrationQuery, CalibrationResult, TABLE_LAMBDAS,
                          TABLE_TARGETS, calibration_table,
                          calibration_table_csv, display_level, h_plus,
                          h_zero, psi, psi_zero, solve_gamma)
from .dataio import CsvFormatError, dataset_from_csv, read_csv
from .errors import (DegenerateDiagonal, DimensionMismatch, InsufficientData,
                     NoConvergence, NonFiniteInput, SingularSystem,
                     SparseProjError)
from .limits import (LimitSpec, limiting_coverage_mc, limitcheck_rows,
                     sample_t_star, zero_mass_probability)
from .normal import norm_cdf, norm_pdf, norm_ppf
from .posterior import (PosteriorFactorization, factorize,
                        sample_posterior_arrays)
from .projection import (cross_validate_lambda, default_lambda_grid, fit_lasso,
                         project_draws)
from .regions import (component_interval, component_intervals,
                      model_probabilities)
from .simulate import (CoverageReport, FitResult, ReplicationRecord, Scenario,
                       aggregate, fit_dataset, generate_data, report_to_csv,
                       run_replication, run_scenario, signal_vector,
                       sparsity_sweep, sweep_to_csv)
from .types import Dataset, DatasetAccumulator, PriorConfig, validate_dataset

__version__ = "0.1.0"

__all__ = [
    "CalibrationQuery", "CalibrationResult", "TABLE_LAMBDAS", "TABLE_TARGETS",
    "calibration_table", "calibration_table_csv", "display_level", "h_plus",
    "h_zero", "psi", "psi_zero", "solve_gamma",
    "CsvFormatError", "dataset_from_csv", "read_csv",
    "DegenerateDiagonal", "DimensionMismatch", "InsufficientData",
    "NoConvergence", "NonFiniteInput", "SingularSystem", "SparseProjError",
    "LimitSpec", "limiting_coverage_mc", "limitcheck_rows", "sample_t_star",
    "zero_mass_probability",
    "norm_cdf", "norm_pdf", "norm_ppf",
    "PosteriorFactorization", "factorize", "sample_posterior_arrays",
    "cross_validate_lambda", "default_lambda_grid", "fit_lasso",
    "project_draws",
    "component_interval", "component_intervals", "model_probabilities",
    "CoverageReport", "FitResult", "ReplicationRecord", "Scenario", "aggregate",
    "fit_dataset", "generate_data", "report_to_csv", "run_replication",
    "run_scenario", "signal_vector", "sparsity_sweep", "sweep_to_csv",
    "Dataset", "DatasetAccumulator", "PriorConfig", "validate_dataset",
    "__version__",
]
