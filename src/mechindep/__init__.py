"""Falsification of no-unmeasured-confounding on multi-environment data.

The core test fits per-environment treatment and outcome working models,
then asks whether the fitted parameter vectors look statistically dependent
across environments; under independent causal mechanisms and no unmeasured
confounding they should not. Also included: a transportability-test
baseline, synthetic generators with closed-form oracles, a kernelized
variant, and a reproducible benchmark harness with a CLI.
"""

from .baselines import (
    combine_fisher,
    combine_tippett,
    transportability_test,
)
from .dataset import CovariatePanel, EnvironmentBlock, MultiEnvDataset
from .dgp import (
    GroundTruth,
    LinearExampleConfig,
    OracleParams,
    PolynomialConfig,
    generate_linear_example,
    generate_polynomial,
    lemma1_closed_form,
    oracle_params_from_env,
)
from .errors import (
    BenchmarkError,
    NumericalError,
    RankDeficientError,
    ValidationError,
)
from .estimation import (
    MechanismEstimates,
    fit_mechanisms,
    least_squares_fit,
)
from .features import (
    FeatureSpec,
    build_outcome_features,
    build_treatment_features,
    outcome_spec,
    treatment_spec,
)
from .harness import (
    BenchmarkRow,
    ExperimentConfig,
    SemiSyntheticSpec,
    SemiSyntheticTruth,
    benchmark_rows_to_csv,
    experiment_config_from_dict,
    generate_dataset,
    run_benchmark,
    run_method,
    semi_synthetic_generate,
)
from .io import (
    load_covariate_panel,
    load_csv_dataset,
    save_csv_dataset,
)
from .kernel import (
    KernelSpec,
    gram,
    kernel_mint_test,
    kernel_statistic,
    resolve_bandwidth,
)
from .mint import (
    TestResult,
    calibrate_threshold,
    frobenius_statistic,
    mint_test,
    permutation_test,
)
from .special import (
    chi2_survival,
    f_critical_value,
    f_survival,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkError",
    "BenchmarkRow",
    "CovariatePanel",
    "EnvironmentBlock",
    "ExperimentConfig",
    "FeatureSpec",
    "GroundTruth",
    "KernelSpec",
    "LinearExampleConfig",
    "MechanismEstimates",
    "MultiEnvDataset",
    "NumericalError",
    "OracleParams",
    "PolynomialConfig",
    "RankDeficientError",
    "SemiSyntheticSpec",
    "SemiSyntheticTruth",
    "TestResult",
    "ValidationError",
    "benchmark_rows_to_csv",
    "build_outcome_features",
    "build_treatment_features",
    "calibrate_threshold",
    "chi2_survival",
    "combine_fisher",
    "combine_tippett",
    "experiment_config_from_dict",
    "f_critical_value",
    "f_survival",
    "fit_mechanisms",
    "frobenius_statistic",
    "generate_dataset",
    "generate_linear_example",
    "generate_polynomial",
    "gram",
    "kernel_mint_test",
    "kernel_statistic",
    "least_squares_fit",
    "lemma1_closed_form",
    "load_covariate_panel",
    "load_csv_dataset",
    "mint_test",
    "oracle_params_from_env",
    "outcome_spec",
    "permutation_test",
    "resolve_bandwidth",
    "run_benchmark",
    "run_method",
    "save_csv_dataset",
    "semi_synthetic_generate",
    "transportability_test",
    "treatment_spec",
]
