import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mechindep
from mechindep import ValidationError, combine_fisher, combine_tippett

DELETED_NAMES = {
    "ALPHA_U_ZERO",
    "BETA_U_BETA_AU_ZERO",
    "special_case_closed_form",
    "CsvSchema",
    "FULL_INTERACTION",
    "INTERCEPT_SHIFT",
    "PValueBundle",
    "bootstrap_refit",
    "PartialCorrelation",
    "partial_correlation",
    "kernel_dual",
    "standardize_covariates",
    "save_test_result",
    "regularized_incomplete_beta",
    "regularized_upper_gamma",
    "student_t_two_sided_pvalue",
}


def test_every_exported_name_resolves():
    missing = [name for name in mechindep.__all__ if not hasattr(mechindep, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(mechindep.__all__) == len(set(mechindep.__all__))


def test_deleted_names_stay_deleted():
    assert DELETED_NAMES.isdisjoint(mechindep.__all__)
    assert not any(hasattr(mechindep, name) for name in DELETED_NAMES)


def test_deleted_parameters_stay_deleted():
    assert "ridge_jitter" not in inspect.signature(mechindep.mint_test).parameters
    assert "ridge" not in inspect.signature(mechindep.least_squares_fit).parameters
    assert not hasattr(mechindep.mint, "DEFAULT_RIDGE_JITTER")
    assert "variant" not in inspect.signature(mechindep.transportability_test).parameters
    assert "schema" not in inspect.signature(mechindep.load_csv_dataset).parameters
    assert "strength" not in inspect.signature(mechindep.LinearExampleConfig.confounded).parameters
    semi = inspect.signature(mechindep.semi_synthetic_generate).parameters
    assert not {"noise_std", "resample_beta_intercept"} & set(semi)
    # The draw reads these from its SemiSyntheticSpec.
    assert not {"n_confounders", "degree", "observed_subset_size", "confounded"} & set(semi)
    assert "panel" not in inspect.signature(mechindep.run_benchmark).parameters


def test_import_loads_no_scipy():
    # scipy is imported only where it is used (the rank-deficiency report and
    # the analytic tests' tails): at import it costs ~0.3 s and ~27 MB of RSS.
    src = str(Path(mechindep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, mechindep, mechindep.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


DELETED_FIELDS = {
    mechindep.PolynomialConfig: {
        "covariate_diag", "covariate_offdiag", "env_mean_prior_var", "noise_std",
        "confounder_var", "confounder_mean_prior_var",
    },
    mechindep.LinearExampleConfig: {
        "sigma_x", "sigma_u", "noise_var_a", "noise_var_y", "varying_range",
    },
    mechindep.SemiSyntheticSpec: {"noise_std", "resample_beta_intercept"},
}


@pytest.mark.parametrize("cls", DELETED_FIELDS, ids=lambda cls: cls.__name__)
def test_deleted_config_fields_stay_deleted(cls):
    assert not DELETED_FIELDS[cls] & set(inspect.signature(cls).parameters)


@pytest.mark.parametrize("combine", [combine_fisher, combine_tippett])
@pytest.mark.parametrize("p_values", [(1.5,), (), [[0.1, 0.2]], 0.3, (0.2, -0.1)])
def test_combiners_reject_malformed_p_values(combine, p_values):
    with pytest.raises(ValidationError):
        combine(p_values)


def test_no_function_local_relative_imports():
    # A relative import inside a function hides an import cycle between the
    # package's modules; absolute imports of third-party modules may stay.
    found = set()
    for path in sorted(Path(mechindep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.ImportFrom) and node.level > 0
                )
    assert sorted(found) == []
