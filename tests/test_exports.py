import ast
import dataclasses
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
    "FitDiagnostics",
    "EnvironmentDiagnostics",
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


def scipy_modules_after(code: str) -> str:
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    src = str(Path(mechindep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_import_loads_no_scipy():
    # scipy is imported only where it is used (the rank-deficiency report and
    # the analytic tests' tails): at import it costs ~0.3 s and ~27 MB of RSS.
    assert scipy_modules_after("import sys, mechindep, mechindep.cli") == "[]\n"


def test_op_paths_load_no_scipy(tmp_path):
    # On top of ~30 MB for the import, scipy.special would add ~24 MB of RSS,
    # scipy.linalg ~26 MB and scipy.spatial.distance ~36 MB to resampling
    # tests that peak at 50-70 MB.
    data, out = str(tmp_path / "data.csv"), str(tmp_path / "r.json")
    code = f"""
import sys
import numpy as np
import mechindep as mi
from mechindep import cli
config = mi.PolynomialConfig(6, 60, degree=2, confounded=True)
ds, _ = mi.generate_polynomial(config, np.random.default_rng(0))
mi.save_csv_dataset(ds, {data!r})
for boot in (True, False):
    mi.mint_test(ds, mi.treatment_spec(2), mi.outcome_spec(2), M=20, use_bootstrap=boot)
mi.kernel_mint_test(ds, mi.KernelSpec(), mi.KernelSpec(), M=20)
assert cli.main(["test", "--input", {data!r}, "--no-bootstrap", "--output", {out!r}]) == 0
"""
    assert scipy_modules_after(code) == "[]\n"


DELETED_FIELDS = {
    mechindep.PolynomialConfig: {
        "covariate_diag", "covariate_offdiag", "env_mean_prior_var", "noise_std",
        "confounder_var", "confounder_mean_prior_var",
    },
    mechindep.LinearExampleConfig: {
        "sigma_x", "sigma_u", "noise_var_a", "noise_var_y", "varying_range",
        "alpha0", "alpha_x", "beta0", "beta_x", "beta_a", "beta_ax", "mu_x", "mu_u",
    },
    mechindep.SemiSyntheticSpec: {"noise_std", "resample_beta_intercept"},
    mechindep.MechanismEstimates: {"diagnostics"},
}


@pytest.mark.parametrize("cls", DELETED_FIELDS, ids=lambda cls: cls.__name__)
def test_deleted_config_fields_stay_deleted(cls):
    assert not DELETED_FIELDS[cls] & set(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls", [mechindep.GroundTruth, mechindep.SemiSyntheticTruth],
                         ids=lambda cls: cls.__name__)
def test_truth_records_have_no_varied_label(cls):
    assert "varied" not in {f.name for f in dataclasses.fields(cls)}


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
