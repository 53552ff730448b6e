import dataclasses
import json
import re
import types

import numpy as np
import pytest

from mechindep import (
    BenchmarkError,
    CovariatePanel,
    KernelSpec,
    LinearExampleConfig,
    PolynomialConfig,
    SemiSyntheticSpec,
    ValidationError,
    benchmark_rows_to_csv,
    experiment_config_from_dict,
    run_benchmark,
    run_method,
    semi_synthetic_generate,
)
from mechindep.cli import main
from mechindep.harness import _standardize_panel, repetition_seed_sequence


def simple_panel():
    rng = np.random.default_rng(0)
    return CovariatePanel(
        tuple(
            (f"e{s}", rng.normal(loc=float(s), scale=2.0, size=(40, 2)))
            for s in range(3)
        )
    )


class TestStandardizeCovariates:
    def test_pooled_moments(self):
        out = _standardize_panel(simple_panel())
        pooled = np.vstack([X for _, X in out.blocks])
        np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(pooled.var(axis=0), 1.0, atol=1e-12)

    def test_two_point_column(self):
        panel = CovariatePanel((("a", np.array([[0.0]])), ("b", np.array([[2.0]]))))
        out = _standardize_panel(panel)
        assert out.blocks[0][1][0, 0] == pytest.approx(-1.0)
        assert out.blocks[1][1][0, 0] == pytest.approx(1.0)

    def test_idempotent(self):
        once = _standardize_panel(simple_panel())
        twice = _standardize_panel(once)
        for (_, a), (_, b) in zip(once.blocks, twice.blocks):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_variance_column_named(self):
        panel = CovariatePanel(
            (("a", np.array([[1.0, 5.0]])), ("b", np.array([[1.0, 7.0]])))
        )
        with pytest.raises(ValidationError, match="0"):
            _standardize_panel(panel)


def covariate_panel(n_envs=3, n=50, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return CovariatePanel(
        tuple((f"e{s}", rng.normal(size=(n, d))) for s in range(n_envs))
    )


def semi_spec(**params):
    """A semi-synthetic spec for draws over a panel passed in; its CSV is never read."""
    return SemiSyntheticSpec("unread.csv", **params)


class TestSemiSyntheticGenerate:
    def test_all_observed_is_unconfounded(self):
        spec = semi_spec(n_confounders=5, degree=2, observed_subset_size=5, confounded=True)
        ds, truth = semi_synthetic_generate(spec, np.random.default_rng(1), covariate_panel())
        assert truth.confounded is False
        assert truth.unmeasured_columns == ()
        assert ds.d == 5

    def test_partial_observation_bookkeeping(self):
        spec = semi_spec(n_confounders=5, degree=2, observed_subset_size=1, confounded=True)
        _, truth = semi_synthetic_generate(spec, np.random.default_rng(2), covariate_panel())
        assert truth.confounded is True
        assert len(truth.unmeasured_columns) == 4
        assert len(truth.observed_columns) == 1
        assert set(truth.observed_columns) | set(truth.unmeasured_columns) == set(
            truth.confounder_columns
        )

    def test_unconfounded_flag_excludes_unobserved_from_equations(self):
        spec = semi_spec(n_confounders=5, degree=1, observed_subset_size=2, confounded=False)
        ds, truth = semi_synthetic_generate(spec, np.random.default_rng(3), covariate_panel())
        assert truth.confounded is False
        assert truth.unmeasured_columns == ()
        assert ds.d == 2

    def test_same_seed_same_subset(self):
        panel = covariate_panel()
        spec = semi_spec(n_confounders=5, degree=2, observed_subset_size=3, confounded=True)
        _, t1 = semi_synthetic_generate(spec, np.random.default_rng(9), panel)
        _, t2 = semi_synthetic_generate(spec, np.random.default_rng(9), panel)
        assert t1.confounder_columns == t2.confounder_columns

    def test_insufficient_columns_rejected(self):
        # The one check that needs the panel: it stays with the draw.
        spec = semi_spec(n_confounders=5, degree=2, observed_subset_size=2, confounded=True)
        with pytest.raises(ValidationError, match="covariate panel has 3 columns, need >= 5"):
            semi_synthetic_generate(spec, np.random.default_rng(0), covariate_panel(d=3))

    def test_observed_subset_bounds(self):
        with pytest.raises(ValidationError):
            semi_spec(n_confounders=5, degree=2, observed_subset_size=6, confounded=True)

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"n_confounders": 0, "observed_subset_size": 1}, r"need n_confounders >= 1, got 0"),
            ({"observed_subset_size": 0}, r"observed_subset_size must lie in \[1, 5\], got 0"),
            ({"n_confounders": 3}, r"observed_subset_size must lie in \[1, 3\], got 5"),
            ({"degree": 0}, r"need degree >= 1, got 0"),
        ],
        ids=["n_confounders", "observed_zero", "observed_above", "degree"],
    )
    def test_spec_checks_itself(self, params, match):
        with pytest.raises(ValidationError, match=match):
            semi_spec(**params)


def tiny_experiment_obj(method="mint", generator="polynomial", **overrides):
    obj = {
        "schema_version": 1,
        "generator": generator,
        "generator_params": {
            "n_envs": 4,
            "n_per_env": 40,
            "n_covariates": 1,
            "degree": 1,
            "confounded": True,
        },
        "method": method,
        "method_params": {"alpha": 0.05, "resamples": 50},
        "sweep": {"axis": "n_envs", "values": [4, 6]},
        "repetitions": 3,
        "seed": 11,
    }
    obj.update(overrides)
    return obj


def tiny_experiment(method="mint", generator="polynomial", **overrides):
    return experiment_config_from_dict(tiny_experiment_obj(method, generator, **overrides))


class TestExperimentConfig:
    def test_parses_valid_config(self):
        config = tiny_experiment()
        assert isinstance(config.generator_config, PolynomialConfig)
        assert config.sweep_values == (4, 6)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            tiny_experiment(extra_key=1)

    def test_unknown_generator_param_rejected(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            experiment_config_from_dict(
                {
                    "schema_version": 1,
                    "generator": "polynomial",
                    "generator_params": {"n_envs": 4, "n_per_env": 10, "bogus": 1},
                    "sweep": {"axis": "n_envs", "values": [4]},
                    "repetitions": 1,
                    "seed": 0,
                }
            )

    def test_unknown_method_param_rejected(self):
        with pytest.raises(ValidationError, match="method_params"):
            tiny_experiment(method_params={"alpha": 0.05, "wat": 2})
        for method in ("mint", "mint_no_bootstrap"):
            with pytest.raises(ValidationError, match=r"unknown keys \['ridge_jitter'\]"):
                tiny_experiment(method=method, method_params={"ridge_jitter": 1e-8})

    @pytest.mark.parametrize(
        "method, params",
        [
            ("mint", {"include_interactions": "false"}),
            ("mint", {"include_square": 1}),
            ("mint", {"feature_degree": 2.7}),
            ("mint", {"feature_degree": True}),
            ("mint", {"resamples": 20.9}),
            ("mint", {"resamples": "abc"}),
            ("mint", {"alpha": "x"}),
            ("mint_no_bootstrap", {"resamples": None}),
            ("transportability", {"alpha": False}),
            ("transportability", {"feature_degree": "2"}),
            ("kernel_mint", {"treatment_kernel": {"bandwidth": float("inf")}}),
            ("kernel_mint", {"outcome_kernel": {"kind": "cubic"}}),
            ("kernel_mint", {"treatment_kernel": {"kind": "linear", "bandwidth": 2.0}}),
            ("kernel_mint", {"outcome_kernel": [1]}),
        ],
    )
    def test_mistyped_method_param_rejected_at_parse_time(
        self, tmp_path, capsys, method, params
    ):
        obj = tiny_experiment_obj(method=method, method_params=params)
        with pytest.raises(ValidationError):
            experiment_config_from_dict(obj)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(obj))
        assert main(["benchmark", "--config", str(config)]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("key", ["repetitions", "seed"])
    @pytest.mark.parametrize("value", ["x", 2.5, 1.5, True])
    def test_mistyped_repetitions_or_seed_rejected(self, tmp_path, capsys, key, value):
        obj = tiny_experiment_obj(**{key: value})
        with pytest.raises(ValidationError, match=f"{key}: expected an integer"):
            experiment_config_from_dict(obj)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(obj))
        assert main(["benchmark", "--config", str(config)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("overrides", [{"method": ["mint"]}, {"generator": ["polynomial"]}])
    def test_list_valued_name_rejected(self, overrides):
        with pytest.raises(ValidationError, match="expected one of"):
            tiny_experiment(**overrides)

    @pytest.mark.parametrize(
        "params",
        [
            {"confounded": "false"}, {"degree": 1.5}, {"n_per_env": 20.5}, {"n_covariates": True},
            {"varying": "alpha0"}, {"varying": ["alpha0", 1]}, {"alpha_u": "ab"},
            {"beta_u": [0.1, 3.0]}, {"resample_beta_intercept": 1},
            {"covariate_columns": "x1"}, {"covariate_columns": ["x1", 2]},
        ],
    )
    def test_mistyped_generator_field_rejected(self, params):
        # A string is not a list of names, nor a list of characters.
        key = next(iter(params))
        generator, base = {
            "varying": ("linear_example", {"n_envs": 4, "n_per_env": 40}),
            "alpha_u": ("linear_example", {"n_envs": 4, "n_per_env": 40}),
            "beta_u": ("linear_example", {"n_envs": 4, "n_per_env": 40}),
            "covariate_columns": ("semi_synthetic", {"covariates_csv": "cov.csv"}),
        }.get(key, ("polynomial", {"n_envs": 4, "n_per_env": 40}))
        with pytest.raises(ValidationError, match=f"\\[{key!r}\\](\\[\\d\\])?: expected"):
            tiny_experiment(generator=generator, generator_params={**base, **params})

    @pytest.mark.parametrize("values", [5, "34", None])
    def test_sweep_values_must_be_a_list(self, tmp_path, capsys, values):
        obj = tiny_experiment_obj(sweep={"axis": "n_envs", "values": values})
        with pytest.raises(ValidationError, match="sweep values: expected a list"):
            experiment_config_from_dict(obj)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(obj))
        assert main(["benchmark", "--config", str(config)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_integer_accepted_for_float_generator_field(self):
        config = tiny_experiment(
            generator="linear_example", generator_params={"n_envs": 4, "n_per_env": 40, "alpha_u": 1}
        )
        assert config.generator_config == LinearExampleConfig(4, 40, alpha_u=1.0)

    def test_parsed_kernels_are_specs(self):
        config = tiny_experiment(
            method="kernel_mint",
            method_params={"treatment_kernel": None, "outcome_kernel": {"kind": "linear"}},
        )
        assert config.method_params == {
            "treatment_kernel": KernelSpec(),
            "outcome_kernel": KernelSpec(kind="linear"),
        }

    def test_schema_version_required(self):
        with pytest.raises(ValidationError, match="schema_version"):
            tiny_experiment(schema_version=99)

    def test_invalid_axis_for_generator_rejected(self):
        with pytest.raises(ValidationError, match="sweep axis"):
            tiny_experiment(sweep={"axis": "degree_of_freedom", "values": [1]})

    def test_varying_parameter_axis(self):
        config = experiment_config_from_dict(
            {
                "schema_version": 1,
                "generator": "linear_example",
                "generator_params": {"n_envs": 4, "n_per_env": 30, "alpha_u": 0.25,
                                     "beta_u": 0.25, "beta_au": 0.25},
                "method": "mint",
                "method_params": {"resamples": 50},
                "sweep": {"axis": "varying_parameter", "values": ["alpha0", "beta_a"]},
                "repetitions": 2,
                "seed": 3,
            }
        )
        assert isinstance(config.generator_config, LinearExampleConfig)
        rows = run_benchmark(config)
        assert [r.value for r in rows] == ["alpha0", "beta_a"]

    def test_bad_varying_parameter_value_rejected(self):
        with pytest.raises(ValidationError, match="varying-parameter"):
            experiment_config_from_dict(
                {
                    "schema_version": 1,
                    "generator": "linear_example",
                    "generator_params": {"n_envs": 4, "n_per_env": 30},
                    "sweep": {"axis": "varying_parameter", "values": ["nope"]},
                    "repetitions": 1,
                    "seed": 0,
                }
            )


def assert_benchmark_rejects(tmp_path, capsys, obj, match):
    """``obj`` fails to parse with ``match``, and the CLI exits 1 with nothing on
    stdout; returns the CLI's stderr."""
    with pytest.raises(ValidationError, match=match):
        experiment_config_from_dict(obj)
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(obj))
    assert main(["benchmark", "--config", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and re.search(match, err)
    return err


class TestConfigKeyCheck:
    """Every config object goes through io.check_keys."""

    @pytest.mark.parametrize("key", ["schema_version", "generator", "sweep", "repetitions", "seed"])
    def test_each_required_key(self, tmp_path, capsys, key):
        obj = tiny_experiment_obj()
        del obj[key]
        assert_benchmark_rejects(tmp_path, capsys, obj, f"experiment config: missing key '{key}'")

    @pytest.mark.parametrize(
        "sweep, match",
        [
            (["n_envs", [4]], r"\['sweep'\]: expected an object, got list"),
            ("n_envs", r"\['sweep'\]: expected an object, got str"),
            (
                {"axis": "n_envs", "values": [4], "step": 1},
                r"\['sweep'\]: unknown keys \['step'\]; allowed: \['axis', 'values'\]",
            ),
            ({"axis": "n_envs"}, r"\['sweep'\]: missing key 'values'"),
            ({"values": [4]}, r"\['sweep'\]: missing key 'axis'"),
        ],
        ids=["list", "string", "extra_key", "no_values", "no_axis"],
    )
    def test_sweep_shape(self, tmp_path, capsys, sweep, match):
        assert_benchmark_rejects(tmp_path, capsys, tiny_experiment_obj(sweep=sweep), match)

    # A bool or a float equal to 1 is not the integer 1.
    @pytest.mark.parametrize("version", [2, "1", None, [1], True, 1.0])
    def test_wrong_schema_version(self, tmp_path, capsys, version):
        obj = tiny_experiment_obj(schema_version=version)
        match = r"\['schema_version'\]: expected one of \[1\], got "
        assert_benchmark_rejects(tmp_path, capsys, obj, match)

    def test_method_params_error_names_the_method(self, tmp_path, capsys):
        obj = tiny_experiment_obj(method="transportability", method_params={"resamples": 10})
        match = r"transportability method_params: unknown keys \['resamples'\]"
        assert_benchmark_rejects(tmp_path, capsys, obj, match)

    @pytest.mark.parametrize(
        "given, spec",
        [
            (None, KernelSpec()),
            ({"kind": "linear", "ridge_lambda": 0.01}, KernelSpec(kind="linear", ridge_lambda=0.01)),
            (KernelSpec(bandwidth=2.0), KernelSpec(bandwidth=2.0)),
        ],
        ids=["null", "dict", "instance"],
    )
    def test_kernel_spec_forms(self, monkeypatch, given, spec):
        params = {"treatment_kernel": given, "outcome_kernel": given}
        config = tiny_experiment(method="kernel_mint", method_params=params)
        assert config.method_params == {"treatment_kernel": spec, "outcome_kernel": spec}
        seen = []
        monkeypatch.setattr(
            "mechindep.harness.kernel_mint_test",
            lambda data, t, o, **kwargs: seen.append((t, o)),
        )
        run_method("kernel_mint", params, None, seed=0)
        assert seen == [(spec, spec)]


def write_covariates(path, panel):
    lines = ["env," + ",".join(f"c{j}" for j in range(panel.d))]
    for env, X in panel.blocks:
        lines += [f"{env}," + ",".join(repr(float(v)) for v in row) for row in X]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSweepCells:
    """Each sweep value's generator config is built and checked at parse time."""

    def test_cells_set_the_axis(self):
        config = tiny_experiment()
        assert config.cells == tuple(
            dataclasses.replace(config.generator_config, n_envs=v) for v in (4, 6)
        )
        linear = tiny_experiment(
            generator="linear_example", generator_params={"n_envs": 4, "n_per_env": 30},
            sweep={"axis": "varying_parameter", "values": ["alpha0", "beta_a"]},
        )
        assert [cell.varying for cell in linear.cells] == [{"alpha0"}, {"beta_a"}]

    def test_bad_cell_fails_before_any_repetition(self, tmp_path, capsys):
        obj = tiny_experiment_obj(sweep={"axis": "n_envs", "values": [5, 1]})
        match = r"sweep value n_envs=1: need at least 2 environments, got 1"
        err = assert_benchmark_rejects(tmp_path, capsys, obj, match)
        assert "repetition failed" not in err

    def test_bad_semi_synthetic_cell_fails_before_any_repetition(self, tmp_path, capsys):
        cov = write_covariates(tmp_path / "cov.csv", covariate_panel(n_envs=3, n=40, d=6))
        obj = tiny_experiment_obj(
            generator="semi_synthetic", generator_params={"covariates_csv": str(cov)},
            method_params={"resamples": 20},
            sweep={"axis": "n_confounders", "values": [5, 3]}, repetitions=1,
        )
        match = r"sweep value n_confounders=3: observed_subset_size must lie in \[1, 3\], got 5"
        err = assert_benchmark_rejects(tmp_path, capsys, obj, match)
        assert "repetition failed" not in err

    def test_default_working_models_follow_the_cell_degree(self, monkeypatch):
        # Without feature_degree, each cell is fitted at its own degree, not
        # at the degree of generator_params.
        seen = []

        def record(dataset, psi, phi, **kwargs):
            seen.append((psi.degree, phi.degree))
            return types.SimpleNamespace(reject=False)

        monkeypatch.setattr("mechindep.harness.mint_test", record)
        config = tiny_experiment(sweep={"axis": "degree", "values": [1, 3]}, repetitions=2)
        run_benchmark(config)
        assert seen == [(1, 1), (1, 1), (3, 3), (3, 3)]


class TestRunBenchmark:
    def test_single_repetition_boundary(self):
        config = tiny_experiment(repetitions=1)
        rows = run_benchmark(config)
        for row in rows:
            assert row.falsification_rate in (0.0, 1.0)
            assert row.standard_error == 0.0
            assert row.repetitions == 1

    def test_standard_error_formula(self):
        rows = run_benchmark(tiny_experiment(repetitions=5))
        for row in rows:
            expected = np.sqrt(
                row.falsification_rate * (1 - row.falsification_rate) / row.repetitions
            )
            assert row.standard_error == pytest.approx(expected, abs=1e-15)

    def test_thread_count_does_not_change_results(self):
        config = tiny_experiment(repetitions=6)
        serial = run_benchmark(config, threads=1)
        threaded = run_benchmark(config, threads=8)
        assert benchmark_rows_to_csv(serial) == benchmark_rows_to_csv(threaded)

    def test_byte_identical_csv_across_runs(self):
        config = tiny_experiment(repetitions=4)
        a = benchmark_rows_to_csv(run_benchmark(config, threads=8))
        b = benchmark_rows_to_csv(run_benchmark(config, threads=8))
        assert a.encode() == b.encode()

    def test_seed_derivation_unique_across_cells(self):
        config = tiny_experiment(repetitions=10)
        states = set()
        for i in range(len(config.sweep_values)):
            for r in range(config.repetitions):
                state = tuple(
                    repetition_seed_sequence(config.seed, i, r).generate_state(4)
                )
                assert state not in states
                states.add(state)

    def test_failure_carries_context(self):
        # degree-5 features on 10-sample environments violate the dimension
        # precondition inside the sweep
        config = tiny_experiment(
            generator_params={
                "n_envs": 4,
                "n_per_env": 10,
                "n_covariates": 1,
                "degree": 1,
            },
            method_params={"resamples": 20, "feature_degree": 12},
            sweep={"axis": "n_envs", "values": [4]},
        )
        with pytest.raises(BenchmarkError) as err:
            run_benchmark(config)
        assert err.value.repetition == 0
        assert err.value.axis_value == 4
        assert "seed" in str(err.value)

    def test_semi_synthetic_generator_with_panel(self, tmp_path):
        cov = write_covariates(tmp_path / "cov.csv", covariate_panel(n_envs=4, n=60, d=6))
        config = experiment_config_from_dict(
            {
                "schema_version": 1,
                "generator": "semi_synthetic",
                "generator_params": {
                    "covariates_csv": str(cov),
                    "n_confounders": 4,
                    "degree": 1,
                    "observed_subset_size": 2,
                    "confounded": True,
                },
                "method": "mint",
                "method_params": {"resamples": 30},
                "sweep": {"axis": "observed_subset_size", "values": [2, 4]},
                "repetitions": 2,
                "seed": 21,
            }
        )
        rows = run_benchmark(config)
        assert len(rows) == 2

    def test_transportability_and_kernel_methods_run(self):
        rows = run_benchmark(
            tiny_experiment(method="transportability", method_params={"alpha": 0.05})
        )
        assert len(rows) == 2
        kernel_config = tiny_experiment(
            method="kernel_mint",
            method_params={
                "resamples": 30,
                "treatment_kernel": {"kind": "linear", "ridge_lambda": 1e-6},
                "outcome_kernel": {"kind": "linear", "ridge_lambda": 1e-6},
            },
        )
        rows = run_benchmark(kernel_config)
        assert len(rows) == 2


class TestBenchmarkCsv:
    def test_layout_and_timing_column(self):
        config = tiny_experiment(repetitions=2)
        rows = run_benchmark(config)
        text = benchmark_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "axis,value,rate,se,reps,seconds"
        assert all(line.endswith(",") for line in lines[1:])  # seconds empty
        timed = benchmark_rows_to_csv(rows, include_timing=True)
        assert not any(line.endswith(",") for line in timed.strip().split("\n")[1:])
