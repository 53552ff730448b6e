"""Experiment harness: method and generator dispatch, sweeps, semi-synthetic data.

A benchmark is a deterministic grid: one sweep axis, a fixed number of
repetitions per axis value, and a root seed. Repetition ``r`` on axis index
``i`` derives its random streams from ``SeedSequence([seed, i, r])``, so no
stream is reused across cells and results are independent of scheduling.
Repetitions may run in parallel; rows are reduced in (axis, repetition)
order, never completion order.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import transportability_test
from .dataset import CovariatePanel, EnvironmentBlock, MultiEnvDataset
from .dgp import (
    _NOISE_STD,
    VARYING_PARAMETER_NAMES,
    LinearExampleConfig,
    PolynomialConfig,
    generate_linear_example,
    generate_polynomial,
)
from .errors import BenchmarkError, ValidationError
from .features import FeatureSpec, build_treatment_features, outcome_spec, treatment_spec
from .io import (
    SCHEMA_VERSION, check_keys, check_value, dataclass_from_dict, format_float,
    load_covariate_panel,
)
from .kernel import KernelSpec, kernel_mint_test
from .mint import (
    METHOD_KERNEL_MINT,
    METHOD_MINT,
    METHOD_MINT_NO_BOOTSTRAP,
    METHOD_TRANSPORTABILITY,
    TestResult,
    mint_test,
)

# ---------------------------------------------------------------------------
# Covariate standardization and the semi-synthetic pipeline
# ---------------------------------------------------------------------------

def _standardize_panel(panel: CovariatePanel) -> CovariatePanel:
    """Rescale covariates to pooled mean 0 and variance 1."""
    pooled = np.vstack([X for _, X in panel.blocks])
    mean = pooled.mean(axis=0)
    var = pooled.var(axis=0)  # population variance: {0, 2} -> {-1, +1}
    zero = np.flatnonzero(var == 0.0)
    if zero.size:
        raise ValidationError(
            f"zero-variance covariate column(s): {[int(j) for j in zero]}"
        )
    std = np.sqrt(var)
    return CovariatePanel(
        tuple((env, (X - mean) / std) for env, X in panel.blocks)
    )


@dataclass(frozen=True)
class SemiSyntheticTruth:
    """Ground truth of one semi-synthetic draw."""

    confounded: bool
    confounder_columns: tuple[int, ...]  # columns of the source panel
    observed_columns: tuple[int, ...]
    unmeasured_columns: tuple[int, ...]


@dataclass(frozen=True)
class SemiSyntheticSpec:
    """Generator parameters of the semi-synthetic pipeline (JSON schema).

    Checked when built: ``n_confounders >= 1``, ``degree >= 1`` and
    ``1 <= observed_subset_size <= n_confounders``. That the covariate panel
    has ``n_confounders`` columns is checked when data is drawn.
    """

    covariates_csv: str
    env_column: str = "env"
    covariate_columns: tuple[str, ...] | None = None
    n_confounders: int = 5
    degree: int = 2
    observed_subset_size: int = 5
    confounded: bool = True

    def __post_init__(self):
        if self.covariate_columns is not None:
            object.__setattr__(self, "covariate_columns", tuple(self.covariate_columns))
        if self.n_confounders < 1:
            raise ValidationError(f"need n_confounders >= 1, got {self.n_confounders}")
        if not 1 <= self.observed_subset_size <= self.n_confounders:
            raise ValidationError(
                f"observed_subset_size must lie in [1, {self.n_confounders}], "
                f"got {self.observed_subset_size}"
            )
        if self.degree < 1:
            raise ValidationError(f"need degree >= 1, got {self.degree}")


def semi_synthetic_generate(
    spec: SemiSyntheticSpec, rng: np.random.Generator, panel: CovariatePanel | None = None
) -> tuple[MultiEnvDataset, SemiSyntheticTruth]:
    """Generate treatment and outcome over real covariates.

    ``panel`` is the source covariate panel, read from the spec's
    ``covariates_csv`` when not given. Covariates are standardized (pooled),
    ``n_confounders`` columns are drawn uniformly without replacement as the
    true parents of treatment and outcome, and (A, Y) follow the polynomial
    coefficient scheme over those columns, with both intercepts redrawn per
    environment and noise standard deviation 1/2. Only the first
    ``observed_subset_size`` of the drawn columns are exposed as measured
    covariates. With ``confounded=False`` the unexposed columns are removed
    from the generating equations as well, so no unmeasured confounders
    remain.
    """
    if panel is None:
        panel = load_covariate_panel(spec.covariates_csv, spec.env_column, spec.covariate_columns)
    n_confounders, degree = spec.n_confounders, spec.degree
    if panel.d < n_confounders:
        raise ValidationError(f"covariate panel has {panel.d} columns, need >= {n_confounders}")
    chosen = rng.choice(panel.d, size=n_confounders, replace=False)
    observed = tuple(int(j) for j in chosen[:spec.observed_subset_size])
    unmeasured = tuple(int(j) for j in chosen[spec.observed_subset_size:])
    generating = list(chosen) if spec.confounded else list(observed)
    d_gen = len(generating)
    slope_alpha = rng.choice(np.array([-1.0, 1.0]), size=d_gen * degree)
    slope_beta = np.ones(d_gen * degree)
    power_spec = treatment_spec(degree=degree, include_intercept=False)
    blocks = []
    for env_id, X in _standardize_panel(panel).blocks:
        n = X.shape[0]
        alpha0 = float(rng.normal(0.0, 1.0))
        beta0 = float(rng.normal(0.0, 1.0))
        powers = build_treatment_features(X[:, generating], power_spec)
        A = alpha0 + powers @ slope_alpha + rng.normal(0.0, _NOISE_STD, size=n)
        Y = beta0 + powers @ slope_beta + A + rng.normal(0.0, _NOISE_STD, size=n)
        blocks.append(EnvironmentBlock(env_id, X[:, list(observed)], A, Y))
    truth = SemiSyntheticTruth(
        confounded=bool(spec.confounded) and bool(unmeasured),
        confounder_columns=tuple(int(j) for j in chosen),
        observed_columns=observed,
        unmeasured_columns=unmeasured if spec.confounded else (),
    )
    return MultiEnvDataset(tuple(blocks)), truth


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

# Each generator's config class, its draw function and the axes a sweep may vary.
_GENERATORS = {
    "linear_example": (
        LinearExampleConfig, generate_linear_example, ("n_envs", "n_per_env", "varying_parameter"),
    ),
    "polynomial": (
        PolynomialConfig, generate_polynomial, ("n_envs", "n_per_env", "n_covariates", "degree"),
    ),
    "semi_synthetic": (
        SemiSyntheticSpec, semi_synthetic_generate,
        ("observed_subset_size", "degree", "n_confounders"),
    ),
}


# The methods, each with the method_params keys it reads and the kind of
# value each takes: a type, or a tuple of the allowed values.
_FEATURE_PARAMS = {"feature_degree": int, "include_interactions": bool, "include_square": bool}
_MINT_PARAMS = {"alpha": float, "resamples": int, **_FEATURE_PARAMS}
_METHOD_PARAMS = {
    METHOD_MINT: _MINT_PARAMS,
    METHOD_MINT_NO_BOOTSTRAP: _MINT_PARAMS,
    METHOD_TRANSPORTABILITY: {"alpha": float, **_FEATURE_PARAMS},
    METHOD_KERNEL_MINT: {
        "alpha": float, "resamples": int,
        "treatment_kernel": KernelSpec, "outcome_kernel": KernelSpec,
    },
}


def _checked_method_params(method: str, params: dict) -> dict:
    """``params`` checked against the method's keys and kinds, kernels built."""
    check_value(method, tuple(_METHOD_PARAMS), "method")
    return check_keys(params, _METHOD_PARAMS[method], f"{method} method_params")


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark sweep: generator, method, a single axis, repetitions, seed.

    ``cells`` holds one generator config per sweep value, ``generator_config``
    with the axis set to that value, each checked when the config is built.
    """

    generator: str
    generator_config: object  # LinearExampleConfig | PolynomialConfig | SemiSyntheticSpec
    method: str
    method_params: dict
    sweep_axis: str
    sweep_values: tuple
    repetitions: int
    seed: int
    cells: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_value(self.generator, tuple(_GENERATORS), "generator")
        method_params = _checked_method_params(self.method, self.method_params)
        axis = self.sweep_axis
        check_value(axis, _GENERATORS[self.generator][2], f"sweep axis for {self.generator}")
        values = tuple(self.sweep_values)
        if not values:
            raise ValidationError("sweep values must be non-empty")
        if axis == "varying_parameter":
            for v in values:
                check_value(v, VARYING_PARAMETER_NAMES, "varying-parameter value")
        else:
            values = tuple(int(check_value(v, int, f"axis {axis!r} value")) for v in values)
        check_value(self.repetitions, int, "repetitions")
        check_value(self.seed, int, "seed")
        if self.repetitions < 1:
            raise ValidationError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        cells = []
        for v in values:
            change = {"varying": frozenset({v})} if axis == "varying_parameter" else {axis: v}
            try:
                cells.append(dataclasses.replace(self.generator_config, **change))
            except ValidationError as exc:
                raise ValidationError(f"sweep value {axis}={v!r}: {exc}") from None
        object.__setattr__(self, "sweep_values", values)
        object.__setattr__(self, "method_params", method_params)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "cells", tuple(cells))


# An experiment config's keys, with the kind of each value; the values of
# kind object are checked where they are used.
_EXPERIMENT_KEYS = {
    "schema_version": (SCHEMA_VERSION,), "generator": object, "generator_params": object,
    "method": object, "method_params": object, "sweep": object, "repetitions": object,
    "seed": object,
}


def generator_config_from_dict(kind: str, params: dict):
    """Build a generator config of the given kind from JSON data."""
    check_value(kind, tuple(_GENERATORS), "generator")
    return dataclass_from_dict(_GENERATORS[kind][0], params, f"generator_params[{kind}]")


def experiment_config_from_dict(obj: dict) -> ExperimentConfig:
    """Parse and validate an experiment config JSON object (strict keys)."""
    check_keys(obj, _EXPERIMENT_KEYS, "experiment config",
               required=("schema_version", "generator", "sweep", "repetitions", "seed"))
    sweep = check_keys(obj["sweep"], {"axis": object, "values": object},
                       "experiment config['sweep']", required=("axis", "values"))
    generator = obj["generator"]
    gen_config = generator_config_from_dict(generator, obj.get("generator_params", {}))
    return ExperimentConfig(
        generator=generator,
        generator_config=gen_config,
        method=obj.get("method", METHOD_MINT),
        method_params=obj.get("method_params", {}),
        sweep_axis=sweep["axis"],
        sweep_values=tuple(check_value(sweep["values"], list, "sweep values")),
        repetitions=obj["repetitions"],
        seed=obj["seed"],
    )


@dataclass(frozen=True)
class BenchmarkRow:
    """Falsification rate of one axis value."""

    axis: str
    value: object
    falsification_rate: float
    standard_error: float
    repetitions: int
    wall_time_seconds: float

    def __post_init__(self):
        if not 0.0 <= self.falsification_rate <= 1.0:
            raise ValidationError("falsification_rate must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Running methods on datasets
# ---------------------------------------------------------------------------

def resolve_feature_specs(
    generator: str, generator_config, method_params: dict
) -> tuple[FeatureSpec, FeatureSpec]:
    """Working-model feature maps, defaulting to well-specified for the generator."""
    if generator == "linear_example":
        degree, interactions, square = 1, True, True
    else:
        degree = getattr(generator_config, "degree", 1)
        interactions, square = False, False
    degree = int(method_params.get("feature_degree", degree))
    interactions = bool(method_params.get("include_interactions", interactions))
    square = bool(method_params.get("include_square", square))
    return (
        treatment_spec(degree=degree),
        outcome_spec(degree=degree, interactions=interactions, square=square),
    )


def run_method(
    method: str,
    params: dict,
    dataset: MultiEnvDataset,
    seed: int,
    generator: str | None = None,
    generator_config=None,
) -> TestResult:
    """Run one method once on a dataset: the package's one method dispatch.

    ``params`` are the method's ``method_params``; an absent key takes its
    default. Feature maps default to well-specified for ``generator`` (see
    :func:`resolve_feature_specs`), and to degree 1 without one.
    """
    params = _checked_method_params(method, params)
    alpha = params.get("alpha", 0.05)
    resamples = params.get("resamples", 1000)
    if method == METHOD_KERNEL_MINT:
        return kernel_mint_test(
            dataset,
            params.get("treatment_kernel", KernelSpec()),
            params.get("outcome_kernel", KernelSpec()),
            alpha=alpha,
            M=resamples,
            seed=seed,
        )
    psi_spec, phi_spec = resolve_feature_specs(generator, generator_config, params)
    if method == METHOD_TRANSPORTABILITY:
        return transportability_test(dataset, phi_spec, alpha=alpha)
    return mint_test(
        dataset,
        psi_spec,
        phi_spec,
        alpha=alpha,
        M=resamples,
        seed=seed,
        use_bootstrap=method == METHOD_MINT,
    )


def generate_dataset(
    kind: str, config, rng: np.random.Generator, panel: CovariatePanel | None = None
):
    """One draw of generator ``kind``: ``(dataset, ground truth)``.

    The package's one generator dispatch; ``semi_synthetic`` draws over
    ``panel``, the source covariate panel, read from the spec when not given.
    """
    generate = _GENERATORS[kind][1]
    return generate(config, rng) if panel is None else generate(config, rng, panel)


def repetition_seed_sequence(seed: int, axis_index: int, repetition: int):
    """Root stream of one repetition; no reuse across cells by construction."""
    return np.random.SeedSequence([int(seed), int(axis_index), int(repetition)])


def _run_repetition(
    config: ExperimentConfig, axis_index: int, repetition: int, panel: CovariatePanel | None
) -> bool:
    root = repetition_seed_sequence(config.seed, axis_index, repetition)
    gen_ss, test_ss = root.spawn(2)
    test_seed = int(test_ss.generate_state(1, dtype=np.uint64)[0])
    value, cell = config.sweep_values[axis_index], config.cells[axis_index]
    try:
        dataset, _ = generate_dataset(config.generator, cell, np.random.default_rng(gen_ss), panel)
        result = run_method(
            config.method, config.method_params, dataset, test_seed, config.generator, cell
        )
    except Exception as exc:
        raise BenchmarkError(
            f"repetition failed at {config.sweep_axis}={value!r}, "
            f"repetition {repetition}, seed {test_seed}: {exc}",
            axis_value=value,
            repetition=repetition,
            seed=test_seed,
        ) from exc
    return bool(result.reject)


def run_benchmark(config: ExperimentConfig, threads: int = 1) -> list[BenchmarkRow]:
    """Run the full sweep: ``repetitions`` generate-test cycles per axis value.

    Returns one row per axis value, in axis order, with the rejection
    fraction and its binomial standard error. ``threads > 1`` parallelizes
    repetitions; output is identical regardless of thread count.
    """
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    # The semi-synthetic panel is read once per run, not once per repetition.
    spec = config.generator_config
    panel = (
        load_covariate_panel(spec.covariates_csv, spec.env_column, spec.covariate_columns)
        if config.generator == "semi_synthetic" else None
    )
    rows = []
    for axis_index, value in enumerate(config.sweep_values):
        start = time.perf_counter()
        reps = range(config.repetitions)

        def one(r, _i=axis_index):
            return _run_repetition(config, _i, r, panel)

        if threads == 1:
            rejects = [one(r) for r in reps]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                rejects = list(pool.map(one, reps))
        rate = float(np.mean(rejects))
        se = float(np.sqrt(rate * (1.0 - rate) / config.repetitions))
        rows.append(
            BenchmarkRow(
                axis=config.sweep_axis,
                value=value,
                falsification_rate=rate,
                standard_error=se,
                repetitions=config.repetitions,
                wall_time_seconds=time.perf_counter() - start,
            )
        )
    return rows


def benchmark_rows_to_csv(rows: list[BenchmarkRow], include_timing: bool = False) -> str:
    """Render benchmark rows as CSV text.

    The ``seconds`` column is left empty unless ``include_timing`` is set:
    wall-clock values would break byte-for-byte reproducibility of result
    files, which is part of the output contract.
    """
    lines = ["axis,value,rate,se,reps,seconds"]
    for row in rows:
        value = (
            format_float(row.value)
            if isinstance(row.value, float)
            else str(row.value)
        )
        seconds = format_float(row.wall_time_seconds) if include_timing else ""
        lines.append(
            ",".join(
                [
                    row.axis,
                    value,
                    format_float(row.falsification_rate),
                    format_float(row.standard_error),
                    str(row.repetitions),
                    seconds,
                ]
            )
        )
    return "\n".join(lines) + "\n"
