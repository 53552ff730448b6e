"""The benchmark's workloads: inputs, one op, its output checks, traced layers.

Every call goes through a public function of ``mechindep``; no ``_private``
name is imported, so the package's internals can be rewritten without
editing this file. Each op draws its inputs from
``repetition_seed_sequence(seed, workload_index, op)``, split into a data
stream and a test seed exactly as the package's own sweep loop does.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from mechindep import cli
from mechindep.baselines import transportability_test
from mechindep.dgp import (
    LinearExampleConfig,
    PolynomialConfig,
    generate_linear_example,
    generate_polynomial,
)
from mechindep.estimation import fit_mechanisms
from mechindep.features import (
    build_outcome_features,
    build_treatment_features,
    outcome_spec,
    treatment_spec,
)
from mechindep.harness import repetition_seed_sequence, resolve_feature_specs
from mechindep.io import (
    dumps_json,
    load_csv_dataset,
    save_csv_dataset,
    test_result_to_dict,
)
from mechindep.kernel import KernelSpec, gram, kernel_mint_test, kernel_statistic, resolve_bandwidth
from mechindep.mint import calibrate_threshold, frobenius_statistic, mint_test, permutation_test

ALPHA = 0.05
STATISTIC_RTOL = 1e-9
CLI_RESAMPLES = 1000  # the CLI's default --resamples


class CheckFailed(Exception):
    """An op returned a result that disagrees with its independent check."""


@dataclass(frozen=True)
class OpRecord:
    op: int
    gen_s: float  # per-op input generation, 0 when the op reads shared input
    op_s: float  # the headline call alone
    outcome: tuple[float, float, bool] | None  # (statistic, threshold, reject)
    failure: str | None


def op_seeds(seed: int, workload_index: int, op: int):
    """(data stream, integer test seed) of one op."""
    gen_ss, test_ss = repetition_seed_sequence(seed, workload_index, op).spawn(2)
    return gen_ss, int(test_ss.generate_state(1, dtype=np.uint64)[0])


def check_calibration(result, M: int, tracer) -> None:
    """Invariants every Monte Carlo calibrated result must satisfy."""
    samples = np.asarray(result.null_samples)
    if samples.shape != (M,):
        raise CheckFailed(f"expected {M} null samples, got shape {samples.shape}")
    if not (np.all(np.isfinite(samples)) and np.all(samples >= 0.0)):
        raise CheckFailed("null samples must be finite and non-negative")
    with tracer.span("mint.calibrate_threshold"):
        threshold = calibrate_threshold(samples, result.alpha)
    if result.threshold != threshold:
        raise CheckFailed(f"threshold {result.threshold!r} != calibrated {threshold!r}")
    p_value = (1 + np.count_nonzero(samples >= result.statistic)) / (M + 1)
    if result.p_value != p_value:
        raise CheckFailed(f"p_value {result.p_value!r} != add-one estimate {p_value!r}")
    if result.reject != (result.statistic > result.threshold):
        raise CheckFailed("reject disagrees with statistic > threshold")


def _outcome(result) -> tuple[float, float, bool]:
    return float(result.statistic), float(result.threshold), bool(result.reject)


class Workload:
    """One closed-loop client: ``setup`` once per set-up, then ops in turn.

    Subclasses define ``generate`` (per-op input), ``op`` (the headline call,
    timed alone), ``check`` (raises :class:`CheckFailed`), ``trace_layers``
    (extra public calls made only when traced) and ``derive`` (per-layer
    metrics of one op from its span times). ``native`` names the per-layer
    metrics this workload measures at its own shapes.
    """

    headline = ""
    native: frozenset[str] = frozenset()

    def __init__(self, name: str, index: int, seed: int, workdir: Path):
        self.name = name
        self.index = index
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self, tracer) -> None:
        """Build input shared by all ops (timed as set-up)."""

    def prepare_checks(self) -> None:
        """Untimed one-off work the checks need; raises CheckFailed."""

    def generate(self, gen_ss, tracer):
        return None

    def run_op(self, op: int, tracer) -> OpRecord:
        if tracer.enabled:
            tracer.op = str(op)
        gen_ss, test_seed = op_seeds(self.seed, self.index, op)
        # Start every op from the same collector state, so the cost of a full
        # collection left over from the previous op's checks is not charged here.
        gc.collect()
        times = [time.perf_counter()]
        outcome = failure = None
        with tracer.span("op"):
            try:
                inputs = self.generate(gen_ss, tracer)
                times.append(time.perf_counter())
                with tracer.span(self.headline):
                    out = self.op(inputs, test_seed)
                times.append(time.perf_counter())
                if tracer.enabled:
                    self.trace_layers(inputs, test_seed, out, tracer)
                outcome = self.check(inputs, test_seed, out, tracer)
            except Exception as exc:  # a raised op or a failed check is a failed op, not a crash
                failure = repr(exc)
        times += [time.perf_counter()] * (3 - len(times))
        return OpRecord(op, times[1] - times[0], times[2] - times[1], outcome, failure)

    def layer_metrics(self, seconds_by_op: dict[str, dict[str, float]]) -> dict[str, float]:
        """Median over ops (and set-ups) of each native per-layer metric."""
        values: dict[str, list[float]] = {}
        for spans in seconds_by_op.values():
            for metric, value in self.derive(spans).items():
                if metric in self.native:
                    values.setdefault(metric, []).append(value)
        return {metric: median(v) for metric, v in values.items()}

    def derive(self, s: dict[str, float]) -> dict[str, float]:
        out = {}
        for metric, span in _SIMPLE_LAYERS.items():
            if span in s:
                out[metric] = s[span]
        return out


# Per-layer metrics that are one span's time.
_SIMPLE_LAYERS = {
    "dgp.generate_s": "dgp.generate",
    "features.build_s": "features.build",
    "estimation.fit_s": "estimation.fit_mechanisms",
    "mint.noboot_s": "mint.mint_test_noboot",
    "mint.permute_s": "mint.permutation_test",
    "mint.calibrate_s": "mint.calibrate_threshold",
    "io.load_csv_s": "io.load_csv_dataset",
    "io.dump_json_s": "io.dumps_json",
    "io.save_csv_s": "io.save_csv_dataset",
    "kernel.bandwidth_s": "kernel.resolve_bandwidth",
    "kernel.gram_pair_s": "kernel.gram",
    "kernel.statistic_s": "kernel.kernel_statistic",
    "baselines.transportability_s": "baselines.transportability_test",
}


def _build_features(dataset, psi_spec, phi_spec, tracer):
    with tracer.span("features.build"):
        return [
            (
                build_treatment_features(b.X, psi_spec),
                build_outcome_features(b.X, b.A, phi_spec),
            )
            for b in dataset.blocks
        ]


class MintWorkload(Workload):
    """Generate a dataset, then ``mint_test`` with bootstrap calibration."""

    headline = "mint.mint_test"
    native = frozenset({
        "mint.bootstrap_s", "mint.refits_per_s", "mint.noboot_s", "mint.permute_s",
        "mint.calibrate_s", "features.build_s", "estimation.fit_s", "dgp.generate_s",
    })

    def __init__(self, name, index, seed, workdir, tiny=False, *,
                 generator, config, tiny_config, feature_params, M, tiny_M):
        super().__init__(name, index, seed, workdir)
        self.generator = generator
        self.config = tiny_config if tiny else config
        self.M = tiny_M if tiny else M
        self.psi, self.phi = resolve_feature_specs(generator, self.config, feature_params)

    def generate(self, gen_ss, tracer):
        make = generate_linear_example if self.generator == "linear_example" else generate_polynomial
        with tracer.span("dgp.generate"):
            dataset, _ = make(self.config, np.random.default_rng(gen_ss))
        return dataset

    def op(self, dataset, test_seed):
        return mint_test(dataset, self.psi, self.phi, alpha=ALPHA, M=self.M, seed=test_seed)

    def trace_layers(self, dataset, test_seed, result, tracer):
        with tracer.span("mint.mint_test_noboot"):
            mint_test(dataset, self.psi, self.phi, alpha=ALPHA, M=self.M,
                      seed=test_seed, use_bootstrap=False)
        with tracer.span("estimation.fit_mechanisms"):
            fit = fit_mechanisms(dataset, self.psi, self.phi)
        with tracer.span("mint.permutation_test"):
            permutation_test(fit.omegas, fit.gammas, alpha=ALPHA, M=self.M, seed=test_seed)

    def check(self, dataset, test_seed, result, tracer):
        features = _build_features(dataset, self.psi, self.phi, tracer)
        omegas = [np.linalg.lstsq(psi, b.A, rcond=None)[0] for (psi, _), b in zip(features, dataset.blocks)]
        gammas = [np.linalg.lstsq(phi, b.Y, rcond=None)[0] for (_, phi), b in zip(features, dataset.blocks)]
        expected = frobenius_statistic(np.array(omegas), np.array(gammas))
        if not np.isclose(result.statistic, expected, rtol=STATISTIC_RTOL, atol=0.0):
            raise CheckFailed(f"statistic {result.statistic!r} != recomputed {expected!r}")
        check_calibration(result, self.M, tracer)
        return _outcome(result)

    def derive(self, s):
        out = super().derive(s)
        if "mint.mint_test" in s and "mint.mint_test_noboot" in s:
            boot = s["mint.mint_test"] - s["mint.mint_test_noboot"]
            out["mint.bootstrap_s"] = boot
            out["mint.refits_per_s"] = 2 * self.M * self.config.n_envs / boot
        return out


class CliWorkload(Workload):
    """``mechindep test`` through ``cli.main`` on a dataset CSV written in set-up."""

    headline = "cli.main"
    native = frozenset({
        "mint.noboot_s", "features.build_s", "estimation.fit_s", "dgp.generate_s",
        "io.load_csv_s", "io.load_rows_per_s", "io.dump_json_s", "io.save_csv_s",
        "cli.overhead_s", "baselines.transportability_s",
    })
    DEGREE = 2

    def __init__(self, name, index, seed, workdir, tiny=False, *, config, tiny_config):
        super().__init__(name, index, seed, workdir)
        self.config = tiny_config if tiny else config
        self.csv = self.workdir / f"{name}.csv"
        self.output = self.workdir / f"{name}-result.json"
        self.psi = treatment_spec(degree=self.DEGREE)
        self.phi = outcome_spec(degree=self.DEGREE)
        self.dataset = None
        self.loaded = None

    @property
    def rows(self) -> int:
        return self.config.n_envs * self.config.n_per_env

    def setup(self, tracer):
        # Op 0's data stream; the same file on every set-up.
        gen_ss, _ = op_seeds(self.seed, self.index, 0)
        with tracer.span("dgp.generate"):
            self.dataset, _ = generate_polynomial(self.config, np.random.default_rng(gen_ss))
        with tracer.span("io.save_csv_dataset"):
            save_csv_dataset(self.dataset, self.csv)

    def prepare_checks(self):
        self.loaded = load_csv_dataset(self.csv)
        same = self.loaded.env_ids == self.dataset.env_ids and all(
            np.array_equal(a.X, b.X) and np.array_equal(a.A, b.A) and np.array_equal(a.Y, b.Y)
            for a, b in zip(self.loaded.blocks, self.dataset.blocks)
        )
        if not same:
            raise CheckFailed("CSV round trip is not exact")

    def argv(self, test_seed: int) -> list[str]:
        return [
            "test", "--input", str(self.csv), "--method", "mint", "--no-bootstrap",
            "--feature-degree", str(self.DEGREE), "--seed", str(test_seed),
            "--output", str(self.output),
        ]

    def op(self, inputs, test_seed):
        return cli.main(self.argv(test_seed))

    def trace_layers(self, inputs, test_seed, exit_code, tracer):
        with tracer.span("io.load_csv_dataset"):
            load_csv_dataset(self.csv)
        _build_features(self.loaded, self.psi, self.phi, tracer)
        with tracer.span("estimation.fit_mechanisms"):
            fit_mechanisms(self.loaded, self.psi, self.phi)
        with tracer.span("baselines.transportability_test"):
            transportability_test(self.loaded, self.phi)

    def check(self, inputs, test_seed, exit_code, tracer):
        if exit_code != 0:
            raise CheckFailed(f"cli exit code {exit_code}")
        written = json.loads(self.output.read_text(encoding="utf-8"))
        with tracer.span("mint.mint_test_noboot"):
            result = mint_test(self.loaded, self.psi, self.phi, alpha=ALPHA, M=CLI_RESAMPLES,
                               seed=test_seed, use_bootstrap=False)
        with tracer.span("io.dumps_json"):
            dumps_json(test_result_to_dict(result))
        if written != test_result_to_dict(result):
            raise CheckFailed("cli output differs from the in-process result")
        return written["statistic"], written["threshold"], written["reject"]

    def derive(self, s):
        out = super().derive(s)
        if "io.load_csv_dataset" in s:
            out["io.load_rows_per_s"] = self.rows / s["io.load_csv_dataset"]
        parts = ("cli.main", "io.load_csv_dataset", "mint.mint_test_noboot", "io.dumps_json")
        if all(p in s for p in parts):
            out["cli.overhead_s"] = s[parts[0]] - sum(s[p] for p in parts[1:])
        return out


class KernelWorkload(Workload):
    """Generate a dataset, then ``kernel_mint_test`` with median-heuristic RBF kernels."""

    headline = "kernel.kernel_mint_test"
    native = frozenset({
        "dgp.generate_s", "kernel.bandwidth_s", "kernel.gram_pair_s",
        "kernel.statistic_s", "kernel.calibrate_s",
    })

    def __init__(self, name, index, seed, workdir, tiny=False, *, config, tiny_config, M, tiny_M):
        super().__init__(name, index, seed, workdir)
        self.config = tiny_config if tiny else config
        self.M = tiny_M if tiny else M

    def generate(self, gen_ss, tracer):
        with tracer.span("dgp.generate"):
            dataset, _ = generate_polynomial(self.config, np.random.default_rng(gen_ss))
        return dataset

    def op(self, dataset, test_seed):
        return kernel_mint_test(dataset, KernelSpec(), KernelSpec(), alpha=ALPHA, M=self.M, seed=test_seed)

    def trace_layers(self, dataset, test_seed, result, tracer):
        pooled_X = np.vstack([b.X for b in dataset.blocks])
        pooled_XA = np.column_stack([pooled_X, np.concatenate([b.A for b in dataset.blocks])])
        with tracer.span("kernel.resolve_bandwidth"):
            spec = resolve_bandwidth(KernelSpec(), pooled_X)
        with tracer.span("kernel.resolve_bandwidth"):
            resolve_bandwidth(KernelSpec(), pooled_XA)
        with tracer.span("kernel.gram"):
            gram(dataset.blocks[0].X, dataset.blocks[1].X, spec)

    def check(self, dataset, test_seed, result, tracer):
        with tracer.span("kernel.kernel_statistic"):
            expected = kernel_statistic(dataset, KernelSpec(), KernelSpec())
        if result.statistic != expected:
            raise CheckFailed(f"statistic {result.statistic!r} != kernel_statistic {expected!r}")
        check_calibration(result, self.M, tracer)
        return _outcome(result)

    def derive(self, s):
        out = super().derive(s)
        if "kernel.kernel_mint_test" in s and "kernel.kernel_statistic" in s:
            out["kernel.calibrate_s"] = s["kernel.kernel_mint_test"] - s["kernel.kernel_statistic"]
        return out


# name -> (class, keyword arguments). The index is the workload's seed axis.
WORKLOADS = {
    "mint-tall": (MintWorkload, dict(
        generator="linear_example",
        config=LinearExampleConfig(n_envs=10, n_per_env=10000, varying={"alpha0"}).confounded(),
        tiny_config=LinearExampleConfig(n_envs=4, n_per_env=300, varying={"alpha0"}).confounded(),
        feature_params={}, M=500, tiny_M=100,
    )),
    "mint-flex": (MintWorkload, dict(
        generator="polynomial",
        config=PolynomialConfig(n_envs=20, n_per_env=100, degree=2),
        tiny_config=PolynomialConfig(n_envs=5, n_per_env=60, degree=2),
        feature_params={"feature_degree": 10}, M=1000, tiny_M=100,
    )),
    "cli-csv": (CliWorkload, dict(
        config=PolynomialConfig(n_envs=50, n_per_env=1000, n_covariates=5, degree=2),
        tiny_config=PolynomialConfig(n_envs=4, n_per_env=100, n_covariates=5, degree=2),
    )),
    "kernel-rbf": (KernelWorkload, dict(
        config=PolynomialConfig(n_envs=25, n_per_env=200),
        tiny_config=PolynomialConfig(n_envs=5, n_per_env=30),
        M=1000, tiny_M=100,
    )),
}


def make_workload(name: str, seed: int, workdir, tiny: bool = False) -> Workload:
    cls, kwargs = WORKLOADS[name]
    return cls(name, list(WORKLOADS).index(name), seed, workdir, tiny, **kwargs)
