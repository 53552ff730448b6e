"""Command-line interface.

Subcommands:

* ``simulate``  - emit a dataset CSV from a generator config JSON
* ``test``      - run one falsification method on a dataset CSV
* ``benchmark`` - run a falsification-rate sweep from an experiment config JSON

Exit codes: 0 success, 1 usage, validation or configuration error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import BenchmarkError, NumericalError, ValidationError
from .harness import (
    benchmark_rows_to_csv,
    experiment_config_from_dict,
    generate_dataset,
    generator_config_from_dict,
    run_benchmark,
    run_method,
)
from .io import (
    SCHEMA_VERSION,
    check_keys,
    dumps_json,
    load_csv_dataset,
    load_json_config,
    save_csv_dataset,
    test_result_to_dict,
)
from .kernel import MEDIAN_HEURISTIC
from .mint import (
    METHOD_KERNEL_MINT,
    METHOD_MINT,
    METHOD_MINT_NO_BOOTSTRAP,
    METHOD_TRANSPORTABILITY,
)


class _Parser(argparse.ArgumentParser):
    # A usage error is a validation error (exit 1); argparse's own exit
    # code 2 would read as a numerical failure.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {seed}")
    return seed


def _seed_flag(parser: argparse.ArgumentParser, default=0) -> None:
    parser.add_argument("--seed", type=_seed, default=default, help="root random seed")


def _output_flag(parser: argparse.ArgumentParser, required=False) -> None:
    parser.add_argument("--output", type=Path, required=required, help="output file path")


def _bandwidth(text: str) -> float | str:
    if text == MEDIAN_HEURISTIC:
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or {MEDIAN_HEURISTIC!r}, got {text!r}"
        ) from None


# The `test` flags that only some methods read, with the method_params key
# each fills (kernel_* flags fill one kernel, used for both models). Their
# parser default is None, so a given flag is told apart from an absent one,
# whose default run_method applies; a given flag its method does not read is
# an error.
_TEST_FLAGS = dict(
    feature_degree="feature_degree", interactions="include_interactions",
    square="include_square", kernel_kind="kind",
    kernel_bandwidth="bandwidth", kernel_lambda="ridge_lambda",
    seed=None, resamples="resamples", no_bootstrap=None,
)
_METHOD_FLAGS = {
    METHOD_MINT: {"feature_degree", "interactions", "square", "seed", "resamples", "no_bootstrap"},
    METHOD_TRANSPORTABILITY: {"feature_degree", "interactions", "square"},
    METHOD_KERNEL_MINT: {"kernel_kind", "kernel_bandwidth", "kernel_lambda", "seed", "resamples"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mechindep",
        description=(
            "Falsify no-unmeasured-confounding on multi-environment data by "
            "testing independence of fitted mechanism parameters."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="emit a dataset CSV from a generator config")
    p_sim.add_argument("--config", type=Path, required=True, help="generator config JSON")
    _seed_flag(p_sim)
    _output_flag(p_sim, required=True)

    p_test = sub.add_parser("test", help="run one method on a dataset CSV")
    p_test.add_argument("--input", type=Path, required=True, help="dataset CSV")
    p_test.add_argument(
        "--feature-degree",
        type=int,
        help="polynomial degree of both models (default 1)",
    )
    p_test.add_argument(
        "--interactions",
        action="store_true",
        default=None,
        help="add treatment-covariate interaction columns to the outcome model",
    )
    p_test.add_argument(
        "--square",
        action="store_true",
        default=None,
        help="add a squared-treatment column to the outcome model",
    )
    p_test.add_argument("--kernel-kind", choices=["linear", "rbf"], help="kernel family")
    p_test.add_argument(
        "--kernel-bandwidth",
        type=_bandwidth,
        help="rbf bandwidth (number or 'median_heuristic')",
    )
    p_test.add_argument("--kernel-lambda", type=float, help="kernel ridge strength")
    _seed_flag(p_test, default=None)
    p_test.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p_test.add_argument("--resamples", type=int, help="Monte Carlo resamples M")
    p_test.add_argument(
        "--method",
        choices=[METHOD_MINT, METHOD_TRANSPORTABILITY, METHOD_KERNEL_MINT],
        default=METHOD_MINT,
        help="falsification method",
    )
    p_test.add_argument(
        "--no-bootstrap",
        action="store_true",
        default=None,
        help="calibrate by permutation only (skip bootstrap refits; mint only)",
    )
    _output_flag(p_test)

    p_bench = sub.add_parser("benchmark", help="run an experiment config sweep")
    p_bench.add_argument("--config", type=Path, required=True, help="experiment config JSON")
    p_bench.add_argument(
        "--timing",
        action="store_true",
        help="fill the seconds column (breaks byte-for-byte reproducibility)",
    )
    p_bench.add_argument("--threads", type=int, default=1, help="parallel repetitions")
    _output_flag(p_bench)

    return parser


def _write_or_print(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text, encoding="utf-8")


def _cmd_simulate(args) -> None:
    kinds = {"schema_version": (SCHEMA_VERSION,), "generator": object, "generator_params": object}
    obj = check_keys(load_json_config(args.config), kinds, str(args.config),
                     required=("schema_version", "generator"))
    kind = obj["generator"]
    config = generator_config_from_dict(kind, obj.get("generator_params", {}))
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    dataset, truth = generate_dataset(kind, config, rng)
    save_csv_dataset(dataset, args.output)
    if kind == "semi_synthetic":  # the only record of which columns were hidden
        sys.stdout.write(dumps_json({"schema_version": SCHEMA_VERSION, **dataclasses.asdict(truth)}))


def _cmd_test(args) -> None:
    method = args.method
    given = {f: getattr(args, f) for f in _TEST_FLAGS if getattr(args, f) is not None}
    ignored = ["--" + f.replace("_", "-") for f in given if f not in _METHOD_FLAGS[method]]
    if ignored:
        raise ValidationError(f"--method {method} does not read {', '.join(ignored)}")
    if given.get("kernel_kind") == "linear" and "kernel_bandwidth" in given:
        raise ValidationError("--kernel-kind linear does not read --kernel-bandwidth")
    dataset = load_csv_dataset(args.input)
    params = {"alpha": args.alpha}
    kernel = {}
    for flag, value in given.items():
        if flag.startswith("kernel_"):
            kernel[_TEST_FLAGS[flag]] = value
        elif _TEST_FLAGS[flag] is not None:
            params[_TEST_FLAGS[flag]] = value
    if kernel:
        params["treatment_kernel"] = params["outcome_kernel"] = kernel
    if args.no_bootstrap:
        method = METHOD_MINT_NO_BOOTSTRAP
    seed = 0 if args.seed is None else args.seed
    result = run_method(method, params, dataset, seed)
    _write_or_print(dumps_json(test_result_to_dict(result)), args.output)


def _cmd_benchmark(args) -> None:
    obj = load_json_config(args.config)
    config = experiment_config_from_dict(obj)
    rows = run_benchmark(config, threads=args.threads)
    _write_or_print(benchmark_rows_to_csv(rows, include_timing=args.timing), args.output)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "test": _cmd_test,
    "benchmark": _cmd_benchmark,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _COMMANDS[args.command](args)
    except BenchmarkError as exc:
        cause = exc.__cause__
        sys.stderr.write(f"error: {exc}\n")
        return 1 if isinstance(cause, ValidationError) else 2
    except (ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
