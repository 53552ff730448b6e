"""Golden values of fixed-seed ``mint_test`` calls at the acceptance shapes,
and of ``kernel_mint_test`` calls at the kernel benchmark's shape.

Criterion 11 compares two runs of the same code, so it cannot see a drift
that a change to the bootstrap introduces. This module can: it compares
``null_samples`` and ``threshold`` against values stored in
``golden_mint.json`` at rtol 1e-12 (room for a reordered floating-point
sum, nothing more) and requires ``reject`` and the full-data ``statistic``
to be identical.

A change that alters results on purpose re-records the file with
``PYTHONPATH=src python tests/test_golden.py [NAME...]`` and says so in
CHANGES.md. Named cases are re-recorded and every other line is left byte
for byte as it was; with no name, every case is re-recorded.
``PYTHONPATH=src python tests/test_golden.py --compare [NAME...]`` writes
nothing: for each case it prints whether the statistic, threshold, reject
and p-value equal the recorded ones (the p-value is recomputed from the
recorded null samples), and the largest relative move of a null sample.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import mechindep as mi
from mechindep.harness import resolve_feature_specs

GOLDEN_PATH = Path(__file__).with_name("golden_mint.json")
RTOL = 1e-12

# name -> (generator, generator config, feature params or explicit specs, M, seed).
# Each case keeps the per-environment shape of its criterion (sample size,
# feature dimensions and M), which fixes how the bootstrap Gram is summed;
# K is smaller, since environments are refit independently.
CASES = {
    "c2_poly_n200": (
        "polynomial", mi.PolynomialConfig(8, 200, 1, 1), {}, 1000, 11,
    ),
    "c4_linear_n1000": (
        "linear_example",
        mi.LinearExampleConfig(
            n_envs=6, n_per_env=1000, alpha_u=0.25, beta_u=0.25, beta_au=0.25,
            varying=frozenset({"alpha0"}),
        ),
        {}, 500, 12,
    ),
    "c6_poly_n200_deg1_features": (
        "polynomial", mi.PolynomialConfig(6, 200, 1, 2), {"feature_degree": 1}, 1000, 13,
    ),
    "c6_poly_n200_confounded": (
        "polynomial", mi.PolynomialConfig(6, 200, 1, 2, confounded=True),
        {"feature_degree": 2}, 1000, 14,
    ),
    "c7_poly_n100_deg10_features": (
        "polynomial", mi.PolynomialConfig(6, 100, 1, 2), {"feature_degree": 10}, 1000, 15,
    ),
    "tall_linear_n10000": (
        "linear_example",
        mi.LinearExampleConfig(n_envs=3, n_per_env=10_000, varying=frozenset({"alpha0"})).confounded(),
        {}, 500, 16,
    ),
    # Treatment features are not a prefix of the outcome features.
    "split_specs_poly_n300": (
        "polynomial", mi.PolynomialConfig(6, 300, 2, 2, confounded=True),
        (mi.treatment_spec(2, include_intercept=False), mi.outcome_spec(1)), 200, 17,
    ),
}

# name -> (polynomial generator config, M, seed) of a ``kernel_mint_test``
# with default (median-heuristic RBF) specs at the kernel-rbf benchmark's
# per-environment shape. The treatment inputs have d = 1 and 2 columns, the
# outcome inputs one more.
KERNEL_CASES = {
    "kernel_rbf_n200_d1": (mi.PolynomialConfig(8, 200), 1000, 18),
    "kernel_rbf_n200_d2": (mi.PolynomialConfig(8, 200, 2), 1000, 19),
}


def run_case(name: str) -> mi.TestResult:
    if name in KERNEL_CASES:
        config, M, seed = KERNEL_CASES[name]
        dataset, _ = mi.generate_polynomial(config, np.random.default_rng(seed))
        return mi.kernel_mint_test(dataset, mi.KernelSpec(), mi.KernelSpec(), alpha=0.05, M=M, seed=seed)
    generator, config, features, M, seed = CASES[name]
    make = mi.generate_linear_example if generator == "linear_example" else mi.generate_polynomial
    dataset, _ = make(config, np.random.default_rng(seed))
    if isinstance(features, dict):
        psi, phi = resolve_feature_specs(generator, config, features)
    else:
        psi, phi = features
    return mi.mint_test(dataset, psi, phi, alpha=0.05, M=M, seed=seed)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES | KERNEL_CASES))
def test_matches_golden(name, golden):
    result = run_case(name)
    expected = golden[name]
    assert result.statistic == expected["statistic"]
    np.testing.assert_allclose(result.null_samples, expected["null_samples"], rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(result.threshold, expected["threshold"], rtol=RTOL, atol=0.0)
    assert result.reject == expected["reject"]


def test_cases_and_file_agree(golden):
    assert sorted(golden) == sorted(CASES | KERNEL_CASES)


def record_line(name: str) -> str:
    result = run_case(name)
    record = {
        "statistic": result.statistic,
        "threshold": result.threshold,
        "reject": bool(result.reject),
        "null_samples": [float(v) for v in result.null_samples],
    }
    return f"{json.dumps(name)}: {json.dumps(record)}"


def compare_line(name: str, expected: dict) -> str:
    result = run_case(name)
    recorded = np.asarray(expected["null_samples"])
    exceed = np.count_nonzero(recorded >= expected["statistic"])
    fields = {
        "statistic": (result.statistic, expected["statistic"]),
        "threshold": (result.threshold, expected["threshold"]),
        "reject": (bool(result.reject), expected["reject"]),
        "p_value": (result.p_value, float((1 + exceed) / (len(recorded) + 1))),
    }
    move = np.abs(result.null_samples - recorded)
    np.divide(move, np.abs(recorded), out=move, where=move > 0)
    same = ", ".join(f"{k} {'equal' if a == b else 'differs'}" for k, (a, b) in fields.items())
    return f"{name}: {same}; null samples move by up to {move.max(initial=0.0):.2g} relative"


if __name__ == "__main__":
    compare = sys.argv[1:2] == ["--compare"]
    names = sys.argv[1 + compare :] or list(CASES | KERNEL_CASES)
    unknown = sorted(set(names) - set(CASES | KERNEL_CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    if compare:
        recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        for name in names:
            print(compare_line(name, recorded[name]))
        sys.exit(0)
    # One line per case; the lines of cases not named are kept as they are.
    old = GOLDEN_PATH.read_text(encoding="utf-8").splitlines()[1:-1] if GOLDEN_PATH.exists() else []
    lines = {json.loads(line.split(":", 1)[0]): line.rstrip(",") for line in old}
    lines.update((name, record_line(name)) for name in names)
    ordered = [lines[name] for name in CASES | KERNEL_CASES]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(ordered) + "\n}\n", encoding="utf-8")
    print(f"re-recorded {len(names)} of {len(ordered)} cases in {GOLDEN_PATH}")
