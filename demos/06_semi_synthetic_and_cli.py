"""Semi-synthetic experiments on real covariates, plus the CLI surface.

Given any covariate table with an environment column, the pipeline
standardizes the covariates, picks a random subset as the true parents of a
synthetic treatment and outcome, and then hides some of them -- giving data
with realistic covariate structure and a known amount of unmeasured
confounding. Here a stand-in covariate file is built first so the script is
self-contained; point the loader at your own CSV in practice.

Runtime: a few seconds.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import mechindep as mi

with tempfile.TemporaryDirectory(prefix="mechindep_demo_") as tmp:
    workdir = Path(tmp)
    cov_path = workdir / "covariates.csv"

    # Build a stand-in covariate file: 12 correlated columns, 20 environments
    # with shifted per-environment centers (covariate structure varies by site).
    rng = np.random.default_rng(60)
    mixing = rng.normal(size=(12, 12)) * 0.4 + np.eye(12)
    lines = ["env," + ",".join(f"c{j}" for j in range(12))]
    for s in range(20):
        center = rng.normal(scale=0.7, size=12)
        for _ in range(100):
            row = center + rng.normal(size=12) @ mixing
            lines.append(f"state{s}," + ",".join(f"{v:.6f}" for v in row))
    cov_path.write_text("\n".join(lines) + "\n")
    print(f"stand-in covariate file: {cov_path} ({20 * 100} rows, 12 columns)")

    panel = mi.load_covariate_panel(cov_path)
    print()
    print("With every true parent of (A, Y) observed the test sits at its level;")
    print("hiding parents turns them into unmeasured confounders and the")
    print("rejection rate climbs above it.")
    print(f"{'observed parents':>18} {'unmeasured':>11} {'rejection rate (20 reps)':>26}")
    for observed in (5, 3, 1):
        rejects = []
        spec = mi.SemiSyntheticSpec(
            str(cov_path), n_confounders=5, degree=2, observed_subset_size=observed,
            confounded=True,
        )
        for r in range(20):
            dataset, truth = mi.semi_synthetic_generate(
                spec, np.random.default_rng([61, observed, r]), panel
            )
            psi = mi.treatment_spec(2)
            phi = mi.outcome_spec(2)
            rejects.append(mi.mint_test(dataset, psi, phi, M=300, seed=r).reject)
        n_hidden = 5 - observed
        print(f"{observed:>18} {n_hidden:>11} {np.mean(rejects):>26.2f}")

    print()
    print("The same pipeline from the command line, with the generator config:")
    config = {
        "schema_version": 1,
        "generator": "semi_synthetic",
        "generator_params": {"covariates_csv": str(cov_path), "n_confounders": 5,
                             "observed_subset_size": 2, "confounded": True, "degree": 2},
    }
    config_path = workdir / "semi.json"
    config_path.write_text(json.dumps(config))
    print("  " + json.dumps(config))
    data_path = workdir / "semi.csv"
    result_path = workdir / "result.json"
    commands = [
        [sys.executable, "-m", "mechindep.cli", "simulate",
         "--config", str(config_path), "--seed", "3", "--output", str(data_path)],
        [sys.executable, "-m", "mechindep.cli", "test",
         "--input", str(data_path), "--method", "mint", "--feature-degree", "2",
         "--resamples", "300", "--seed", "4", "--output", str(result_path)],
    ]
    outputs = []
    for cmd in commands:
        print("  $", " ".join(cmd[2:]))
        outputs.append(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
    print()
    print("simulate's record of the hidden columns (stdout):")
    print("  " + "\n  ".join(outputs[0].splitlines()))
    print("result JSON:")
    text = result_path.read_text()
    print("  " + "\n  ".join(text.splitlines()[:9]))
    print("  ...")
