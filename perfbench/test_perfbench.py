"""Self-tests of the benchmark. Run from the repository root with

    python -m pytest -q perfbench

They run every workload's op, checks and traced layers at tiny shapes, show
that a tampered result is counted as a failed op, and check that the
benchmark only uses the package's public names.
"""

from __future__ import annotations

import ast
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NO_TRACE, Tracer  # noqa: E402

# Names a planned simplification of the package may delete.
UNSTABLE_NAMES = {"bootstrap_refit", "kernel_dual", "partial_correlation", "standardize_covariates"}


def tiny(name, tmp_path, seed=3):
    wl = workloads.make_workload(name, seed, tmp_path, tiny=True)
    wl.setup(NO_TRACE)
    wl.prepare_checks()
    return wl


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_op_checks_and_layers_at_tiny_shapes(name, tmp_path):
    wl = workloads.make_workload(name, 3, tmp_path, tiny=True)
    tracer = Tracer()
    tracer.op = "setup0"
    wl.setup(tracer)
    wl.prepare_checks()
    plain = wl.run_op(1, NO_TRACE)
    traced = wl.run_op(1, tracer)
    assert plain.failure is None and traced.failure is None
    assert plain.outcome == traced.outcome  # tracing does not change results
    assert set(wl.layer_metrics(tracer.seconds_by_op())) == wl.native
    assert wl.native <= run.PER_LAYER_UNITS.keys()


def _tamper_threshold(result):
    threshold = float(result.null_samples.max()) + result.statistic + 1.0
    return dataclasses.replace(result, threshold=threshold, reject=False)


@pytest.mark.parametrize("name", ["mint-tall", "mint-flex", "kernel-rbf"])
def test_tampered_threshold_is_a_failed_op(name, tmp_path, monkeypatch):
    wl = tiny(name, tmp_path)
    honest = wl.op
    monkeypatch.setattr(wl, "op", lambda inputs, seed: _tamper_threshold(honest(inputs, seed)))
    records, _, _ = run.run_loop(wl, 0.0, NO_TRACE, traced=False)
    assert len(records) == run.MIN_OPS
    assert all("threshold" in r.failure for r in records)


def test_nonzero_cli_exit_is_a_failed_op(tmp_path, monkeypatch):
    wl = tiny("cli-csv", tmp_path)
    monkeypatch.setattr(workloads.cli, "main", lambda argv: 1)
    record = wl.run_op(1, NO_TRACE)
    assert "exit code 1" in record.failure and record.outcome is None


def test_raised_op_is_a_failed_op_not_a_crash(tmp_path, monkeypatch):
    wl = tiny("mint-flex", tmp_path)

    def boom(inputs, seed):
        raise ValueError("boom")

    monkeypatch.setattr(wl, "op", boom)
    assert "boom" in wl.run_op(1, NO_TRACE).failure


def test_same_seed_same_results(tmp_path):
    first = tiny("mint-flex", tmp_path).run_op(4, NO_TRACE)
    second = tiny("mint-flex", tmp_path).run_op(4, NO_TRACE)
    assert first.outcome == second.outcome
    assert run.results_digest([first]) == run.results_digest([second])


def test_tail_has_ten_values_beyond_it():
    assert run.tail([float(v) for v in range(20, 0, -1)]) == (10.0, 50.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def _mechindep_names(tree):
    """Every name the module takes from mechindep, and attributes read off it."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mechindep"):
            names.update(node.module.split("."))
            for alias in node.names:
                names.add(alias.name)
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mechindep"):
                    names.update(alias.name.split("."))
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", sorted(HERE.glob("*.py")), ids=lambda p: p.name)
def test_uses_only_public_stable_names(path):
    names = _mechindep_names(ast.parse(path.read_text()))
    assert not {n for n in names if n.startswith("_")}
    assert not names & UNSTABLE_NAMES


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mint-flex", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
