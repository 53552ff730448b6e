import json
import re

import numpy as np
import pytest

from mechindep import (
    EnvironmentBlock,
    KernelSpec,
    MultiEnvDataset,
    NumericalError,
    ValidationError,
    generate_dataset,
    load_covariate_panel,
    load_csv_dataset,
    run_method,
    save_csv_dataset,
)
import mechindep.harness as harness_module
import mechindep.io as io_module
from mechindep.cli import main
from mechindep.harness import generator_config_from_dict
# Aliased so pytest does not collect it as a test.
from mechindep.io import dumps_json, load_json_config
from mechindep.io import test_result_to_dict as result_to_dict


def awkward_dataset(seed=0):
    # Values with long binary fractions exercise the 17-digit round trip.
    rng = np.random.default_rng(seed)
    blocks = []
    for s in range(3):
        n = 5 + s
        blocks.append(
            EnvironmentBlock(
                f"site_{s}",
                rng.normal(size=(n, 2)) * np.pi,
                rng.normal(size=n) / 3.0,
                rng.normal(size=n) * 1e-7,
            )
        )
    return MultiEnvDataset(tuple(blocks))


class TestDatasetCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = awkward_dataset()
        path = tmp_path / "data.csv"
        save_csv_dataset(ds, path)
        back = load_csv_dataset(path)
        assert back.env_ids == ds.env_ids
        for a, b in zip(ds.blocks, back.blocks):
            np.testing.assert_array_equal(a.X, b.X)
            np.testing.assert_array_equal(a.A, b.A)
            np.testing.assert_array_equal(a.Y, b.Y)

    @pytest.mark.parametrize("label", [" a", "a\t", ""])
    def test_save_rejects_label_the_loader_would_strip(self, tmp_path, label):
        # The loaders strip labels, so "a" and " a" would load as one environment.
        ones = np.ones(3)
        ds = MultiEnvDataset(tuple(
            EnvironmentBlock(env, ones[:, None], ones, ones) for env in ("a", label, "c")
        ))
        path = tmp_path / "data.csv"
        with pytest.raises(ValidationError, match=re.escape(repr(label))):
            save_csv_dataset(ds, path)
        assert not path.exists()

    def test_small_file_shape(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("env,a,y,x1\na,1,2,3\na,2,3,4\nb,0,1,2\nb,5,6,7\n")
        ds = load_csv_dataset(path)
        assert ds.n_envs == 2 and ds.d == 1
        assert ds.env_ids == ("a", "b")

    def test_missing_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("env,a,y,x1\na,1,2,3\na,,3,4\nb,0,1,2\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_csv_dataset(path)

    def test_non_numeric_cell_names_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("env,a,y,x1\na,1,2,3\nb,0,oops,2\n")
        with pytest.raises(ValidationError, match="'y'"):
            load_csv_dataset(path)

    def test_single_environment_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("env,a,y,x1\na,1,2,3\na,2,3,4\n")
        with pytest.raises(ValidationError, match="at least 2"):
            load_csv_dataset(path)

    def test_covariate_panel_loader(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("env,c1,c2\na,1,2\na,3,4\nb,5,6\n")
        panel = load_covariate_panel(path)
        assert len(panel.blocks) == 2 and panel.d == 2


LOADERS = {
    "dataset": load_csv_dataset,
    "panel": load_covariate_panel,
}

# (file text, panel loader keyword arguments, expected message); "{path}"
# stands for the file's path. The panel loader reads `a` and `y` as
# covariates, so both loaders locate a bad cell at the same row and column.
# The dataset CSV has one column layout, so a case with keyword arguments
# runs the panel loader only.
MALFORMED = {
    "missing_cell": (
        "env,a,y,x1\na,1,2,3\na,,3,4\nb,0,1,2\n", {},
        "row 2, column 'a': missing value",
    ),
    "non_numeric_cell": (
        "env,a,y,x1\na,1,2,3\nb,0,oops,2\n", {},
        "row 2, column 'y': not a number: 'oops'",
    ),
    "inf_cell": (
        "env,a,y,x1\na,1,2,3\nb,0,1,inf\n", {},
        "row 2, column 'x1': non-finite value 'inf'",
    ),
    "missing_env_label": (
        "env,a,y,x1\na,1,2,3\n ,0,1,2\n", {},
        "row 2: missing environment label",
    ),
    "one_environment": (
        "env,a,y,x1\na,1,2,3\na,2,3,4\n", {},
        "{path}: found 1 environment(s), need at least 2",
    ),
    "unknown_env_column": (
        "site,a,y,x1\na,1,2,3\nb,0,1,2\n", {},
        "{path}: column 'env' not found in header",
    ),
    "unknown_covariate_column": (
        "env,a,y,x1\na,1,2,3\nb,0,1,2\n", {"covariate_columns": ("x1", "x9")},
        "{path}: column 'x9' not found in header",
    ),
    "no_covariate_columns": (
        "env,a,y,x1\na,1,2,3\nb,0,1,2\n", {"covariate_columns": ()},
        "{path}: no covariate columns",
    ),
    "short_row": (
        "env,a,y,x1\na,1,2,3\nb,0,1\n", {},
        "row 2: expected 4 cells, got 3",
    ),
    # Row lengths are checked before any cell is parsed.
    "short_row_beats_bad_cell": (
        "env,a,y,x1\na,,2,3\nb,0,1\n", {},
        "row 2: expected 4 cells, got 3",
    ),
    "empty_file": (
        "", {},
        "{path}: empty file, expected a header row",
    ),
    "column_named_twice": (
        "env,a,y,x1,x1\na,1,2,3,4\nb,0,1,2,3\n", {},
        "{path}: column 'x1' named twice in header",
    ),
    # numpy's reader skips a blank line and accepts nan and inf; the Python
    # parser reports each.
    "blank_line": (
        "env,a,y,x1\na,1,2,3\n\nb,0,1,2\n", {},
        "row 2: expected 4 cells, got 0",
    ),
    "trailing_blank_line": (
        "env,a,y,x1\na,1,2,3\n\n", {},
        "row 2: expected 4 cells, got 0",
    ),
    "nan_cell": (
        "env,a,y,x1\na,1,2,3\nb,0,nan,2\n", {},
        "row 2, column 'y': non-finite value 'nan'",
    ),
    "infinity_cell": (
        "env,a,y,x1\na,1,2,3\nb,Infinity,1,2\n", {},
        "row 2, column 'a': non-finite value 'Infinity'",
    ),
    "trailing_comma": (
        "env,a,y,x1\na,1,2,3,\nb,0,1,2\n", {},
        "row 1: expected 4 cells, got 5",
    ),
}
LOADER_CASES = [
    (case, loader)
    for case in sorted(MALFORMED)
    for loader in sorted(LOADERS)
    if loader == "panel" or not MALFORMED[case][1]
]


class TestLoaderErrors:
    @pytest.mark.parametrize(
        "case, loader", LOADER_CASES, ids=[f"{c}-{l}" for c, l in LOADER_CASES]
    )
    def test_full_message(self, tmp_path, loader, case):
        text, kwargs, expected = MALFORMED[case]
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            LOADERS[loader](path, **kwargs)
        assert str(exc.value) == expected.format(path=path)

    def test_default_covariates_exhausted(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("env,a,y\na,1,2\nb,3,4\n")
        panel = tmp_path / "panel.csv"
        panel.write_text("env\na\nb\n")
        for load, path in ((load_csv_dataset, data), (load_covariate_panel, panel)):
            with pytest.raises(ValidationError) as exc:
                load(path)
            assert str(exc.value) == f"{path}: no covariate columns"

    def test_panel_groups_by_first_appearance(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("c1,env,c2\n1,b,2\n3,a,4\n5,b,6\n")
        panel = load_covariate_panel(path)
        assert [env for env, _ in panel.blocks] == ["b", "a"]
        np.testing.assert_array_equal(panel.blocks[0][1], [[1.0, 2.0], [5.0, 6.0]])
        np.testing.assert_array_equal(panel.blocks[1][1], [[3.0, 4.0]])
        picked = load_covariate_panel(path, covariate_columns=("c2",))
        np.testing.assert_array_equal(picked.blocks[0][1], [[2.0], [6.0]])


# (file text, panel loader keyword arguments, read by numpy's reader) for
# files that load; the rest are re-read by the Python parser.
LOADS = {
    "quoted_cells": (
        'env,a,y,x1\n"a,1",1,"2",3\n"b""q",0,1,2\n', {}, True,
    ),
    "quoted_newline_in_label": (
        'env,a,y,x1\n"a\nb",1,2,3\nc,0,1,2\n', {}, False,
    ),
    "crlf_line_ends": ("env,a,y,x1\r\na,1,2,3\r\nb,0,1,2\r\n", {}, True),
    "cr_line_ends": ("env,a,y,x1\ra,1,2,3\rb,0,1,2\r", {}, True),
    "no_final_newline": ("env,a,y,x1\na,1,2,3\nb,0,1,2", {}, True),
    "spaces_around_cells": (
        " env , a ,y,x1\n a , 1 ,2 ,\t3\nb,0,1,2\na ,4,5,6\n", {}, True,
    ),
    "number_forms": ("env,a,y,x1\na,+1,2E-3,.5e+2\nb,-0,4.,1e-300\n", {}, True),
    "underscore_number": ("env,a,y,x1\na,1_0,2,3\nb,0,1,2\n", {}, False),
    "hash_label": ("env,a,y,x1\n#a,1,2,3\nb,0,1,2\n", {}, True),
    "numeric_label": ("env,a,y,x1\n1.5,1,2,3\n2,0,1,2\n", {}, True),
    "byte_order_mark": ("\ufeffenv,a,y,x1\na,1,2,3\nb,0,1,2\n", {}, True),
    "interleaved_environments": (
        "env,a,y,x1\nc,1,2,3\na,0,1,2\nb,1,5,6\na,4,5,7\nc,0,8,9\nb,1,3,1\n", {}, True,
    ),
    "text_outside_covariates": (
        "env,a,y,x1,note\na,1,2,3,first\nb,0,1,2,\n",
        {"covariate_columns": ("a", "x1")}, True,
    ),
}
PARITY_CASES = [
    (case, loader)
    for cases in (LOADS, MALFORMED)
    for case in sorted(cases)
    for loader in sorted(LOADERS)
    if loader == "panel" or not cases[case][1]
]


def load_outcome(loader, path, kwargs):
    """Label order and float tables a loader returns, or its error message."""
    try:
        result = LOADERS[loader](path, **kwargs)
    except ValidationError as exc:
        return str(exc)
    if loader == "dataset":
        tables = [(b.env_id, np.column_stack([b.A, b.Y, b.X])) for b in result.blocks]
    else:
        tables = list(result.blocks)
    return [(env, t.shape, t.tobytes()) for env, t in tables]


class TestNumpyReaderParity:
    """Both loaders give the Python parser's tables, label order and messages."""

    @pytest.mark.parametrize(
        "case, loader", PARITY_CASES, ids=[f"{c}-{l}" for c, l in PARITY_CASES]
    )
    def test_matches_python_parser(self, tmp_path, monkeypatch, case, loader):
        text, kwargs = (LOADS.get(case) or MALFORMED[case])[:2]
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        python_table = io_module._python_env_table
        calls = []
        monkeypatch.setattr(
            io_module, "_python_env_table",
            lambda *args: calls.append(args) or python_table(*args),
        )
        got = load_outcome(loader, path, kwargs)
        deferred = bool(calls)
        monkeypatch.setattr(io_module, "_numpy_env_table", lambda *args: None)
        assert got == load_outcome(loader, path, kwargs)
        if case in LOADS:
            assert not isinstance(got, str), got
            assert deferred != LOADS[case][2]
        else:
            assert deferred

    def test_saved_file_never_reaches_the_python_parser(self, tmp_path, monkeypatch):
        def python_parser_ran(*args):
            raise AssertionError("the Python cell parser ran")

        ds = awkward_dataset()
        path = tmp_path / "data.csv"
        save_csv_dataset(ds, path)
        monkeypatch.setattr(io_module, "_parse_cell", python_parser_ran)
        back = load_csv_dataset(path)
        assert back.env_ids == ds.env_ids
        for a, b in zip(ds.blocks, back.blocks):
            np.testing.assert_array_equal(a.X, b.X)
            np.testing.assert_array_equal(a.A, b.A)
            np.testing.assert_array_equal(a.Y, b.Y)


class TestJsonRendering:
    def test_seventeen_digit_floats_round_trip(self):
        values = [np.pi, 1.0 / 3.0, 1e-300, 123456.789e10]
        text = dumps_json({"values": values})
        parsed = json.loads(text)
        assert parsed["values"] == values

    def test_nested_structure(self):
        text = dumps_json({"a": {"b": [1, 2.5, "x", None, True]}})
        assert json.loads(text) == {"a": {"b": [1, 2.5, "x", None, True]}}


def write_generator_config(tmp_path, confounded=False):
    path = tmp_path / "gen.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "generator": "polynomial",
                "generator_params": {
                    "n_envs": 5,
                    "n_per_env": 60,
                    "n_covariates": 1,
                    "degree": 1,
                    "confounded": confounded,
                },
            }
        )
    )
    return path


def write_covariate_csv(tmp_path, n_columns):
    """A covariate CSV of 3 environments x 30 rows and ``n_columns`` columns."""
    rng = np.random.default_rng(0)
    cov = tmp_path / "cov.csv"
    lines = ["env," + ",".join(f"c{j}" for j in range(n_columns))]
    for s in range(3):
        for _ in range(30):
            lines.append(f"s{s}," + ",".join(f"{v:.6f}" for v in rng.normal(size=n_columns)))
    cov.write_text("\n".join(lines) + "\n")
    return cov


def write_semi_synthetic_config(tmp_path, covariates, **params):
    path = tmp_path / "semi.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "generator": "semi_synthetic",
        "generator_params": {"covariates_csv": str(covariates), **params},
    }))
    return path


def write_experiment_config(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "generator": "polynomial",
                "generator_params": {
                    "n_envs": 4,
                    "n_per_env": 40,
                    "n_covariates": 1,
                    "degree": 1,
                    "confounded": True,
                },
                "method": "mint",
                "method_params": {"resamples": 40},
                "sweep": {"axis": "n_envs", "values": [4, 6]},
                "repetitions": 3,
                "seed": 5,
            }
        )
    )
    return path


class TestCli:
    def test_simulate_then_test(self, tmp_path, capsys):
        gen = write_generator_config(tmp_path, confounded=True)
        data = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(gen), "--seed", "3", "--output", str(data)]) == 0
        out = tmp_path / "result.json"
        code = main(
            [
                "test",
                "--input", str(data),
                "--method", "mint",
                "--resamples", "60",
                "--seed", "4",
                "--output", str(out),
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["method"] == "mint"
        assert result["resamples_M"] == 60
        assert isinstance(result["reject"], bool)
        assert len(result["null_samples"]) == 60

    def test_test_subcommand_other_methods(self, tmp_path):
        gen = write_generator_config(tmp_path)
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gen), "--output", str(data)])
        for extra in (
            ["--method", "transportability"],
            ["--method", "kernel_mint", "--kernel-kind", "linear", "--resamples", "30"],
            ["--method", "mint", "--no-bootstrap", "--resamples", "30"],
        ):
            out = tmp_path / "r.json"
            assert main(["test", "--input", str(data), "--output", str(out)] + extra) == 0

    def test_kernel_mint_on_unequal_environment_sizes(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = ["env,a,y,x1"]
        for env, n in (("a", 30), ("b", 20), ("c", 30)):
            for x, a, y in rng.normal(size=(n, 3)):
                rows.append(f"{env},{a:.6f},{y:.6f},{x:.6f}")
        data = tmp_path / "unequal.csv"
        data.write_text("\n".join(rows) + "\n")
        assert load_csv_dataset(data).sizes == (30, 20, 30)
        out = tmp_path / "r.json"
        argv = ["test", "--input", str(data), "--method", "kernel_mint", "--resamples", "50"]
        assert main(argv + ["--output", str(out)]) == 0
        assert json.loads(out.read_text())["method"] == "kernel_mint"

    def test_benchmark_byte_identical_under_threads(self, tmp_path):
        config = write_experiment_config(tmp_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(
                ["benchmark", "--config", str(config), "--threads", "8", "--output", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_simulate_semi_synthetic_pipeline(self, tmp_path, capsys):
        cov = write_covariate_csv(tmp_path, n_columns=6)
        gen = write_semi_synthetic_config(
            tmp_path, cov, n_confounders=4, observed_subset_size=2, confounded=True, degree=2
        )
        out = tmp_path / "semi.csv"
        code = main(["simulate", "--config", str(gen), "--seed", "9", "--output", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["confounded"] is True
        assert len(summary["unmeasured_columns"]) == 2
        ds = load_csv_dataset(out)
        assert ds.d == 2 and ds.n_envs == 3

    def test_validation_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["test", "--input", str(missing)]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema_version\": 1, \"generator\": \"polynomial\", \"generator_params\": {\"oops\": 1}}")
        assert main(["simulate", "--config", str(bad), "--output", str(tmp_path / "x.csv")]) == 1

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # constant covariate: outcome design collinear with the intercept
        data = tmp_path / "flat.csv"
        rows = ["env,a,y,x1"]
        rng = np.random.default_rng(1)
        for s in ("a", "b"):
            for _ in range(20):
                rows.append(f"{s},{rng.normal():.6f},{rng.normal():.6f},1.0")
        data.write_text("\n".join(rows) + "\n")
        assert main(["test", "--input", str(data), "--resamples", "20"]) == 2

    def write_semi_synthetic_benchmark(self, tmp_path, n_columns, n_confounders):
        cov = write_covariate_csv(tmp_path, n_columns)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "schema_version": 1,
            "generator": "semi_synthetic",
            "generator_params": {"covariates_csv": str(cov), "n_confounders": n_confounders,
                                 "observed_subset_size": 2},
            "method_params": {"resamples": 20},
            "sweep": {"axis": "degree", "values": [1]},
            "repetitions": 1,
            "seed": 0,
        }))
        return ["benchmark", "--config", str(config), "--output", str(tmp_path / "o.csv")]

    def test_failed_repetition_with_validation_cause_exits_one(self, tmp_path, capsys):
        # The panel width is checked only when a repetition draws its data.
        argv = self.write_semi_synthetic_benchmark(tmp_path, n_columns=8, n_confounders=9)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: repetition failed at degree=1, repetition 0, seed ")
        assert err.endswith(": covariate panel has 8 columns, need >= 9\n")
        assert not (tmp_path / "o.csv").exists()

    def test_failed_repetition_with_numerical_cause_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        def singular(*args):
            raise NumericalError("singular outcome design")

        monkeypatch.setattr(harness_module, "run_method", singular)
        argv = self.write_semi_synthetic_benchmark(tmp_path, n_columns=4, n_confounders=3)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: repetition failed at degree=1, repetition 0, seed ")
        assert err.endswith(": singular outcome design\n")
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"schema_version": 1, "generator": "polynomial",
                                      "generator_params": {"n_envs": 3, "n_per_env": 10},
                                      "sweep": {"axis": "n_envs", "values": [3]},
                                      "repetitions": 1, "seed": 0, "wat": 1}))
        assert main(["benchmark", "--config", str(config), "--output", str(tmp_path / "o.csv")]) == 1


def assert_cli_rejects(capsys, argv, message):
    """``argv`` exits 1 with ``message`` on stderr and nothing on stdout."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err, err


# Files holding the byte 0xe4 ("\u00e4" in Latin-1), which is not UTF-8 on its own:
# a dataset with it in a label past the first 8 KiB (all that the numpy path's
# header read decodes), one with it in the header, and a config with it in a string.
LATIN1_LATE = b"env,a,y,x1\n" + b"".join(
    b"a,%d,%d,%d\n" % (i, i % 3, i % 5) for i in range(3000)
) + b"\xe4,1,2,3\nb,1,2,3\n"
LATIN1_HEADER = b"env,\xe4,y,x1\na,1,2,3\nb,1,2,3\n"
LATIN1_JSON = b'{"schema_version": 1, "generator": "\xe4"}'


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "command, data",
        [
            ("test", LATIN1_LATE), ("test", LATIN1_HEADER),
            ("semi_synthetic", LATIN1_LATE), ("semi_synthetic", LATIN1_HEADER),
            ("simulate", LATIN1_JSON), ("benchmark", LATIN1_JSON),
        ],
        ids=["test-late", "test-header", "semi_synthetic-late", "semi_synthetic-header",
             "simulate", "benchmark"],
    )
    def test_non_utf8_file_names_the_file(self, tmp_path, capsys, command, data):
        path = tmp_path / "input"
        path.write_bytes(data)
        out = str(tmp_path / "out.csv")
        semi = write_semi_synthetic_config(tmp_path, path, n_confounders=2, observed_subset_size=2)
        argv = {
            "test": ["test", "--input", str(path), "--no-bootstrap"],
            "semi_synthetic": ["simulate", "--config", str(semi), "--output", out],
            "simulate": ["simulate", "--config", str(path), "--output", out],
            "benchmark": ["benchmark", "--config", str(path)],
        }[command]
        assert_cli_rejects(capsys, argv, f"{path}: not UTF-8 text: cannot decode byte 0xe4")

    LONG_LABEL = "e" * 200_000  # longer than csv.field_size_limit()

    def test_cell_over_csv_field_limit_names_the_row(self, tmp_path, capsys):
        # The empty cell sends the file to the Python parser, whose csv.reader
        # cannot read the label.
        path = tmp_path / "long.csv"
        path.write_text(f"env,a,y,x1\na,1,2,3\na,2,,4\n{self.LONG_LABEL},1,2,3\n")
        message = f"{path}: row 3: field larger than field limit"
        with pytest.raises(ValidationError, match=re.escape(message)):
            io_module._python_env_table(path, "env", ["a", "y"], None)
        assert_cli_rejects(capsys, ["test", "--input", str(path), "--no-bootstrap"], message)

    def test_clean_file_with_long_label_loads_through_numpy(self, tmp_path, monkeypatch):
        def python_parser_ran(*args):
            raise AssertionError("the Python parser ran")

        path = tmp_path / "long.csv"
        path.write_text(f"env,a,y,x1\na,1,2,3\n{self.LONG_LABEL},1,2,3\n{self.LONG_LABEL},5,6,8\n")
        monkeypatch.setattr(io_module, "_python_env_table", python_parser_ran)
        ds = load_csv_dataset(path)
        assert ds.env_ids == ("a", self.LONG_LABEL)
        np.testing.assert_array_equal(ds.blocks[1].Y, [2.0, 6.0])

    def test_header_cell_over_csv_field_limit(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text(f"env,a,y,{self.LONG_LABEL}\na,1,2,3\nb,1,2,3\n")
        message = f"{path}: header row: field larger than field limit"
        assert_cli_rejects(capsys, ["test", "--input", str(path), "--no-bootstrap"], message)


class TestSimulateConfigKeys:
    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"schema_version": 1}, ": missing key 'generator'"),
            ({"generator": "polynomial"}, ": missing key 'schema_version'"),
            ({"schema_version": 2, "generator": "polynomial"},
             "['schema_version']: expected one of [1], got 2"),
            ({"schema_version": 1, "generator": "polynomial", "seed": 3},
             ": unknown keys ['seed']; allowed: ['generator', 'generator_params', 'schema_version']"),
            # A bool or a float equal to 1 is not the integer 1.
            ({"schema_version": True, "generator": "polynomial"},
             "['schema_version']: expected one of [1], got True"),
            ({"schema_version": 1.0, "generator": "polynomial"},
             "['schema_version']: expected one of [1], got 1.0"),
        ],
        ids=["no_generator", "no_schema_version", "wrong_schema_version", "extra_key",
             "bool_schema_version", "float_schema_version"],
    )
    def test_rejected(self, tmp_path, capsys, obj, message):
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps({"generator_params": {"n_envs": 4, "n_per_env": 30}, **obj}))
        data = tmp_path / "data.csv"
        argv = ["simulate", "--config", str(gen), "--output", str(data)]
        assert_cli_rejects(capsys, argv, f"{gen}{message}")
        assert not data.exists()

    def test_bad_semi_synthetic_spec_fails_before_the_panel_is_read(self, tmp_path, capsys):
        # observed_subset_size defaults to 5: the spec error, not the missing file.
        missing = tmp_path / "missing.csv"
        gen = write_semi_synthetic_config(tmp_path, missing, n_confounders=3)
        data = tmp_path / "data.csv"
        argv = ["simulate", "--config", str(gen), "--output", str(data)]
        message = "generator_params[semi_synthetic]: observed_subset_size must lie in [1, 3], got 5"
        assert_cli_rejects(capsys, argv, message)
        assert not data.exists()

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("polynomial", {"n_envs": 1, "n_per_env": 30}, "need at least 2 environments, got 1"),
            ("linear_example", {"n_envs": 4, "n_per_env": 0}, "need at least 1 sample, got 0"),
        ],
    )
    @pytest.mark.parametrize("command", ["simulate", "benchmark"])
    def test_config_check_names_the_generator_params(
        self, tmp_path, capsys, command, kind, params, message
    ):
        obj = {"schema_version": 1, "generator": kind, "generator_params": params}
        if command == "benchmark":
            obj.update(sweep={"axis": "n_per_env", "values": [30]}, repetitions=1, seed=0)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(obj))
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(config), "--output", str(out)]
        assert_cli_rejects(capsys, argv, f"error: generator_params[{kind}]: {message}\n")
        assert not out.exists()


class TestCliRunsThroughHarness:
    @pytest.mark.parametrize(
        "flags, method, params, seed",
        [
            (["--resamples", "40", "--seed", "3", "--interactions", "--alpha", "0.1"],
             "mint", {"resamples": 40, "include_interactions": True, "alpha": 0.1}, 3),
            (["--no-bootstrap", "--feature-degree", "2", "--seed", "4"],
             "mint_no_bootstrap", {"feature_degree": 2}, 4),
            (["--method", "transportability", "--feature-degree", "2", "--square"],
             "transportability", {"feature_degree": 2, "include_square": True}, 0),
            (["--method", "kernel_mint", "--kernel-kind", "rbf", "--kernel-bandwidth", "0.7",
              "--kernel-lambda", "0.01", "--resamples", "30", "--seed", "2"],
             "kernel_mint", {"resamples": 30,
                             "treatment_kernel": KernelSpec("rbf", 0.7, 0.01),
                             "outcome_kernel": KernelSpec("rbf", 0.7, 0.01)}, 2),
        ],
    )
    def test_test_output_is_run_method(self, tmp_path, flags, method, params, seed):
        gen = write_generator_config(tmp_path, confounded=True)
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gen), "--output", str(data)])
        out = tmp_path / "r.json"
        assert main(["test", "--input", str(data), "--output", str(out)] + flags) == 0
        result = run_method(method, params, load_csv_dataset(data), seed)
        assert out.read_text(encoding="utf-8") == dumps_json(result_to_dict(result))

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("polynomial", {"n_envs": 5, "n_per_env": 30, "confounded": True}),
            ("linear_example", {"n_envs": 4, "n_per_env": 25, "varying": ["alpha0"]}),
        ],
    )
    def test_simulate_writes_generate_dataset(self, tmp_path, kind, params):
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps(
            {"schema_version": 1, "generator": kind, "generator_params": params}
        ))
        data = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(gen), "--seed", "8", "--output", str(data)]) == 0
        dataset, _ = generate_dataset(
            kind,
            generator_config_from_dict(kind, params),
            np.random.default_rng(np.random.SeedSequence(8)),
        )
        save_csv_dataset(dataset, tmp_path / "expected.csv")
        assert data.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize(
        "params",
        [
            {"confounded": "false"}, {"degree": 1.5}, {"n_per_env": 20.5},
            {"varying": "alpha0"}, {"alpha_u": "ab"}, {"varying": ["alpha0", 1]},
        ],
    )
    def test_simulate_rejects_mistyped_generator_fields(self, tmp_path, capsys, params):
        # "false" is a truthy string: accepted, it would simulate confounded data.
        linear = {"varying", "alpha_u"} & set(params)
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps({
            "schema_version": 1,
            "generator": "linear_example" if linear else "polynomial",
            "generator_params": {"n_envs": 4, "n_per_env": 30, **params},
        }))
        data = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(gen), "--output", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ": expected " in err  # not an unknown key
        assert not data.exists()

    def test_null_kernel_is_the_default_kernel(self, tmp_path):
        outputs = []
        for kernels in ({"treatment_kernel": None, "outcome_kernel": None}, {}):
            config = tmp_path / "exp.json"
            config.write_text(json.dumps({
                "schema_version": 1,
                "generator": "polynomial",
                "generator_params": {"n_envs": 4, "n_per_env": 30},
                "method": "kernel_mint",
                "method_params": {"resamples": 30, **kernels},
                "sweep": {"axis": "n_envs", "values": [4, 5]},
                "repetitions": 2,
                "seed": 1,
            }))
            out = tmp_path / "o.csv"
            assert main(["benchmark", "--config", str(config), "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kernel-bandwidth", "inf"],
            ["--kernel-bandwidth", "1e-300"],
            ["--kernel-lambda", "inf"],
        ],
    )
    def test_out_of_range_kernel_flag_exits_one(self, tmp_path, capsys, flags):
        gen = write_generator_config(tmp_path)
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gen), "--output", str(data)])
        argv = ["test", "--input", str(data), "--method", "kernel_mint", "--resamples", "20"]
        assert main(argv + flags) == 1
        assert "must be" in capsys.readouterr().err


class TestStrictCli:
    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--method", "transportability", "--no-bootstrap"], "--no-bootstrap"),
            (["--method", "kernel_mint", "--no-bootstrap"], "--no-bootstrap"),
            (["--method", "kernel_mint", "--feature-degree", "1"], "--feature-degree"),
            (["--method", "kernel_mint", "--interactions"], "--interactions"),
            (["--method", "kernel_mint", "--square"], "--square"),
            (["--method", "kernel_mint", "--kernel-kind", "linear", "--kernel-bandwidth", "2"],
             "--kernel-bandwidth"),
            (["--method", "kernel_mint", "--kernel-kind", "linear",
              "--kernel-bandwidth", "median_heuristic"], "--kernel-bandwidth"),
        ],
    )
    def test_test_rejects_flags_its_method_ignores(self, tmp_path, capsys, extra, flag):
        gen = write_generator_config(tmp_path)
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gen), "--output", str(data)])
        capsys.readouterr()
        assert main(["test", "--input", str(data), "--resamples", "20"] + extra) == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, extra",
        [
            ("mint", ["--kernel-kind", "linear", "--kernel-bandwidth", "2",
                      "--kernel-lambda", "5"]),
            ("transportability", ["--resamples", "7", "--seed", "0", "--kernel-kind", "rbf",
                                  "--kernel-bandwidth", "median_heuristic",
                                  "--kernel-lambda", "1"]),
            ("kernel_mint", ["--feature-degree", "2", "--square"]),
        ],
    )
    def test_error_names_every_ignored_flag(self, tmp_path, capsys, method, extra):
        # Rejected before the CSV is read, even at a flag's default value.
        code = main(["test", "--input", str(tmp_path / "absent.csv"), "--method", method] + extra)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --method {method} does not read --")
        named = set(err.split("does not read ")[1].strip().split(", "))
        assert named == {arg for arg in extra if arg.startswith("--")}

    @pytest.mark.parametrize(
        "extra",
        [
            ["--method", "mint", "--feature-degree", "1", "--interactions", "--square",
             "--seed", "2", "--resamples", "20", "--no-bootstrap"],
            ["--method", "transportability", "--feature-degree", "1", "--interactions",
             "--square"],
            ["--method", "kernel_mint", "--kernel-kind", "rbf", "--kernel-bandwidth", "1.5",
             "--kernel-lambda", "0.01", "--seed", "2", "--resamples", "20"],
        ],
    )
    def test_test_accepts_every_flag_its_method_reads(self, tmp_path, extra):
        gen = write_generator_config(tmp_path)
        data = tmp_path / "data.csv"
        main(["simulate", "--config", str(gen), "--output", str(data)])
        out = tmp_path / "r.json"
        assert main(["test", "--input", str(data), "--output", str(out)] + extra) == 0
        assert json.loads(out.read_text())["method"].startswith(extra[1])

    def test_bad_kernel_bandwidth_is_a_usage_error(self, capsys):
        argv = ["test", "--input", "d.csv", "--method", "kernel_mint", "--kernel-bandwidth", "wide"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: mechindep test ")
        assert err.endswith(
            "error: argument --kernel-bandwidth: expected a number or "
            "'median_heuristic', got 'wide'\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "g.json", "--output", "o.csv", "--method", "kernel_mint"],
            ["simulate", "--config", "g.json", "--output", "o.csv", "--threads", "9"],
            ["benchmark", "--config", "e.json", "--seed", "1"],
            ["benchmark", "--config", "e.json", "--alpha", "0.1"],
            ["benchmark", "--config", "e.json", "--no-bootstrap"],
            ["simulate", "--config", "g.json", "--output", "o.csv", "--resamples", "5"],
            ["test", "--input", "d.csv", "--threads", "2"],
        ],
    )
    def test_subcommands_reject_flags_they_ignore(self, capsys, argv):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_usage_errors_exit_one(self, capsys):
        assert main([]) == 1
        assert main(["simulate"]) == 1
        assert main(["test", "--input", "d.csv", "--method", "nope"]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--help"])
        assert exc.value.code == 0
        assert "--feature-degree" in capsys.readouterr().out


class TestRemovedSettings:
    # Fixed generator constants, once JSON-settable; the values are ones that
    # misbehaved while they were settable (ignored, or a bare numerical error).
    @pytest.mark.parametrize(
        "kind, params",
        [
            ("polynomial", {"covariate_diag": 3.0}),
            ("polynomial", {"covariate_offdiag": 5.0, "n_covariates": 3}),
            ("polynomial", {"env_mean_prior_var": 1.0}),
            ("polynomial", {"noise_std": 1.0}),
            ("polynomial", {"confounder_var": 1.0}),
            ("polynomial", {"confounder_mean_prior_var": 100}),
            ("linear_example", {"sigma_x": 2.0}),
            ("linear_example", {"sigma_u": 2.0}),
            ("linear_example", {"noise_var_a": 1.0}),
            ("linear_example", {"noise_var_y": 1.0}),
            ("linear_example", {"varying_range": [0.5, 1.0]}),
            ("linear_example", {"beta_a": 1.0}),
        ],
    )
    def test_simulate_rejects_removed_generator_key(self, tmp_path, capsys, kind, params):
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps({
            "schema_version": 1,
            "generator": kind,
            "generator_params": {"n_envs": 4, "n_per_env": 30, **params},
        }))
        data = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(gen), "--output", str(data)]) == 1
        assert "unknown keys" in capsys.readouterr().err
        assert not data.exists()

    @pytest.mark.parametrize(
        "generator, generator_params, method, method_params",
        [
            ("semi_synthetic", {"covariates_csv": "cov.csv", "noise_std": -1.0}, "mint", {}),
            ("semi_synthetic", {"covariates_csv": "cov.csv", "resample_beta_intercept": False},
             "mint", {}),
            ("polynomial", {"n_envs": 4, "n_per_env": 30}, "transportability",
             {"variant": "intercept_shift"}),
        ],
    )
    def test_benchmark_rejects_removed_key(
        self, tmp_path, capsys, generator, generator_params, method, method_params
    ):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "schema_version": 1,
            "generator": generator,
            "generator_params": generator_params,
            "method": method,
            "method_params": method_params,
            "sweep": {"axis": "degree", "values": [1]},
            "repetitions": 1,
            "seed": 0,
        }))
        assert main(["benchmark", "--config", str(config)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "unknown keys" in err

    def test_variant_flag_is_a_usage_error(self, capsys):
        argv = ["test", "--input", "d.csv", "--method", "transportability"]
        assert main(argv + ["--variant", "full_interaction"]) == 1
        assert "unrecognized arguments: --variant" in capsys.readouterr().err

    def test_semisynth_subcommand_is_a_usage_error(self, tmp_path, capsys):
        # semi-synthetic data comes from `simulate` with a semi_synthetic config
        cov = tmp_path / "cov.csv"
        cov.write_text("env,c1,c2\na,1,2\na,3,5\nb,5,6\nb,7,9\n")
        out = tmp_path / "o.csv"
        argv = ["semisynth", "--covariates", str(cov), "--n-confounders", "2", "--output", str(out)]
        assert main(argv) == 1
        assert "invalid choice: 'semisynth'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("generator", ["polynomial", "semi_synthetic"],
                             ids=["simulate", "simulate-semi_synthetic"])
    def test_dataset_commands_require_output(self, tmp_path, capsys, generator):
        if generator == "polynomial":
            gen = write_generator_config(tmp_path)
        else:
            cov = tmp_path / "cov.csv"
            cov.write_text("env,c1,c2\na,1,2\na,3,5\nb,5,6\nb,7,9\n")
            gen = write_semi_synthetic_config(tmp_path, cov, n_confounders=2,
                                              observed_subset_size=2)
        argv = ["simulate", "--config", str(gen)]
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "required: --output" in err
        assert sorted(tmp_path.iterdir()) == before


class TestNegativeSeed:
    # numpy's SeedSequence takes no negative entropy; the CLI rejects the seed
    # before any data is read, drawn or written.
    @staticmethod
    def assert_seed_usage_error(capsys, argv, message):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage: mechindep {argv[0]} ")
        assert err.endswith(f"error: argument --seed: {message}\n")

    @pytest.mark.parametrize("method", ["mint", "kernel_mint"])
    def test_test_flag(self, tmp_path, capsys, method):
        gen = write_generator_config(tmp_path)
        data = tmp_path / "data.csv"
        assert main(["simulate", "--config", str(gen), "--output", str(data)]) == 0
        out = tmp_path / "r.json"
        argv = ["test", "--input", str(data), "--method", method, "--seed", "-1"]
        self.assert_seed_usage_error(
            capsys, argv + ["--output", str(out)], "expected an integer >= 0, got -1"
        )
        assert not out.exists()

    def test_simulate_flag(self, tmp_path, capsys):
        gen = write_generator_config(tmp_path)
        data = tmp_path / "data.csv"
        argv = ["simulate", "--config", str(gen), "--seed", "-1", "--output", str(data)]
        self.assert_seed_usage_error(capsys, argv, "expected an integer >= 0, got -1")
        assert not data.exists()

    def test_non_integer_flag(self, capsys):
        argv = ["test", "--input", "d.csv", "--seed", "1.5"]
        self.assert_seed_usage_error(capsys, argv, "expected an integer, got '1.5'")

    def test_experiment_config(self, tmp_path, capsys):
        config = write_experiment_config(tmp_path)
        obj = json.loads(config.read_text())
        config.write_text(json.dumps({**obj, "seed": -1}))
        out = tmp_path / "o.csv"
        argv = ["benchmark", "--config", str(config), "--output", str(out)]
        assert_cli_rejects(capsys, argv, "error: seed must be >= 0, got -1\n")
        assert not out.exists()
