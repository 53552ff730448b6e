"""File formats: dataset CSV, covariate CSV, result JSON, config JSON.

Dataset CSV layout: a header row naming the columns ``env`` (environment
label), ``a`` (treatment), ``y`` (outcome) and the covariates, which are every
other column in file order; numbers are decimal with '.' separator and no
column may be named twice. A leading UTF-8 byte-order mark is accepted.
Rows are parsed by numpy's C reader. The accepted number syntax (that of
Python's ``float``) and every error message are unchanged: a file the C reader
cannot prove clean is re-read by the cell-by-cell Python parser, which names
the bad row and column.
Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly. Config and result JSON carry an explicit ``schema_version``;
every config object goes through ``check_keys``, so unknown keys are errors.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import typing
from array import array
from pathlib import Path

import numpy as np

from .dataset import CovariatePanel, EnvironmentBlock, MultiEnvDataset, is_real
from .errors import ValidationError
from .mint import TestResult

SCHEMA_VERSION = 1


def format_float(value: float) -> str:
    """Decimal text with 17 significant digits (exact double round-trip)."""
    return format(float(value), ".17g")


def _parse_cell(raw: str, row_index: int, column: str) -> float:
    text = raw.strip()
    if not text:
        raise ValidationError(
            f"row {row_index}, column {column!r}: missing value"
        )
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"row {row_index}, column {column!r}: not a number: {raw!r}"
        ) from None
    if not np.isfinite(value):
        raise ValidationError(
            f"row {row_index}, column {column!r}: non-finite value {raw!r}"
        )
    return value


@contextlib.contextmanager
def _open_text(path, encoding="utf-8-sig"):
    """``path`` open for reading text; a byte that is not UTF-8 is a ValidationError.

    "utf-8-sig" drops a leading byte-order mark, as Excel's "CSV UTF-8" writes.
    """
    try:
        with open(path, newline="", encoding=encoding) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text: cannot decode byte 0x{exc.object[exc.start]:02x}"
        ) from None


def _read_rows(path):
    header, rows = None, []
    with _open_text(path) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file, expected a header row")
            header = [h.strip() for h in header]
            for i, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise ValidationError(
                        f"row {i}: expected {len(header)} cells, got {len(row)}"
                    )
                rows.append(row)
        except csv.Error as exc:  # a cell longer than csv.field_size_limit()
            where = "header row" if header is None else f"row {len(rows) + 1}"
            raise ValidationError(f"{path}: {where}: {exc}") from None
    return header, rows


def _column_indices(header, names, path):
    indices = {}
    for name in names:
        if name not in header:
            raise ValidationError(f"{path}: column {name!r} not found in header")
        indices[name] = header.index(name)
    return indices


def _layout(header, path, env_column, named, covariate_columns):
    """Index of the env column, and ``(index, name)`` of each value column:
    ``named``, then the covariates (``covariate_columns``, or by default every
    other header column in file order)."""
    for i, name in enumerate(header):
        if name in header[:i]:
            raise ValidationError(f"{path}: column {name!r} named twice in header")
    fixed = [env_column, *named]
    _column_indices(header, fixed, path)
    if covariate_columns is None:
        covariates = [h for h in header if h not in fixed]
    else:
        covariates = list(covariate_columns)
        _column_indices(header, covariates, path)
    if not covariates:
        raise ValidationError(f"{path}: no covariate columns")
    return header.index(env_column), [(header.index(c), c) for c in [*named, *covariates]]


def _read_env_table(path, env_column, named, covariate_columns):
    """Rows of an environment-grouped CSV as ``(env, float matrix)`` pairs, in
    order of first appearance; each matrix holds the ``_layout`` value columns.

    numpy's C reader parses the file; where it cannot show that its result is
    the Python parser's, the Python parser reads the file again and raises the
    row/column error.
    """
    tables = _numpy_env_table(path, env_column, named, covariate_columns)
    if tables is None:
        tables = _python_env_table(path, env_column, named, covariate_columns)
    return tables


def _numpy_env_table(path, env_column, named, covariate_columns):
    """``_read_env_table`` in one ``np.loadtxt`` pass, or None where the result
    might differ from ``_python_env_table``'s or that would raise.

    loadtxt splits rows and cells as ``csv.reader`` does and parses numbers
    with the parser behind Python's ``float``. It differs in that it skips an
    empty line, accepts ``nan`` and ``inf``, and rejects some numbers that
    ``float`` accepts (``1_0``, non-ASCII digits); each case is deferred.
    """
    with _open_text(path) as handle:
        try:
            raw = next(csv.reader(handle), None)
        except csv.Error:
            return None  # a header cell too long for csv, which the Python parser reports
        first = handle.read(1)
    # An empty first row is reported by the Python parser (and an all-empty
    # body would make loadtxt warn); a header cell holding a line break would
    # make loadtxt's one skipped line end inside the header.
    if raw is None or first in ("", "\r", "\n") or any("\r" in h or "\n" in h for h in raw):
        return None
    header = [h.strip() for h in raw]
    try:
        env_idx, columns = _layout(header, path, env_column, named, covariate_columns)
    except ValidationError:
        return None  # the Python parser reports a bad row length first
    used = {j for j, _ in columns}
    # One field per header column, so loadtxt checks every row's cell count;
    # a column that is not read stays text, as the Python parser leaves it.
    dtype = np.dtype([(f"f{j}", "f8" if j in used else object) for j in range(len(header))])
    data = Path(path).read_bytes()
    # Lines as loadtxt's universal-newline reader splits them.
    n_lines = data.count(b"\n") + (not data.endswith((b"\n", b"\r")))
    if b"\r" in data:
        n_lines += data.count(b"\r") - data.count(b"\r\n")
    del data
    try:
        table = np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, comments=None,
                           quotechar='"', encoding="utf-8-sig", ndmin=1)
    except ValueError:
        return None
    if len(table) != n_lines - 1:
        return None  # an empty line was skipped, or a quoted line break joined two
    values = np.column_stack([table[f"f{j}"] for j, _ in columns])
    if not np.isfinite(values).all():
        return None
    index: dict[str, int] = {}  # stripped label -> group, in order of first appearance
    groups = np.array([index.setdefault(env.strip(), len(index)) for env in table[f"f{env_idx}"]])
    if len(index) < 2 or "" in index:
        return None
    # One stable sort keeps each environment's rows in file order.
    order = np.argsort(groups, kind="stable")
    tables = np.split(values[order], np.cumsum(np.bincount(groups))[:-1])
    return list(zip(index, tables))


def _python_env_table(path, env_column, named, covariate_columns):
    """``_read_env_table`` by ``csv.reader`` and ``float``, cell by cell; the
    reference for the numpy path, and what locates a bad row or column."""
    header, rows = _read_rows(path)
    env_idx, columns = _layout(header, path, env_column, named, covariate_columns)
    # Packed doubles, so no parsed float or row list outlives its row.
    groups: dict[str, array] = {}
    for i, row in enumerate(rows, start=1):
        env = row[env_idx].strip()
        if not env:
            raise ValidationError(f"row {i}: missing environment label")
        if env not in groups:
            groups[env] = array("d")
        groups[env].extend([_parse_cell(row[j], i, c) for j, c in columns])
    if len(groups) < 2:
        raise ValidationError(
            f"{path}: found {len(groups)} environment(s), need at least 2"
        )
    # Each label is copied: the cell string itself sits amid the parse's
    # short-lived objects and would keep their memory arenas resident.
    return [
        (env.encode().decode(), np.frombuffer(t).reshape(-1, len(columns)))
        for env, t in groups.items()
    ]


def load_csv_dataset(path) -> MultiEnvDataset:
    """Read a dataset CSV (columns ``env``, ``a``, ``y``, then the covariates),
    grouping rows by environment.

    Row order within an environment follows file order; environment order
    follows first appearance. Any missing or non-numeric cell aborts with a
    row/column location.
    """
    tables = _read_env_table(path, "env", ["a", "y"], None)
    return MultiEnvDataset(
        tuple(EnvironmentBlock(env, t[:, 2:], t[:, 0], t[:, 1]) for env, t in tables)
    )


def save_csv_dataset(dataset: MultiEnvDataset, path) -> None:
    """Write a dataset to CSV in the documented layout (env, a, y, x1..xd).

    An environment label must be non-empty without surrounding whitespace:
    the loaders strip labels, so ``'a'`` and ``' a'`` would load as one.
    """
    for env in dataset.env_ids:
        label = str(env)
        if not label or label != label.strip():
            raise ValidationError(
                f"environment label {env!r} is empty or has surrounding whitespace, "
                "which the CSV loaders strip"
            )
    d = dataset.d
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["env", "a", "y"] + [f"x{j + 1}" for j in range(d)])
        for block in dataset.blocks:
            for i in range(block.n):
                writer.writerow(
                    [block.env_id, format_float(block.A[i]), format_float(block.Y[i])]
                    + [format_float(v) for v in block.X[i]]
                )


def load_covariate_panel(
    path, env_column: str = "env", covariate_columns: tuple[str, ...] | None = None
) -> CovariatePanel:
    """Read a covariate-only CSV (environment column plus numeric columns)."""
    return CovariatePanel(tuple(_read_env_table(path, env_column, [], covariate_columns)))


def dumps_json(obj) -> str:
    """Serialize nested dict/list/scalar data with 17-significant-digit floats."""
    return _render(obj, indent=0) + "\n"


def _render(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_render(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (int, float, np.floating, np.integer)) for v in seq):
            return "[" + ", ".join(_render(v, indent + 1) for v in seq) + "]"
        items = [f"{inner}{_render(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ValidationError(f"cannot serialize value of type {type(obj).__name__}")


def test_result_to_dict(result: TestResult) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "method": result.method,
        "statistic": result.statistic,
        "threshold": result.threshold,
        "p_value": result.p_value,
        "reject": bool(result.reject),
        "alpha": result.alpha,
        "resamples_M": result.resamples_M,
        "seed": result.seed,
        "warnings": list(result.warnings),
    }
    if result.null_samples is not None:
        out["null_samples"] = [float(v) for v in result.null_samples]
    else:
        out["null_samples"] = None
    return out


def check_value(value, kind, context: str):
    """``value`` if of ``kind``: bool, int, float, str, list, or a tuple of allowed values."""
    if kind is bool:  # a bool is never a number; an integer is a valid float
        ok, expected = isinstance(value, bool), "true or false"
    elif kind is int:
        ok, expected = is_real(value) and isinstance(value, (int, np.integer)), "an integer"
    elif kind is float:
        ok, expected = is_real(value), "a number"
    elif kind in (str, list):
        ok, expected = isinstance(value, kind), f"a {'string' if kind is str else 'list'}"
    else:  # same type as well as equal: `true` and `1.0` are not `1`
        ok = any(type(value) is type(a) and value == a for a in kind)
        expected = f"one of {list(kind)}"
    if not ok:
        raise ValidationError(f"{context}: expected {expected}, got {value!r}")
    return value


def _check_field(value, annotation, context: str):
    """``value`` checked against a field annotation: a scalar type, a tuple of
    allowed values, a ``tuple[t, ...]`` or ``frozenset[t]`` of one (a JSON
    list), one such type ``| None``, or a nested config dataclass, which is built
    from an object (JSON null is its default). Other annotations are left to
    the class."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if annotation in (bool, int, float, str) or isinstance(annotation, tuple):
        check_value(value, annotation, context)
    elif origin in (tuple, frozenset):
        check_value(value, list, context)
        for i, item in enumerate(value):
            check_value(item, args[0], f"{context}[{i}]")
    elif dataclasses.is_dataclass(annotation):
        if value is None:
            return annotation()
        if not isinstance(value, annotation):
            return dataclass_from_dict(annotation, value, context)
    elif type(None) in args and value is not None and len(args) == 2:
        (inner,) = [a for a in args if a is not type(None)]
        return _check_field(value, inner, context)
    return value


def check_keys(obj, kinds: dict, context: str, required=()) -> dict:
    """``obj`` checked as a JSON object whose keys are keys of ``kinds``, with
    each of ``required`` present and each value of its kind (see
    ``_check_field``); the values are returned, nested configs built."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{context}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(kinds)
    if unknown:
        raise ValidationError(
            f"{context}: unknown keys {sorted(unknown)}; allowed: {sorted(kinds)}"
        )
    for key in required:
        if key not in obj:
            raise ValidationError(f"{context}: missing key {key!r}")
    return {k: _check_field(v, kinds[k], f"{context}[{k!r}]") for k, v in obj.items()}


def dataclass_from_dict(cls, params: dict, context: str):
    """A config dataclass from JSON data; every error names ``context``."""
    fields = check_keys(params, typing.get_type_hints(cls), context)
    try:
        return cls(**fields)
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"{context}: {exc}") from None


def load_json_config(path) -> dict:
    try:
        with _open_text(path, encoding="utf-8") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: top-level JSON value must be an object")
    return obj
