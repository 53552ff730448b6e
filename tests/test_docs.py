"""The README's option tables agree with the code they document."""

import re
from pathlib import Path

from mechindep import cli, harness

README = Path(__file__).resolve().parents[1] / "README.md"


def table(header):
    """Rows (lists of cells) of the README table whose header row is ``header``."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2 :]:  # skip the header and its rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def ticked(cell):
    return re.findall(r"`([^`]+)`", cell)


def test_method_params_table_matches_harness():
    documented = {}
    for keys, _, methods in table("| key | type | methods |"):
        for method in harness._METHOD_PARAMS if methods == "all" else ticked(methods):
            documented.setdefault(method, set()).update(ticked(keys))
    assert documented == {m: set(kinds) for m, kinds in harness._METHOD_PARAMS.items()}


def test_rejected_flags_table_matches_cli():
    documented = {
        ticked(method)[0]: set(ticked(flags))
        for method, flags in table("| `--method` | rejected flags |")
    }
    expected = {
        method: {"--" + flag.replace("_", "-") for flag in set(cli._TEST_FLAGS) - reads}
        for method, reads in cli._METHOD_FLAGS.items()
    }
    assert documented == expected
