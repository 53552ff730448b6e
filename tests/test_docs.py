"""The README's option tables and command lines agree with the code they document."""

import argparse
import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

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


def test_semi_synthetic_defaults_table_matches_spec():
    defaults = {f.name: f.default for f in dataclasses.fields(harness.SemiSyntheticSpec)}
    rows = table("| key | default |")
    assert [ticked(key)[0] for key, _ in rows] == list(defaults)
    for key, cell in rows:
        literal = cell.strip("`")
        if literal[0].isdigit() or literal in ("true", "false") or literal.startswith('"'):
            assert json.loads(literal) == defaults[ticked(key)[0]], key


def readme_commands():
    """The ``mechindep`` command lines of the README's command-line block."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```bash\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("mechindep ")]


def subcommand_parsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == set(subcommand_parsers())


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    cli.build_parser().parse_args(argv)  # a usage error raises ValidationError
    # argparse also takes an unambiguous prefix of a flag; the README spells each out.
    accepted = subcommand_parsers()[argv[0]]._option_string_actions
    assert [arg for arg in argv if arg.startswith("--") and arg not in accepted] == []
