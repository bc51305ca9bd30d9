"""The README's library quick start runs as written, and its CLI table is complete."""
import argparse
import re
from pathlib import Path

import pytest

from wncs.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    alloc, design = namespace["alloc"], namespace["design"]
    assert alloc.plant_ids == design.plant_ids == (1, 2)
    assert sum(alloc.gamma) == pytest.approx(namespace["noise"].gamma0, rel=1e-14)


def _subcommand_options() -> dict[str, set[str]]:
    """Subcommand -> the option strings its parser accepts, --help aside."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def test_readme_cli_table_lists_every_flag():
    # the "Command line" table and its common-flags sentence are the user's
    # reference: a flag dropped, renamed or added must show there too
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    common = set(re.search(r"common flags\s+`([^`]*)`", section).group(1).split())
    rows = {
        m.group(1): set(re.findall(r"--[a-z0-9-]+", m.group(2)))
        for m in re.finditer(r"^\| `([a-z-]+)` \|.*\| ([^|]*) \|$", section, re.MULTILINE)
    }
    options = _subcommand_options()
    assert set(rows) == set(options)
    for name, row in rows.items():
        expected = row if name == "verify" else common | row
        assert options[name] == expected, name
