"""The README's code examples run as written."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from poltrans import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text, re.DOTALL)
    assert block, "README has no Library quickstart code block"
    namespace: dict = {}
    exec(compile(block.group(1), f"{README}:Library quickstart", "exec"), namespace)
    moved, total_var, report = namespace["moved"], namespace["total_var"], namespace["report"]
    assert moved.positions.shape == moved.velocities.shape == (5, 2)
    assert total_var.shape == (5,) and np.all(total_var >= 1e-4)
    assert report.fraction_positive == 1.0


def test_command_line_examples_parse():
    """Every ``poltrans`` line of the Command line block parses, so a
    renamed command, flag, suite or method fails here; together they show
    every command."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```bash\n(.*?)```", text, re.DOTALL)
    assert block, "README has no Command line code block"
    examples = [shlex.split(line)[1:] for line in block.group(1).splitlines() if line.startswith("poltrans ")]
    parser = cli.build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: poltrans {shlex.join(argv)}")
    assert {argv[0] for argv in examples} == set(cli.COMMAND_TABLE)
