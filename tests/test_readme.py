"""The README's code examples run as written."""

import re
from pathlib import Path

import numpy as np

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
