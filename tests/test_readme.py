"""The README's library quick start runs as written."""
import re
from pathlib import Path

import pytest

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
