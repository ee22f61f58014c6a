"""The README's library quickstart runs and prints what it says."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_prints_its_three_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quickstart(), str(README), "exec"), {})
    population, equal, residual = out.getvalue().split()
    assert abs(float(population) - math.sin(1.05) ** 2) <= 1e-12
    assert equal == "True"
    assert residual == "0.0"
