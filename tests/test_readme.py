"""The README's code runs as written and its comments hold."""

import re
from pathlib import Path

import numpy as np

from cointssm import matops

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section: str) -> str:
    text = README.read_text(encoding="utf-8")
    body = text.split(f"## {section}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_library_quick_start_runs():
    ns: dict = {}
    exec(compile(_python_block("Library quick start"), str(README), "exec"), ns)
    resid, eps = ns["resid"], ns["eps"]
    # "equals eps[201:] to rounding"
    assert resid.shape == eps[201:].shape
    assert np.max(np.abs(resid - eps[201:])) <= 1e-12 * np.max(np.abs(eps))


def test_tolerance_table_lists_the_matops_table():
    text = README.read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(\w+_TOL)` \| ([^|]+) \|", text, re.M))
    listed = {name: float(value) for name, value in rows.items()}
    table = {name: value for name, value in vars(matops).items() if name.endswith("_TOL")}
    assert listed == table
