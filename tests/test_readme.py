"""The README's code runs: a removed or renamed name fails here, not in a
reader's hands."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library quick start", "exec"), {})
    lam_sum, hp = map(float, capsys.readouterr().out.split())
    assert 0 < lam_sum and 0 < hp
