"""The README's library quick tour runs as documented."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_tour() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library quick tour'"
    return match.group(1)


def test_library_quick_tour_runs():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", quick_tour()],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    # The matched count is not pinned: it depends on the g8 data defect.
    assert re.fullmatch(r"\d+ / 29\n", res.stdout), res.stdout
