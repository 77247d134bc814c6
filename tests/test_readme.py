"""The README's library quick tour and CLI examples run as documented."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from gf2minor.catalog import get_named, parse_matrix_file
from gf2minor.cli import execute_command

ROOT = Path(__file__).resolve().parents[1]


def readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the README's ``## heading``."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL)
    assert match, f"no {lang} block under '## {heading}'"
    return match.group(1)


def cli_examples() -> list[list[str]]:
    """The argument lists of the README's CLI examples, comments stripped.

    ``--cert my_cases.json`` is left out: that file is not shipped.
    """
    examples = []
    for line in readme_block("CLI", "sh").splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:3] == ["python", "-m", "gf2minor"]:
            argv = argv[3:]
        elif argv[:1] == ["gf2minor"]:
            argv = argv[1:]
        else:
            continue
        if "--cert" not in argv:
            examples.append(argv)
    return examples


def test_library_quick_tour_runs():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", readme_block("Library quick tour", "python")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    # The matched count is not pinned: it depends on the g8 data defect.
    assert re.fullmatch(r"\d+ / 29\n", res.stdout), res.stdout


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    # Exit 0 or 1 (full replay is 1 while g8 stays red), never a usage or
    # capacity error (2), and never a traceback.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MATROID_JOBS", raising=False)
    examples = cli_examples()
    assert len(examples) == 9
    for argv in examples:
        code = execute_command(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1), (argv, err)
        assert "Traceback" not in out + err, argv
    written = parse_matrix_file((tmp_path / "r15dual.mat").read_text())
    assert written == get_named("r15").dual()
