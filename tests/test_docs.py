"""The documentation runs: every demo script and every `rlcm` example
line of the README."""

import io
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rlcm.cli import run

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_commands():
    """(argv, commented output) for each `rlcm ...` line of the README."""
    out = []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("rlcm "):
            command, _, comment = line.partition("#")
            out.append((shlex.split(command)[1:], comment.strip()))
    return out


COMMANDS = _readme_commands()


def test_readme_has_examples():
    assert len(DEMOS) == 5 and len(COMMANDS) >= 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                   env={**os.environ, "PYTHONPATH": path},
                   capture_output=True, check=True)


@pytest.mark.parametrize("argv, comment", COMMANDS,
                         ids=[f"{i}-{argv[0]}"
                              for i, (argv, _) in enumerate(COMMANDS)])
def test_readme_command(argv, comment):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    # The non-coprime survey finds the paper's counterexample.
    assert code == (1 if "ftheta:4,6" in argv else 0)
    if comment:
        assert buf.getvalue() == comment + "\n"
