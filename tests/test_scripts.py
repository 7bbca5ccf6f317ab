"""Smoke tests of the experiment scripts: each runs with tiny parameters."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dendro

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["kan_survey.py", "--bound", "1"],
    ["replay_lemmas.py", "--tensor-n", "1", "--tree-bound", "2"],
    ["shuffle_census.py", "--max-n", "1", "--check"],
    ["src_lines.py"],
], ids=["kan_survey", "replay_lemmas", "shuffle_census", "src_lines"])
def test_script_runs(argv):
    """The scripts import the library API directly, so a renamed or removed
    name shows here as a nonzero exit."""
    src = str(Path(dendro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
