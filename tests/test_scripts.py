"""Smoke tests of the experiment scripts: each runs with tiny parameters."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dendro

REPO = Path(__file__).resolve().parent.parent
SRC = str(Path(dendro.__file__).resolve().parent.parent)

_PRINTING = {
    "kan_survey": ["kan_survey.py", "--bound", "1"],
    "replay_lemmas": ["replay_lemmas.py", "--tensor-n", "1", "--tree-bound", "2"],
    "shuffle_census": ["shuffle_census.py", "--max-n", "1", "--check"],
}


@pytest.mark.parametrize("argv", [*_PRINTING.values(), ["src_lines.py"]],
                         ids=[*_PRINTING, "src_lines"])
def test_script_runs(argv):
    """The scripts import the library API directly, so a renamed or removed
    name shows here as a nonzero exit."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("argv", _PRINTING.values(), ids=_PRINTING)
def test_script_stops_quietly_on_a_closed_pipe(argv):
    """A reader that stops after the first line (`| head -1`) closes the
    script's stdout while it still prints: the script stops without a
    traceback.  Unbuffered, its later lines meet the closed pipe."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    proc.wait()
    assert "Traceback" not in stderr, stderr


def test_untested_lines_runs_on_one_test_module():
    """The line tracer runs pytest in-process on the API test alone: it
    exits with pytest's status, says that subprocess tests are not traced,
    and lists, per module, lines that test leaves unrun."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "untested_lines.py"),
                           str(REPO / "tests" / "test_api.py"), "-q", "-p", "no:cacheprovider"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "in a subprocess are not traced" in proc.stdout
    assert "\nkan.py: " in proc.stdout
    last = proc.stdout.rstrip().splitlines()[-1].split()
    assert last[0] == "total:" and 0 < int(last[1]) < int(last[3])


def test_check_goldens_runs_one_workload():
    """Every `kan_corpus` golden is checked against src/ and matches."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "check_goldens.py"),
                           "--workload", "kan_corpus"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("kan_corpus: 6 checked, 0 differ (")


def test_check_goldens_names_a_query_that_differs():
    """A golden that is not the query's digest gives one line naming it."""
    code = ("import sys, tempfile; sys.path.insert(0, sys.argv[1]); import check_goldens\n"
            "print(check_goldens.check_workload('kan_corpus', {'z2@3': '0' * 32},"
            " tempfile.gettempdir()))")
    proc = subprocess.run([sys.executable, "-c", code, str(REPO / "scripts")],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("['z2@3: digest ") and "!= golden 0000" in proc.stdout


def test_bench_record_copies_the_tracked_working_tree(tmp_path):
    """The working tree's side runs from a copy of its tracked files under
    src/ and perfbench/, edits included: no bytecode cache, untracked file
    or other directory comes along."""
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        import bench_record
    finally:
        sys.path.remove(str(REPO / "scripts"))
    repo, into = tmp_path / "repo", tmp_path / "copy"
    files = {"src/pkg/mod.py": "x = 1\n", "src/pkg/gone.py": "y = 2\n",
             "perfbench/run.py": "pass\n", "tests/test_x.py": "pass\n"}
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "."], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "base"], check=True)
    (repo / "src/pkg/mod.py").write_text("x = 3\n")
    (repo / "src/pkg/gone.py").unlink()
    (repo / "src/pkg/__pycache__").mkdir()
    (repo / "src/pkg/__pycache__/mod.cpython-311.pyc").write_bytes(b"\0")
    (repo / "src/pkg/new.py").write_text("z = 4\n")
    bench_record.copy_tracked(repo, into)
    copied = sorted(str(p.relative_to(into)) for p in into.rglob("*") if p.is_file())
    assert copied == ["perfbench/run.py", "src/pkg/mod.py"]
    assert (into / "src/pkg/mod.py").read_text() == "x = 3\n"
