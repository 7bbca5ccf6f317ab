#!/usr/bin/env python3
"""Record a before/after benchmark as `BENCH_<n>.json` at the repo root.

    python3 scripts/bench_record.py 8 --base HEAD \\
        --workload kan_corpus:10 --workload certify:3 --workload cli:3

Each `--workload NAME:PAIRS` runs `perfbench/run.py` PAIRS times on the
base revision and PAIRS times on the working tree, alternating, with seed
`--seed`, `--seed`+1, ... for the pairs; which side runs first alternates
from pair to pair.  Every run lasts the `run_seconds` of `BENCHMARK.json`.
The base revision is exported with `git archive` into a temporary
directory (`TMPDIR` chooses where), and the working tree's tracked files
under `src/` and `perfbench/` are copied beside it, so the repository's
own state is not touched, neither side starts with bytecode left by
earlier runs, and each side runs its own unchanged `perfbench/run.py`
against its own `src/`.

The file holds, per workload and end-to-end metric of `BENCHMARK.json`,
the per-run values of both sides, their medians and quartiles, the number
of pairs the working tree won, and each run's correctness counts; and the
base revision, the working tree's revision (with `+dirty` when it differs
from HEAD), the Python version and the CPU model.  A dirty tree is also
identified by `diff_sha256`, the SHA-256 of

    git diff --binary --no-color --no-ext-diff HEAD -- src perfbench

the code the runs used; once that code is committed as C, the same
command with `HEAD C` in place of `HEAD` gives the same digest.  Files
under `src/` or `perfbench/` that git does not track would escape that
digest, so the script refuses to run while there are any.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The tree of `rev`, written under `into`."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def copy_tracked(repo: Path, into: Path) -> None:
    """The working tree's tracked files under `src/` and `perfbench/`, as
    they are now, written under `into`; a tracked file deleted from the
    working tree is left out."""
    listed = subprocess.run(["git", "-C", str(repo), "ls-files", "-z", "--", "src", "perfbench"],
                            check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        source = repo / name
        if source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run of the benchmark in `tree`: its last stdout line, parsed."""
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(metric: dict, base: list[dict], head: list[dict]) -> dict:
    name, lower = metric["name"], metric["better"] == "lower"
    b = [r["metrics"][name]["value"] for r in base]
    h = [r["metrics"][name]["value"] for r in head]
    won = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
    sb, sh = summary(b), summary(h)
    change = (sh["median"] - sb["median"]) / sb["median"] if sb["median"] else 0.0
    return {"unit": metric["unit"], "better": metric["better"], "base": sb, "head": sh,
            "pairs_won": won, "pairs": len(b), "median_change": round(change, 4),
            "gap_beyond_base_iqr": abs(sh["median"] - sb["median"]) > sb["q3"] - sb["q1"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", help="the file written is BENCH_<n>.json at the repo root")
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        metavar="NAME:PAIRS")
    parser.add_argument("--seed", type=int, default=11, help="seed of the first pair")
    args = parser.parse_args(argv)
    plan = []
    for item in args.workload:
        name, _, pairs = item.partition(":")
        if not pairs.isdigit() or int(pairs) < 2:
            parser.error(f"expected NAME:PAIRS with PAIRS >= 2, got {item!r}")
        plan.append((name, int(pairs)))
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "src", "perfbench")
    if untracked:
        parser.error(f"untracked files under src/ or perfbench/: {untracked.split()}")
    base_rev = git("rev-parse", args.base)
    dirty = bool(git("status", "--porcelain"))
    diff = subprocess.run(["git", "-C", str(REPO), "diff", "--binary", "--no-color",
                           "--no-ext-diff", "HEAD", "--", "src", "perfbench"],
                          check=True, capture_output=True).stdout
    out = {"base": base_rev, "head": git("rev-parse", "HEAD") + ("+dirty" if dirty else ""),
           "diff_sha256": hashlib.sha256(diff).hexdigest() if dirty else None,
           "python": platform.python_version(), "cpu": cpu_model(),
           "run_seconds": seconds, "workloads": {}}
    work = Path(tempfile.mkdtemp(prefix="bench-record-"))
    try:
        export(base_rev, work / "base")
        copy_tracked(REPO, work / "head")
        sides = {"base": work / "base", "head": work / "head"}
        for name, pairs in plan:
            runs: dict[str, list[dict]] = {"base": [], "head": []}
            for k in range(pairs):
                seed = args.seed + k
                for side in (("base", "head") if k % 2 == 0 else ("head", "base")):
                    started = time.monotonic()
                    runs[side].append(run_once(sides[side], name, seed, seconds))
                    print(f"{name} seed {seed} {side}: {time.monotonic() - started:.0f} s "
                          f"wall_s {runs[side][-1]['metrics']['wall_s']['value']:.3f}",
                          file=sys.stderr, flush=True)
            out["workloads"][name] = {
                "seeds": list(range(args.seed, args.seed + pairs)),
                "correctness": {side: [{k: r[k] for k in ("correct", "attempted", "failed")}
                                       for r in rs] for side, rs in runs.items()},
                "metrics": {m["name"]: compare(m, runs["base"], runs["head"])
                            for m in metrics}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = REPO / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
