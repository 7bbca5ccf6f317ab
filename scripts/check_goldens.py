#!/usr/bin/env python3
"""Run every query that has a golden in `perfbench/goldens.json` once.

    python3 scripts/check_goldens.py                          # every workload
    python3 scripts/check_goldens.py --workload kan_corpus --workload cli

The benchmark samples a few queries of each family per run, so an output
that changes elsewhere goes unseen there.  This runs them all against the
`src/` of this checkout, as `perfbench/run.py` builds them: one import of
dendro per workload, or one per query where the workload is one-shot.  A
query differs when it raises, when its digest is not its golden or when
its theorem check fails.  Prints "N checked, M differ" per workload, with
the first queries that differ, and exits 1 if any does.  The input files
go to a temporary directory; nothing under `perfbench/` changes.
"""

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run
import workloads

SHOWN = 5           # differing queries printed per workload


def check_workload(name: str, golden: dict, workdir: str) -> list[str]:
    """One line per query of the workload that differs from its golden."""
    w = workloads.WORKLOADS[name]
    d = run.import_dendro()
    paths = w.inputs(d, workdir)
    bad = []
    for i, key in enumerate(sorted(golden)):
        if w.one_shot and i:
            d = run.import_dendro()
        q = w.query(d, key, paths)
        try:
            out = q.run()
        except Exception as exc:     # a raising query differs
            out = exc
        bad += run.check_pass([q], [out], golden)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="check this workload only (repeatable; default: all)")
    args = parser.parse_args(argv)
    with open(run.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    workdir = tempfile.mkdtemp(prefix="dendro-goldens-")
    differ = 0
    try:
        for name in args.workload or sorted(workloads.WORKLOADS):
            t0 = time.perf_counter()
            bad = check_workload(name, goldens[name], workdir)
            differ += len(bad)
            print(f"{name}: {len(goldens[name])} checked, {len(bad)} differ "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
            for line in bad[:SHOWN]:
                print(f"  {line}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
