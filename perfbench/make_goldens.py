#!/usr/bin/env python3
"""Record the golden digest of every query any seed can draw.

    python3 perfbench/make_goldens.py

Run at the commit whose outputs are the reference; the benchmark counts any
later output that digests differently as a failed query.  Searches that
exhaust their budget are left out of the pool, because a correct speed-up
may turn "exhausted" into a definitive answer.  For searches the candidate
count, and for certificates the step count, is kept as each query's cost:
it orders the strata the benchmark samples from.
Writes goldens.json beside this file.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time

import run
import workloads


def main() -> int:
    goldens: dict = {"cost": {}}
    d = run.import_dendro()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=run.HERE)
    bad = 0
    try:
        for name, w in sorted(workloads.WORKLOADS.items()):
            paths = w.inputs(d, workdir)
            keys = w.keys(d)
            digests, costs = {}, {}
            t0 = time.perf_counter()
            for i, key in enumerate(keys):
                q = w.query(d, key, paths)
                out = q.run()
                digest = q.digest(out)
                problems = q.check(out)
                if problems:
                    bad += 1
                    run.log(f"{name} {key}: {'; '.join(problems)}")
                if digest == "exhausted":
                    continue
                digests[key] = digest
                costs[key] = q.cost(out)
                if i % 500 == 499:
                    run.log(f"{name}: {i + 1}/{len(keys)}")
            run.log(f"{name}: {len(digests)} goldens of {len(keys)} queries "
                    f"in {time.perf_counter() - t0:.1f} s")
            goldens[name] = digests
            goldens["cost"][name] = costs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
