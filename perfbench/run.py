#!/usr/bin/env python3
"""The dendro benchmark: one workload per run, from one process.

    python3 perfbench/run.py --workload kan_corpus --seed 1 --seconds 20 --trace 0

Sets up the workload several times (importing dendro afresh, writing its
input files and choosing the seeded queries) and reports the median
set-up, then runs whole passes over the queries, one caller in a closed
loop, until the next pass would overrun `--seconds`.  The seed fixes the
queries and the order of every pass.  Each pass starts, untimed, from the
state a fresh process has: dendro is imported again and the queries are
rebuilt, so no cache of the program outlives a pass (on `cli`, no cache
outlives a command).  After each pass, untimed, every output is digested
and compared with the golden taken at the reference commit, and checked
against the theorems it must satisfy.

Times are each query's median over the passes: `wall_s` is their sum and
the latency percentiles are over them.

The machine the benchmark was made on changes speed by up to 1.5x, for
seconds to minutes at a time, whatever the benchmark does; a run of half a
minute often sees only one speed.  So before every set-up, and between
queries after every CAL_EVERY_S of query time, the run also times a fixed
piece of dendro-free interpreter work (`calibrate`), and every time metric
is scaled by CAL_REF_S over the run's median calibration: seconds at the
interpreter speed at which that work takes CAL_REF_S.  The unscaled
figures go to stderr.

With `--trace 0` the last line of stdout is a JSON object carrying the
end-to-end metrics; with `--trace 1`, half the time runs untraced passes
and then one traced pass gives the per-layer metrics (unscaled) and the
tracing overhead.  Progress and the per-caller breakdown of the hot leaf
functions go to stderr.  The program is imported from `src/` next to this
directory; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"
MODULES = ("trees", "operads", "nerves", "kan", "complexes", "shuffles",
           "anodyne", "lemmas", "jsonio", "cli")
SETUP_REPEATS = 3          # at least; cheap set-ups repeat for SETUP_SECONDS
SETUP_SECONDS = 2.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
CAL_EVERY_S = 0.2          # query time between calibrations
CAL_REF_S = 0.040          # the calibration's time at the reference speed


class SetupError(RuntimeError):
    pass


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_dendro() -> types.SimpleNamespace:
    """Import dendro from the checkout's src/, dropping earlier imports."""
    src = ROOT / "src"
    if not (src / "dendro" / "__init__.py").is_file():
        raise SetupError(f"no dendro sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "dendro" or n.startswith("dendro.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dendro")
    if Path(pkg.__file__).resolve().parent != (src / "dendro").resolve():
        raise SetupError(f"imported dendro from {pkg.__file__}, not {src}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"dendro.{m}")
                                    for m in MODULES})


# About 1 MB of JSON shaped like an operation table.
_CAL_DOC = json.dumps([{"inputs": [f"c{i % 7}", f"c{i % 5}", f"c{i % 3}"],
                        "output": f"o{i % 11}", "name": f"op{i}",
                        "value": [i % 2, (i >> 1) % 2, i % 13]}
                       for i in range(12_000)])


def calibrate() -> float:
    """Seconds for a fixed piece of dendro-free work of the kinds dendro
    spends its time on: tuples and frozensets built, hashed and looked up
    in an interpreted loop, and parsing JSON into many small objects, as
    the CLI does with its input files.  The garbage collector is off
    meanwhile, so that the time does not depend on the heap."""
    clock = time.perf_counter
    gc.disable()
    try:
        t0 = clock()
        seen: dict = {}
        for i in range(20_000):
            key = (i % 61, i % 59, i & 7)
            seen.setdefault(frozenset(key), []).append(key)
        json.loads(_CAL_DOC)
        return clock() - t0
    finally:
        gc.enable()


class Run:
    """One workload's set-ups and passes, and what they measured."""

    def __init__(self, workload: str, seed: int, workdir: str, goldens: dict):
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.rng = random.Random(seed)          # the order of each pass
        self.workdir = workdir
        self.goldens = goldens
        self.golden = goldens[workload]
        self.cal: list[float] = []
        self.setups: list[float] = []
        self.walls: list[float] = []
        self.latencies: dict[str, list[float]] = {}     # key -> one per pass
        self.attempted = 0
        self.failed = 0

    def scale(self) -> float:
        """Reference seconds per measured second."""
        return CAL_REF_S / statistics.median(self.cal)

    def setup(self) -> None:
        """Repeat the set-up; keeps the input paths and the query keys."""
        while len(self.setups) < SETUP_REPEATS or sum(self.setups) < SETUP_SECONDS:
            self.cal.append(calibrate())
            gc.collect()
            t0 = time.perf_counter()
            d = import_dendro()
            self.paths = self.workload.inputs(d, self.workdir)
            self.keys = self.workload.select(self.goldens, random.Random(self.seed))
            # built once here to time it; every pass builds them afresh
            [self.workload.query(d, key, self.paths) for key in self.keys]
            self.setups.append(time.perf_counter() - t0)

    def one_pass(self, tracer=None) -> float:
        """One pass over the queries in a seeded order of its own; returns
        the sum of its query times.  Each query is built on a fresh import
        of dendro, one per pass, or one per query for a one-shot workload (a
        CLI command is a process of its own); importing and building are
        untimed.  A calibration runs before the first query and then after
        every CAL_EVERY_S of query time."""
        clock = time.perf_counter
        order = list(self.keys)
        self.rng.shuffle(order)
        queries, lat, outs = [], [], []
        since_cal = CAL_EVERY_S
        try:
            for i, key in enumerate(order):
                if i == 0 or self.workload.one_shot:
                    if tracer is not None:
                        tracer.uninstall()
                    d = import_dendro()
                    gc.collect()
                    if tracer is not None:
                        tracer.install(d)
                if since_cal >= CAL_EVERY_S:
                    self.cal.append(calibrate())
                    since_cal = 0.0
                q = self.workload.query(d, key, self.paths)
                t0 = clock()
                try:
                    out = q.run()
                except Exception as exc:     # a raising query is a failed query
                    out = exc
                lat.append(clock() - t0)
                since_cal += lat[-1]
                queries.append(q)
                outs.append(out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = sum(lat)
        bad = check_pass(queries, outs, self.golden)
        for line in bad[:5]:
            log(f"FAILED {line}")
        self.attempted += len(queries)
        self.failed += len(bad)
        if tracer is None:
            self.walls.append(wall)
            for key, t in zip(order, lat):
                self.latencies.setdefault(key, []).append(t)
        log(f"pass {len(self.walls)}{' (traced)' if tracer else ''}: "
            f"{wall:.3f} s, {len(bad)} failed")
        return wall

    def passes_for(self, seconds: float) -> None:
        """Whole passes until the next one would end after `seconds`."""
        t0 = time.perf_counter()
        cycles = []
        while True:
            t1 = time.perf_counter()
            self.one_pass()
            cycles.append(time.perf_counter() - t1)
            if time.perf_counter() - t0 + statistics.median(cycles) > seconds:
                return


def check_pass(queries, outs, golden: dict) -> list[str]:
    """Problems found in one pass's outputs, one line per failed query."""
    bad = []
    for q, out in zip(queries, outs):
        if isinstance(out, Exception):
            bad.append(f"{q.key}: raised {type(out).__name__}: {out}")
            continue
        try:
            problems = q.check(out)
            got = q.digest(out)
        except Exception as exc:     # an output the checks cannot read
            bad.append(f"{q.key}: unreadable output ({type(exc).__name__}: {exc})")
            continue
        want = golden.get(q.key)
        if got != want:
            problems = problems + [f"digest {got} != golden {want}"]
        if problems:
            bad.append(f"{q.key}: {'; '.join(problems)}")
    return bad


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of TAIL_PERCENTILES with at least
    ten samples above it, else the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100)       # nearest rank
        if rank >= 1 and n - rank >= 10:
            return p, xs[rank - 1]
    return 100.0, xs[-1]


def environment() -> str:
    return (f"python {platform.python_version()}, {platform.machine()}, "
            f"nproc {os.cpu_count()}, load {os.getloadavg()[0]:.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dendro benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    log(f"{args.workload} seed {args.seed}: {environment()}")

    try:
        with open(GOLDENS, encoding="utf-8") as fh:
            goldens = json.load(fh)
    except (OSError, ValueError) as exc:
        log(f"error: cannot read goldens: {exc}")
        return 2
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        r = Run(args.workload, args.seed, workdir, goldens)
        try:
            r.setup()
        except (SetupError, ImportError) as exc:
            log(f"error: {exc}")
            return 2
        log(f"set-up {statistics.median(r.setups):.3f} s (median of {len(r.setups)}), "
            f"{len(r.keys)} queries per pass")
        if args.trace:
            r.passes_for(args.seconds / 2)
            tracer = tracing.Tracer()
            traced = r.one_pass(tracer)
            values = tracer.metrics(traced - statistics.median(r.walls))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in tracing.PER_LAYER}
            for line in tracer.breakdown():
                log(line)
        else:
            r.passes_for(args.seconds)
            lat = [statistics.median(times) for times in r.latencies.values()]
            p, tail_s = tail(lat)
            setup_s = statistics.median(r.setups)
            k = r.scale()
            log(f"query_tail_ms is p{p:g} of {len(lat)} queries, each the median "
                f"of {len(r.walls)} passes; unscaled: wall {sum(lat):.4f} s, "
                f"p50 {statistics.median(lat) * 1e3:.3f} ms, "
                f"tail {tail_s * 1e3:.3f} ms, set-up {setup_s:.4f} s; scale {k:.4f} "
                f"(median calibration {statistics.median(r.cal) * 1e3:.3f} ms)")
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": {"value": setup_s * k, "unit": "s"},
                "wall_s": {"value": sum(lat) * k, "unit": "s"},
                "query_p50_ms": {"value": statistics.median(lat) * 1e3 * k,
                                 "unit": "ms"},
                "query_tail_ms": {"value": tail_s * 1e3 * k, "unit": "ms"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": r.failed == 0, "attempted": r.attempted,
                      "failed": r.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
