#!/usr/bin/env python3
"""Survey the Kan behaviour of the built-in operad corpus.

For each operad, decide the inner/dendroidal/full Kan conditions exhaustively
over all tree shapes up to a vertex bound and print a table of flags, horn
counts and the first witness of each failure mode.

    python3 scripts/kan_survey.py --bound 3 --operads z2 bz2 mult01
"""

import argparse
import signal
import sys
import time

from dendro.jsonio import dumps, kan_report_to_json
from dendro.kan import kan_report
from dendro.operads import CORPUS


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bound", type=int, default=3,
                        help="maximum number of vertices per tree shape")
    parser.add_argument("--max-arity", type=int, default=3)
    parser.add_argument("--operads", nargs="*", default=sorted(CORPUS),
                        choices=sorted(CORPUS))
    parser.add_argument("--json", action="store_true", dest="json_out",
                        help="emit full reports as JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    header = (f"{'operad':10} {'inner':6} {'dendroidal':10} {'fully':6} "
              f"{'strict':6} {'unique':6} {'horns':>7} {'time':>7}")
    if not args.json_out:
        print(header)
        print("-" * len(header))
    for name in args.operads:
        t0 = time.perf_counter()
        rep = kan_report(CORPUS[name](), args.bound,
                         max_arity=args.max_arity, name=name)
        dt = time.perf_counter() - t0
        if args.json_out:
            sys.stdout.write(dumps(kan_report_to_json(rep)))
            continue
        print(f"{name:10} {str(rep.inner_kan):6} {str(rep.dendroidal_kan):10} "
              f"{str(rep.fully_kan):6} {str(rep.strict):6} "
              f"{str(rep.fully_unique):6} {rep.horns_checked:7d} {dt:6.1f}s")
        seen = set()
        for w in rep.witnesses:
            if (w.horn_class, w.issue) in seen:
                continue
            seen.add((w.horn_class, w.issue))
            print(f"    first {w.horn_class}/{w.issue} witness: "
                  f"tree {sorted(w.tree.edges)}, omitted {w.omitted}, "
                  f"{w.filler_count} fillers")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)   # a closed stdout ends the run quietly
    sys.exit(main())
