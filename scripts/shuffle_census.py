#!/usr/bin/env python3
"""Count shuffles of small trees against linear trees.

Tabulates |shuffles(S, n)| for corollas and extended corollas over a grid of
parameters.  `shuffles` builds one shuffle per level map, listing the level
maps root-first; `--check` counts them again by filtering every tuple of
levels 0..n on the vertices of S for the ones that weakly increase towards
the root.

    python3 scripts/shuffle_census.py --max-n 4 --check
"""

import argparse
import itertools
import signal
import sys

from dendro.shuffles import shuffles
from dendro.trees import corolla, extended_corolla


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=4,
                        help="largest linear tree L_n")
    parser.add_argument("--max-arity", type=int, default=3)
    parser.add_argument("--max-chain", type=int, default=2,
                        help="longest unary chain of the extended corollas")
    parser.add_argument("--check", action="store_true",
                        help="cross-check against monotone level functions")
    return parser.parse_args(argv)


def level_function_count(s, n: int) -> int:
    """The level maps of S, counted by a filter over all level tuples."""
    vs = list(s.vertices)
    below = {}
    for i, v in enumerate(vs):
        w = s.vertex_below(v.output)
        if w is not None:
            below[i] = vs.index(w)
    return sum(1 for levels in itertools.product(range(n + 1), repeat=len(vs))
               if all(levels[i] <= levels[j] for i, j in below.items()))


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = [(f"C_{k}", corolla(k)) for k in range(1, args.max_arity + 1)]
    trees += [(f"EC_{{{m},{k}}}", extended_corolla(m, k))
              for m in range(1, args.max_chain + 1)
              for k in range(1, args.max_arity)]
    header = "tree        " + "".join(f"  n={n:<5}" for n in range(args.max_n + 1))
    print(header)
    print("-" * len(header))
    for label, tree in trees:
        counts = []
        for n in range(args.max_n + 1):
            c = len(shuffles(tree, n))
            if args.check:
                want = level_function_count(tree, n)
                if c != want:
                    print(f"MISMATCH for {label}, n={n}: "
                          f"{c} shuffles vs {want} level functions")
                    return 1
            counts.append(c)
        print(f"{label:12}" + "".join(f"  {c:<7}" for c in counts))
    if args.check:
        print("all counts match the level-function model")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)   # a closed stdout ends the run quietly
    sys.exit(main())
