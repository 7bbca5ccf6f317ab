#!/usr/bin/env python3
"""Count shuffles of small trees against linear trees.

Tabulates |shuffles(S, n)| for corollas and extended corollas over a grid of
parameters.  `shuffles` builds one shuffle per level map, listing the level
maps root-first; `--check` counts the level maps again by a recursion over
the vertices of S that neither lists level tuples nor builds a shuffle
(`level_map_count`).

    python3 scripts/shuffle_census.py --max-n 4 --check
"""

import argparse
import signal
import sys
from itertools import accumulate

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
                        help="cross-check against a recursive count of the level maps")
    return parser.parse_args(argv)


def level_map_count(s, n: int) -> int:
    """The level maps of S to 0..n, weakly increasing towards the root.

    N(v, l), the level maps of the vertices at and above v that put v at
    level l, is the product over the vertices u directly above v (one on
    each inner input of v) of the sum of N(u, l') over l' <= l.  The count
    is the sum of N(root vertex, l) over l in 0..n, and 1 for a tree with
    no vertex."""
    def at_levels(v) -> list[int]:
        counts = [1] * (n + 1)
        for e in v.inputs:
            u = s.vertex_above(e)
            if u is not None:
                counts = [x * y for x, y in zip(counts, accumulate(at_levels(u)))]
        return counts

    root = s.vertex_above(s.root)
    return 1 if root is None else sum(at_levels(root))


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
                want = level_map_count(tree, n)
                if c != want:
                    print(f"MISMATCH for {label}, n={n}: "
                          f"{c} shuffles vs {want} level maps")
                    return 1
            counts.append(c)
        print(f"{label:12}" + "".join(f"  {c:<7}" for c in counts))
    if args.check:
        print("all counts match the level-map recursion")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)   # a closed stdout ends the run quietly
    sys.exit(main())
