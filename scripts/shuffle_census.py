#!/usr/bin/env python3
"""Count shuffles of small trees against linear trees.

Tabulates |shuffles(S, n)| for corollas and extended corollas over a grid of
parameters, optionally cross-checking each count against the number of
monotone level functions on the vertices of S.

    python3 scripts/shuffle_census.py --max-n 4 --check
"""

import argparse
import itertools
import signal
import sys
from dataclasses import dataclass

from dendro.shuffles import shuffles
from dendro.trees import corolla, extended_corolla


@dataclass
class CensusConfig:
    max_n: int = 4
    max_arity: int = 3
    max_chain: int = 2
    check: bool = False


def parse_args(argv=None) -> CensusConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=4,
                        help="largest linear tree L_n")
    parser.add_argument("--max-arity", type=int, default=3)
    parser.add_argument("--max-chain", type=int, default=2,
                        help="longest unary chain of the extended corollas")
    parser.add_argument("--check", action="store_true",
                        help="cross-check against monotone level functions")
    args = parser.parse_args(argv)
    return CensusConfig(max_n=args.max_n, max_arity=args.max_arity,
                        max_chain=args.max_chain, check=args.check)


def level_function_count(s, n: int) -> int:
    vs = list(s.vertices)
    below = {}
    for i, v in enumerate(vs):
        w = s.vertex_below(v.output)
        if w is not None:
            below[i] = vs.index(w)
    return sum(1 for levels in itertools.product(range(n + 1), repeat=len(vs))
               if all(levels[i] <= levels[j] for i, j in below.items()))


def main(argv=None) -> int:
    cfg = parse_args(argv)
    trees = [(f"C_{k}", corolla(k)) for k in range(1, cfg.max_arity + 1)]
    trees += [(f"EC_{{{m},{k}}}", extended_corolla(m, k))
              for m in range(1, cfg.max_chain + 1)
              for k in range(1, cfg.max_arity)]
    header = "tree        " + "".join(f"  n={n:<5}" for n in range(cfg.max_n + 1))
    print(header)
    print("-" * len(header))
    for label, tree in trees:
        counts = []
        for n in range(cfg.max_n + 1):
            c = len(shuffles(tree, n))
            if cfg.check:
                want = level_function_count(tree, n)
                if c != want:
                    print(f"MISMATCH for {label}, n={n}: "
                          f"{c} shuffles vs {want} level functions")
                    return 1
            counts.append(c)
        print(f"{label:12}" + "".join(f"  {c:<7}" for c in counts))
    if cfg.check:
        print("all counts match the level-function model")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)   # a closed stdout ends the run quietly
    sys.exit(main())
