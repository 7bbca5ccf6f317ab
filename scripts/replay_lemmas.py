#!/usr/bin/env python3
"""Build and verify the built-in certificate families across a parameter grid.

Replays the binary-tensor filtrations, the split-tree filtrations, the
codimension certificates for all small tree shapes, and the root-horn
certificates for every small tree with a root horn, reporting step counts
and the anodyne class actually used.  The last line gives the wall time of
the root-horn section, building and verifying together.

    python3 scripts/replay_lemmas.py --tensor-n 2 --tree-bound 4
"""

import argparse
import signal
import sys
import time

from dendro.anodyne import class_phrase, verify_certificate
from dendro.kan import tree_shapes
from dendro.lemmas import (binary_tensor_certificate, codim_certificate,
                           extended_corolla_split_certificate,
                           root_horn_certificate)
from dendro.trees import has_root_horn


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tensor-n", type=int, default=2)
    parser.add_argument("--split-n", type=int, default=2)
    parser.add_argument("--split-k", type=int, default=2)
    parser.add_argument("--tree-bound", type=int, default=4)
    return parser.parse_args(argv)


def report(label: str, cert) -> bool:
    rep = verify_certificate(cert)
    cls = class_phrase(rep.overall_class) if rep.overall_class else "trivial"
    status = "ok" if rep.valid else "FAILED"
    print(f"  {label:42} {status:7} {rep.step_count:4d} steps  ({cls})")
    for v in rep.violations:
        print(f"      {v}")
    return rep.valid


def main(argv=None) -> int:
    args = parse_args(argv)
    ok = True
    print("binary-tensor filtrations")
    for n in range(1, args.tensor_n + 1):
        t0 = time.perf_counter()
        cert = binary_tensor_certificate(n)
        ok &= report(f"C_2 x L_{n}  (built in {time.perf_counter()-t0:.2f}s)",
                     cert)
    print("split-tree filtrations")
    for n in range(1, args.split_n + 1):
        for k in range(1, args.split_k + 1):
            ok &= report(f"EC_{{{n},{k}}} through the split tree",
                         extended_corolla_split_certificate(n, k))
    print("codimension certificates (root vertex of every shape)")
    shapes = tree_shapes(args.tree_bound)
    for tree in shapes:
        if len(tree.vertices) < 2:
            continue
        ok &= report(f"tree on {sorted(tree.edges)}",
                     codim_certificate(tree, tree.root))
    print("root-horn certificates")
    count = 0
    t0 = time.perf_counter()
    for tree in shapes:
        if len(tree.vertices) < 2 or not has_root_horn(tree):
            continue
        ok &= report(f"root horn of {sorted(tree.edges)}",
                     root_horn_certificate(tree))
        count += 1
    print(f"{count} multi-vertex root horns certified")
    print(f"root-horn certificates built and verified in "
          f"{time.perf_counter() - t0:.1f}s wall time")
    return 0 if ok else 1


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)   # a closed stdout ends the run quietly
    sys.exit(main())
