#!/usr/bin/env python3
"""Record the digests of the Kan reports of the operad corpus.

For every corpus operad at vertex bounds 1, 2 and 3, and for z2, bz2 and
mult01 at bound 4, write the sha256 of the canonical JSON (sorted keys, no
whitespace) of `kan_report_to_json`.  `tests/test_kan.py` compares the
reports of the current code against the file, so a change to Kan-report
enumeration that alters any byte of the output shows up as a failing test.

    PYTHONPATH=src python3 scripts/kan_goldens.py --out tests/kan_goldens.json
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from dendro.jsonio import kan_report_to_json
from dendro.kan import kan_report
from dendro.operads import CORPUS

BOUND_4 = ("z2", "bz2", "mult01")


def golden_queries() -> list[tuple[str, int]]:
    """(operad name, vertex bound) of every recorded report."""
    return ([(name, bound) for bound in (1, 2, 3) for name in sorted(CORPUS)]
            + [(name, 4) for name in BOUND_4])


def report_digest(name: str, bound: int) -> str:
    rep = kan_report(CORPUS[name](), bound, name=name)
    text = json.dumps(kan_report_to_json(rep), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "tests" / "kan_goldens.json")
    args = parser.parse_args(argv)
    digests = {f"{name}@{bound}": report_digest(name, bound)
               for name, bound in golden_queries()}
    args.out.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
