#!/usr/bin/env python3
"""List the lines of `src/dendro` that no test executes.

Runs pytest in this process under a line tracer (`sys.settrace`, and
`threading.settrace` for threads the tests start) that records only frames
of `src/dendro`, then prints, per module, the lines of function bodies that
never ran, with their text.  A function body's lines are the ones its
bytecode maps to, less the `def` line; module-level code and class bodies
are declarations run at import, and are left out.  Tests that run `dendro`
in a subprocess are not traced, so a line only they reach is listed.

    python3 scripts/untested_lines.py                     # all of tests/
    python3 scripts/untested_lines.py tests/test_api.py   # pytest arguments

Tracing slows the suite several times over.  The exit status is pytest's.
"""

import inspect
import sys
import threading
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "dendro"


def body_lines(code) -> set[int]:
    """The lines of the function bodies among `code` and the code objects
    nested in it."""
    out = set()
    if code.co_flags & inspect.CO_OPTIMIZED:        # a function, not a module or class body
        out.update(line for _, _, line in code.co_lines() if line is not None)
        out.discard(code.co_firstlineno)
    for const in code.co_consts:
        if inspect.iscode(const):
            out |= body_lines(const)
    return out


def traced_run(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit status on `args`, and the lines of `src/dendro` run,
    by module file."""
    hits: dict[Path, set[int]] = {p.resolve(): set() for p in PACKAGE.glob("*.py")}
    local_for: dict[str, object] = {}       # co_filename -> its line tracer, or None

    def local_tracer(lines: set[int]):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_for:
            lines = hits.get(Path(name).resolve())
            local_for[name] = None if lines is None else local_tracer(lines)
        return local_for[name]

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    status, hits = traced_run(argv[1:] or [str(REPO / "tests")])
    print("\nFunction-body lines of src/dendro that no traced test ran. Tests that "
          "run dendro in a subprocess are not traced: their lines are listed too.")
    total_missed = total = 0
    for path in sorted(hits):
        source = path.read_text(encoding="utf-8")
        body = body_lines(compile(source, str(path), "exec"))
        missed = sorted(body - hits[path])
        total_missed += len(missed)
        total += len(body)
        if not body:
            continue
        print(f"\n{path.name}: {len(missed)} of {len(body)} lines untested")
        text = source.splitlines()
        for line in missed:
            print(f"{line:>6}  {text[line - 1].strip()}")
    print(f"\ntotal: {total_missed} of {total} function-body lines untested")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
