#!/usr/bin/env python3
"""Count the lines of each module of `src/dendro`.

For every module, print all lines (as `wc -l` counts them) and code lines:
lines holding a token other than a comment, with blank lines and docstrings
left out.  Given a git revision, print its counts, the working tree's and
the difference, which is the net `src/` change of a branch.

    python3 scripts/src_lines.py              # the working tree
    python3 scripts/src_lines.py HEAD~1       # HEAD~1, working tree, delta
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = "src/dendro"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set[int]:
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def counts(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - _docstring_lines(source))


def working_tree() -> dict[str, tuple[int, int]]:
    return {p.name: counts(p.read_text())
            for p in sorted((REPO / PACKAGE).glob("*.py"))}


def at_revision(rev: str) -> dict[str, tuple[int, int]]:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                              capture_output=True, text=True).stdout

    names = git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: counts(git("show", f"{rev}:{PACKAGE}/{name}"))
            for name in sorted(names) if name.endswith(".py")}


def main(argv: list[str]) -> int:
    now = working_tree()
    if len(argv) < 2:
        print(f"{'module':<16}{'lines':>7}{'code':>7}")
        for name, (lines, code) in now.items():
            print(f"{name:<16}{lines:>7}{code:>7}")
        print(f"{'total':<16}{sum(c[0] for c in now.values()):>7}"
              f"{sum(c[1] for c in now.values()):>7}")
        return 0
    before = at_revision(argv[1])
    print(f"{'module':<16}{'lines':>21}{'code':>21}")
    rows = [(name, before.get(name, (0, 0)), now.get(name, (0, 0)))
            for name in sorted(before.keys() | now.keys())]
    rows.append(("total", tuple(map(sum, zip(*(r[1] for r in rows)))),
                 tuple(map(sum, zip(*(r[2] for r in rows))))))
    for name, (l0, c0), (l1, c1) in rows:
        print(f"{name:<16}{l0:>6} ->{l1:>6} {l1 - l0:>+6}"
              f"{c0:>6} ->{c1:>6} {c1 - c0:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
