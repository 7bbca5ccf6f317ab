"""Shared fixtures: the operad corpus and a few common tree shapes."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from dendro.operads import CORPUS, table_operad_from
from dendro.trees import Tree, Vertex, c2, corolla, extended_corolla, graft, linear


@pytest.fixture(scope="session")
def z2():
    return CORPUS["z2"]()


@pytest.fixture(scope="session")
def z3():
    return CORPUS["z3"]()


@pytest.fixture(scope="session")
def bz2():
    return CORPUS["bz2"]()


@pytest.fixture(scope="session")
def mult01():
    return CORPUS["mult01"]()


@pytest.fixture(scope="session")
def bz2_nonassociative(bz2):
    """bz2 as a table with g1 o g0 = g0: the unary composition breaks
    associativity, so restricting along different face paths disagrees and
    some closures of three-vertex dendrices raise."""
    table = table_operad_from(bz2, 2)
    g0, g1 = bz2.operations(("*",), "*")
    return dataclasses.replace(table, composition={**table.composition, (g1, 0, g0): g0})


@pytest.fixture
def two_vertex_tree():
    """A binary corolla with a unary vertex over its first leaf."""
    return Tree((Vertex(("x",), "a"), Vertex(("a", "b"), "c")), "c")


@pytest.fixture
def double_branch_tree():
    """Binary root with corollas on both leaves: no root horn."""
    t = graft(c2(), "a", corolla(2, leaves=("p", "q"), root="a"))
    return graft(t, "b", corolla(2, leaves=("s", "t"), root="b"))


# -- pinned violation texts --------------------------------------------------

_FROZENSET = re.compile(r"frozenset\(\{([^{}]*)\}\)")


def _canonical_violation(text: str) -> str:
    """The text with the elements of every frozenset repr sorted: their
    printed order follows string hashing, which changes per process."""
    def sort_items(m):
        return "frozenset({" + ", ".join(sorted(m.group(1).split(", "))) + "})"
    return _FROZENSET.sub(sort_items, text)


@pytest.fixture(scope="session")
def check_pinned():
    """assert_pinned(name, report): the report's violations, as text, equal
    those recorded in violation_texts.json under `name`.

    The texts were recorded from the set-based implementation that preceded
    cell-indexed complexes.  There, retract violations followed frozenset
    iteration order; they are pinned in the cell order the checks now use.
    """
    pinned = json.loads((Path(__file__).parent / "violation_texts.json")
                        .read_text(encoding="utf-8"))

    def assert_pinned(name, report):
        assert [_canonical_violation(str(v)) for v in report.violations] \
            == pinned[name], name
    return assert_pinned
