"""Shared fixtures: the operad corpus, SMCs beyond it, the enumerator
oracle and a few common tree shapes."""

import dataclasses
import itertools
import json
import re
from pathlib import Path

import pytest

from dendro.operads import (CORPUS, FiniteOperad, FiniteSMC,
                            one_object_abelian_group_smc, table_operad_from)
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


# -- SMCs beyond the corpus --------------------------------------------------

def sign_groupoid_smc(sign) -> FiniteSMC:
    """Objects Z/2 (tensor is addition), automorphism group Z/2 at each
    object, and braiding (a, b) the automorphism sign(a, b) of a + b.  With
    sign(a, b) = a * b it is the sign groupoid sZ/2, whose braiding on 1 (x) 1
    is not an identity."""
    objs = ("0", "1")

    def mor(o, u):
        return f"{'s' if u % 2 else 'id'}_{o}"

    def add(a, b):
        return str((int(a) + int(b)) % 2)

    signs = (0, 1)
    return FiniteSMC(
        objects=objs, unit="0",
        profile={mor(o, u): (o, o) for o in objs for u in signs},
        compose={(mor(o, u), mor(o, v)): mor(o, u + v)
                 for o in objs for u in signs for v in signs},
        identities={o: mor(o, 0) for o in objs},
        tensor_obj={(a, b): add(a, b) for a in objs for b in objs},
        tensor_mor={(mor(a, u), mor(b, v)): mor(add(a, b), u + v)
                    for a in objs for b in objs for u in signs for v in signs},
        braiding={(a, b): mor(add(a, b), sign(int(a), int(b)))
                  for a in objs for b in objs})


@pytest.fixture(scope="session")
def sz2_smc():
    """The sign groupoid sZ/2."""
    return sign_groupoid_smc(lambda a, b: a * b)


@pytest.fixture(scope="session")
def hexagon_failing_smc():
    """Braiding with the unit 0 as the non-identity automorphism of 1 keeps
    the involution and naturality but breaks the hexagon."""
    return sign_groupoid_smc(lambda a, b: a | b)


@pytest.fixture(scope="session")
def monoid_smc():
    """One object whose endomorphisms are the monoid ({0, 1}, x): an SMC
    whose composition does not cancel."""
    return one_object_abelian_group_smc([0, 1], lambda a, b: a * b)


@pytest.fixture(scope="session")
def unfaithful_groupoid_smc():
    """Objects u (the unit), a and b with a (x) a = a (x) b = b (x) b = b,
    Aut(a) = {1_a, s} and every other hom set trivial; every tensor of
    non-unit morphisms is id_b and every braiding an identity.  An SMC
    whose tensor is not faithful: 1_a (x) s = 1_a (x) 1_a."""
    objs = ("u", "a", "b")
    ident = {o: f"id_{o}" for o in objs}
    profile = {**{ident[o]: (o, o) for o in objs}, "s": ("a", "a")}
    compose = {**{(ident[o], ident[o]): ident[o] for o in objs},
               ("s", "id_a"): "s", ("id_a", "s"): "s", ("s", "s"): "id_a"}
    t_obj = {(x, y): y if x == "u" else x if y == "u" else "b" for x in objs for y in objs}
    t_mor = {(f, g): g if f == "id_u" else f if g == "id_u" else "id_b"
             for f in profile for g in profile}
    braid = {(x, y): ident[t_obj[(x, y)]] for x in objs for y in objs}
    return FiniteSMC(objects=objs, unit="u", profile=profile, compose=compose,
                     identities=ident, tensor_obj=t_obj, tensor_mor=t_mor,
                     braiding=braid)


@pytest.fixture(scope="session")
def contractible_picard_smc():
    """A Picard groupoid that is not skeletal: objects 0 and 1 (the unit is
    0), exactly one morphism between any two objects, and tensor addition
    mod 2, on morphisms too; every braiding is an identity."""
    objs = ("0", "1")

    def mor(a, b):
        return f"m_{a}{b}"

    def add(a, b):
        return str((int(a) + int(b)) % 2)

    homs = list(itertools.product(objs, repeat=2))
    return FiniteSMC(
        objects=objs, unit="0",
        profile={mor(a, b): (a, b) for a, b in homs},
        compose={(mor(b, c), mor(a, b)): mor(a, c)
                 for a, b, c in itertools.product(objs, repeat=3)},
        identities={o: mor(o, o) for o in objs},
        tensor_obj={(a, b): add(a, b) for a, b in homs},
        tensor_mor={(mor(a, b), mor(c, d)): mor(add(a, c), add(b, d))
                    for (a, b), (c, d) in itertools.product(homs, repeat=2)},
        braiding={(a, b): mor(add(a, b), add(a, b)) for a, b in homs})


class Enumerated(FiniteOperad):
    """An operad as a plain `FiniteOperad`: it forwards every call to the
    operad it wraps but keeps the default `cancellative()`, False, so
    `kan_report` runs the horn-map enumerator, the reference oracle, on
    every tree."""

    def __init__(self, p):
        self.colours, self.name = p.colours, p.name
        self.operations, self.op_profile, self.identity = p.operations, p.op_profile, p.identity
        self.compose, self.permute = p.compose, p.permute


@pytest.fixture(scope="session")
def enumerated():
    """`Enumerated`, the enumerator oracle's wrapper of an operad."""
    return Enumerated


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
