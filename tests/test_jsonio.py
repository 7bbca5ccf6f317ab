"""JSON round trips, schema validation and deterministic emission."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendro import anodyne
from dendro.anodyne import (AnodyneClass, NestedStep, certificate_class,
                            verify_certificate)
from dendro.complexes import Complex
from dendro.jsonio import (SchemaError, certificate_from_json,
                           certificate_to_json, dumps, kan_report_to_json,
                           load_operad, operad_from_json, operad_to_json,
                           smc_from_json, smc_to_json, tree_from_json,
                           tree_to_json)
from dendro.kan import kan_report, tree_shapes
from dendro.lemmas import binary_tensor_certificate, root_horn_certificate
from dendro.operads import CORPUS, table_operad_from, validate_operad
from dendro.trees import (Tree, Vertex, c2, corolla, extended_corolla, graft,
                          has_root_horn)

SHAPES = tree_shapes(3)


# -- trees ------------------------------------------------------------------

def test_tree_roundtrip_by_hand():
    t = extended_corolla(2, 2)
    doc = tree_to_json(t)
    assert tree_from_json(doc) == t
    assert json.loads(dumps(doc)) == doc


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_tree_roundtrip_random(data):
    tree = data.draw(st.sampled_from(SHAPES))
    names = sorted(tree.edges)
    fresh = data.draw(st.permutations([f"r{i}" for i in range(len(names))]))
    m = dict(zip(names, fresh))
    renamed = Tree(tuple(Vertex(tuple(m[e] for e in v.inputs), m[v.output])
                         for v in tree.vertices), m[tree.root])
    assert tree_from_json(tree_to_json(renamed)) == renamed


def test_tree_schema_missing_field():
    with pytest.raises(SchemaError) as exc:
        tree_from_json({"edges": ["a"], "root": "a"})
    assert "vertices" in str(exc.value)


def test_tree_schema_wrong_type_path():
    with pytest.raises(SchemaError) as exc:
        tree_from_json({"edges": "a", "vertices": [], "root": "a"})
    assert exc.value.path == "$.edges"


def test_tree_schema_edge_list_mismatch():
    doc = tree_to_json(c2())
    doc["edges"] = ["a", "b"]
    with pytest.raises(SchemaError) as exc:
        tree_from_json(doc)
    assert exc.value.path == "$.edges"


def test_tree_schema_invalid_tree_reported():
    doc = {"edges": ["a"], "root": "a",
           "vertices": [{"inputs": ["a"], "output": "a"}]}
    with pytest.raises(SchemaError):
        tree_from_json(doc)


# -- operads ----------------------------------------------------------------

@pytest.mark.parametrize("name", ["z2", "z3", "bz2", "mult01"])
def test_operad_roundtrip(name):
    p = CORPUS[name]()
    table = table_operad_from(p, max_arity=3)
    back = operad_from_json(operad_to_json(p, max_arity=3))
    assert set(back.colours) == set(table.colours)
    assert len(back.profiles) == len(table.profiles)
    assert len(back.composition) == len(table.composition)
    assert validate_operad(back, max_arity=1) == []


def test_operad_schema_errors():
    doc = operad_to_json(CORPUS["bz2"]())
    bad = dict(doc)
    bad["composition"] = doc["composition"][:1] + [
        {"f": "nope", "i": 0, "g": doc["operations"][0]["name"],
         "result": doc["operations"][0]["name"]}]
    with pytest.raises(SchemaError) as exc:
        operad_from_json(bad)
    assert "composition[1]" in exc.value.path

    bad = dict(doc)
    bad["identities"] = {}
    with pytest.raises(SchemaError) as exc:
        operad_from_json(bad)
    assert "identities" in exc.value.path


def test_operad_schema_rejects_bool_index():
    doc = operad_to_json(CORPUS["bz2"]())
    doc["composition"][0]["i"] = True
    with pytest.raises(SchemaError) as exc:
        operad_from_json(doc)
    assert "boolean" in str(exc.value)


def test_operad_schema_bad_permutation():
    doc = operad_to_json(CORPUS["bz2"]())
    row = next(r for r in doc["symmetry"] if len(r["sigma"]) == 2)
    row["sigma"] = [0, 0]
    with pytest.raises(SchemaError) as exc:
        operad_from_json(doc)
    assert "permutation" in str(exc.value)


def test_smc_roundtrip():
    for name in ("z2", "bz2", "mult01"):
        c = CORPUS[name]().smc
        back = smc_from_json(smc_to_json(c))
        assert back == c


def test_smc_schema_unknown_morphism():
    doc = smc_to_json(CORPUS["bz2"]().smc)
    doc["identities"] = {k: "zz" for k in doc["identities"]}
    with pytest.raises(SchemaError):
        smc_from_json(doc)


def test_load_operad_dispatch():
    p = load_operad({"corpus": "z2"})
    assert set(p.colours) == {"0", "1"}
    table = load_operad(operad_to_json(CORPUS["bz2"]()))
    assert validate_operad(table, max_arity=1) == []
    via_smc = load_operad(smc_to_json(CORPUS["z2"]().smc))
    assert set(via_smc.colours) == {"0", "1"}
    with pytest.raises(SchemaError) as exc:
        load_operad({"corpus": "zz9"})
    assert "choices" in str(exc.value)
    with pytest.raises(SchemaError):
        load_operad({})


# -- determinism ------------------------------------------------------------

def test_dumps_is_byte_deterministic():
    a = dumps(operad_to_json(CORPUS["z3"]()))
    b = dumps(operad_to_json(CORPUS["z3"]()))
    assert a == b
    assert a.endswith("\n")
    c = dumps(certificate_to_json(binary_tensor_certificate(1)))
    d = dumps(certificate_to_json(binary_tensor_certificate(1)))
    assert c == d


# -- certificates -----------------------------------------------------------

def test_filtration_certificate_roundtrip():
    cert = binary_tensor_certificate(1)
    back = certificate_from_json(certificate_to_json(cert))
    assert back == cert
    assert verify_certificate(back).valid


def test_retract_certificate_roundtrip():
    tree = graft(c2(), "a", corolla(2, leaves=("p", "q"), root="a"))
    cert = root_horn_certificate(tree)
    doc = certificate_to_json(cert)
    assert len(doc["steps"]) == 1 and doc["steps"][0]["type"] == "retract"
    back = certificate_from_json(doc)
    assert back == cert
    assert verify_certificate(back).valid
    assert certificate_class(back) <= AnodyneClass.EXTENDED_LEFT


def _node_counts(cert) -> tuple[int, int]:
    """(filtration and retract nodes, horn steps) of a certificate."""
    if cert.kind == "retract":
        nodes, horns = _node_counts(cert.sub)
        return nodes + 1, horns
    nodes, horns = 1, 0
    for s in cert.steps:
        if isinstance(s, NestedStep):
            sub_nodes, sub_horns = _node_counts(s.certificate)
            nodes, horns = nodes + sub_nodes, horns + sub_horns
        else:
            horns += 1
    return nodes, horns


def test_certificate_json_builds_one_complex_per_node(monkeypatch):
    """Builders hand their ambient to the certificate and each node keeps
    its class, so building, verifying and writing a certificate builds at
    most one ambient per node, however deeply they nest, and writing it
    finds the class of each horn step once."""
    built, classified = [], []
    init = Complex.__init__
    classify = anodyne.generator_class

    def counting_init(self, generators):
        built.append(1)
        init(self, generators)

    def counting_class(tree, omitted_key):
        classified.append(1)
        return classify(tree, omitted_key)

    monkeypatch.setattr(Complex, "__init__", counting_init)
    monkeypatch.setattr(anodyne, "generator_class", counting_class)
    largest = 0
    for tree in SHAPES:
        if len(tree.vertices) < 2 or not has_root_horn(tree):
            continue
        built.clear()
        cert = root_horn_certificate(tree)
        assert verify_certificate(cert).valid
        classified.clear()
        certificate_to_json(cert)
        nodes, horns = _node_counts(cert)
        assert len(built) <= nodes, tree
        assert len(classified) <= horns, tree
        largest = max(largest, nodes)
    assert largest >= 4


def test_certificate_schema_bad_omit_kind():
    doc = certificate_to_json(binary_tensor_certificate(1))
    doc["steps"][0]["additions"][0]["omit"] = ["sideways", "x"]
    with pytest.raises(SchemaError) as exc:
        certificate_from_json(doc)
    assert "face kind" in str(exc.value)


def test_certificate_schema_unknown_step_type():
    doc = certificate_to_json(binary_tensor_certificate(1))
    doc["steps"][0] = {"type": "magic"}
    with pytest.raises(SchemaError) as exc:
        certificate_from_json(doc)
    assert "step type" in str(exc.value)


def test_certificate_schema_bad_class_string():
    doc = certificate_to_json(binary_tensor_certificate(1))
    doc["class"] = "medium"
    with pytest.raises(SchemaError) as exc:
        certificate_from_json(doc)
    assert exc.value.path == "$.class"


def test_certificate_schema_retract_must_be_sole_step():
    tree = graft(c2(), "a", corolla(2, leaves=("p", "q"), root="a"))
    doc = certificate_to_json(root_horn_certificate(tree))
    doc["steps"] = doc["steps"] + [{"type": "horn", "additions": []}]
    with pytest.raises(SchemaError) as exc:
        certificate_from_json(doc)
    assert "only step" in str(exc.value)


def test_multi_addition_horn_step_expands():
    doc = certificate_to_json(binary_tensor_certificate(1))
    adds = [s["additions"][0] for s in doc["steps"] if s["type"] == "horn"]
    merged = dict(doc)
    merged["steps"] = [{"type": "horn", "additions": adds}]
    back = certificate_from_json(merged)
    assert len(back.steps) == len(adds)


# -- reports ----------------------------------------------------------------

def test_kan_report_json_shape(mult01):
    rep = kan_report(mult01, 2)
    doc = kan_report_to_json(rep)
    assert doc["operad"] == rep.operad_name
    assert doc["fully_kan"] is False and doc["inner_kan"] is True
    assert doc["horns_checked"] == rep.horns_checked
    assert doc["witnesses"]
    w = doc["witnesses"][0]
    assert set(w) == {"tree", "omitted", "horn_class", "issue",
                      "filler_count", "horn_map"}
    json.loads(dumps(doc))
