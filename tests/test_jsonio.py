"""JSON round trips, schema validation and deterministic emission."""

import copy
import json
import math
import tracemalloc

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
from dendro.operads import CORPUS, b_z2_smc, table_operad_from, validate_operad
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


def test_tree_schema_duplicate_edge():
    """An edge listed twice is rejected, as a colour or object listed twice
    is; the list used to load."""
    doc = tree_to_json(c2())
    doc["edges"] = ["a", "a", "b", "c"]
    with pytest.raises(SchemaError) as exc:
        tree_from_json(doc)
    assert exc.value.path == "$.edges[1]"
    assert str(exc.value) == "$.edges[1]: duplicate edge 'a'"


def test_tree_schema_invalid_tree_reported():
    doc = {"edges": ["a"], "root": "a",
           "vertices": [{"inputs": ["a"], "output": "a"}]}
    with pytest.raises(SchemaError):
        tree_from_json(doc)


# -- operads ----------------------------------------------------------------

@pytest.mark.parametrize("name,arity", [
    ("z2", 3), ("z3", 3), ("bz2", 3), ("mult01", 3), ("z2", 5),
], ids=["z2", "z3", "bz2", "mult01", "z2-arity5"])
def test_operad_roundtrip(name, arity):
    """A table read back from its JSON is the source table with operations
    renamed, with the same value types: an int position, a tuple of ints
    for sigma."""
    table = table_operad_from(CORPUS[name](), max_arity=arity)
    back = operad_from_json(operad_to_json(table))
    new = {o: f"o{i}" for i, o in enumerate(sorted(table.profiles, key=str))}
    assert back.colours == table.colours
    assert back.profiles == {new[o]: prof for o, prof in table.profiles.items()}
    assert back.identities_table == {c: new[o] for c, o in
                                     table.identities_table.items()}
    assert back.composition == {(new[f], i, new[g]): new[h] for (f, i, g), h
                                in table.composition.items()}
    assert back.symmetry == {(new[f], s): new[g]
                             for (f, s), g in table.symmetry.items()}
    assert all(type(i) is int for _, i, _ in back.composition)
    assert all(type(s) is tuple and all(type(x) is int for x in s)
               for _, s in back.symmetry)
    assert validate_operad(back, max_arity=1) == []


@pytest.mark.parametrize("name,arity", [(n, a) for n in sorted(CORPUS) for a in (3, 4)],
                         ids=[n + ("" if a == 3 else f"-arity{a}")
                              for n in sorted(CORPUS) for a in (3, 4)])
def test_operad_json_of_a_loaded_table_keeps_its_names(name, arity):
    """A loaded table is written under its own operation names in its own
    order, so the first write-load-write round trip is byte-identical, even
    past ten operations, where name order is not listing order."""
    first = operad_to_json(CORPUS[name](), arity)
    table = operad_from_json(first)
    doc = operad_to_json(table)
    assert {op["name"] for op in doc["operations"]} == table.profiles.keys()
    assert operad_from_json(doc) == table
    assert dumps(doc) == dumps(first)


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


# -- the loaders' error contract ---------------------------------------------

_DROP = object()
_OPERAD_DOC = operad_to_json(CORPUS["bz2"]())
_SMC_DOC = smc_to_json(CORPUS["z2"]().smc)
_Z2_A5_DOC = operad_to_json(table_operad_from(CORPUS["z2"](), 5))
_BZ2_SMC_DOC = smc_to_json(b_z2_smc())


def _changed(doc, keys, value):
    """A deep copy of `doc` with the field at `keys` set to `value` (removed
    for `_DROP`); with no keys, `value` is the whole document."""
    if not keys:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    return doc


# (table, keys of the changed field, new value, path, message): pytest
# names each case by its position, so a new case goes at the end, where it
# renames no other.  Each loader reports the first failing check, in the
# order fields appear in the document and, within a row, in the order the
# loader reads them
# (composition: f, g, result, i; symmetry: f, result, sigma; SMC tables:
# result, then the two keys).  Table "op" is bz2 up to arity 3 and "z2a5"
# is z2 up to arity 5, where o0 is (0, 0) -> 0 and o15 is (0, 1) -> 1.
# Kind "bz2smc" loads bZ/2 through `load_operad`, which also checks the SMC
# laws: braiding * (x) * by the generator g1 breaks the hexagon.
LOADER_ERRORS = [
    ('op', (), [], '$',
     '$: expected object, got list'),
    ('op', ('symmetry',), _DROP, '$',
     "$: missing field 'symmetry'"),
    ('op', ('composition',), {}, '$.composition',
     '$.composition: expected array, got dict'),
    ('op', ('colours', 0), 1, '$.colours[0]',
     '$.colours[0]: expected string, got int'),
    ('op', ('operations', 0), 3, '$.operations[0]',
     '$.operations[0]: expected object, got int'),
    ('op', ('operations', 2, 'inputs'), _DROP, '$.operations[2]',
     "$.operations[2]: missing field 'inputs'"),
    ('op', ('operations', 1, 'inputs', 1), None, '$.operations[1].inputs[1]',
     '$.operations[1].inputs[1]: expected string, got NoneType'),
    ('op', ('operations', 1, 'output'), 'c', '$.operations[1]',
     "$.operations[1]: unknown colour 'c'"),
    ('op', ('operations', 1, 'name'), 'o0', '$.operations[1].name',
     "$.operations[1].name: duplicate operation name 'o0'"),
    ('op', ('identities',), {}, '$.identities',
     "$.identities: no identity for colours ['*']"),
    ('op', ('identities', 'x'), 'o4', '$.identities.x',
     "$.identities.x: unknown colour 'x'"),
    ('op', ('identities', '*'), 'zz', '$.identities.*',
     "$.identities.*: unknown operation 'zz'"),
    ('op', ('identities', '*'), 4, '$.identities.*',
     '$.identities.*: expected string, got int'),
    ('op', ('composition', 4), [], '$.composition[4]',
     '$.composition[4]: expected object, got list'),
    ('op', ('composition', 3, 'g'), _DROP, '$.composition[3]',
     "$.composition[3]: missing field 'g'"),
    ('op', ('composition', 3, 'i'), _DROP, '$.composition[3]',
     "$.composition[3]: missing field 'i'"),
    ('op', ('composition', 2, 'f'), 7, '$.composition[2].f',
     '$.composition[2].f: expected string, got int'),
    ('op', ('composition', 5, 'result'), 'zz', '$.composition[5].result',
     "$.composition[5].result: unknown operation 'zz'"),
    ('op', ('composition', 0, 'i'), True, '$.composition[0].i',
     '$.composition[0].i: expected integer, got boolean'),
    ('op', ('composition', 0, 'i'), '0', '$.composition[0].i',
     '$.composition[0].i: expected integer, got str'),
    ('op', ('composition', 0, 'i'), 2, '$.composition[0].i',
     "$.composition[0].i: input index 2 out of range for 'o0'"),
    ('op', ('composition', 0, 'i'), -1, '$.composition[0].i',
     "$.composition[0].i: input index -1 out of range for 'o0'"),
    ('op', ('composition', 6), {'f': 'zz', 'i': 'x', 'g': 1, 'result': 'o0'},
     '$.composition[6].f',
     "$.composition[6].f: unknown operation 'zz'"),
    ('op', ('symmetry', 0), 'x', '$.symmetry[0]',
     '$.symmetry[0]: expected object, got str'),
    ('op', ('symmetry', 1, 'sigma'), _DROP, '$.symmetry[1]',
     "$.symmetry[1]: missing field 'sigma'"),
    ('op', ('symmetry', 1, 'result'), _DROP, '$.symmetry[1]',
     "$.symmetry[1]: missing field 'result'"),
    ('op', ('symmetry', 1, 'f'), 'zz', '$.symmetry[1].f',
     "$.symmetry[1].f: unknown operation 'zz'"),
    ('op', ('symmetry', 1, 'sigma'), '10', '$.symmetry[1].sigma',
     '$.symmetry[1].sigma: expected array, got str'),
    ('op', ('symmetry', 1, 'sigma', 1), True, '$.symmetry[1].sigma[1]',
     '$.symmetry[1].sigma[1]: expected integer, got boolean'),
    ('op', ('symmetry', 1, 'sigma', 0), 1.0, '$.symmetry[1].sigma[0]',
     '$.symmetry[1].sigma[0]: expected integer, got float'),
    ('op', ('symmetry', 1, 'sigma'), [0, 0], '$.symmetry[1].sigma',
     "$.symmetry[1].sigma: not a permutation of the inputs of 'o0'"),
    ('op', ('symmetry', 1, 'sigma'), [0, 1, 2], '$.symmetry[1].sigma',
     "$.symmetry[1].sigma: not a permutation of the inputs of 'o0'"),
    ('op', ('symmetry', 2), {'f': 'o0', 'result': 'zz', 'sigma': [True]},
     '$.symmetry[2].result',
     "$.symmetry[2].result: unknown operation 'zz'"),
    ('smc', (), 'x', '$',
     '$: expected object, got str'),
    ('smc', ('unit',), _DROP, '$',
     "$: missing field 'unit'"),
    ('smc', ('unit',), '2', '$.unit',
     "$.unit: unknown object '2'"),
    ('smc', ('objects', 1), False, '$.objects[1]',
     '$.objects[1]: expected string, got bool'),
    ('smc', ('morphisms', 0, 'dom'), True, '$.morphisms[0].dom',
     '$.morphisms[0].dom: expected string, got bool'),
    ('smc', ('morphisms', 1, 'cod'), '9', '$.morphisms[1]',
     "$.morphisms[1]: unknown object '9'"),
    ('smc', ('morphisms', 1, 'name'), 'id_0', '$.morphisms[1].name',
     "$.morphisms[1].name: duplicate morphism name 'id_0'"),
    ('smc', ('identities', '0'), 'm', '$.identities.0',
     "$.identities.0: unknown morphism 'm'"),
    ('smc', ('compose', 0, 'result'), _DROP, '$.compose[0]',
     "$.compose[0]: missing field 'result'"),
    ('smc', ('compose', 1, 'g'), 'm', '$.compose[1].g',
     "$.compose[1].g: unknown morphism 'm'"),
    ('smc', ('compose', 0), {'g': 'x', 'f': 'id_0', 'result': 'y'},
     '$.compose[0].result',
     "$.compose[0].result: unknown morphism 'y'"),
    ('smc', ('tensor_objects', 2, 'b'), 1, '$.tensor_objects[2].b',
     '$.tensor_objects[2].b: expected string, got int'),
    ('smc', ('tensor_objects', 1, 'result'), '2', '$.tensor_objects[1].result',
     "$.tensor_objects[1].result: unknown object '2'"),
    ('smc', ('tensor_morphisms', 3), None, '$.tensor_morphisms[3]',
     '$.tensor_morphisms[3]: expected object, got NoneType'),
    ('smc', ('braiding', 1, 'a'), _DROP, '$.braiding[1]',
     "$.braiding[1]: missing field 'a'"),
    ('smc', ('braiding', 0, 'a'), '2', '$.braiding[0].a',
     "$.braiding[0].a: unknown object '2'"),
    ('smc', ('braiding', 2, 'result'), '1', '$.braiding[2].result',
     "$.braiding[2].result: unknown morphism '1'"),
    ('z2a5', ('identities', '0'), 'o0', '$.identities.0',
     "$.identities.0: profile of 'o0' is (('0', '0'), '0'), "
     "not the identity's (('0',), '0')"),
    ('z2a5', ('symmetry', 1071), {'f': 'o15', 'sigma': [1, 0], 'result': 'o0'},
     '$.symmetry[1071].result',
     "$.symmetry[1071].result: profile of 'o0' is (('0', '0'), '0'), "
     "not the permuted (('1', '0'), '1')"),
    ('bz2smc', ('braiding', 0, 'result'), 'g1', '$',
     '$: hexagon fails at (*,*,*)'),
]


@pytest.mark.parametrize("kind,keys,value,path,text", LOADER_ERRORS)
def test_loader_reports_first_error(kind, keys, value, path, text):
    load, doc = {"op": (operad_from_json, _OPERAD_DOC),
                 "z2a5": (operad_from_json, _Z2_A5_DOC),
                 "smc": (smc_from_json, _SMC_DOC),
                 "bz2smc": (load_operad, _BZ2_SMC_DOC)}[kind]
    with pytest.raises(SchemaError) as exc:
        load(_changed(doc, keys, value))
    assert exc.value.path == path
    assert str(exc.value) == text



_Z2_DOC = operad_to_json(CORPUS["z2"]())


@pytest.mark.parametrize("kind,keys,value,path,text", [
    ("op", ("colours",), ["*", "*"], "$.colours[1]",
     "$.colours[1]: duplicate colour '*'"),
    ("smc", ("objects",), ["0", "1", "0"], "$.objects[2]",
     "$.objects[2]: duplicate object '0'"),
    ("z2", ("composition", 0, "g"), "o3", "$.composition[0].g",
     "$.composition[0].g: output '1' of 'o3' is not input 0 ('0') of 'o0'"),
    ("z2", ("composition", 0, "result"), "o2", "$.composition[0].result",
     "$.composition[0].result: profile of 'o2' is (('0', '0', '1'), '1'), "
     "not the composite's (('0', '0', '0'), '0')"),
], ids=["colour-twice", "object-twice", "uncomposable", "result-profile"])
def test_loader_rejects_inconsistent_table(kind, keys, value, path, text):
    """A name listed twice, or a composite whose profile does not fit, is
    an input error: such tables used to be accepted and give wrong
    answers."""
    load, doc = {"op": (operad_from_json, _OPERAD_DOC),
                 "z2": (operad_from_json, _Z2_DOC),
                 "smc": (smc_from_json, _SMC_DOC)}[kind]
    with pytest.raises(SchemaError) as exc:
        load(_changed(doc, keys, value))
    assert exc.value.path == path
    assert str(exc.value) == text


@pytest.mark.parametrize("kind,table,text", [
    ("op", "composition", "duplicate row for f='o0', i=0, g='o0'"),
    ("op", "symmetry", "duplicate row for f='o0', sigma=[0, 1]"),
    ("smc", "compose", "duplicate row for g='id_0', f='id_0'"),
    ("smc", "tensor_objects", "duplicate row for a='0', b='0'"),
    ("smc", "tensor_morphisms", "duplicate row for f='id_0', g='id_0'"),
    ("smc", "braiding", "duplicate row for a='0', b='0'"),
], ids=["composition", "symmetry", "compose", "tensor_objects",
        "tensor_morphisms", "braiding"])
def test_loader_rejects_repeated_row(kind, table, text):
    """A row that repeats the key of an earlier row is rejected at the
    later row; it used to replace the earlier one silently."""
    load, doc = ((operad_from_json, _OPERAD_DOC) if kind == "op"
                 else (smc_from_json, _SMC_DOC))
    rows = doc[table]
    with pytest.raises(SchemaError) as exc:
        load(_changed(doc, (table,), rows + [dict(rows[0])]))
    assert exc.value.path == f"$.{table}[{len(rows)}]"
    assert str(exc.value) == f"$.{table}[{len(rows)}]: {text}"

# -- determinism ------------------------------------------------------------

def test_dumps_is_byte_deterministic():
    a = dumps(operad_to_json(CORPUS["z3"]()))
    b = dumps(operad_to_json(CORPUS["z3"]()))
    assert a == b
    assert a.endswith("\n")
    c = dumps(certificate_to_json(binary_tensor_certificate(1)))
    d = dumps(certificate_to_json(binary_tensor_certificate(1)))
    assert c == d


def reference_dumps(obj) -> str:
    """The reference oracle of `dumps`: one `json.dumps` call."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_RETRACT_TREE = graft(c2(), "a", corolla(2, leaves=("p", "q"), root="a"))
_EMITTED = {
    **{f"operad-{name}": lambda name=name: operad_to_json(CORPUS[name](), 3)
       for name in CORPUS},
    "operad-mult01-arity5": lambda: operad_to_json(CORPUS["mult01"](), 5),
    "smc-bz2": lambda: smc_to_json(b_z2_smc()),
    **{f"cert-6.4-n{n}": lambda n=n: certificate_to_json(binary_tensor_certificate(n))
       for n in range(1, 4)},
    "cert-8.5-retract": lambda: certificate_to_json(root_horn_certificate(_RETRACT_TREE)),
    "kan-report-mult01": lambda: kan_report_to_json(kan_report(CORPUS["mult01"](), 3)),
}


@pytest.mark.parametrize("name", _EMITTED)
def test_dumps_matches_json_dumps(name):
    obj = _EMITTED[name]()
    assert dumps(obj) == reference_dumps(obj)


_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x7fé€\u2028😀') | st.characters())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(_TEXT, inner, max_size=6),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_dumps_matches_json_dumps_on_any_json_value(obj):
    assert dumps(obj) == reference_dumps(obj)


# -- memory -----------------------------------------------------------------

def test_dumps_holds_about_twice_its_output():
    """`json.dumps` with an indent collects every chunk before joining them,
    about 8.5 times the output here; `dumps` joins them in batches."""
    doc = operad_to_json(table_operad_from(CORPUS["mult01"](), 5), 5)
    tracemalloc.start()
    try:
        text = dumps(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)


@pytest.fixture(scope="module")
def mult01_tables():
    """mult01 to arity 5 as a table built in memory, and read back from its
    JSON."""
    built = table_operad_from(CORPUS["mult01"](), 5)
    loaded = operad_from_json(json.loads(dumps(operad_to_json(built, 5))))
    return {"built": built, "loaded": loaded}


@pytest.mark.parametrize("side", ["built", "loaded"])
def test_table_rows_hold_the_listed_operations(mult01_tables, side):
    table = mult01_tables[side]
    listed = {op: op for op in table.profiles}
    for (f, _), g in table.symmetry.items():
        assert f is listed[f] and g is listed[g]
    for (f, _, g), h in table.composition.items():
        assert f is listed[f] and g is listed[g] and h is listed[h]
    assert all(op is listed[op] for op in table.identities_table.values())


@pytest.mark.parametrize("side", ["built", "loaded"])
def test_table_rows_share_one_tuple_per_permutation(mult01_tables, side):
    one: dict = {}
    for _, sigma in mult01_tables[side].symmetry:
        assert one.setdefault(sigma, sigma) is sigma
    assert len(one) == sum(map(math.factorial, range(6)))


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


def test_retract_section_pair_of_three_edges_is_schema_error():
    doc = certificate_to_json(root_horn_certificate(_RETRACT_TREE))
    doc["steps"][0]["section"][0].append("x")
    with pytest.raises(SchemaError) as exc:
        certificate_from_json(doc)
    assert str(exc.value) == "$.steps[0].section[0]: expected an [edge, edge] pair"


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
    classify = anodyne._horn_class

    def counting_init(self, generators):
        built.append(1)
        init(self, generators)

    def counting_class(h):
        classified.append(1)
        return classify(h)

    monkeypatch.setattr(Complex, "__init__", counting_init)
    monkeypatch.setattr(anodyne, "_horn_class", counting_class)
    largest = most_classified = 0
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
        most_classified = max(most_classified, len(classified))
    assert largest >= 4
    assert most_classified > 0


def _retract_nodes(cert) -> int:
    if cert.kind == "retract":
        return 1 + _retract_nodes(cert.sub)
    return sum(_retract_nodes(s.certificate) for s in cert.steps
               if isinstance(s, NestedStep))


def test_nested_nodes_build_no_complex_in_verify(monkeypatch):
    """Every multi-vertex root-horn certificate on at most 4 vertices gives
    the same report after a JSON round trip.  A nested step's certificate
    is checked in its parent's complex, so verifying builds a complex only
    for the top node and for each retract's sub-certificate, and for none
    of them when the builder already handed its ambient over."""
    built = []
    init = Complex.__init__

    def counting_init(self, generators):
        built.append(1)
        init(self, generators)

    monkeypatch.setattr(Complex, "__init__", counting_init)
    checked = 0
    for tree in tree_shapes(4):
        if len(tree.vertices) < 2 or not has_root_horn(tree):
            continue
        cert = root_horn_certificate(tree)
        built.clear()
        summary = verify_certificate(cert).summary()
        assert summary.startswith("valid"), tree
        assert len(built) == (cert.kind == "retract"), tree
        back = certificate_from_json(certificate_to_json(cert))
        built.clear()
        assert verify_certificate(back).summary() == summary, tree
        assert len(built) == 1 + _retract_nodes(back), tree
        checked += 1
    assert checked == 153


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
