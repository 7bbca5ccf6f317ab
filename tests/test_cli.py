"""The command-line surface, driven through main(argv)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dendro
from dendro.cli import main
from dendro.complexes import representable
from dendro.jsonio import (certificate_to_json, dumps, operad_to_json,
                           smc_to_json, tree_to_json)
from dendro.lemmas import binary_tensor_certificate
from dendro.nerves import underlying_sset
from dendro.operads import CORPUS, b_z2_smc, cyclic_group_smc, table_operad_from
from dendro.trees import Tree, TreeError, Vertex, c2, face, linear


T5 = Tree((Vertex(("u", "v"), "p"), Vertex(("p",), "q"),
           Vertex(("q",), "r"), Vertex(("w",), "x"),
           Vertex(("r", "x"), "c")), "c")


@pytest.fixture
def c2_file(tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(dumps(tree_to_json(c2())))
    return str(path)


@pytest.fixture
def two_vertex_file(tmp_path, two_vertex_tree):
    path = tmp_path / "two.json"
    path.write_text(dumps(tree_to_json(two_vertex_tree)))
    return str(path)


def operad_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(dumps({"corpus": name}))
    return str(path)


# -- tree -------------------------------------------------------------------

def test_tree_build_json(capsys):
    assert main(["tree", "build", "--kind", "corolla", "--params", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["edges"]) == 3


def test_tree_build_dot(capsys):
    assert main(["tree", "build", "--kind", "linear", "--params", "2",
                 "--format", "dot"]) == 0
    assert "digraph" in capsys.readouterr().out


@pytest.mark.parametrize("params,message", [
    (["--kind", "corolla"], "error: corolla takes 1 parameter, got 0"),
    (["--kind", "eta", "--params", "3"], "error: eta takes 0 parameters, got 1"),
    (["--kind", "linear", "--params", "1", "2", "3"],
     "error: linear takes 1 parameter, got 3"),
    (["--kind", "extended_corolla", "--params", "1"],
     "error: extended_corolla takes 2 parameters, got 1"),
    (["--kind", "corolla", "--params", "-1"], "error: corolla arity must be >= 0"),
    (["--kind", "linear", "--params", "-1"], "error: linear length must be >= 0"),
    (["--kind", "extended_corolla", "--params", "-1", "0"],
     "error: extended corolla parameters must be >= 0"),
], ids=["corolla-none", "eta-one", "linear-three", "extended-corolla-one",
        "corolla-negative", "linear-negative", "extended-corolla-negative"])
def test_tree_build_wrong_parameter_count(capsys, params, message):
    """A wrong number of parameters, or a negative one, exits 2 with one
    stderr line."""
    assert main(["tree", "build"] + params) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_tree_show_text(capsys, c2_file):
    assert main(["tree", "show", "--tree", c2_file]) == 0
    out = capsys.readouterr().out
    assert "root: c" in out
    assert "edge a: Leaf" in out
    assert "vertex (a, b) -> c" in out


def test_tree_faces_text(capsys, c2_file):
    assert main(["tree", "faces", "--tree", c2_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("colour:") for line in lines)


def test_tree_faces_json(capsys, c2_file):
    assert main(["tree", "faces", "--tree", c2_file, "--format", "json"]) == 0
    items = json.loads(capsys.readouterr().out)
    assert {it["label"] for it in items} == {"a", "b", "c"}


def _tree_doc(tmp_path, name, vertices, root):
    edges = sorted({e for ins, out in vertices for e in ins + [out]})
    path = tmp_path / f"{name}.json"
    path.write_text(dumps({"edges": edges, "root": root, "vertices": [
        {"inputs": ins, "output": out} for ins, out in vertices]}))
    return str(path)


def test_tree_faces_do_not_depend_on_vertex_order(capsys, tmp_path):
    """Two documents listing the same vertices in other orders print the
    same faces, outer ones by output edge."""
    d, b, c = (["f", "g"], "d"), (["d", "e"], "b"), (["a", "b"], "c")
    lines = []
    for name, vs in (("dbc", [d, b, c]), ("bcd", [b, c, d])):
        assert main(["tree", "faces", "--tree", _tree_doc(tmp_path, name, vs, "c")]) == 0
        lines.append(capsys.readouterr().out.splitlines())
    assert lines[0] == lines[1] == [
        "inner:b -> (a, c, d, e, f, g)",
        "inner:d -> (a, b, c, e, f, g)",
        "root:c -> (b, d, e, f, g)",
        "top:d -> (a, b, c, d, e)",
    ]


def test_tree_with_an_edge_listed_twice_is_input_error(capsys, tmp_path):
    path = tmp_path / "twice.json"
    doc = tree_to_json(c2())
    doc["edges"] = ["a", "a", "b", "c"]
    path.write_text(dumps(doc))
    assert main(["tree", "show", "--tree", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $.edges[1]: duplicate edge 'a'\n"


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["tree", "build", "--kind", "corolla", "--wat"])
    assert exc.value.code == 2


def test_missing_file_is_input_error(capsys):
    assert main(["tree", "show", "--tree", "/nonexistent.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"root": "c",')
    assert main(["tree", "show", "--tree", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: $: {path}: invalid JSON (")
    assert captured.err.endswith(")\n") and captured.err.count("\n") == 1


# -- nerve ------------------------------------------------------------------

def test_nerve_dendrices(capsys, tmp_path, c2_file):
    op = operad_file(tmp_path, "z2")
    assert main(["nerve", "dendrices", "--operad", op, "--tree", c2_file]) == 0
    assert "4 dendrices" in capsys.readouterr().out
    assert main(["nerve", "dendrices", "--operad", op, "--tree", c2_file,
                 "--format", "json"]) == 0
    items = json.loads(capsys.readouterr().out)
    assert isinstance(items, list) and len(items) == 4


def test_nerve_sset_json(capsys, tmp_path):
    op = operad_file(tmp_path, "bz2")
    assert main(["nerve", "sset", "--operad", op, "--dim", "2",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"0": 1, "1": 2, "2": 4}


def test_nerve_sset_counts_high_dimensions(capsys, tmp_path):
    """`nerve sset` counts the simplices without listing them: bz2 has
    2^k k-simplices, so dimension 40 answers at once."""
    op = operad_file(tmp_path, "bz2")
    assert main(["nerve", "sset", "--operad", op, "--dim", "40"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 41
    assert lines[-1] == "dim 40: 1099511627776 simplices"


@pytest.mark.parametrize("name", sorted(CORPUS) + ["table:z2", "table:mult01"])
def test_nerve_sset_counts_equal_the_listed_simplices(capsys, tmp_path, name):
    """Text and JSON give `underlying_sset(...).counts()`, the simplices
    listed, on the corpus and on tables."""
    if name.startswith("table:"):
        p = table_operad_from(CORPUS[name[6:]](), 3)
        path = tmp_path / "table.json"
        path.write_text(dumps(operad_to_json(p)))
        op = str(path)
    else:
        p, op = CORPUS[name](), operad_file(tmp_path, name)
    want = underlying_sset(p, 5).counts()
    assert main(["nerve", "sset", "--operad", op, "--dim", "5"]) == 0
    assert capsys.readouterr().out == "".join(f"dim {k}: {v} simplices\n"
                                              for k, v in sorted(want.items()))
    assert main(["nerve", "sset", "--operad", op, "--dim", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {str(k): v for k, v in want.items()}


def test_nerve_sset_non_integer_dim_is_usage_error(capsys, tmp_path):
    op = operad_file(tmp_path, "bz2")
    with pytest.raises(SystemExit) as exc:
        main(["nerve", "sset", "--operad", op, "--dim", "x"])
    assert exc.value.code == 2
    assert "argument --dim: invalid int value: 'x'" in capsys.readouterr().err


# -- kan --------------------------------------------------------------------

def test_kan_check_group_passes(capsys, tmp_path):
    op = operad_file(tmp_path, "z2")
    assert main(["kan", "check", "--operad", op, "--bound", "2",
                 "--format", "text"]) == 0
    assert "fully_kan=True" in capsys.readouterr().out


def test_kan_check_monoid_fails(capsys, tmp_path):
    op = operad_file(tmp_path, "mult01")
    assert main(["kan", "check", "--operad", op, "--bound", "2"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["fully_kan"] is False


def test_kan_check_strict_one_object(tmp_path):
    op = operad_file(tmp_path, "bz2")
    assert main(["kan", "check", "--operad", op, "--bound", "2",
                 "--strict"]) == 0


def test_kan_check_on_a_table_too_small_is_input_error(capsys, tmp_path):
    """At bound b and arity cap a, faces compose up to arity b(a - 1) + 1.
    A table that stops below it exits 2 before any work, naming the arity
    needed (it used to stop on a missing composition row)."""
    path = tmp_path / "z2_a3.json"
    path.write_text(dumps(operad_to_json(table_operad_from(CORPUS["z2"](), 3))))
    assert main(["kan", "check", "--operad", str(path), "--bound", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --bound 2 with --max-arity 3 needs a table of "
                            "arity 5; this one stops at arity 3\n")
    assert main(["kan", "check", "--operad", str(path), "--bound", "2",
                 "--max-arity", "2", "--format", "text"]) == 0
    assert "fully_kan=True" in capsys.readouterr().out


def test_missing_composition_row_is_one_unquoted_line(capsys, tmp_path):
    """A `KeyError` prints its message, not its repr: no quotes."""
    doc = operad_to_json(table_operad_from(CORPUS["z2"](), 3))
    doc["composition"] = [row for row in doc["composition"]
                          if (row["f"], row["i"], row["g"]) != ("o0", 1, "o6")]
    path = tmp_path / "gap.json"
    path.write_text(dumps(doc))
    assert main(["kan", "check", "--operad", str(path), "--bound", "2",
                 "--max-arity", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: composition table has no entry for (o0, 1, o6)\n"


# -- shuffle ----------------------------------------------------------------

def test_shuffle_list_text(capsys, c2_file):
    assert main(["shuffle", "list", "--tree", c2_file, "--n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("(") and line.endswith(")") for line in lines)
    assert main(["shuffle", "list", "--tree", c2_file, "--n", "2", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.count("digraph") == 3
    assert all(f'digraph "shuffle_{i}" {{' in out for i in range(3))


def test_shuffle_list_is_byte_deterministic(capsys, c2_file):
    main(["shuffle", "list", "--tree", c2_file, "--n", "3", "--format", "json"])
    first = capsys.readouterr().out
    main(["shuffle", "list", "--tree", c2_file, "--n", "3", "--format", "json"])
    assert capsys.readouterr().out == first


# -- anodyne ----------------------------------------------------------------

def test_anodyne_verify_valid(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(dumps(certificate_to_json(binary_tensor_certificate(1))))
    assert main(["anodyne", "verify", "--cert", str(path)]) == 0
    assert "valid" in capsys.readouterr().out


def test_anodyne_verify_corrupt(capsys, tmp_path):
    doc = certificate_to_json(binary_tensor_certificate(1))
    doc["steps"] = doc["steps"][:-1]
    path = tmp_path / "bad.json"
    path.write_text(dumps(doc))
    assert main(["anodyne", "verify", "--cert", str(path),
                 "--format", "json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and out["violations"]
    assert main(["anodyne", "verify", "--cert", str(path), "--format", "text"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("INVALID:")
    assert lines[1:] == ["  " + v for v in out["violations"]]


def test_anodyne_verify_schema_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(dumps({"ambient": []}))
    assert main(["anodyne", "verify", "--cert", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_anodyne_search_found(capsys, two_vertex_file):
    assert main(["anodyne", "search", "--tree", two_vertex_file,
                 "--omit", "inner:a", "--format", "text"]) == 0
    assert "found" in capsys.readouterr().out


def test_anodyne_search_definitively_none(capsys, c2_file):
    assert main(["anodyne", "search", "--tree", c2_file,
                 "--omit", "colour:b", "--class", "inner",
                 "--format", "text"]) == 1
    assert "no certificate" in capsys.readouterr().out


def test_anodyne_search_budget_exhausted(capsys, two_vertex_file):
    """The smallest budget the parser accepts ends the search on this horn,
    which needs two candidate evaluations."""
    assert main(["anodyne", "search", "--tree", two_vertex_file,
                 "--omit", "inner:a", "--budget", "1"]) == 2
    assert "budget exhausted" in capsys.readouterr().err


def test_anodyne_search_bad_omit(capsys, c2_file):
    assert main(["anodyne", "search", "--tree", c2_file,
                 "--omit", "sideways:b"]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_missing_face_key_has_one_text(capsys, c2_file):
    """`face`, `Complex.horn_subcomplex` and `anodyne search --omit` name a
    face the tree lacks in the same words."""
    text = "no face ('inner', 'zz') on cell ['a', 'b', 'c']"
    with pytest.raises(TreeError) as found:
        face(c2(), "inner", "zz")
    assert str(found.value) == text
    with pytest.raises(TreeError) as found:
        representable(c2()).horn_subcomplex(c2().edges, ("inner", "zz"))
    assert str(found.value) == text
    assert main(["anodyne", "search", "--tree", c2_file, "--omit", "inner:zz"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {text}\n")


# -- lemma ------------------------------------------------------------------

def test_lemma_list(capsys):
    assert main(["lemma", "list"]) == 0
    assert capsys.readouterr().out.splitlines() == ["6.4", "7.2", "8.3", "8.5"]


def test_lemma_verify_binary_tensor(capsys):
    assert main(["lemma", "verify", "--id", "6.4", "--n", "1"]) == 0
    assert capsys.readouterr().out == "valid (binary extended left)\n"


def test_lemma_verify_split(capsys):
    assert main(["lemma", "verify", "--id", "7.2", "--n", "1", "--k", "2",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True
    assert doc["certificate"]["steps"]


def test_lemma_verify_codim(capsys, two_vertex_file):
    assert main(["lemma", "verify", "--id", "8.3", "--tree", two_vertex_file,
                 "--v", "c"]) == 0
    assert capsys.readouterr().out == "valid (inner)\n"


def test_lemma_verify_root_horn(capsys, c2_file):
    assert main(["lemma", "verify", "--id", "8.5", "--tree", c2_file,
                 "--omit", "colour:a"]) == 0
    assert "valid" in capsys.readouterr().out


def test_lemma_verify_missing_params(capsys):
    assert main(["lemma", "verify", "--id", "7.2", "--n", "1"]) == 2
    assert "requires" in capsys.readouterr().err


@pytest.fixture
def chain_file(tmp_path):
    """The tree (l1,l2)->a, (a)->x, (x,b)->c."""
    path = tmp_path / "chain.json"
    path.write_text(dumps(tree_to_json(Tree((Vertex(("l1", "l2"), "a"), Vertex(("a",), "x"),
                                             Vertex(("x", "b"), "c")), "c"))))
    return str(path)


@pytest.mark.parametrize("tree,omit,message", [
    ("chain", "inner:x", "error: the root horn omits root:c, not inner:x"),
    ("chain", "top:a", "error: the root horn omits root:c, not top:a"),
    ("chain", "colour:zz", "error: the root horn omits root:c, not colour:zz"),
    ("c2", "colour:zz", "error: a corolla root horn omits a leaf colour, not colour:zz"),
], ids=["inner", "top", "colour", "corolla-unknown-colour"])
def test_lemma_verify_root_horn_rejects_another_face(capsys, chain_file, c2_file,
                                                     tree, omit, message):
    path = {"chain": chain_file, "c2": c2_file}[tree]
    assert main(["lemma", "verify", "--id", "8.5", "--tree", path, "--omit", omit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_lemma_verify_root_horn_by_root_face(capsys, chain_file):
    assert main(["lemma", "verify", "--id", "8.5", "--tree", chain_file,
                 "--omit", "root:c"]) == 0
    assert capsys.readouterr().out == "valid (binary extended left)\n"


@pytest.mark.parametrize("argv,message", [
    (["--id", "6.4", "--n", "1", "--k", "3"], "error: --id 6.4 does not take --k"),
    (["--id", "7.2", "--n", "1", "--k", "2", "--omit", "root:c"],
     "error: --id 7.2 does not take --omit"),
    (["--id", "8.3", "--tree", "{chain}", "--v", "c", "--n", "2", "--omit", "root:c"],
     "error: --id 8.3 does not take --n, --omit"),
    (["--id", "8.5", "--tree", "{chain}", "--n", "4"], "error: --id 8.5 does not take --n"),
], ids=["6.4", "7.2", "8.3", "8.5"])
def test_lemma_verify_rejects_options_the_lemma_does_not_take(capsys, chain_file,
                                                              argv, message):
    argv = [a.format(chain=chain_file) for a in argv]
    assert main(["lemma", "verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize("argv,message", [
    (["--id", "6.4"], "error: --id 6.4 requires --n"),
    (["--id", "7.2", "--n", "1"], "error: --id 7.2 requires --n and --k"),
    (["--id", "8.3", "--v", "c"], "error: --id 8.3 requires --tree and --v"),
    (["--id", "8.5", "--omit", "colour:a"], "error: --id 8.5 requires --tree"),
], ids=["6.4", "7.2", "8.3", "8.5"])
def test_lemma_verify_missing_params_message(capsys, argv, message):
    assert main(["lemma", "verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


# -- out-of-range parameters --------------------------------------------------

@pytest.mark.parametrize("argv,message", [
    (["kan", "check", "--bound", "0"],
     "dendro kan check: error: argument --bound: must be >= 1, got 0"),
    (["kan", "check", "--bound", "-1"],
     "dendro kan check: error: argument --bound: must be >= 1, got -1"),
    (["kan", "check", "--bound", "2", "--max-arity", "0"],
     "dendro kan check: error: argument --max-arity: must be >= 1, got 0"),
    (["nerve", "sset", "--dim", "-3"],
     "dendro nerve sset: error: argument --dim: must be >= 0, got -3"),
    (["shuffle", "list", "--n", "-1"],
     "dendro shuffle list: error: argument --n: must be >= 0, got -1"),
    (["anodyne", "search", "--budget", "0"],
     "dendro anodyne search: error: argument --budget: must be >= 1, got 0"),
], ids=["bound-0", "bound-negative", "max-arity-0", "dim-negative", "n-negative",
        "budget-0"])
def test_out_of_range_parameters_rejected(capsys, tmp_path, c2_file, argv, message):
    files = {"kan": ["--operad", operad_file(tmp_path, "z2")],
             "nerve": ["--operad", operad_file(tmp_path, "z2")],
             "shuffle": ["--tree", c2_file],
             "anodyne": ["--tree", c2_file, "--omit", "colour:a"]}
    with pytest.raises(SystemExit) as exc:
        main(argv[:2] + files[argv[0]] + argv[2:])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_smallest_in_range_parameters_accepted(capsys, tmp_path, c2_file):
    op = operad_file(tmp_path, "z2")
    assert main(["kan", "check", "--operad", op, "--bound", "1",
                 "--max-arity", "1"]) == 0
    assert main(["nerve", "sset", "--operad", op, "--dim", "0"]) == 0
    assert main(["shuffle", "list", "--tree", c2_file, "--n", "0"]) == 0


# -- trees a complex cannot hold ---------------------------------------------

@pytest.mark.parametrize("argv", [
    ["lemma", "verify", "--id", "8.3", "--v", "r"],
    ["lemma", "verify", "--id", "8.5"],
    ["anodyne", "search", "--omit", "colour:a"],
], ids=["lemma-8.3", "lemma-8.5", "anodyne-search"])
def test_vertex_without_inputs_is_input_error(capsys, tmp_path, argv):
    """A complex rejects a generator with a vertex without inputs, so these
    commands end as exit 2 with one stderr line instead of a traceback."""
    path = tmp_path / "stump.json"
    stump = Tree([Vertex(("a", "b"), "r"), Vertex((), "b")], "r")
    path.write_text(dumps(tree_to_json(stump)))
    assert main(argv + ["--tree", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: vertex ")
    assert "has no inputs" in captured.err
    assert captured.err.count("\n") == 1


def test_root_horn_of_tree_with_stump_names_the_input_vertex(capsys, tmp_path):
    """`lemma verify --id 8.5` rejects the input tree's vertex without
    inputs before it builds the split tree, so the one stderr line names
    that vertex, not an edge of the split tree."""
    path = tmp_path / "stump.json"
    stump = Tree([Vertex(("a", "b"), "r"), Vertex((), "b")], "r")
    path.write_text(dumps(tree_to_json(stump)))
    assert main(["lemma", "verify", "--id", "8.5", "--tree", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: vertex 'b' has no inputs")



def _z2_table():
    """z2 as a table up to arity 5, enough for `kan check --bound 2`."""
    return operad_to_json(table_operad_from(CORPUS["z2"](), 5))


def _colour_twice():
    doc = _z2_table()
    doc["colours"].append("0")
    return doc


def _object_twice():
    doc = smc_to_json(cyclic_group_smc(3))
    doc["objects"].append("1")
    return doc


def _braiding_emptied():
    doc = smc_to_json(b_z2_smc())
    doc["braiding"] = []
    return doc


def _misprofiled_composite():
    doc = _z2_table()
    doc["composition"].append({"f": "o0", "i": 0, "g": "o0", "result": "o2"})
    return doc


def _misprofiled_identity():
    doc = _z2_table()
    doc["identities"]["0"] = "o0"
    return doc


def _misprofiled_symmetry():
    doc = _z2_table()
    row = doc["symmetry"][1071]
    assert (row["f"], row["sigma"]) == ("o15", [1, 0])
    row["result"] = "o0"
    return doc


@pytest.mark.parametrize("make,argv,message", [
    (_colour_twice, ["kan", "check", "--bound", "2", "--format", "text"],
     "error: $.colours[2]: duplicate colour '0'\n"),
    (_object_twice, ["nerve", "dendrices", "--tree", "{c2}"],
     "error: $.objects[3]: duplicate object '1'\n"),
    (_misprofiled_composite, ["kan", "check", "--bound", "2"],
     "error: $.composition[831].result: profile of 'o2' is "
     "(('0', '0', '0', '0'), '0'), "
     "not the composite's (('0', '0', '0'), '0')\n"),
    (_misprofiled_identity, ["kan", "check", "--bound", "2", "--format", "text"],
     "error: $.identities.0: profile of 'o0' is (('0', '0'), '0'), "
     "not the identity's (('0',), '0')\n"),
    (_misprofiled_symmetry, ["kan", "check", "--bound", "2", "--format", "text"],
     "error: $.symmetry[1071].result: profile of 'o0' is (('0', '0'), '0'), "
     "not the permuted (('1', '0'), '1')\n"),
    (_braiding_emptied, ["kan", "check", "--bound", "2"],
     "error: $: braiding missing or wrong profile at (*,*)\n"),
], ids=["colour-twice", "object-twice", "misprofiled-composite",
        "misprofiled-identity", "misprofiled-symmetry", "braiding-emptied"])
def test_table_that_is_not_an_operad_is_input_error(capsys, tmp_path, c2_file,
                                                    make, argv, message):
    """Tables with a name listed twice, or a composite, identity or permuted
    operation of the wrong profile, get no verdict (they used to get one),
    nor does an SMC with missing rows (it used to get a bare `KeyError`):
    the command exits 2 with one stderr line."""
    path = tmp_path / "table.json"
    path.write_text(dumps(make()))
    argv = [a.format(c2=c2_file) for a in argv]
    assert main(argv[:2] + ["--operad", str(path)] + argv[2:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message

# -- deep inputs -------------------------------------------------------------

def test_deep_tree_dendrices_need_no_recursion(capsys, tmp_path):
    """The dendrex enumerator grows its labellings vertex by vertex without
    recursing, so a 3000-vertex linear tree lists its two dendrices on z2."""
    path = tmp_path / "linear3000.json"
    path.write_text(dumps(tree_to_json(linear(3000))))
    assert main(["nerve", "dendrices", "--operad", operad_file(tmp_path, "z2"),
                 "--tree", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "2 dendrices"
    assert captured.err == ""


# -- byte-determinism across processes ----------------------------------------

def test_codim_certificate_json_independent_of_hash_seed(tmp_path):
    """`lemma verify --id 8.3` prints the same bytes whatever the string
    hash seed of the process, for every vertex of the tree."""
    path = tmp_path / "t5.json"
    path.write_text(dumps(tree_to_json(T5)))
    src = str(Path(dendro.__file__).resolve().parent.parent)
    for v in sorted(w.output for w in T5.vertices):
        outputs = set()
        for seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "dendro.cli", "lemma", "verify",
                 "--id", "8.3", "--tree", str(path), "--v", v, "--format", "json"],
                capture_output=True, text=True, env=env, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1, v


def test_anodyne_search_t5_inner_horn_stdout(capsys, tmp_path):
    """The exact stdout of the search, with its count of candidates
    examined, in both formats."""
    path = tmp_path / "t5.json"
    path.write_text(dumps(tree_to_json(T5)))
    argv = ["anodyne", "search", "--tree", str(path), "--omit", "inner:r",
            "--class", "inner"]
    assert main(argv + ["--format", "text"]) == 0
    assert capsys.readouterr().out == "found: 1 steps (2 candidates examined)\n"
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "f6e6bbb90d12d834127b0c5e151336c32b4b204785c50a245ce2ef59ae6b4312"
