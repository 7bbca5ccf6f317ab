"""The public surface: the names `dendro/__init__.py` exports.

A change that removes, renames or adds one of them must update this list on
purpose; refactors that keep the API are checked against it.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import dendro

PUBLIC_NAMES = {
    "AnodyneClass", "BuildError", "CORPUS", "Cell", "Certificate", "Complex",
    "Dendrex", "FaceDescriptor", "FiniteOperad", "FiniteSMC", "HornMap",
    "HornSpec", "HornStep", "HornWitness", "KanReport", "LEMMA_IDS",
    "NestedStep", "SMCOperad", "SearchResult", "Subcomplex", "TableOperad",
    "Tree", "TreeError", "VerificationReport", "Vertex", "Violation",
    "binary_tensor_certificate", "build_filtration", "build_lemma_certificate",
    "build_standard", "c2", "c2_shuffle", "c2_tensor_complex",
    "certificate_class", "check_dendrex", "class_phrase", "classify_edges",
    "classify_horn", "closure_cells", "codim_certificate", "corolla",
    "degeneracy_of", "dendrex_closure", "dendrices", "enumerate_horn_maps",
    "eta", "extended_corolla", "extended_corolla_split_certificate", "face",
    "face_of", "faces", "fillers", "filtration_base", "generator_class",
    "graft", "has_root_horn", "horn", "is_degenerate", "isomorphic",
    "isomorphisms", "kan_report", "linear", "named_cell", "parse_class",
    "picard_check", "representable", "root_horn_certificate",
    "search_certificate", "shuffles", "split_vertex_tree",
    "subtree_from_edges", "table_operad_from", "tensor_complex",
    "tree_shapes", "tree_to_dot", "underlying_sset", "validate_operad",
    "validate_smc", "verify_certificate",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(dendro).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


def _load_tracing():
    """The benchmark's tracer module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    """Every function and method the benchmark's tracer patches exists, so a
    refactor that renames one fails here rather than in a traced run."""
    tracing = _load_tracing()
    for name, _ in tracing.FUNCTIONS:
        layer, attr = name.split(".")
        assert hasattr(importlib.import_module(f"dendro.{layer}"), attr), name
    for layer, cls_name, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"dendro.{layer}"), cls_name)
        assert attr in cls.__dict__, (cls_name, attr)


def test_traced_certificate_counts_generator_classes():
    """Building and verifying a retract `8.5` certificate classes its horn
    steps through the traced `anodyne.generator_class`: a private copy of a
    traced function would read 0 here."""
    tracing = _load_tracing()
    layers = ({name.split(".")[0] for name, _ in tracing.FUNCTIONS}
              | {layer for layer, *_ in tracing.METHODS})
    d = types.SimpleNamespace(**{m: importlib.import_module(f"dendro.{m}") for m in layers})
    tree = d.trees.graft(d.trees.c2(), "a", d.trees.corolla(2, ("p", "q"), "a"))
    assert not d.trees.is_extended_corolla(tree)
    tracer = tracing.Tracer()
    tracer.install(d)
    try:
        cert = d.lemmas.root_horn_certificate(tree)
        assert cert.kind == "retract"
        assert d.anodyne.verify_certificate(cert).valid
    finally:
        tracer.uninstall()
    assert tracer.metrics(0.0)["anodyne.generator_class.calls"] > 0
