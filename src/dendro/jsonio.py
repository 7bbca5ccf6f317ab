"""JSON serialization for trees, operads, monoidal categories, certificates
and Kan reports.

Loading validates against the published schemas and reports violations with
the JSON path of the offending field.  Emission is deterministic (sorted
keys, fixed element order), so identical inputs produce identical bytes.
"""

from __future__ import annotations

import io
import json
from itertools import islice
from typing import Any

from .anodyne import (Certificate, HornStep, NestedStep, certificate_class,
                      class_phrase, parse_class)
from .kan import KanReport
from .nerves import Dendrex, tuple_getter
from .operads import (CORPUS, FiniteOperad, FiniteSMC, SMCOperad, TableOperad,
                      table_operad_from, validate_smc)
from .trees import FACE_KINDS, Tree, TreeError, Vertex


class SchemaError(ValueError):
    """A JSON document does not match its schema; `path` pinpoints where."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


_TYPE_NAMES = {dict: "object", list: "array", str: "string", int: "integer",
               bool: "boolean"}
_INT = {int}    # the one type a sigma element may have


def _as(value, typ, path: str):
    if typ is int and isinstance(value, bool):
        raise SchemaError(path, "expected integer, got boolean")
    if not isinstance(value, typ):
        raise SchemaError(path, f"expected {_TYPE_NAMES[typ]}, "
                                f"got {type(value).__name__}")
    return value


def _field(data: dict, key: str, typ, path: str):
    if key not in data:
        raise SchemaError(path, f"missing field {key!r}")
    return _as(data[key], typ, f"{path}.{key}")


def _known(name: str, names: dict, what: str, path: str) -> str:
    """The object `names` maps the known `name` to."""
    if name not in names:
        raise SchemaError(path, f"unknown {what} {name!r}")
    return names[name]


def _rows(data: dict, table: str, fields, path: str):
    """Yields the index and the field values of each row of the array
    `data[table]`, checking the fields in the order given.

    Each field is (key, type, names, what): the value is of that type and,
    unless `names` is None, a key of `names`, a known `what`, given as the
    object `names` maps it to, so the rows share one object per name.  The
    normal path tests exact types inline; only a failing check formats its
    path."""
    for k, row in enumerate(_field(data, table, list, path)):
        if type(row) is not dict:
            _as(row, dict, f"{path}.{table}[{k}]")
        values = []
        for key, typ, names, what in fields:
            value = row.get(key)
            if type(value) is not typ:
                value = _field(row, key, typ, f"{path}.{table}[{k}]")
            if names is not None:
                known = names.get(value)
                if known is None:
                    raise SchemaError(f"{path}.{table}[{k}].{key}",
                                      f"unknown {what} {value!r}")
                value = known
            values.append(value)
        yield k, values


def _names(data: dict, key: str, what: str, path: str) -> dict:
    """The array of distinct strings `data[key]` as a dict from each name
    to itself, in document order."""
    names: dict = {}
    for k, name in enumerate(_field(data, key, list, path)):
        if type(name) is not str:
            _as(name, str, f"{path}.{key}[{k}]")
        if name in names:
            raise SchemaError(f"{path}.{key}[{k}]", f"duplicate {what} {name!r}")
        names[name] = name
    return names


def _string_list(value, path: str) -> list[str]:
    _as(value, list, path)
    return [_as(x, str, f"{path}[{i}]") for i, x in enumerate(value)]


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)
_BATCH = 4096       # encoder chunks joined at a time


def dumps(obj: Any) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` and a newline, written
    in batches of chunks: with an indent the encoder is the pure-Python one,
    and `json.dumps` holds all its chunks in one list before joining them,
    about 8.5 times the output's size; this holds about twice the output."""
    out = io.StringIO()
    chunks = _ENCODER.iterencode(obj)
    while batch := "".join(islice(chunks, _BATCH)):
        out.write(batch)
    out.write("\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

def tree_to_json(tree: Tree) -> dict:
    return {"edges": sorted(tree.edges),
            "vertices": [{"inputs": list(v.inputs), "output": v.output}
                         for v in tree.vertices],
            "root": tree.root}


def tree_from_json(data, path: str = "$") -> Tree:
    _as(data, dict, path)
    edges = _names(data, "edges", "edge", path)
    root = _field(data, "root", str, path)
    raw = _field(data, "vertices", list, path)
    vertices = []
    for i, v in enumerate(raw):
        vp = f"{path}.vertices[{i}]"
        _as(v, dict, vp)
        inputs = _string_list(_field(v, "inputs", list, vp), f"{vp}.inputs")
        output = _field(v, "output", str, vp)
        vertices.append(Vertex(tuple(inputs), output))
    try:
        tree = Tree(tuple(vertices), root)
    except TreeError as exc:
        raise SchemaError(path, str(exc)) from None
    if edges.keys() != tree.edges:
        raise SchemaError(f"{path}.edges",
                          "edge list disagrees with the vertex data")
    return tree


# ---------------------------------------------------------------------------
# operads and monoidal categories
# ---------------------------------------------------------------------------

def operad_to_json(p: FiniteOperad, max_arity: int = 3) -> dict:
    if not isinstance(p, TableOperad):
        p = table_operad_from(p, max_arity)
    ops = list(p.profiles)
    if all(isinstance(o, str) for o in ops):    # named, in the table's own order
        name = {o: o for o in ops}
    else:
        ops.sort(key=str)
        name = {o: f"o{i}" for i, o in enumerate(ops)}
    rank = {o: i for i, o in enumerate(ops)}
    return {
        "colours": sorted(p.colours),
        "operations": [{"name": name[o], "inputs": list(p.profiles[o][0]),
                        "output": p.profiles[o][1]} for o in ops],
        "identities": {c: name[i] for c, i in sorted(p.identities_table.items())},
        "composition": [{"f": name[f], "i": i, "g": name[g], "result": name[h]}
                        for (f, i, g), h in sorted(p.composition.items(), key=lambda kv: (
                            rank[kv[0][0]], kv[0][1], rank[kv[0][2]]))],
        "symmetry": [{"f": name[f], "sigma": list(s), "result": name[g]}
                     for (f, s), g in sorted(p.symmetry.items(),
                                             key=lambda kv: (rank[kv[0][0]], kv[0][1]))],
    }


def operad_from_json(data, path: str = "$") -> TableOperad:
    _as(data, dict, path)
    colours = _names(data, "colours", "colour", path)
    profiles: dict = {}
    for i, op in enumerate(_field(data, "operations", list, path)):
        op_path = f"{path}.operations[{i}]"
        _as(op, dict, op_path)
        nm = _field(op, "name", str, op_path)
        if nm in profiles:
            raise SchemaError(f"{op_path}.name", f"duplicate operation name {nm!r}")
        inputs = _string_list(_field(op, "inputs", list, op_path), f"{op_path}.inputs")
        output = _field(op, "output", str, op_path)
        for c in inputs + [output]:
            _known(c, colours, "colour", op_path)
        profiles[nm] = (tuple(inputs), output)
    op = ({nm: nm for nm in profiles}, "operation")
    identities = {}
    ids = _field(data, "identities", dict, path)
    for c, nm in sorted(ids.items()):
        ip = f"{path}.identities.{c}"
        _known(c, colours, "colour", ip)
        identities[c] = _known(_as(nm, str, ip), *op, ip)
        if profiles[nm] != ((c,), c):
            raise SchemaError(ip, f"profile of {nm!r} is {profiles[nm]}, "
                                  f"not the identity's {((c,), c)}")
    missing = [c for c in colours if c not in identities]
    if missing:
        raise SchemaError(f"{path}.identities", f"no identity for colours {missing}")
    composition = {}
    for k, (f, g, h, pos) in _rows(data, "composition", (
            ("f", str, *op), ("g", str, *op), ("result", str, *op),
            ("i", int, None, None)), path):
        f_in, f_out = profiles[f]
        if not 0 <= pos < len(f_in):
            raise SchemaError(f"{path}.composition[{k}].i",
                              f"input index {pos} out of range for {f!r}")
        g_in, g_out = profiles[g]
        if g_out != f_in[pos]:
            raise SchemaError(f"{path}.composition[{k}].g",
                              f"output {g_out!r} of {g!r} is not input {pos} "
                              f"({f_in[pos]!r}) of {f!r}")
        composite = (f_in[:pos] + g_in + f_in[pos + 1:], f_out)
        if profiles[h] != composite:
            raise SchemaError(f"{path}.composition[{k}].result",
                              f"profile of {h!r} is {profiles[h]}, "
                              f"not the composite's {composite}")
        if (f, pos, g) in composition:
            raise SchemaError(f"{path}.composition[{k}]",
                              f"duplicate row for f={f!r}, i={pos}, g={g!r}")
        composition[(f, pos, g)] = h
    symmetry = {}
    permutations: dict = {}     # sigma -> (the one stored sigma, its action)
    for k, (f, g, sigma) in _rows(data, "symmetry", (
            ("f", str, *op), ("result", str, *op),
            ("sigma", list, None, None)), path):
        if not _INT.issuperset(map(type, sigma)):
            for j, x in enumerate(sigma):
                _as(x, int, f"{path}.symmetry[{k}].sigma[{j}]")
        sigma = tuple(sigma)
        f_in, f_out = profiles[f]
        known = permutations.get(sigma)
        if known is None and sorted(sigma) == list(range(len(sigma))):
            known = permutations[sigma] = (sigma, tuple_getter(sigma))
        if known is None or len(sigma) != len(f_in):
            raise SchemaError(f"{path}.symmetry[{k}].sigma",
                              f"not a permutation of the inputs of {f!r}")
        sigma, permute = known
        permuted = (permute(f_in), f_out)
        if profiles[g] != permuted:
            raise SchemaError(f"{path}.symmetry[{k}].result",
                              f"profile of {g!r} is {profiles[g]}, "
                              f"not the permuted {permuted}")
        if (f, sigma) in symmetry:
            raise SchemaError(f"{path}.symmetry[{k}]",
                              f"duplicate row for f={f!r}, sigma={list(sigma)}")
        symmetry[(f, sigma)] = g
    return TableOperad(colours=tuple(colours), profiles=profiles,
                       identities_table=identities, composition=composition,
                       symmetry=symmetry)


def smc_to_json(c: FiniteSMC) -> dict:
    return {
        "objects": sorted(c.objects),
        "unit": c.unit,
        "morphisms": [{"name": m, "dom": d, "cod": co}
                      for m, (d, co) in sorted(c.profile.items())],
        "identities": dict(sorted(c.identities.items())),
        "compose": [{"g": g, "f": f, "result": h}
                    for (g, f), h in sorted(c.compose.items())],
        "tensor_objects": [{"a": a, "b": b, "result": r}
                           for (a, b), r in sorted(c.tensor_obj.items())],
        "tensor_morphisms": [{"f": f, "g": g, "result": r}
                             for (f, g), r in sorted(c.tensor_mor.items())],
        "braiding": [{"a": a, "b": b, "result": r}
                     for (a, b), r in sorted(c.braiding.items())],
    }


def smc_from_json(data, path: str = "$") -> FiniteSMC:
    _as(data, dict, path)
    objects = _names(data, "objects", "object", path)
    unit = _field(data, "unit", str, path)
    profile: dict[str, tuple[str, str]] = {}
    for i, m in enumerate(_field(data, "morphisms", list, path)):
        mp = f"{path}.morphisms[{i}]"
        _as(m, dict, mp)
        nm = _field(m, "name", str, mp)
        if nm in profile:
            raise SchemaError(f"{mp}.name", f"duplicate morphism name {nm!r}")
        dom, cod = _field(m, "dom", str, mp), _field(m, "cod", str, mp)
        for o in (dom, cod):
            _known(o, objects, "object", mp)
        profile[nm] = (dom, cod)
    mor, obj = ({m: m for m in profile}, "morphism"), (objects, "object")

    def table(name, k1, k2, key, result):
        """Rows {k1, k2, "result"} as a dict (k1, k2) -> result, keys and
        result known as `key` and `result` say; each row's result is checked
        before its keys."""
        out = {}
        for i, (r, a, b) in _rows(data, name, (
                ("result", str, *result), (k1, str, *key), (k2, str, *key)), path):
            if (a, b) in out:
                raise SchemaError(f"{path}.{name}[{i}]",
                                  f"duplicate row for {k1}={a!r}, {k2}={b!r}")
            out[(a, b)] = r
        return out

    identities = {}
    for o, m in sorted(_field(data, "identities", dict, path).items()):
        ip = f"{path}.identities.{o}"
        _known(o, *obj, ip)
        identities[o] = _known(_as(m, str, ip), *mor, ip)
    compose = table("compose", "g", "f", mor, mor)
    t_obj = table("tensor_objects", "a", "b", obj, obj)
    t_mor = table("tensor_morphisms", "f", "g", mor, mor)
    braid = table("braiding", "a", "b", obj, mor)
    _known(unit, objects, "object", f"{path}.unit")
    return FiniteSMC(objects=tuple(objects), unit=unit, profile=profile,
                     compose=compose, identities=identities, tensor_obj=t_obj,
                     tensor_mor=t_mor, braiding=braid)


def load_operad(data, path: str = "$") -> FiniteOperad:
    """Accepts an explicit operad table, a monoidal category that passes
    `validate_smc` (its operad), or {"corpus": name} naming a built-in example."""
    _as(data, dict, path)
    if "corpus" in data:
        name = _as(data["corpus"], str, f"{path}.corpus")
        if name not in CORPUS:
            raise SchemaError(f"{path}.corpus",
                              f"unknown corpus operad {name!r}; "
                              f"choices: {', '.join(sorted(CORPUS))}")
        return CORPUS[name]()
    if "objects" in data:
        smc = smc_from_json(data, path)
        for violation in validate_smc(smc):
            raise SchemaError(path, violation)
        return SMCOperad(smc)
    if "colours" in data:
        return operad_from_json(data, path)
    raise SchemaError(path, "expected an operad table ('colours'), a monoidal "
                            "category ('objects') or a corpus reference")


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def certificate_to_json(cert: Certificate) -> dict:
    cls = certificate_class(cert)
    out = {"ambient": [tree_to_json(g) for g in cert.ambient_generators],
           "start": [sorted(c) for c in cert.start],
           "target": [sorted(c) for c in cert.target],
           "class": class_phrase(cls) if cls is not None else None}
    if cert.kind == "retract":
        out["steps"] = [{"type": "retract",
                         "sub": certificate_to_json(cert.sub),
                         "section": [list(p) for p in cert.section],
                         "retraction": [list(p) for p in cert.retraction]}]
        return out
    steps = []
    for step in cert.steps:
        if isinstance(step, HornStep):
            steps.append({"type": "horn",
                          "additions": [{"cell": sorted(step.cell),
                                         "omit": list(step.omitted)}]})
        else:
            steps.append({"type": "nested", "cell": sorted(step.cell),
                          "certificate": certificate_to_json(step.certificate)})
    out["steps"] = steps
    return out


def _cell_from_json(value, path: str) -> frozenset:
    return frozenset(_string_list(value, path))


def _omit_from_json(value, path: str) -> tuple[str, str]:
    kind, label = _pair_from_json(value, path, "a [kind, label]")
    if kind not in FACE_KINDS:
        raise SchemaError(f"{path}[0]", f"unknown face kind {kind!r}")
    return kind, label


def certificate_from_json(data, path: str = "$") -> Certificate:
    _as(data, dict, path)
    generators = tuple(tree_from_json(t, f"{path}.ambient[{i}]")
                       for i, t in enumerate(_field(data, "ambient", list, path)))
    start = tuple(_cell_from_json(c, f"{path}.start[{i}]")
                  for i, c in enumerate(_field(data, "start", list, path)))
    target = tuple(_cell_from_json(c, f"{path}.target[{i}]")
                   for i, c in enumerate(_field(data, "target", list, path)))
    if "class" in data and data["class"] is not None:
        try:
            parse_class(_as(data["class"], str, f"{path}.class"))
        except ValueError as exc:
            raise SchemaError(f"{path}.class", str(exc)) from None
    raw_steps = _field(data, "steps", list, path)
    steps: list = []
    for i, s in enumerate(raw_steps):
        sp = f"{path}.steps[{i}]"
        _as(s, dict, sp)
        kind = _field(s, "type", str, sp)
        if kind == "retract":
            if len(raw_steps) != 1:
                raise SchemaError(sp, "a retract must be the only step")
            sub = certificate_from_json(_field(s, "sub", dict, sp), f"{sp}.sub")
            section = tuple(_pair_from_json(p, f"{sp}.section[{j}]")
                            for j, p in enumerate(_field(s, "section", list, sp)))
            retraction = tuple(_pair_from_json(p, f"{sp}.retraction[{j}]")
                               for j, p in enumerate(_field(s, "retraction", list, sp)))
            return Certificate(ambient_generators=generators, start=start,
                               target=target, kind="retract", sub=sub,
                               section=section, retraction=retraction)
        if kind == "horn":
            for j, add in enumerate(_field(s, "additions", list, sp)):
                ap = f"{sp}.additions[{j}]"
                _as(add, dict, ap)
                steps.append(HornStep(
                    _cell_from_json(_field(add, "cell", list, ap), f"{ap}.cell"),
                    _omit_from_json(_field(add, "omit", list, ap), f"{ap}.omit")))
        elif kind == "nested":
            steps.append(NestedStep(
                _cell_from_json(_field(s, "cell", list, sp), f"{sp}.cell"),
                certificate_from_json(_field(s, "certificate", dict, sp),
                                      f"{sp}.certificate")))
        else:
            raise SchemaError(f"{sp}.type", f"unknown step type {kind!r}")
    return Certificate(ambient_generators=generators, start=start,
                       target=target, kind="filtration", steps=tuple(steps))


def _pair_from_json(value, path: str, what: str = "an [edge, edge]") -> tuple[str, str]:
    parts = _string_list(value, path)
    if len(parts) != 2:
        raise SchemaError(path, f"expected {what} pair")
    return (parts[0], parts[1])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def dendrex_to_json(d: Dendrex) -> dict:
    return {"colours": dict(sorted(d.edge_colours.items())),
            "operations": {out: str(op) for out, op in sorted(d.vertex_ops.items())}}


def kan_report_to_json(rep: KanReport) -> dict:
    witnesses = []
    for w in rep.witnesses:
        witnesses.append({
            "tree": tree_to_json(w.tree),
            "omitted": list(w.omitted),
            "horn_class": w.horn_class,
            "issue": w.issue,
            "filler_count": w.filler_count,
            "horn_map": [{"face": list(key), **dendrex_to_json(d)}
                         for key, d in sorted(w.horn_map.assignment)],
        })
    return {"operad": rep.operad_name, "max_vertices": rep.max_vertices,
            "max_arity": rep.max_arity, "inner_kan": rep.inner_kan,
            "dendroidal_kan": rep.dendroidal_kan, "fully_kan": rep.fully_kan,
            "strict": rep.strict, "fully_unique": rep.fully_unique,
            "horns_checked": rep.horns_checked, "witnesses": witnesses}
