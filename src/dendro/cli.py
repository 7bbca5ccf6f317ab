"""Command-line surface: trees, nerves, Kan reports, shuffles, certificates.

Exit codes: 0 the command succeeded and the checked property holds; 1 the
property was checked and fails (invalid certificate, missing fillers,
definitively no certificate); 2 usage or input errors (including schema
violations and exhausted search budgets).
"""

from __future__ import annotations

import argparse
import json
import sys

from .anodyne import class_phrase, parse_class, search_certificate, verify_certificate
from .complexes import representable
from .dot import tree_to_dot
from .jsonio import (SchemaError, certificate_from_json, certificate_to_json,
                     dendrex_to_json, dumps, kan_report_to_json, load_operad,
                     tree_from_json, tree_to_json)
from .kan import arity_needed, kan_report
from .lemmas import LEMMA_IDS, LEMMAS, build_lemma_certificate
from .nerves import dendrices, simplex_counts
from .operads import TableOperad
from .shuffles import shuffles
from .trees import FACE_KINDS, build_standard, classify_edges, faces


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"{path}: invalid JSON ({exc})") from None


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_face_key(text: str) -> tuple[str, str]:
    kind, sep, label = text.partition(":")
    if not sep or kind not in FACE_KINDS:
        raise ValueError(f"expected KIND:LABEL with kind in "
                         f"{'/'.join(FACE_KINDS)}, got {text!r}")
    return (kind, label)


def _add_format(p: argparse.ArgumentParser, default: str, choices) -> None:
    p.add_argument("--format", default=default, choices=choices)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    """Usage errors as one line on stderr (no usage block), exit code 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_tree(args) -> int:
    if args.action == "build":
        tree = build_standard(args.kind, *args.params)
    else:
        tree = tree_from_json(_load_json(args.tree))
    if args.format == "dot":
        _emit(tree_to_dot(tree))
        return 0
    if args.action == "faces":
        items = [{"kind": f.kind, "label": f.label,
                  "edges": sorted(f.subtree.edges)} for f in faces(tree)]
        if args.format == "json":
            _emit(dumps(items))
        else:
            for it in items:
                _emit(f"{it['kind']}:{it['label']} -> ({', '.join(it['edges'])})")
        return 0
    if args.format == "json":
        _emit(dumps(tree_to_json(tree)))
        return 0
    kinds = classify_edges(tree)
    _emit(f"root: {tree.root}")
    for e in sorted(tree.edges):
        _emit(f"edge {e}: {kinds[e]}")
    for v in tree.vertices:
        _emit(f"vertex ({', '.join(v.inputs)}) -> {v.output}")
    return 0


def _cmd_nerve(args) -> int:
    p = load_operad(_load_json(args.operad))
    if args.action == "dendrices":
        tree = tree_from_json(_load_json(args.tree))
        ds = dendrices(p, tree)
        if args.format == "json":
            _emit(dumps([dendrex_to_json(d) for d in ds]))
        else:
            _emit(f"{len(ds)} dendrices")
            for d in ds:
                _emit("  " + repr(d))
        return 0
    # the k-simplices are the dendrices of linear(k), counted without listing
    counts = dict(enumerate(simplex_counts(p, args.dim)))
    if args.format == "json":
        _emit(dumps({str(k): v for k, v in counts.items()}))
    else:
        for k, v in counts.items():
            _emit(f"dim {k}: {v} simplices")
    return 0


def _cmd_kan(args) -> int:
    p = load_operad(_load_json(args.operad))
    need = arity_needed(args.bound, args.max_arity)
    if isinstance(p, TableOperad) and p.arity < need:
        raise ValueError(f"--bound {args.bound} with --max-arity {args.max_arity} "
                         f"needs a table of arity {need}; this one stops at "
                         f"arity {p.arity}")
    rep = kan_report(p, args.bound, max_arity=args.max_arity)
    if args.format == "json":
        _emit(dumps(kan_report_to_json(rep)))
    else:
        _emit(rep.summary())
    ok = rep.fully_kan and (rep.strict if args.strict else True)
    return 0 if ok else 1


def _cmd_shuffle(args) -> int:
    s = tree_from_json(_load_json(args.tree))
    shs = shuffles(s, args.n)
    if args.format == "json":
        _emit(dumps([tree_to_json(t) for t in shs]))
    elif args.format == "dot":
        _emit("".join(tree_to_dot(t, name=f"shuffle_{i}")
                      for i, t in enumerate(shs)))
    else:
        for t in shs:
            _emit("(" + ", ".join(sorted(t.edges)) + ")")
    return 0


def _report_json(rep) -> dict:
    return {"valid": rep.valid,
            "steps": rep.step_count,
            "class": class_phrase(rep.overall_class)
            if rep.overall_class is not None else None,
            "violations": [str(v) for v in rep.violations]}


def _report_output(rep, fmt: str) -> None:
    if fmt == "json":
        _emit(dumps(_report_json(rep)))
    else:
        _emit(rep.summary())
        for v in rep.violations:
            _emit("  " + str(v))


def _cmd_anodyne(args) -> int:
    if args.action == "verify":
        cert = certificate_from_json(_load_json(args.cert))
        rep = verify_certificate(cert)
        _report_output(rep, args.format)
        return 0 if rep.valid else 1
    tree = tree_from_json(_load_json(args.tree))
    amb = representable(tree)
    omitted = _parse_face_key(args.omit)
    start = amb.horn_subcomplex(tree.edges, omitted)
    res = search_certificate(amb, start, amb.full(),
                             allowed=parse_class(args.anodyne_class),
                             budget=args.budget)
    if res.certificate is not None:
        if args.format == "json":
            _emit(dumps(certificate_to_json(res.certificate)))
        else:
            _emit(f"found: {len(res.certificate.steps)} steps "
                  f"({res.examined} candidates examined)")
        return 0
    if res.exhausted_budget:
        print(f"error: search budget exhausted after {res.examined} candidates",
              file=sys.stderr)
        return 2
    _emit(f"no certificate of class {args.anodyne_class} "
          f"({res.examined} candidates examined)")
    return 1


def _cmd_lemma(args) -> int:
    if args.action == "list":
        for lid in LEMMA_IDS:
            _emit(lid)
        return 0
    _, required, optional = LEMMAS[args.id]
    if any(getattr(args, p) is None for p in required):
        raise ValueError(f"--id {args.id} requires "
                         + " and ".join(f"--{p}" for p in required))
    options = dict.fromkeys(q for _, req, opt in LEMMAS.values() for q in req + opt)
    extra = [p for p in options if p not in required + optional and getattr(args, p) is not None]
    if extra:
        raise ValueError(f"--id {args.id} does not take "
                         + ", ".join("--omit" if p == "omitted" else f"--{p}" for p in extra))
    params = {p: getattr(args, p) for p in required + optional}
    if "tree" in params:
        params["tree"] = tree_from_json(_load_json(params["tree"]))
    if params.get("omitted") is not None:
        params["omitted"] = _parse_face_key(params["omitted"])
    cert = build_lemma_certificate(args.id, **params)
    rep = verify_certificate(cert)
    if args.format == "json":
        _emit(dumps({**_report_json(rep), "certificate": certificate_to_json(cert)}))
    elif rep.valid:
        _emit(f"valid ({class_phrase(rep.overall_class)})"
              if rep.overall_class is not None else "valid (no steps)")
    else:
        _report_output(rep, "text")
    return 0 if rep.valid else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dendro",
        description="Trees, nerves of finite operads, shuffles and "
                    "anodyne-extension certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    tree_p = sub.add_parser("tree", help="build and inspect trees")
    tree_sub = tree_p.add_subparsers(dest="action", required=True)
    build = tree_sub.add_parser("build")
    build.add_argument("--kind", required=True,
                       choices=["eta", "corolla", "linear", "extended_corolla"])
    build.add_argument("--params", type=int, nargs="*", default=[])
    _add_format(build, "json", ["json", "dot", "text"])
    show = tree_sub.add_parser("show")
    show.add_argument("--tree", required=True)
    _add_format(show, "text", ["json", "dot", "text"])
    faces_p = tree_sub.add_parser("faces")
    faces_p.add_argument("--tree", required=True)
    _add_format(faces_p, "text", ["json", "text"])

    nerve_p = sub.add_parser("nerve", help="dendrices of operad nerves")
    nerve_sub = nerve_p.add_subparsers(dest="action", required=True)
    dx = nerve_sub.add_parser("dendrices")
    dx.add_argument("--operad", required=True)
    dx.add_argument("--tree", required=True)
    _add_format(dx, "text", ["json", "text"])
    ss = nerve_sub.add_parser("sset")
    ss.add_argument("--operad", required=True)
    ss.add_argument("--dim", type=_int_at_least(0), required=True)
    _add_format(ss, "text", ["json", "text"])

    kan_p = sub.add_parser("kan", help="Kan-condition reports")
    kan_sub = kan_p.add_subparsers(dest="action", required=True)
    check = kan_sub.add_parser("check")
    check.add_argument("--operad", required=True)
    check.add_argument("--bound", type=_int_at_least(1), required=True)
    check.add_argument("--max-arity", type=_int_at_least(1), default=3)
    check.add_argument("--strict", action="store_true")
    _add_format(check, "json", ["json", "text"])

    sh_p = sub.add_parser("shuffle", help="shuffles against linear trees")
    sh_sub = sh_p.add_subparsers(dest="action", required=True)
    ls = sh_sub.add_parser("list")
    ls.add_argument("--tree", required=True)
    ls.add_argument("--n", type=_int_at_least(0), required=True)
    _add_format(ls, "text", ["json", "dot", "text"])

    an_p = sub.add_parser("anodyne", help="certificate verification and search")
    an_sub = an_p.add_subparsers(dest="action", required=True)
    ver = an_sub.add_parser("verify")
    ver.add_argument("--cert", required=True)
    _add_format(ver, "text", ["json", "text"])
    srch = an_sub.add_parser("search")
    srch.add_argument("--tree", required=True)
    srch.add_argument("--omit", required=True,
                      help="omitted face of the starting horn, KIND:LABEL")
    srch.add_argument("--class", dest="anodyne_class", default="inner")
    srch.add_argument("--budget", type=_int_at_least(1), default=100_000)
    _add_format(srch, "json", ["json", "text"])

    lem_p = sub.add_parser("lemma", help="built-in certificate families")
    lem_sub = lem_p.add_subparsers(dest="action", required=True)
    lem_sub.add_parser("list")
    lver = lem_sub.add_parser("verify")
    lver.add_argument("--id", required=True, choices=list(LEMMA_IDS))
    lver.add_argument("--n", type=int)
    lver.add_argument("--k", type=int)
    lver.add_argument("--tree")
    lver.add_argument("--v")
    lver.add_argument("--omit", dest="omitted")
    _add_format(lver, "text", ["json", "text"])
    return parser


_DISPATCH = {"tree": _cmd_tree, "nerve": _cmd_nerve, "kan": _cmd_kan,
             "shuffle": _cmd_shuffle, "anodyne": _cmd_anodyne,
             "lemma": _cmd_lemma}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    # SchemaError, TreeError and BuildError are ValueErrors
    except (ValueError, OSError, KeyError, RecursionError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
