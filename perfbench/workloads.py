"""The benchmark workloads: their queries, goldens and theorem checks.

A query is one call a user makes: a Kan report, building and verifying one
certificate, one search plus verification of what it found, or one CLI
invocation.  Every query has a text key from which it is rebuilt.  `run` is
the timed part; `digest` and `check` run after the pass, untimed.  `digest`
must equal the golden recorded at the reference commit (byte identity of
the output); `check` tests known theorems and does not depend on the
goldens.

A `Workload` gives
- `keys(d)`: every query a run can draw on (the goldens cover them all);
- `inputs(d, workdir)`: writes the input files, returns name -> path;
- `select(goldens, rng)`: one run's query keys, in order, from the seed;
- `query(d, key, paths)`: the query with that key;
- `one_shot`: whether each query starts from a fresh import of dendro, as
  a process of its own would, rather than sharing one with its pass.
`d` is a namespace of freshly imported dendro modules.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Query:
    key: str
    run: Callable[[], Any]
    digest: Callable[[Any], str]
    check: Callable[[Any], list]
    # the work an output took, recorded with the goldens to balance samples
    cost: Callable[[Any], int] = field(default=lambda out: 0)


@dataclass
class Workload:
    keys: Callable
    inputs: Callable
    select: Callable
    query: Callable
    one_shot: bool = False     # each query runs on a fresh import of dendro


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cert_json(d, cert) -> str:
    """certificate_to_json as canonical text, with each start list sorted:
    at the reference commit the order of the 8.3 start cells follows frozenset
    iteration (codim_base_cells), so it changes with PYTHONHASHSEED."""
    def sort_starts(obj):
        if isinstance(obj, dict):
            return {k: sorted(v) if k == "start" else sort_starts(v)
                    for k, v in obj.items()}
        if isinstance(obj, list):
            return [sort_starts(x) for x in obj]
        return obj
    return canonical(sort_starts(d.jsonio.certificate_to_json(cert)))


def tree_key(tree) -> str:
    """The labelled tree as text: root, then its vertices."""
    vs = sorted(f"{','.join(v.inputs)}>{v.output}" for v in tree.vertices)
    return f"{tree.root}:{';'.join(vs)}"


def tree_from_key(d, text: str):
    """The tree `tree_key` wrote, its vertices in depth-first order from the
    root, inputs left to right: the order `kan.tree_shapes` builds."""
    root, _, body = text.partition(":")
    above = {}
    for v in body.split(";"):
        ins, _, out = v.partition(">")
        above[out] = tuple(ins.split(",")) if ins else ()
    vertices = []

    def visit(edge):
        if edge in above:
            vertices.append(d.trees.Vertex(above[edge], edge))
            for e in above[edge]:
                visit(e)
    visit(root)
    return d.trees.Tree(tuple(vertices), root)


def no_inputs(d, workdir) -> dict:
    return {}


def shuffled(name: str):
    def select(goldens, rng):
        keys = sorted(goldens[name])
        rng.shuffle(keys)
        return keys
    return select


# ---------------------------------------------------------------------------
# kan_corpus: exhaustive Kan reports on nerves of SMC-derived operads
# ---------------------------------------------------------------------------

# z3, z4 and z2xz2 at bound 3 take 4-7 s and about 45 s each: too long to
# repeat within a run, and bound 2 runs the same code.
KAN_QUERIES = (("z2", 3), ("bz2", 3), ("mult01", 3),
               ("z3", 2), ("z4", 2), ("z2xz2", 2))


def kan_keys(d):
    return [f"{name}@{bound}" for name, bound in KAN_QUERIES]


def kan_query(d, key, paths):
    name, bound = key.split("@")
    return Query(key,
                 lambda: d.kan.kan_report(d.operads.CORPUS[name](), int(bound),
                                          name=name),
                 lambda rep: sha(canonical(d.jsonio.kan_report_to_json(rep))),
                 lambda rep: _kan_theorems(name, rep))


def _kan_theorems(name: str, rep) -> list:
    """Discrete abelian groups are fully Kan with unique fillers; the
    one-object groupoid BZ/2 is fully Kan and strict but not unique; the
    monoid ({0,1}, x) is inner Kan and fails only at root horns."""
    bad = []
    if rep.horns_checked == 0:
        bad.append("no horns checked")
    if name.startswith("z"):
        if not (rep.fully_kan and rep.fully_unique):
            bad.append("a discrete abelian group is not fully Kan with unique fillers")
    elif name == "bz2":
        if not (rep.fully_kan and rep.strict) or rep.fully_unique:
            bad.append("BZ/2 is not fully Kan, strict and non-unique")
    elif name == "mult01":
        if not rep.inner_kan or rep.fully_kan:
            bad.append("mult01 is not inner Kan yet not fully Kan")
        if any(w.issue == "unfillable" and w.horn_class != "root"
               for w in rep.witnesses):
            bad.append("mult01 has an unfillable non-root horn")
    return bad


# ---------------------------------------------------------------------------
# certify: build and verify the built-in certificate families, and search
# ---------------------------------------------------------------------------

TENSOR_KEY = "tensor n=3"
SEARCH_BUDGET = 100_000
ROOT_HORN_SAMPLE = 16      # of 159 root-horn (8.5) certificates
CODIM_SAMPLE = 150         # of 859 codimension (8.3) certificates
SEARCH_SAMPLE = 10         # of 4,920 six-vertex codimension searches


def certify_keys(d):
    """`8.5 TREE OMIT`, `8.3 TREE v=EDGE`, `6.4 n=N`, `7.2 n=N k=K`, the
    tensor search and `codim TREE` searches."""
    keys = []
    shapes = d.kan.tree_shapes(4)
    for tree in shapes:
        if not d.trees.has_root_horn(tree):
            continue
        if len(tree.vertices) == 1:
            omits = [f"colour:{leaf}" for leaf in sorted(tree.leaves)]
        else:
            omits = ["-"]
        keys += [f"8.5 {tree_key(tree)} {om}" for om in omits]
    for tree in shapes:
        if len(tree.vertices) >= 2:
            keys += [f"8.3 {tree_key(tree)} v={v.output}" for v in tree.vertices]
    keys += [f"6.4 n={n}" for n in (1, 2, 3)]
    keys += [f"7.2 n={n} k={k}" for n in (1, 2, 3) for k in (1, 2, 3)]
    keys.append(TENSOR_KEY)
    keys += [f"codim {tree_key(tree)}" for tree in d.kan.tree_shapes(6)
             if len(tree.vertices) == 6]
    return keys


def stratified(pool, k: int, cost: dict) -> list:
    """The middle key of each of k equal strata of `pool` ordered by the
    cost recorded at the reference commit.  The sample is the same for every
    seed: seeded samples made the work differ between runs by more than the
    benchmark's bounds allow."""
    pool = sorted(pool, key=lambda key: (cost[key], key))
    return [pool[(2 * i + 1) * len(pool) // (2 * k)] for i in range(k)]


def certify_select(goldens, rng):
    """All 6.4 and 7.2 certificates, a stratified sample of the 8.5 and 8.3
    ones, the tensor search and a stratified sample of the six-vertex
    searches with a golden (not budget-exhausted) answer: a pass near 5 s,
    so that a run of 32 s repeats each query four times."""
    cost = goldens["cost"]["certify"]

    def family(prefix):
        return [key for key in goldens["certify"] if key.startswith(prefix)]

    picked = sorted(family(("6.4", "7.2", TENSOR_KEY)))
    picked += stratified(family("8.5"), ROOT_HORN_SAMPLE, cost)
    picked += stratified(family("8.3"), CODIM_SAMPLE, cost)
    picked += stratified(family("codim"), SEARCH_SAMPLE, cost)
    rng.shuffle(picked)
    return picked


def certify_query(d, key, paths):
    kind, *args = key.split(" ")
    lm = d.lemmas
    if kind == "8.5":
        tree = tree_from_key(d, args[0])
        omit = None if args[1] == "-" else tuple(args[1].split(":"))
        return _cert_query(d, key, lambda: lm.root_horn_certificate(tree, omit),
                           "EXTENDED_LEFT")
    if kind == "8.3":
        tree, v = tree_from_key(d, args[0]), args[1][len("v="):]
        return _cert_query(d, key, lambda: lm.codim_certificate(tree, v), "INNER")
    if kind == "6.4":
        n = int(args[0][len("n="):])
        return _cert_query(d, key, lambda: lm.binary_tensor_certificate(n),
                           "BINARY_EXTENDED_LEFT", bel_steps=1)
    if kind == "7.2":
        n, k = (int(a[len("n="):]) for a in args)
        return _cert_query(d, key, lambda: lm.extended_corolla_split_certificate(n, k),
                           "BINARY_EXTENDED_LEFT")
    if key == TENSOR_KEY:
        def tensor():
            base = d.shuffles.filtration_base(3)
            return base.ambient, base
        return _search_query(d, key, tensor, "BINARY_EXTENDED_LEFT", True)
    if kind == "codim":
        tree = tree_from_key(d, args[0])

        def codim():
            amb = d.complexes.representable(tree)
            return amb, amb.closure_subcomplex(lm.codim_base_cells(tree, tree.root))
        return _search_query(d, key, codim, "INNER", False)
    raise KeyError(key)


def _cert_query(d, key, build, ceiling: str, bel_steps: int | None = None):
    """Build and verify.  Checks: valid, with overall class at most
    `ceiling` (an empty filtration, an identity, is in every class); for
    the tensor family, exactly `bel_steps` binary-extended-left steps."""
    cls = d.anodyne.AnodyneClass
    verify = d.anodyne.verify_certificate

    def run():
        cert = build()
        return cert, verify(cert)

    def digest(out):
        cert, rep = out
        return sha(cert_json(d, cert) + "\n" + rep.summary() + "\n"
                   + "\n".join(map(str, rep.violations)))

    def check(out):
        _, rep = out
        bad = []
        if not rep.valid:
            bad.append(f"invalid: {rep.violations[:2]}")
        elif rep.overall_class is not None and rep.overall_class > cls[ceiling]:
            bad.append(f"class {rep.overall_class} above {ceiling}")
        if bel_steps is not None and \
                rep.classes_used.count(cls.BINARY_EXTENDED_LEFT) != bel_steps:
            bad.append("not exactly one binary extended left step")
        return bad

    return Query(key, run, digest, check, lambda out: out[1].step_count)


# depth-first certificate search, then verification of the result: many
# attachability probes against a subcomplex that grows and backtracks

def _search_query(d, key, inputs, allowed: str, must_find: bool):
    an = d.anodyne
    ceiling = an.AnodyneClass[allowed]

    def run():
        amb, start = inputs()
        res = an.search_certificate(amb, start, amb.full(), allowed=ceiling,
                                    budget=SEARCH_BUDGET)
        rep = an.verify_certificate(res.certificate) if res.certificate else None
        return res, rep

    def digest(out):
        res, rep = out
        if res.certificate is None:
            return "exhausted" if res.exhausted_budget else "none"
        return sha(cert_json(d, res.certificate) + "\n" + rep.summary())

    def check(out):
        res, rep = out
        if res.certificate is None:
            return ["no certificate found"] if must_find else []
        if not rep.valid:
            return [f"found certificate is invalid: {rep.violations[:2]}"]
        if rep.overall_class is not None and rep.overall_class > ceiling:
            return [f"found certificate has class {rep.overall_class}"]
        return []

    return Query(key, run, digest, check, lambda out: out[0].examined)


# ---------------------------------------------------------------------------
# cli: `dendro` commands in-process on JSON files written at set-up
# ---------------------------------------------------------------------------

def cli_inputs(d, workdir) -> dict:
    """Write the input files; returns name -> path."""
    ops, js, trees = d.operads, d.jsonio, d.trees
    t5 = trees.Tree((trees.Vertex(("u", "v"), "p"), trees.Vertex(("p",), "q"),
                     trees.Vertex(("q",), "r"), trees.Vertex(("w",), "x"),
                     trees.Vertex(("r", "x"), "c")), "c")
    files = {
        "z2_a5": js.operad_to_json(ops.table_operad_from(ops.CORPUS["z2"](), 5), 5),
        "mult01_a6": js.operad_to_json(
            ops.table_operad_from(ops.CORPUS["mult01"](), 6), 6),
        "bz2_smc": js.smc_to_json(ops.b_z2_smc()),
        "z3_smc": js.smc_to_json(ops.cyclic_group_smc(3)),
        "cert_64_3": js.certificate_to_json(d.lemmas.binary_tensor_certificate(3)),
        "c3": js.tree_to_json(trees.corolla(3)),
        "lin4": js.tree_to_json(trees.linear(4)),
        "ec22": js.tree_to_json(trees.extended_corolla(2, 2)),
        "ec32": js.tree_to_json(trees.extended_corolla(3, 2)),
        "t5": js.tree_to_json(t5),
    }
    paths = {}
    for name, obj in files.items():
        paths[name] = os.path.join(workdir, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(js.dumps(obj))
    return paths


# key -> (argv with {file} placeholders, expected exit code)
CLI_COMMANDS = {
    "kan-table-z2": ("kan check --operad {z2_a5} --bound 2", 0),
    "kan-table-mult01": ("kan check --operad {mult01_a6} --bound 2", 1),
    "kan-smc-bz2": ("kan check --operad {bz2_smc} --bound 3", 0),
    "kan-smc-z3-strict": ("kan check --operad {z3_smc} --bound 2 --strict --format text", 0),
    "nerve-dendrices-mult01": ("nerve dendrices --operad {mult01_a6} --tree {c3} --format json", 0),
    "nerve-dendrices-z2": ("nerve dendrices --operad {z2_a5} --tree {lin4}", 0),
    "nerve-sset-z2": ("nerve sset --operad {z2_a5} --dim 4 --format json", 0),
    "nerve-sset-bz2": ("nerve sset --operad {bz2_smc} --dim 4", 0),
    "shuffle-list-ec22": ("shuffle list --tree {ec22} --n 3 --format json", 0),
    "anodyne-verify-64": ("anodyne verify --cert {cert_64_3}", 0),
    "anodyne-verify-64-json": ("anodyne verify --cert {cert_64_3} --format json", 0),
    "anodyne-search-t5": ("anodyne search --tree {t5} --omit inner:r --class inner", 0),
    "lemma-verify-64": ("lemma verify --id 6.4 --n 3 --format json", 0),
    "lemma-verify-85": ("lemma verify --id 8.5 --tree {ec32} --format json", 0),
    "tree-faces-t5": ("tree faces --tree {t5}", 0),
    "tree-faces-ec32-json": ("tree faces --tree {ec32} --format json", 0),
}


def cli_query(d, key, paths):
    template, expect = CLI_COMMANDS[key]
    argv = [word.format(**paths) for word in template.split()]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = d.cli.main(argv)
        return rc, out.getvalue()

    return Query(key, run, lambda o: sha(f"{o[0]}\n{o[1]}"),
                 lambda o: [] if o[0] == expect else
                 [f"exit code {o[0]}, expected {expect}"])


WORKLOADS = {
    "kan_corpus": Workload(kan_keys, no_inputs, shuffled("kan_corpus"), kan_query),
    "certify": Workload(certify_keys, no_inputs, certify_select, certify_query),
    "cli": Workload(lambda d: list(CLI_COMMANDS), cli_inputs, shuffled("cli"),
                    cli_query, one_shot=True),
}
