"""Anodyne extension certificates: verification and search.

A certificate witnesses that an inclusion of subcomplexes is a composition
of pushouts of horn inclusions (a filtration), possibly through nested
certified pushouts or a retract of a certified inclusion.  Each horn step
carries the class of its generating horn; the classes are totally ordered

    Inner < Left < BinaryExtendedLeft < ExtendedLeft < Outer

where Left adds all non-root horns, BinaryExtendedLeft adds root horns of
binary extended corollas, ExtendedLeft adds root horns of all extended
corollas, and Outer admits every horn.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .complexes import Cell, Complex, Subcomplex
from .trees import HornSpec, Tree, TreeError, classify_horn, face, is_extended_corolla


class AnodyneClass(enum.IntEnum):
    INNER = 0
    LEFT = 1
    BINARY_EXTENDED_LEFT = 2
    EXTENDED_LEFT = 3
    OUTER = 4

    def __str__(self):
        return self.name


def class_phrase(cls: AnodyneClass) -> str:
    """Human-readable class name, e.g. 'binary extended left'."""
    return cls.name.replace("_", " ").lower()


def parse_class(text: str) -> AnodyneClass:
    key = text.strip().replace("-", " ").replace("_", " ").upper().replace(" ", "_")
    try:
        return AnodyneClass[key]
    except KeyError:
        raise ValueError(f"unknown anodyne class {text!r}") from None


def generator_class(tree: Tree, omitted_key: tuple[str, str]) -> AnodyneClass:
    """The smallest anodyne class containing the horn of `tree` omitting the
    given face."""
    return _horn_class(HornSpec(tree, face(tree, *omitted_key)))


def _horn_class(h: HornSpec) -> AnodyneClass:
    cls = classify_horn(h)
    if cls == "inner":
        return AnodyneClass.INNER
    if cls == "leaf":
        return AnodyneClass.LEFT
    # root horn: a generator iff the tree is an extended corolla
    tree = h.tree
    if not is_extended_corolla(tree):
        return AnodyneClass.OUTER
    if tree.vertex_above(tree.root).arity == 2:
        return AnodyneClass.BINARY_EXTENDED_LEFT
    return AnodyneClass.EXTENDED_LEFT


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HornStep:
    """Attach a cell along a horn: its closure must meet the current
    subcomplex in exactly the horn omitting the named face."""
    cell: Cell
    omitted: tuple[str, str]


@dataclass(frozen=True)
class NestedStep:
    """Attach a cell along a certified anodyne map from a proper subcomplex
    of its boundary (used when the attaching map is itself a root horn whose
    anodyne witness is a sub-certificate)."""
    cell: Cell
    certificate: "Certificate"


_UNSET = object()


@dataclass(frozen=True)
class Certificate:
    """A certified anodyne inclusion start -> target inside an ambient
    complex presented by generator trees.

    kind "filtration": replay the steps in order.
    kind "retract": the inclusion is a retract of the sub-certificate's
    inclusion along the given edge maps (section into the sub-ambient,
    retraction back; retraction after section is the identity).
    """
    ambient_generators: tuple[Tree, ...]
    start: tuple[Cell, ...]
    target: tuple[Cell, ...]
    kind: str = "filtration"
    steps: tuple = ()
    sub: "Certificate | None" = None
    section: tuple[tuple[str, str], ...] = ()
    retraction: tuple[tuple[str, str], ...] = ()
    # The node's ambient and class, found once and kept while it lives.
    _complex: Complex | None = field(default=None, init=False, compare=False,
                                     repr=False)
    _class: object = field(default=_UNSET, init=False, compare=False, repr=False)

    def ambient(self) -> Complex:
        if self._complex is None:
            object.__setattr__(self, "_complex", Complex(self.ambient_generators))
        return self._complex


def _filtration(amb: Complex, start, target, steps) -> Certificate:
    """A filtration certificate over `amb`, which it keeps as its ambient."""
    cert = Certificate(ambient_generators=amb.generators, start=start,
                       target=target, kind="filtration", steps=steps)
    object.__setattr__(cert, "_complex", amb)
    return cert


@dataclass
class Violation:
    step_index: tuple[int, ...]   # path through nested certificates
    message: str

    def __str__(self):
        where = ".".join(map(str, self.step_index)) or "certificate"
        return f"step {where}: {self.message}"


@dataclass
class VerificationReport:
    classes_used: list[AnodyneClass]
    step_count: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    @property
    def overall_class(self) -> AnodyneClass | None:
        return max(self.classes_used) if self.classes_used else None

    def summary(self) -> str:
        status = "valid" if self.valid else "INVALID"
        cls = str(self.overall_class) if self.classes_used else "none"
        return (f"{status}: {self.step_count} steps, class {cls}"
                + ("" if self.valid else f", {len(self.violations)} violations"))

    def fail(self, path: tuple[int, ...], message: str) -> None:
        self.violations.append(Violation(path, message))


def _merge(rep: VerificationReport, sub_rep: VerificationReport) -> bool:
    """Add a sub-certificate's steps, classes and violations to `rep`;
    returns whether the sub-certificate is valid."""
    rep.step_count += sub_rep.step_count
    rep.classes_used.extend(sub_rep.classes_used)
    rep.violations.extend(sub_rep.violations)
    return sub_rep.valid


def _carries(tree: Tree, m: dict[str, str], image: Tree) -> bool:
    """Whether the edge map carries the tree onto `image`, collapsing unary
    vertices whose input and output coincide: each remaining vertex maps to
    the vertex of `image` with its output, with the same inputs, one to one."""
    if m[tree.root] != image.root:
        return False
    outs = set()
    for v in tree.vertices:
        ins = [m[e] for e in v.inputs]
        out = m[v.output]
        if ins == [out]:
            continue
        w = image.vertex_above(out)
        if w is None or out in outs or len(w.inputs) != len(ins) \
                or set(w.inputs) != set(ins):
            return False
        outs.add(out)
    return len(outs) == len(image.vertices)


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Replay and check every step; all failures are reported, pinpointed by
    their step path."""
    return _verify(cert, (), None, -1)[0]


def _verify(cert: Certificate, path: tuple[int, ...], amb: Complex | None,
            within: int) -> tuple[VerificationReport, int, int]:
    """Check `cert` on the cells in the mask `within` (-1: all) of `amb`, or
    of its own ambient for None; nested steps are checked in the same one.
    Returns the report and the closures of the start and the target (0 for
    a malformed certificate)."""
    rep = VerificationReport(classes_used=[], step_count=0)
    try:
        amb = cert.ambient() if amb is None else amb
        start = amb.closure_mask(cert.start, within)
        target = amb.closure_mask(cert.target, within)
    except (ValueError, KeyError, TreeError) as exc:
        rep.fail(path, f"malformed certificate: {exc}")
        return rep, 0, 0
    if cert.kind == "retract":
        _verify_retract(cert, amb, start, target, rep, path)
        return rep, start, target
    if cert.kind != "filtration":
        rep.fail(path, f"unknown kind {cert.kind!r}")
        return rep, start, target
    current = start
    for i, step in enumerate(cert.steps):
        here = path + (i,)
        rep.step_count += 1
        if not isinstance(step, (HornStep, NestedStep)):
            rep.fail(here, f"unknown step type {type(step).__name__}")
            continue
        try:
            j = amb.index_of(step.cell, within)
        except KeyError:
            rep.fail(here, f"not an ambient cell: {sorted(step.cell)}")
            continue
        if isinstance(step, HornStep):
            current = _verify_horn_step(step, amb, j, current, rep, here)
        else:
            current = _verify_nested_step(step, amb, j, current, rep, here)
    if target != current:
        missing = _first_cells(amb, target & ~current)
        extra = _first_cells(amb, current & ~target)
        rep.fail(path, f"final subcomplex differs from target "
                       f"(missing {missing}, extra {extra})")
    return rep, start, target


def _first_cells(amb: Complex, mask: int) -> list[Cell]:
    """The first three cells of a mask by sorted edge names, for messages."""
    return sorted(amb.cells_of(mask), key=sorted)[:3]


def _verify_horn_step(step: HornStep, amb: Complex, i: int, current: int, rep, here) -> int:
    """Check one horn step on cell i; returns the subcomplex after it."""
    if current >> i & 1:
        rep.fail(here, f"cell already present: {sorted(step.cell)}")
        return current
    if amb.attachment(i, current) == tuple(step.omitted):
        rep.classes_used.append(generator_class(amb.cell_trees[i], step.omitted))
        return current | amb.masks[i]
    try:        # word the failure: how the closure of i meets `current`
        horn_cells = amb.horn_mask(i, step.omitted)
    except TreeError as exc:
        rep.fail(here, str(exc))
        return current
    met = amb.masks[i] & current
    missing = _first_cells(amb, horn_cells & ~met)
    extra = _first_cells(amb, met & ~horn_cells)
    rep.fail(here, f"attachment of {sorted(step.cell)} along {step.omitted} is not a "
                   f"horn pushout (horn cells missing: {missing}; excess: {extra})")
    return current


def _verify_nested_step(step: NestedStep, amb: Complex, i: int, current: int,
                        rep, here) -> int:
    """Check one nested step on cell i, inside the closure of that cell;
    returns the subcomplex after it."""
    sub = step.certificate
    if sub.ambient_generators != (amb.cell_trees[i],):
        rep.fail(here, f"nested ambient is not the closure of {sorted(step.cell)}")
        return current
    sub_rep, sub_start, sub_target = _verify(sub, here, amb, amb.masks[i])
    if not _merge(rep, sub_rep):
        return current
    met = amb.masks[i] & current
    if met != sub_start:
        rep.fail(here, f"nested attachment of {sorted(step.cell)}: current meets its "
                       f"closure in {met.bit_count()} cells but the sub-certificate "
                       f"starts from {sub_start.bit_count()}")
        return current
    if sub_target != amb.masks[i]:
        rep.fail(here, "nested certificate does not reach the full cell")
        return current
    return current | amb.masks[i]


def _verify_retract(cert: Certificate, amb: Complex, start: int, target: int,
                    rep, path) -> None:
    sub = cert.sub
    if sub is None:
        rep.fail(path, "retract certificate without sub-certificate")
        return
    sub_rep, sub_start, sub_target = _verify(sub, path + (0,), None, -1)
    if not _merge(rep, sub_rep):
        return
    s = dict(cert.section)
    r = dict(cert.retraction)
    sub_amb = sub.ambient()
    my_edges = set().union(*[g.edges for g in cert.ambient_generators])
    sub_edges = set().union(*[g.edges for g in sub.ambient_generators])
    if set(s) != my_edges or not set(s.values()) <= sub_edges:
        rep.fail(path, "section is not an edge map into the sub-ambient")
        return
    if set(r) != sub_edges or not set(r.values()) <= my_edges:
        rep.fail(path, "retraction is not an edge map into the ambient")
        return
    bad_rs = [e for e in my_edges if r[s[e]] != e]
    if bad_rs:
        rep.fail(path, f"retraction after section is not the identity at {sorted(bad_rs)}")
        return
    if _carried(amb, sub_amb, s, target, sub_target) \
            and _carried(amb, sub_amb, s, start, sub_start) \
            and _carried(sub_amb, amb, r, sub_target, target) \
            and _carried(sub_amb, amb, r, sub_start, start):
        return
    for label, c in _uncarried(amb, sub_amb, s, ((target, sub_target),
                                                 (start, sub_start))):
        rep.fail(path, f"section does not carry {label} cell {sorted(c)} "
                       f"into the sub-{label}")
    for label, c in _uncarried(sub_amb, amb, r, ((sub_target, target),
                                                 (sub_start, start))):
        rep.fail(path, f"retraction does not carry sub-{label} cell {sorted(c)} "
                       f"into the {label}")


def _carried(src: Complex, dst: Complex, edge_map: dict[str, str],
             mask: int, image: int) -> bool:
    """Whether the edge map carries every cell of the closure `mask` onto a
    cell of the closure `image` with the mapped tree, checked on the
    maximal cells of `mask` only.

    That suffices.  A map that carries a tree T onto a tree T' of `dst` is a
    surjective map of trees T -> T': degeneracies collapsing the unary
    vertices whose input and output meet, then an isomorphism.  Composed
    with a face F -> T, it factors as a surjection of F onto its image F',
    the subtree of T' on the mapped edges of F, followed by faces of T' (the
    dendroidal identities; Moerdijk-Weiss, *Dendroidal sets*, 2007).  So the
    map carries F onto F', a cell of `dst`, which holds the closure of T',
    and of `image`, a closure holding T'; by induction it carries every
    iterated face of T.  Every cell of `mask` is an iterated face of a
    maximal one, and a maximal cell is a cell of `mask`, so the check fails
    exactly when `_uncarried` finds a cell."""
    while mask:
        i = mask.bit_length() - 1       # no later cell is left, so i is maximal
        if not _carries_cell(src, dst, edge_map, i, image):
            return False
        mask &= ~src.masks[i]
    return True


def _carries_cell(src: Complex, dst: Complex, edge_map: dict[str, str], i: int,
                  image: int) -> bool:
    """Whether the edge map carries cell i of `src` onto a cell of the
    closure `image` of `dst` with the mapped tree."""
    j = dst.index.get(frozenset(edge_map[e] for e in src.order[i]))
    return j is not None and image >> j & 1 \
        and _carries(src.cell_trees[i], edge_map, dst.cell_trees[j])


def _uncarried(src: Complex, dst: Complex, edge_map: dict[str, str],
               pairs) -> list[tuple[str, Cell]]:
    """(label, cell) for each cell of a source target, then start, in cell
    order, that the edge map does not carry onto a cell of the matching
    image with the mapped tree; `pairs` holds the (source, image) masks of
    the targets and of the starts.  This is the reference walk over every
    cell, which words the violations once `_carried` has failed."""
    return [(label, src.order[i])
            for label, (mask, image) in zip(("target", "start"), pairs)
            for i in src.indices(mask) if not _carries_cell(src, dst, edge_map, i, image)]


def certificate_class(cert: Certificate) -> AnodyneClass | None:
    """The largest generator class claimed by the certificate's steps,
    without replaying them; None for an empty filtration.  Each node keeps
    its class, so asking again, or for an enclosing node, rebuilds nothing."""
    if cert._class is not _UNSET:
        return cert._class
    if cert.kind == "retract":
        cls = certificate_class(cert.sub) if cert.sub is not None else None
    else:
        amb = cert.ambient()
        classes: list[AnodyneClass] = []
        for step in cert.steps:
            if isinstance(step, HornStep):
                classes.append(generator_class(amb.tree_of(step.cell), step.omitted))
            elif isinstance(step, NestedStep):
                sub = certificate_class(step.certificate)
                if sub is not None:
                    classes.append(sub)
        cls = max(classes) if classes else None
    object.__setattr__(cert, "_class", cls)
    return cls


# ---------------------------------------------------------------------------
# building filtrations with inferred horns
# ---------------------------------------------------------------------------

class BuildError(ValueError):
    pass


def build_filtration(amb: Complex, start_cells: Sequence[Iterable[str]],
                     cell_order: Sequence[Iterable[str]],
                     nested: dict[Cell, Certificate] | None = None) -> Certificate:
    """Assemble a filtration certificate from an ordered list of cells,
    inferring for each the unique face missing from the current subcomplex.
    The target is the whole ambient, so an order that stops short of it
    gives a certificate that does not verify.

    Cells listed in `nested` are attached through their sub-certificate
    instead of a horn.  Raises BuildError when a step is not a horn pushout.
    """
    nested = nested or {}
    current = amb.closure_mask(start_cells)
    steps: list = []
    for raw in cell_order:
        cell = frozenset(raw)
        i = amb.index_of(cell)
        if current >> i & 1:
            raise BuildError(f"cell already present: {sorted(cell)}")
        if cell in nested:
            steps.append(NestedStep(cell, nested[cell]))
            current |= amb.masks[i]
            continue
        key = amb.attachment(i, current)
        if key is None:     # a union of closures meets a cell missing one face in its horn
            missing = [f.key for f, j in zip(amb.face_lists[i], amb.face_ids[i])
                       if not current >> j & 1]
            raise BuildError(f"cell {sorted(cell)} has {len(missing)} missing faces "
                             f"({missing}); not a horn attachment")
        steps.append(HornStep(cell, key))
        current |= amb.masks[i]
    return _filtration(amb, tuple(frozenset(c) for c in start_cells),
                       tuple(sorted(amb.order, key=sorted)), tuple(steps))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _horn_step(amb: Complex, i: int, current: int,
               allowed: AnodyneClass) -> HornStep | None:
    """The step attaching cell i to `current` along a horn of class at most
    `allowed`, or None."""
    key = amb.attachment(i, current)
    if key is None or generator_class(amb.cell_trees[i], key) > allowed:
        return None
    return HornStep(amb.order[i], key)


@dataclass
class SearchResult:
    certificate: Certificate | None
    examined: int
    exhausted_budget: bool


def search_certificate(amb: Complex, start: Subcomplex, target: Subcomplex,
                       allowed: AnodyneClass = AnodyneClass.INNER,
                       budget: int = 100_000) -> SearchResult:
    """Depth-first search, one frame per step and no recursion, for a
    filtration from start to target using horn attachments of class <=
    allowed.  Deterministic: candidate cells are tried in (size, name)
    order.  `budget` bounds candidate evaluations; out of budget, the first
    branch that fails ends the search.  Whether a cell attaches, and along
    which face, depends only on its closure's meet with the current
    subcomplex, so each (cell, meet) is tested once per call; `examined`
    still counts every evaluation.  Raises ValueError unless start and
    target are subcomplexes of `amb` with start inside target."""
    for sub in (start, target):
        amb.full()._same_ambient(sub)
    goal, start_mask = target.mask, start.mask
    if start_mask & ~goal:
        raise ValueError("the start subcomplex is not inside the target")
    todo_all = amb.indices(goal & ~start_mask)       # in (size, name) order
    examined = 0
    out_of_budget = False
    attachable: dict[tuple[int, int], HornStep | None] = {}

    def moves(current: int) -> list[HornStep]:
        nonlocal examined, out_of_budget
        found = []
        for i in todo_all:
            if current >> i & 1:
                continue
            if examined >= budget:
                out_of_budget = True
                break
            examined += 1
            key = (i, current & amb.masks[i])
            step = attachable.get(key, _UNSET)
            if step is _UNSET:
                step = attachable[key] = _horn_step(amb, i, current, allowed)
            if step is not None:
                found.append(step)
        return found

    steps: list[HornStep] = []
    frames = [(start_mask, iter(moves(start_mask)))]     # one per step taken
    while frames[-1][0] & goal != goal:
        current, left = frames[-1]
        step = next(left, None)
        if step is not None:
            steps.append(step)
            current |= amb.masks[amb.index[step.cell]]
            frames.append((current, iter(moves(current))))
            continue
        frames.pop()                        # every move from here failed
        if not frames or out_of_budget:
            return SearchResult(None, examined, out_of_budget)
        steps.pop()
    cert = _filtration(amb, tuple(sorted(start.cells, key=sorted)),
                       tuple(sorted(target.cells, key=sorted)), tuple(steps))
    return SearchResult(cert, examined, out_of_budget)
