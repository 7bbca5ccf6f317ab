"""Finite coloured operads and strict symmetric monoidal categories.

An operad is presented either by explicit tables (`TableOperad`) or lazily
from a finite strict symmetric monoidal category (`SMCOperad`), whose
operations with profile (c_1,...,c_n; c) are the morphisms from the chosen
n-fold tensor of the inputs to the output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Hashable, Sequence

Profile = tuple[tuple[str, ...], str]


# ---------------------------------------------------------------------------
# strict symmetric monoidal categories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteSMC:
    """A finite strict symmetric monoidal category.

    Morphisms have globally unique names; `profile` maps a name to
    (domain, codomain).  Tensor on objects is strictly associative and
    unital, so chosen n-fold tensors are iterated binary ones.
    """
    objects: tuple[str, ...]
    unit: str
    profile: dict[str, tuple[str, str]]
    compose: dict[tuple[str, str], str]           # (g, f) -> g after f
    identities: dict[str, str]                    # object -> identity morphism
    tensor_obj: dict[tuple[str, str], str]        # (a, b) -> a (x) b
    tensor_mor: dict[tuple[str, str], str]        # (f, g) -> f (x) g
    braiding: dict[tuple[str, str], str]          # (a, b) -> iso a(x)b -> b(x)a

    def homs(self, a: str, b: str) -> tuple[str, ...]:
        return self._homs.get((a, b), ())

    @cached_property
    def _homs(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """Sorted morphism names by (domain, codomain), built on first use."""
        index: dict[tuple[str, str], list[str]] = {}
        for m, (d, c) in sorted(self.profile.items()):
            index.setdefault((d, c), []).append(m)
        return {k: tuple(ms) for k, ms in index.items()}

    def tensor_objects(self, objs: Sequence[str]) -> str:
        out = self.unit
        for o in objs:
            out = self.tensor_obj[(out, o)]
        return out

    def permutation_iso(self, objs: Sequence[str], sigma: Sequence[int]) -> str:
        """The symmetry isomorphism tensor(objs permuted by sigma) ->
        tensor(objs), where the permuted list is objs[sigma[0]], ...

        Built from adjacent braidings; coherence makes the result
        independent of the chosen decomposition.
        """
        objs, sigma = tuple(objs), tuple(sigma)
        if sorted(sigma) != list(range(len(objs))):
            raise ValueError(f"{sigma} is not a permutation of range({len(objs)})")
        return _permutation_iso(self, {}, objs, sigma)


def _permutation_iso(smc: FiniteSMC, memo: dict, objs: tuple, sigma: tuple) -> str:
    """`FiniteSMC.permutation_iso` for a valid `sigma`, sharing sub-results
    through `memo`.

    The object that ends up last, objs[-1], moves from its place in the
    permuted word past the objects after it; the shorter word is then put
    in order the same way.  `memo` holds the iso of each (objs[:k], word of
    range(k)) met on the way and, under (object, objects passed), each block
    of braidings that moves one object to the end, so all permutations of
    one word share their sub-results.
    """
    chain = []
    n, word = len(sigma), sigma
    while (iso := memo.get((objs[:n], word))) is None:
        if not n:
            iso = smc.identities[smc.unit]
            break
        p = word.index(n - 1)
        chain.append((n, word, p))
        n, word = n - 1, word[:p] + word[p + 1:]
    for n, word, p in reversed(chain):
        x = objs[n - 1]
        permuted = [objs[s] for s in word]
        left = smc.identities[smc.tensor_objects(permuted[:p])]
        move = _move_last(smc, memo, x, tuple(permuted[p + 1:]))
        iso = smc.compose[(smc.tensor_mor[(iso, smc.identities[x])],
                           smc.tensor_mor[(left, move)])]
        memo[(objs[:n], word)] = iso
    return iso


def _move_last(smc: FiniteSMC, memo: dict, x: str, passed: tuple) -> str:
    """The iso x (x) passed -> passed (x) x made of adjacent braidings of x
    with each object it passes, memoised under (x, passed)."""
    iso = memo.get((x, passed))
    if iso is None:
        iso = smc.identities[x]
        for j, y in enumerate(passed):
            before = smc.identities[smc.tensor_objects(passed[:j])]
            iso = smc.compose[(smc.tensor_mor[(before, smc.braiding[(x, y)])],
                               smc.tensor_mor[(iso, smc.identities[y])])]
        memo[(x, passed)] = iso
    return iso


def validate_smc(c: FiniteSMC) -> list[str]:
    """Exhaustively check the axioms; returns human-readable violations.

    A row that is missing, of the wrong profile or names what the SMC
    lacks ends the check once its table is checked; the laws that read it
    are not, so a broken table gives violations, never a `KeyError`.
    """
    bad: list[str] = []
    mors = sorted(c.profile)
    if c.unit not in c.objects:
        bad.append(f"unit {c.unit!r} is not an object")
    found = len(bad)
    for o in c.objects:
        i = c.identities.get(o)
        if i is None or c.profile.get(i) != (o, o):
            bad.append(f"identity of {o!r} missing or has wrong profile")
    if len(bad) > found:
        return bad
    for (g, f), h in c.compose.items():
        if not {g, f, h} <= c.profile.keys():
            bad.append(f"compose({g},{f})={h} names an unknown morphism")
            continue
        df, cf = c.profile[f]
        dg, cg = c.profile[g]
        if cf != dg:
            bad.append(f"compose({g},{f}) defined but profiles do not match")
        elif c.profile[h] != (df, cg):
            bad.append(f"compose({g},{f})={h} has wrong profile")
    bad.extend(f"compose missing at ({g},{f})" for g in mors for f in mors
               if c.profile[f][1] == c.profile[g][0] and (g, f) not in c.compose)
    if len(bad) > found:
        return bad
    for f in mors:
        d, cod = c.profile[f]
        if c.compose.get((f, c.identities[d])) != f:
            bad.append(f"right unit law fails at {f}")
        if c.compose.get((c.identities[cod], f)) != f:
            bad.append(f"left unit law fails at {f}")
    for f in mors:
        for g in mors:
            if c.profile[f][1] != c.profile[g][0]:
                continue
            for h in mors:
                if c.profile[g][1] != c.profile[h][0]:
                    continue
                if c.compose[(c.compose[(h, g)], f)] != c.compose[(h, c.compose[(g, f)])]:
                    bad.append(f"associativity fails at ({h},{g},{f})")
    whole = True
    for a in c.objects:
        for b in c.objects:
            if (a, b) not in c.tensor_obj:
                bad.append(f"tensor_obj missing at ({a},{b})")
                whole = False
            elif c.tensor_obj[(a, b)] not in c.objects:
                bad.append(f"tensor_obj({a},{b})={c.tensor_obj[(a, b)]} names an unknown object")
                whole = False
        if c.tensor_obj.get((c.unit, a)) != a or c.tensor_obj.get((a, c.unit)) != a:
            bad.append(f"tensor unit law fails on object {a!r}")
    if not whole:
        return bad
    for a, b, d in itertools.product(c.objects, repeat=3):
        if c.tensor_obj[(c.tensor_obj[(a, b)], d)] != c.tensor_obj[(a, c.tensor_obj[(b, d)])]:
            bad.append(f"tensor associativity fails on objects ({a},{b},{d})")
    found = len(bad)
    for f in mors:
        for g in mors:
            fg = c.tensor_mor.get((f, g))
            want = (c.tensor_obj[(c.profile[f][0], c.profile[g][0])],
                    c.tensor_obj[(c.profile[f][1], c.profile[g][1])])
            if c.profile.get(fg) != want:
                bad.append(f"tensor_mor missing or wrong profile at ({f},{g})")
    if len(bad) > found:
        return bad
    # interchange / functoriality of the tensor
    for f, f2, g, g2 in itertools.product(mors, repeat=4):
        if c.profile[f][1] != c.profile[f2][0] or c.profile[g][1] != c.profile[g2][0]:
            continue
        lhs = c.tensor_mor[(c.compose[(f2, f)], c.compose[(g2, g)])]
        rhs = c.compose[(c.tensor_mor[(f2, g2)], c.tensor_mor[(f, g)])]
        if lhs != rhs:
            bad.append(f"tensor interchange fails at ({f2},{f},{g2},{g})")
    broken = {(a, b) for a, b in itertools.product(c.objects, repeat=2)
              if c.profile.get(c.braiding.get((a, b)))
              != (c.tensor_obj[(a, b)], c.tensor_obj[(b, a)])}
    for a, b in itertools.product(c.objects, repeat=2):
        if (a, b) in broken:
            bad.append(f"braiding missing or wrong profile at ({a},{b})")
        elif (b, a) not in broken and (c.compose[(c.braiding[(b, a)], c.braiding[(a, b)])]
                                       != c.identities[c.tensor_obj[(a, b)]]):
            bad.append(f"braiding is not an involution at ({a},{b})")
    if broken:
        return bad
    # naturality of the braiding
    for f, g in itertools.product(mors, repeat=2):
        a, a2 = c.profile[f]
        b, b2 = c.profile[g]
        lhs = c.compose[(c.braiding[(a2, b2)], c.tensor_mor[(f, g)])]
        rhs = c.compose[(c.tensor_mor[(g, f)], c.braiding[(a, b)])]
        if lhs != rhs:
            bad.append(f"braiding not natural at ({f},{g})")
    # hexagon: braiding past b (x) d is braiding past b, then past d; the
    # other hexagon follows from this one and the involution
    for a, b, d in itertools.product(c.objects, repeat=3):
        lhs = c.braiding[(a, c.tensor_obj[(b, d)])]
        rhs = c.compose[(c.tensor_mor[(c.identities[b], c.braiding[(a, d)])],
                         c.tensor_mor[(c.braiding[(a, b)], c.identities[d])])]
        if lhs != rhs:
            bad.append(f"hexagon fails at ({a},{b},{d})")
    return bad


def picard_check(c: FiniteSMC) -> tuple[bool, list[str]]:
    """Is the category a Picard groupoid: all morphisms invertible and the
    tensor a group on isomorphism classes?"""
    reasons: list[str] = []
    for f, (a, b) in sorted(c.profile.items()):
        if not any(c.compose.get((g, f)) == c.identities[a]
                   and c.compose.get((f, g)) == c.identities[b]
                   for g in c.homs(b, a)):
            reasons.append(f"morphism {f} is not invertible")
    rep = {o: o for o in c.objects}
    for a, b in itertools.combinations(sorted(c.objects), 2):
        if c.homs(a, b):
            ra, rb = rep[a], rep[b]
            for o in c.objects:
                if rep[o] == rb:
                    rep[o] = ra
    classes = sorted(set(rep.values()))
    for a in classes:
        if not any(c.homs(c.tensor_obj[(a, b)], c.unit)
                   or rep[c.tensor_obj[(a, b)]] == rep[c.unit] for b in classes):
            reasons.append(f"isomorphism class of {a} has no tensor inverse")
    return (not reasons, reasons)


# ---------------------------------------------------------------------------
# operads
# ---------------------------------------------------------------------------

class FiniteOperad:
    """Interface: coloured operations with composition and symmetric action.

    Operations are hashable tokens; `op_profile` recovers (inputs, output).
    `operations_from(inputs)` lists every output colour of those inputs
    that has an operation, in `colours` order, with its `operations`.
    Permutations are tuples sigma with (sigma * f) having input i equal to
    input sigma[i] of f.
    """

    colours: tuple[str, ...]

    def operations(self, inputs: tuple[str, ...], output: str) -> tuple:
        raise NotImplementedError

    def operations_from(self, inputs: tuple[str, ...]) -> tuple[tuple[str, tuple], ...]:
        return tuple((c, ops) for c in self.colours if (ops := self.operations(inputs, c)))

    def op_profile(self, op) -> Profile:
        raise NotImplementedError

    def identity(self, colour: str):
        raise NotImplementedError

    def compose(self, f, i: int, g):
        """Partial composition: plug g into input i (0-based) of f."""
        raise NotImplementedError

    def permute(self, f, sigma: tuple[int, ...]):
        raise NotImplementedError

    def cancellative(self) -> bool:
        """Whether the operad is known to satisfy its laws and to cancel:
        `f o_i g` determines f given g, and g given f and the profile of g.
        Then every horn of a tree with >= 3 vertices fills uniquely (see
        `kan`).  False unless a subclass proves it."""
        return False


@dataclass(frozen=True)
class TableOperad(FiniteOperad):
    """An operad given by explicit finite tables.

    Missing profiles are empty.  `composition` maps (f, i, g) to the
    composite; `symmetry` maps (f, sigma) to the permuted operation.
    """
    colours: tuple[str, ...]
    profiles: dict[Hashable, Profile] = field(default_factory=dict)
    identities_table: dict[str, Hashable] = field(default_factory=dict)
    composition: dict[tuple[Hashable, int, Hashable], Hashable] = field(default_factory=dict)
    symmetry: dict[tuple[Hashable, tuple[int, ...]], Hashable] = field(default_factory=dict)

    def operations(self, inputs, output):
        return self._by_profile.get((tuple(inputs), output), ())

    @cached_property
    def _by_profile(self) -> dict[Profile, tuple]:
        """Operations by profile, each ordered by `str(op)`; built on the
        first lookup, so loading a table that is only serialised costs
        nothing, and read from the `profiles` table as it was then."""
        index: dict[Profile, list] = {}
        for op, prof in sorted(self.profiles.items(), key=lambda kv: str(kv[0])):
            index.setdefault(prof, []).append(op)
        return {prof: tuple(ops) for prof, ops in index.items()}

    @property
    def arity(self) -> int:
        """The largest arity of a listed operation: the table holds no
        composite above it."""
        return max((len(ins) for ins, _ in self.profiles.values()), default=0)

    def op_profile(self, op):
        return self.profiles[op]

    def identity(self, colour):
        return self.identities_table[colour]

    def compose(self, f, i, g):
        try:
            return self.composition[(f, i, g)]
        except KeyError:
            raise KeyError(f"composition table has no entry for ({f}, {i}, {g})") from None

    def permute(self, f, sigma):
        sigma = tuple(sigma)
        if sigma == tuple(range(len(sigma))):
            return f
        try:
            return self.symmetry[(f, sigma)]
        except KeyError:
            raise KeyError(f"symmetry table has no entry for ({f}, {sigma})") from None


class SMCOperad(FiniteOperad):
    """The operad of a finite strict symmetric monoidal category.

    An operation is the token (inputs, output, morphism) where the morphism
    runs from the chosen tensor of the inputs to the output.  Tables are
    computed on demand, so all arities are available.
    """

    def __init__(self, smc: FiniteSMC, name: str = "O_C"):
        self.smc = smc
        self.name = name
        self.colours = tuple(smc.objects)
        # functions of the SMC, not bound methods, which would make each
        # operad a reference cycle; `permute` keeps one memo of its isos
        self.operations_from = lru_cache(maxsize=None)(
            partial(_smc_operations_from, smc, self.colours))
        self.compose = partial(_smc_compose, smc)
        self.permute = partial(_smc_permute, smc, {})

    def cancellative(self) -> bool:
        """The SMC passes `validate_smc`, and for all objects L, R and every
        morphism g, with W = (1_L (x) g) (x) 1_R (the morphism of `o_i`),
        w -> w W is injective on each hom set and, for each w, g -> w W is
        injective on each Hom(a, b).  Computed on each call."""
        return not validate_smc(self.smc) and _smc_cancels(self.smc)

    def operations(self, inputs, output):
        for c, ops in self.operations_from(tuple(inputs)):
            if c == output:
                return ops
        return ()

    def op_profile(self, op):
        return (op[0], op[1])

    def identity(self, colour):
        return ((colour,), colour, self.smc.identities[colour])

    def __repr__(self):
        return f"SMCOperad({self.name})"


def _smc_cancels(smc: FiniteSMC) -> bool:
    """The two injectivity conditions of `SMCOperad.cancellative`."""
    out_of: dict[str, list[str]] = {}
    for m in sorted(smc.profile):
        out_of.setdefault(smc.profile[m][0], []).append(m)
    by_w: dict[tuple, list[str]] = {}    # (L, R, w, profile of g) -> w W over g
    for left, right, g in itertools.product(smc.objects, smc.objects, smc.profile):
        W = smc.tensor_mor[(smc.tensor_mor[(smc.identities[left], g)], smc.identities[right])]
        ws = out_of[smc.profile[W][1]]
        composites = [smc.compose[(w, W)] for w in ws]
        if len(set(composites)) < len(composites):
            return False
        for w, h in zip(ws, composites):
            by_w.setdefault((left, right, w, smc.profile[g]), []).append(h)
    return all(len(set(hs)) == len(hs) for hs in by_w.values())


def _smc_operations_from(smc: FiniteSMC, colours: tuple[str, ...], inputs: tuple):
    dom = smc.tensor_objects(inputs)
    return tuple((c, tuple((inputs, c, m) for m in ms))
                 for c in colours if (ms := smc.homs(dom, c)))


def _smc_compose(smc: FiniteSMC, f, i, g):
    fin, fout, fm = f
    gin, gout, gm = g
    if not 0 <= i < len(fin) or fin[i] != gout:
        raise ValueError(f"cannot plug {g} into input {i} of {f}")
    left = smc.identities[smc.tensor_objects(fin[:i])]
    right = smc.identities[smc.tensor_objects(fin[i + 1:])]
    whisk = smc.tensor_mor[(smc.tensor_mor[(left, gm)], right)]
    new_in = fin[:i] + gin + fin[i + 1:]
    return (new_in, fout, smc.compose[(fm, whisk)])


def _smc_permute(smc: FiniteSMC, memo: dict, f, sigma):
    fin, fout, fm = f
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(len(fin))):
        raise ValueError(f"{sigma} is not a permutation of the inputs of {f}")
    new_in = tuple([fin[s] for s in sigma])
    iso = _permutation_iso(smc, memo, fin, sigma)   # tensor(new_in) -> tensor(fin)
    return (new_in, fout, smc.compose[(fm, iso)])


# ---------------------------------------------------------------------------
# operad validation
# ---------------------------------------------------------------------------

def _listed(p: FiniteOperad, max_arity: int):
    """(op, the profile it is listed under) for each operation of arity at
    most `max_arity`: by arity, inputs in `itertools.product` order, then
    one `p.operations_from` per input tuple."""
    for n in range(max_arity + 1):
        for inputs in itertools.product(p.colours, repeat=n):
            for output, ops in p.operations_from(inputs):
                for op in ops:
                    yield op, (inputs, output)


def _expand_permutation(sigma: tuple[int, ...], i: int, m: int) -> tuple[int, ...]:
    """The permutation induced on the inputs of f o_i g by sigma on f."""
    out: list[int] = []
    for s in sigma:
        if s < i:
            out.append(s)
        elif s == i:
            out.extend(range(i, i + m))
        else:
            out.append(s + m - 1)
    return tuple(out)


def validate_operad(p: FiniteOperad, max_arity: int = 3) -> list[str]:
    """Check operad axioms on all operations of arity <= max_arity.

    Exhaustive within the arity bound: profile consistency, unit laws, both
    associativity shapes, and equivariance of composition under the
    symmetric group actions.  Each violation names the failing instance.
    The laws compose along the listed, identity and permuted profiles, so
    a wrong one ends the check before them, and so does a table row they
    would read that is missing (`_table_gaps`).  A table holds no composite
    above its largest listed arity, so there a law instance is checked only
    when every composite it forms fits (in the parallel shape, f o_j h
    outgrows the whole when g is nullary).
    """
    top = math.inf
    if isinstance(p, TableOperad):
        top = p.arity
        gaps = _table_gaps(p)
        if gaps:
            return gaps
    bad: list[str] = []
    ops: list = []
    for op, listed in _listed(p, max_arity):
        if p.op_profile(op) != listed:
            bad.append(f"operation {op} listed under wrong profile {listed}")
        ops.append(op)
    for c in p.colours:
        i = p.identity(c)
        if p.op_profile(i) != ((c,), c):
            bad.append(f"identity of colour {c} has wrong profile")
    for f in ops:
        fin, fout = p.op_profile(f)
        for sigma in itertools.permutations(range(len(fin))):
            if p.op_profile(p.permute(f, sigma)) != (tuple(fin[s] for s in sigma), fout):
                bad.append(f"symmetry action breaks profile: sigma={sigma} on {f}")
    if bad:
        return bad
    for f in ops:
        fin, fout = p.op_profile(f)
        for i, c in enumerate(fin):
            if p.compose(f, i, p.identity(c)) != f:
                bad.append(f"unit law fails: {f} o_{i} id_{c}")
        if p.compose(p.identity(fout), 0, f) != f:
            bad.append(f"unit law fails: id_{fout} o_0 {f}")
    for f in ops:
        fin, _ = p.op_profile(f)
        for i, ci in enumerate(fin):
            for g in ops:
                gin, gout = p.op_profile(g)
                if gout != ci or len(fin) + len(gin) - 1 > top:
                    continue
                fg = p.compose(f, i, g)
                # nested shape
                for j, cj in enumerate(gin):
                    for h in ops:
                        hin, hout = p.op_profile(h)
                        if hout != cj or len(fin) + len(gin) + len(hin) - 2 > top:
                            continue
                        if p.compose(fg, i + j, h) != p.compose(f, i, p.compose(g, j, h)):
                            bad.append(f"associativity (nested) fails: ({f} o_{i} {g}) o_{i+j} {h}")
                # parallel shape
                for j in range(i + 1, len(fin)):
                    for h in ops:
                        hin, hout = p.op_profile(h)
                        if hout != fin[j] or len(fin) + len(hin) - 1 > top \
                                or len(fin) + len(gin) + len(hin) - 2 > top:
                            continue
                        lhs = p.compose(fg, j + len(gin) - 1, h)
                        rhs = p.compose(p.compose(f, j, h), i, g)
                        if lhs != rhs:
                            bad.append(f"associativity (parallel) fails: {f} o_{i} {g}, o_{j} {h}")
                # equivariance: permute f, then compose
                for sigma in itertools.permutations(range(len(fin))):
                    pos = sigma.index(i)
                    lhs = p.compose(p.permute(f, sigma), pos, g)
                    rhs = p.permute(fg, _expand_permutation(sigma, i, len(gin)))
                    if lhs != rhs:
                        bad.append(f"equivariance fails: sigma={sigma}, {f} o_{i} {g}")
    for f in ops:
        n = len(p.op_profile(f)[0])
        for sigma in itertools.permutations(range(n)):
            sf = p.permute(f, sigma)
            for tau in itertools.permutations(range(n)):
                comp = tuple(sigma[t] for t in tau)
                if p.permute(sf, tau) != p.permute(f, comp):
                    bad.append(f"symmetry action not functorial: {tau} after {sigma} on {f}")
    return bad


def _table_gaps(p: TableOperad) -> list[str]:
    """The rows missing from a table, as violations.  Each colour needs an
    identity, each listed operation a row for each permutation but the
    identity, and each composite within the table's arity a row; each row
    gives a listed operation, a composite one of the composite's profile.
    With none missing, the laws read only rows that are there."""
    listed, top = p.profiles, p.arity
    bad = [f"identity of colour {c} is not a listed operation"
           for c in p.colours if p.identities_table.get(c) not in listed]
    for f, (fin, fout) in listed.items():
        # the identity permutation comes first and needs no row
        for sigma in itertools.islice(itertools.permutations(range(len(fin))), 1, None):
            if p.symmetry.get((f, sigma)) not in listed:
                bad.append(f"symmetry table has no listed operation for sigma={sigma} on {f}")
        for i, ci in enumerate(fin):
            for g, (gin, gout) in listed.items():
                if gout != ci or len(fin) + len(gin) - 1 > top:
                    continue
                fg = p.composition.get((f, i, g))
                if fg not in listed:
                    bad.append(f"composition table has no listed operation for {f} o_{i} {g}")
                elif listed[fg] != (fin[:i] + gin + fin[i + 1:], fout):
                    bad.append(f"composition breaks profile: {f} o_{i} {g}")
    return bad


def table_operad_from(p: FiniteOperad, max_arity: int = 3) -> TableOperad:
    """Materialize explicit tables from any operad, up to an arity bound.

    Composition entries are kept when both factors and the result stay
    within the bound; used for serialization and fault injection.  A
    composite, permuted or identity operation equal to a listed one is
    stored as the listed object, and each permutation is one tuple for all
    its rows.
    """
    profiles = dict(_listed(p, max_arity))
    listed = {op: op for op in profiles}

    def shared(op):
        return listed.get(op, op)

    perms = [tuple(itertools.permutations(range(n))) for n in range(max_arity + 1)]
    composition: dict = {}
    symmetry: dict = {}
    for f, (fin, fout) in profiles.items():
        for i, ci in enumerate(fin):
            for g, (gin, gout) in profiles.items():
                if gout != ci or len(fin) + len(gin) - 1 > max_arity:
                    continue
                composition[(f, i, g)] = shared(p.compose(f, i, g))
        for sigma in perms[len(fin)]:
            symmetry[(f, sigma)] = shared(p.permute(f, sigma))
    identities = {c: shared(p.identity(c)) for c in p.colours}
    return TableOperad(colours=tuple(p.colours), profiles=profiles,
                       identities_table=identities, composition=composition,
                       symmetry=symmetry)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def discrete_abelian_smc(elements: Sequence[Hashable], add) -> FiniteSMC:
    """The discrete symmetric monoidal category of a finite abelian group:
    only identity morphisms, tensor given by the group law."""
    for a in elements:
        if not any(all(add(add(a, b), x) == x for x in elements) for b in elements):
            raise ValueError(f"element {a!r} has no inverse; not a group")
    return discrete_commutative_monoid_smc(elements, add)


def cyclic_group_smc(n: int) -> FiniteSMC:
    return discrete_abelian_smc(range(n), lambda a, b: (a + b) % n)


def klein_four_smc() -> FiniteSMC:
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return discrete_abelian_smc(
        ["".join(map(str, e)) for e in elems],
        lambda a, b: "".join(str((int(x) + int(y)) % 2) for x, y in zip(a, b)))


def one_object_abelian_group_smc(elements: Sequence[Hashable], add) -> FiniteSMC:
    """One object *, hom set a finite commutative monoid, composition and
    tensor its law and the identity symmetry: symmetric monoidal because the
    law commutes.  A group gives a Picard groupoid; any other monoid does not."""
    obj = "*"
    names = {e: f"g{e}" for e in elements}
    zero = next(e for e in elements if all(add(e, x) == x for x in elements))
    profile = {names[e]: (obj, obj) for e in elements}
    compose = {(names[a], names[b]): names[add(a, b)] for a in elements for b in elements}
    ident = {obj: names[zero]}
    t_obj = {(obj, obj): obj}
    t_mor = {(names[a], names[b]): names[add(a, b)] for a in elements for b in elements}
    braid = {(obj, obj): names[zero]}
    return FiniteSMC(objects=(obj,), unit=obj, profile=profile, compose=compose,
                     identities=ident, tensor_obj=t_obj, tensor_mor=t_mor,
                     braiding=braid)


def b_z2_smc() -> FiniteSMC:
    return one_object_abelian_group_smc([0, 1], lambda a, b: (a + b) % 2)


def discrete_commutative_monoid_smc(elements: Sequence[Hashable], mul) -> FiniteSMC:
    """Discrete category on the elements of a commutative monoid, tensor
    given by the monoid law; symmetric monoidal but not a groupoid unless
    the monoid is a group."""
    unit = next(e for e in elements if all(mul(e, x) == x for x in elements))
    objs = tuple(str(e) for e in elements)
    lookup = {str(e): e for e in elements}
    ident = {o: f"id_{o}" for o in objs}
    profile = {ident[o]: (o, o) for o in objs}
    compose = {(ident[o], ident[o]): ident[o] for o in objs}
    t_obj = {(a, b): str(mul(lookup[a], lookup[b])) for a in objs for b in objs}
    t_mor = {(ident[a], ident[b]): ident[t_obj[(a, b)]] for a in objs for b in objs}
    braid = {(a, b): ident[t_obj[(a, b)]] for a in objs for b in objs}
    return FiniteSMC(objects=objs, unit=str(unit), profile=profile, compose=compose,
                     identities=ident, tensor_obj=t_obj, tensor_mor=t_mor,
                     braiding=braid)


def mult_01_monoid_smc() -> FiniteSMC:
    return discrete_commutative_monoid_smc([0, 1], lambda a, b: a * b)


CORPUS = {
    "z2": lambda: SMCOperad(cyclic_group_smc(2), "O_{Z/2}"),
    "z3": lambda: SMCOperad(cyclic_group_smc(3), "O_{Z/3}"),
    "z4": lambda: SMCOperad(cyclic_group_smc(4), "O_{Z/4}"),
    "z2xz2": lambda: SMCOperad(klein_four_smc(), "O_{Z/2xZ/2}"),
    "bz2": lambda: SMCOperad(b_z2_smc(), "O_{BZ/2}"),
    "mult01": lambda: SMCOperad(mult_01_monoid_smc(), "O_{(0,1)x}"),
}
