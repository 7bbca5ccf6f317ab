"""Per-layer tracing of dendro from outside the program.

The tracer replaces public functions with timing wrappers at every module
binding: a name imported with ``from .nerves import face_of`` is a second
binding of the same function, so each ``dendro.*`` module attribute that is
the original object is patched.  Methods are patched on their class;
``SMCOperad`` builds its ``operations``/``compose`` caches per instance, so
those are wrapped as each instance is created.

No span is stored per call.  Each wrapper adds its call and its self time
(duration minus the time of nested wrapped calls) to a total keyed by
(function, calling wrapped function), which keeps the hot leaves
(``faces``, ``face_of``, ``closure_cells``) cheap and still attributes them
to their parents.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# Functions as `module.attribute`, with the group whose self time they add
# to when that is not their own name.
FUNCTIONS = (
    ("trees.faces", None),
    ("nerves.face_of", None),
    ("nerves.dendrex_closure", None),
    ("nerves.dendrices", None),
    ("nerves.underlying_sset", None),
    ("kan.kan_report", None),
    ("kan.tree_shapes", None),
    ("kan.enumerate_horn_maps", None),
    ("kan.dendrices_with_colours", None),
    ("complexes.closure_cells", None),
    ("shuffles.shuffles", None),
    ("shuffles.tensor_complex", None),
    ("shuffles.filtration_base", None),
    ("anodyne.verify_certificate", None),
    ("anodyne.build_filtration", None),
    ("anodyne.generator_class", None),
    ("anodyne.search_certificate", None),
    ("lemmas.root_horn_certificate", None),
    ("lemmas.codim_certificate", None),
    ("lemmas.codim_additions", None),
    ("lemmas.binary_tensor_certificate", None),
    ("lemmas.extended_corolla_split_certificate", None),
    ("jsonio.dumps", "jsonio.emit"),
    ("jsonio.tree_to_json", "jsonio.emit"),
    ("jsonio.certificate_to_json", "jsonio.emit"),
    ("jsonio.kan_report_to_json", "jsonio.emit"),
    ("jsonio.load_operad", "jsonio.parse"),
    ("jsonio.operad_from_json", "jsonio.parse"),
    ("jsonio.smc_from_json", "jsonio.parse"),
    ("jsonio.tree_from_json", "jsonio.parse"),
    ("jsonio.certificate_from_json", "jsonio.parse"),
    ("cli.main", None),
)

# (layer module, class, method, metric name, group)
METHODS = (
    ("complexes", "Complex", "__init__", "complexes.Complex.init", None),
    ("complexes", "Complex", "closure", "complexes.Complex.closure", None),
    ("complexes", "Complex", "horn_subcomplex", "complexes.horn_subcomplex", None),
    ("operads", "TableOperad", "operations", "operads.operations", "operads"),
    ("operads", "TableOperad", "compose", "operads.compose", "operads"),
)

RATIOS = {
    "kan.horn_maps_per_candidate": ("kan.horn_maps", "kan.dendrices_with_colours.out"),
    "anodyne.search.steps_per_examined": ("anodyne.search.steps",
                                          "anodyne.search.examined"),
}

# Functions whose callers the stderr breakdown lists.
LEAVES = ("trees.faces", "nerves.face_of", "complexes.closure_cells")

# (metric, unit) in report order; the values come from `metrics`.
PER_LAYER = (
    ("nerves.face_of.calls", "count"),
    ("nerves.face_of.self_s", "s"),
    ("nerves.dendrex_closure.calls", "count"),
    ("nerves.dendrex_closure.self_s", "s"),
    ("nerves.dendrices.calls", "count"),
    ("nerves.dendrices.out", "count"),
    ("nerves.dendrices.self_s", "s"),
    ("kan.enumerate_horn_maps.calls", "count"),
    ("kan.enumerate_horn_maps.self_s", "s"),
    ("kan.dendrices_with_colours.calls", "count"),
    ("kan.dendrices_with_colours.out", "count"),
    ("kan.horn_maps", "count"),
    ("kan.horn_maps_per_candidate", "ratio"),
    ("kan.witnesses", "count"),
    ("kan.tree_shapes.self_s", "s"),
    ("operads.compose.calls", "count"),
    ("operads.operations.calls", "count"),
    ("operads.self_s", "s"),
    ("complexes.closure_cells.calls", "count"),
    ("complexes.closure_cells.self_s", "s"),
    ("complexes.Complex.init.calls", "count"),
    ("complexes.Complex.init.self_s", "s"),
    ("complexes.Complex.closure.calls", "count"),
    ("complexes.horn_subcomplex.calls", "count"),
    ("complexes.horn_subcomplex.self_s", "s"),
    ("anodyne.verify_certificate.calls", "count"),
    ("anodyne.verify_certificate.self_s", "s"),
    ("anodyne.steps_replayed", "count"),
    ("anodyne.build_filtration.self_s", "s"),
    ("anodyne.generator_class.calls", "count"),
    ("anodyne.search_certificate.self_s", "s"),
    ("anodyne.search.examined", "count"),
    ("anodyne.search.steps_per_examined", "ratio"),
    ("lemmas.root_horn_certificate.self_s", "s"),
    ("lemmas.codim_additions.self_s", "s"),
    ("lemmas.binary_tensor_certificate.self_s", "s"),
    ("shuffles.shuffles.self_s", "s"),
    ("shuffles.tensor_cells", "count"),
    ("jsonio.parse.self_s", "s"),
    ("jsonio.emit.self_s", "s"),
    ("jsonio.bytes_in", "B"),
    ("jsonio.bytes_out", "B"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.exit.0", "count"),
    ("cli.exit.1", "count"),
    ("cli.exit.2", "count"),
    ("trees.faces.calls", "count"),
    ("trees.faces.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Call counts, self times and layer counters for one traced pass."""

    def __init__(self):
        self.stack: list[list] = []                       # open [name, child_s]
        self.calls: dict[tuple, int] = defaultdict(int)   # (name, parent)
        self.self_s: dict[tuple, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.groups: dict[str, str] = {}                  # name -> self-time group
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, post=None, group: str | None = None):
        """`fn` with its calls and self time added to the totals, the self
        time also to `group` (default: `name`); `post` sees (tracer, result,
        args) after a call that returned."""
        self.groups[name] = group or name
        stack, calls, self_s = self.stack, self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = (name, stack[-1][0] if stack else None)
                calls[key] += 1
                self_s[key] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if post is not None:
                post(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------

    def install(self, d) -> None:
        """Patch every traced function of the dendro modules held by `d`."""
        modules = [m for n, m in sys.modules.items()
                   if n == "dendro" or n.startswith("dendro.")]
        for name, group in FUNCTIONS:
            layer, attr = name.split(".")
            orig = getattr(getattr(d, layer), attr)
            wrapped = self.wrap(name, orig, _POST.get(name), group)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapped)
        for layer, cls_name, attr, name, group in METHODS:
            cls = getattr(getattr(d, layer), cls_name)
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr], group=group))
        smc = d.operads.SMCOperad
        orig_init = smc.__init__
        tracer = self

        def init(op, *args, **kwargs):
            orig_init(op, *args, **kwargs)
            op.operations = tracer.wrap("operads.operations", op.operations,
                                        group="operads")
            op.compose = tracer.wrap("operads.compose", op.compose, group="operads")

        self._set(smc, "__init__", init)
        # JSON decoding of the CLI's input files is the parse layer's bulk
        self._set(json, "load", self.wrap("json.load", json.load, _count_bytes_in,
                                          "jsonio.parse"))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every PER_LAYER metric: `X.calls` counts calls of X, `X.self_s`
        sums the self time of the functions in group X, a ratio divides two
        counters, and any other name is a counter."""
        c = self.counters
        out = {}
        for metric, _ in PER_LAYER:
            base, _, last = metric.rpartition(".")
            if metric == "trace.overhead_s":
                out[metric] = overhead_s
            elif metric in RATIOS:
                num, den = RATIOS[metric]
                out[metric] = c[num] / c[den] if c[den] else 0.0
            elif last == "calls":
                out[metric] = sum(v for (n, _), v in self.calls.items() if n == base)
            elif last == "self_s":
                out[metric] = sum((v for (n, _), v in self.self_s.items()
                                   if self.groups[n] == base), 0.0)
            else:
                out[metric] = c[metric]
        return out

    def breakdown(self) -> list[str]:
        """Lines giving each leaf's calls and self time per caller."""
        lines = []
        for leaf in LEAVES:
            rows = sorted(((k[1] or "-", n, self.self_s[k])
                           for k, n in self.calls.items() if k[0] == leaf),
                          key=lambda r: -r[2])
            for parent, n, s in rows:
                lines.append(f"{leaf:26} <- {parent:40} {n:10d} calls {s:9.4f} s")
        return lines


# -- counters taken from results at the layer boundary ----------------------

def _add(key, value):
    def post(tracer, result, args):
        tracer.counters[key] += value(result)
    return post


def _verify_post(tracer, result, args):
    # nested and retract sub-certificates add their steps to the outer report
    if not any(f[0] == "anodyne.verify_certificate" for f in tracer.stack):
        tracer.counters["anodyne.steps_replayed"] += result.step_count


def _search_post(tracer, result, args):
    tracer.counters["anodyne.search.examined"] += result.examined
    if result.certificate is not None:
        tracer.counters["anodyne.search.steps"] += len(result.certificate.steps)


def _count_bytes_in(tracer, result, args):
    tracer.counters["jsonio.bytes_in"] += os.fstat(args[0].fileno()).st_size


def _cli_exit(tracer, result, args):
    tracer.counters[f"cli.exit.{result}"] += 1


_POST = {
    "nerves.dendrices": _add("nerves.dendrices.out", len),
    "kan.dendrices_with_colours": _add("kan.dendrices_with_colours.out", len),
    "kan.enumerate_horn_maps": _add("kan.horn_maps", len),
    "kan.kan_report": _add("kan.witnesses", lambda rep: len(rep.witnesses)),
    "anodyne.verify_certificate": _verify_post,
    "anodyne.search_certificate": _search_post,
    "shuffles.tensor_complex": _add("shuffles.tensor_cells", lambda c: len(c.cells)),
    "jsonio.dumps": _add("jsonio.bytes_out", lambda s: len(s.encode())),
    "cli.main": _cli_exit,
}
