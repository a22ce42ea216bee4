"""Per-layer spans for the traced benchmark run.

The package's modules bind each other's functions by name (`from
.polyhedra import vertices`), so a wrapper replaces a function under every
name that refers to it: in the module that defines it and in every
presburger module that imported it.  Methods are replaced on their class.
Each call records a span (name, start, end, parent span, query id) in
flat arrays, timed in thread CPU seconds like the end-to-end metrics,
and a few counts taken from its arguments and return value.  Nothing is
written until the run ends.  restore() puts every original
object back.
"""

import functools
import json
import sys
from array import array
from time import thread_time

LAYERS = ("cli", "serialize", "formulas", "qelim", "semilinear",
          "polyhedra", "lattices", "genfun", "quasipoly")


def _atoms(f):
    """Atoms of a formula, walked by attribute so no import is needed."""
    if hasattr(f, "parts"):
        return sum(_atoms(p) for p in f.parts)
    if hasattr(f, "inner"):
        return _atoms(f.inner)
    if hasattr(f, "body"):
        return _atoms(f.body)
    return 1


def _max(counts, key, value):
    counts[key] = max(counts.get(key, 0), value)


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


# Counters per wrapped function: fn(counts, args, result, outermost).
def _count_qelim(c, args, result, outer):
    if outer:
        _add(c, "qelim.out_atoms", _atoms(result))


def _count_to_dnf(c, args, result, outer):
    if outer:
        _add(c, "semilinear.cells", len(result.cells))


def _count_feasible(c, args, result, outer):
    _add(c, "polyhedra.is_feasible.feasible", 1 if result else 0)


def _count_vertices(c, args, result, outer):
    _add(c, "polyhedra.vertices.count", len(result))
    _add(c, "polyhedra.vertices.rows_in",
         len(args[0].ineqs) + len(args[0].eqs))


def _count_tangent_cone(c, args, result, outer):
    _add(c, "polyhedra.tangent_cone.rays", len(result.generators))


def _count_triangulate(c, args, result, outer):
    _add(c, "polyhedra.triangulate.pieces", len(result))


def _count_gf_of_cell(c, args, result, outer):
    if outer:
        _add(c, "genfun.gf_terms", len(result.terms))


def _count_coset_points(c, args, result, outer):
    _add(c, "lattices.coset_points", len(result))


def _count_specialize(c, args, result, outer):
    _add(c, "genfun.specialize_ones.terms_in", len(args[0].terms))
    _add(c, "genfun.specialize_ones.terms_out", len(result.terms))


def _count_rgf_to_pqp(c, args, result, outer):
    for _cell, q in result.pieces:
        _max(c, "quasipoly.rgf_to_pqp.period", q.lattice.basis[0][0])


# (module, function, counter).  Functions listed with module "formulas" and
# a recursive body are wrapped only where other modules imported them: the
# per-node recursion inside formulas would otherwise pay the wrapper once
# per formula node, and the layer table asks for the calls from qelim and
# semilinear.
TARGETS = [
    ("cli", "main", None),
    ("serialize", "gf_to_obj", None),
    ("serialize", "semilinear_to_obj", None),
    ("serialize", "pqp_to_obj", None),
    ("serialize", "step_to_obj", None),
    ("serialize", "pqp_from_obj", None),
    ("serialize", "dumps", None),
    ("formulas", "parse", None),
    ("formulas", "format_formula", None),
    ("formulas", "free_vars", None),
    ("formulas", "substitute", None),
    ("formulas", "simplify", None),
    ("formulas", "nnf", None),
    ("qelim", "decide", None),
    ("qelim", "qelim", _count_qelim),
    ("qelim", "eliminate_exists", None),
    ("semilinear", "to_dnf", _count_to_dnf),
    ("polyhedra", "is_feasible", _count_feasible),
    ("polyhedra", "implicit_equalities", None),
    ("polyhedra", "vertices", _count_vertices),
    ("polyhedra", "tangent_cone", _count_tangent_cone),
    ("polyhedra", "triangulate", _count_triangulate),
    ("lattices", "coset_intersect", None),
    ("lattices", "congruences_of_coset", None),
    ("lattices", "rat_inv", None),
    ("lattices", "solve_int", None),
    ("lattices", "Lattice.coset_representatives", _count_coset_points),
    ("genfun", "gf_of_formula", None),
    ("genfun", "counting_gf", None),
    ("genfun", "gf_of_cell", _count_gf_of_cell),
    ("genfun", "specialize_ones", _count_specialize),
    ("genfun", "series_coeffs", None),
    ("quasipoly", "rgf_to_pqp", _count_rgf_to_pqp),
    ("quasipoly", "eventual_form", None),
    ("quasipoly", "qp_to_step", None),
    ("quasipoly", "synth_formula", None),
    ("quasipoly", "vpf_gf", None),
    ("quasipoly", "vpf_pqp", None),
    ("quasipoly", "partition_count", None),
]
RECURSIVE_IN_DEFINING_MODULE = {("formulas", "substitute"),
                                ("formulas", "simplify"),
                                ("formulas", "nnf"),
                                ("formulas", "free_vars")}


class Tracer:
    """Wraps the package's layer boundaries and records spans."""

    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_query = array("l")
        self.span_outer = array("b")
        self.counts = {}
        self.query = -1
        self._stack = []
        self._depth = []
        self._patches = []

    # -- patching ---------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "presburger"
                                      or name.startswith("presburger."))]

    def install(self):
        """Replace every target under every name bound to it."""
        modules = self._modules()
        for layer, qualname, counter in TARGETS:
            home = sys.modules[f"presburger.{layer}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(f"{layer}.{attr}", original, counter)
                self._patch(cls, attr, original, wrapper)
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(f"{layer}.{qualname}", original, counter)
            for module in modules:
                if (module is home
                        and (layer, qualname) in RECURSIVE_IN_DEFINING_MODULE):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put back every replaced object, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, name, fn, counter):
        idx = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        stack, depth = self._stack, self._depth
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, queries, outers = (self.span_parent, self.span_query,
                                    self.span_outer)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            d = depth[idx]
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            queries.append(self.query)
            outers.append(d == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            depth[idx] = d + 1
            t0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = thread_time()
                starts[i] = t0
                ends[i] = t1
                stack.pop()
                depth[idx] = d
            if counter is not None:
                counter(counts, args, result, d == 0)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per-function and per-layer totals over every recorded span.

        `s` sums the outermost spans of a function (recursion is not
        counted twice), `self_s` sums span time not covered by child spans.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [name.split(".")[0] for name in self.names]
        out = {}
        for i in range(n):
            k = self.span_name[i]
            name = self.names[k]
            self_time = dur[i] - child[i]
            _add(out, f"{name}.calls", 1)
            _add(out, f"{name}.self_s", self_time)
            if self.span_outer[i]:
                _add(out, f"{name}.s", dur[i])
            layer = layer_of[k]
            _add(out, f"{layer}.self_s", self_time)
            p = self.span_parent[i]
            if p < 0 or layer_of[self.span_name[p]] != layer:
                _add(out, f"{layer}.s", dur[i])
                _add(out, f"{layer}.calls", 1)
        out.update(self.counts)
        return out

    def write(self, path, meta):
        """Write every span as JSON: a name table and one row per span."""
        rows = [[self.span_name[i], round(self.span_start[i], 7),
                 round(self.span_end[i], 7), self.span_parent[i],
                 self.span_query[i]] for i in range(len(self.span_start))]
        doc = dict(meta, names=self.names,
                   columns=["name", "start", "end", "parent", "query"],
                   spans=rows)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# Per-layer metrics reported by the traced run, in BENCHMARK.json order.
# Times are seconds per pass over the query list; counts are per pass.
PER_LAYER = [
    ("qelim.qelim.s", "s"), ("qelim.qelim.self_s", "s"),
    ("qelim.qelim.calls", "count"), ("qelim.out_atoms", "count"),
    ("formulas.substitute.s", "s"), ("formulas.simplify.s", "s"),
    ("formulas.nnf.s", "s"), ("formulas.parse.s", "s"),
    ("semilinear.to_dnf.s", "s"), ("semilinear.to_dnf.self_s", "s"),
    ("semilinear.cells", "count"),
    ("lattices.coset_intersect.s", "s"),
    ("lattices.coset_intersect.calls", "count"),
    ("polyhedra.is_feasible.s", "s"), ("polyhedra.is_feasible.calls", "count"),
    ("polyhedra.is_feasible.feasible_frac", "ratio"),
    ("polyhedra.implicit_equalities.s", "s"),
    ("polyhedra.implicit_equalities.calls", "count"),
    ("polyhedra.vertices.s", "s"), ("polyhedra.vertices.calls", "count"),
    ("polyhedra.vertices.count", "count"),
    ("polyhedra.vertices.rows_in", "count"),
    ("polyhedra.tangent_cone.s", "s"),
    ("polyhedra.tangent_cone.rays", "count"),
    ("polyhedra.triangulate.s", "s"),
    ("polyhedra.triangulate.pieces", "count"),
    ("genfun.gf_of_cell.s", "s"), ("genfun.gf_of_cell.self_s", "s"),
    ("genfun.gf_of_cell.calls", "count"), ("genfun.gf_terms", "count"),
    ("lattices.coset_points", "count"),
    ("lattices.rat_inv.s", "s"), ("lattices.rat_inv.calls", "count"),
    ("genfun.specialize_ones.s", "s"),
    ("genfun.specialize_ones.calls", "count"),
    ("genfun.specialize_ones.terms_in", "count"),
    ("genfun.specialize_ones.terms_out", "count"),
    ("genfun.series_coeffs.s", "s"),
    ("quasipoly.rgf_to_pqp.s", "s"), ("quasipoly.eventual_form.s", "s"),
    ("quasipoly.qp_to_step.s", "s"), ("quasipoly.synth_formula.s", "s"),
    ("quasipoly.vpf_pqp.s", "s"), ("quasipoly.rgf_to_pqp.period", "count"),
    ("quasipoly.partition_count.s", "s"),
    ("quasipoly.partition_count.calls", "count"),
    ("serialize.s", "s"), ("serialize.calls", "count"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.overhead_frac", "ratio"),
]
