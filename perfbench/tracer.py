"""In-memory span tracer that wraps the library's public functions.

``Tracer.install()`` replaces every public function of each layer module
(its ``__all__``, or its public functions when it has none) and every public
method of the classes it exports with a wrapper that records one span:
name, start, end, parent span, job and, for array layers, the number of
points.  Bindings made by ``from .x import y`` inside the package are
replaced too, so calls between modules are seen.  The separable kernel
factors that ``kernels.delta_terms`` hands to the solver are wrapped as
``kernels.term.*`` spans.  ``uninstall()`` restores every original.

Spans stay in memory; the caller writes them out once the run has ended.
A layer's self time is its spans' durations minus the time their child
spans cover.
"""

import collections
import dataclasses
import functools
import gzip
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "epdiff_radial"
LAYERS = (
    "bessel",
    "quadrature",
    "kernels",
    "grid",
    "liouville",
    "hunter_saxton",
    "solver",
    "certify",
    "scenario",
    "cli",
)
# Scalar helpers called inside the array functions of their own layer: a
# span around them would only charge the tracer's own cost to the caller.
SKIP = {
    "bessel.coeff",
    "kernels.q_weight_power",
    "kernels.s_limit_at_zero",
    "kernels.KernelSpec.label",
}


def _size(x):
    return x.size if isinstance(x, np.ndarray) else np.size(x)


def _points_second(args, kwargs):
    return _size(args[1] if len(args) > 1 else kwargs.get("r"))


def _points_first(args, kwargs):
    return _size(args[0]) if args else 0


# Work per call, counted for the array layers: bessel(p, r) and
# quadrature(f, r) / quadrature(r) take the sample array first or second.
POINTS = {"bessel": _points_second, "quadrature": _points_first}


def _csv_bytes(out):
    # The timestamp line is left out so that the count repeats exactly.
    with open(out.path, "rb") as fh:
        return sum(len(line) for line in fh if not line.startswith(b"# timestamp:"))


# Counts taken from a call's return value: name -> (counter, function).
RESULT_COUNTS = {
    "liouville.liouville_picard_oracle": ("liouville.oracle_steps",
                                          lambda res: len(res[0]) - 1),
    "scenario.run_scenario": ("scenario.csv_bytes", _csv_bytes),
}

# Spans are stored column-wise in int64 arrays, which the garbage collector
# does not have to scan: name id, parent span index (-1 at top level), job
# index, start ns, end ns, points, raised (0/1).
COLUMNS = ("name", "parent", "job", "start", "end", "points", "raised")


class Tracer:
    def __init__(self):
        self.names = []
        self.layers = []
        self.counts = collections.Counter()
        self.job = -1
        self._cols = tuple(array("q") for _ in COLUMNS)
        self._stack = []
        self._wrappers = None
        self._undo = []
        self._terms = {}

    # -------------------------------------------------------------- wrapping

    def _wrap(self, layer, qualname, func, transform=None):
        nid = len(self.names)
        name = f"{layer}.{qualname}"
        self.names.append(name)
        self.layers.append(layer)
        points = POINTS.get(layer)
        result_count = RESULT_COUNTS.get(name)
        name_c, parent_c, job_c, start_c, end_c, points_c, raised_c = self._cols
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(start_c)
            name_c.append(nid)
            parent_c.append(stack[-1] if stack else -1)
            job_c.append(self.job)
            points_c.append(points(args, kwargs) if points else 0)
            raised_c.append(0)
            end_c.append(0)
            stack.append(index)
            start_c.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                raised_c[index] = 1
                raise
            finally:
                end_c[index] = clock()
                stack.pop()
            if result_count:
                self.counts[result_count[0]] += result_count[1](result)
            return transform(result) if transform else result

        return traced

    def _traced_terms(self, terms):
        """Wrapped copies of the SeparableTerm tuple delta_terms returned."""
        key = id(terms)
        if key not in self._terms:
            wrapped = tuple(
                dataclasses.replace(
                    term,
                    **{f.name: self._wrap("kernels", f"term.{f.name}",
                                          getattr(term, f.name))
                       for f in dataclasses.fields(term)},
                )
                for term in terms
            )
            # keep the original alive so its id is not reused
            self._terms[key] = (terms, wrapped)
        return self._terms[key][1]

    def _function_patches(self, layer, name, func, modules):
        transform = self._traced_terms if name == "delta_terms" else None
        traced = self._wrap(layer, name, func, transform)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is func:
                    yield module, attr, traced

    def _class_patches(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            qualname = f"{cls.__name__}.{attr}"
            if attr.startswith("_") or f"{layer}.{qualname}" in SKIP:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                yield cls, attr, type(raw)(self._wrap(layer, qualname, raw.__func__))
            elif callable(raw):
                yield cls, attr, self._wrap(layer, qualname, raw)

    def _patches(self):
        """(owner, attribute, wrapper) for every public function and method."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            public = getattr(module, "__all__", None) or [
                n for n in vars(module) if not n.startswith("_")]
            for name in public:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    yield from self._class_patches(layer, obj)
                elif callable(obj) and f"{layer}.{name}" not in SKIP:
                    yield from self._function_patches(layer, name, obj, modules)

    def install(self):
        """Put the wrappers in place; they are built on the first call."""
        if self._wrappers is None:
            self._wrappers = list(self._patches())
        for owner, attr, traced in self._wrappers:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, traced)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --------------------------------------------------------------- results

    def take(self):
        """Spans ({column: int64 array}) and counts since the last call."""
        spans = {c: np.array(col, dtype=np.int64) for c, col in zip(COLUMNS, self._cols)}
        counts = collections.Counter(self.counts)
        for col in self._cols:
            del col[:]
        self.counts.clear()
        return spans, counts

    def summary(self, spans, counts, wall_ns):
        """(metrics, self seconds per layer, work counts) of one pass."""
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        layer_of_name = np.array([layer_ids[layer] for layer in self.layers])
        layer = layer_of_name[name]
        entry = ~nested | (layer[np.where(nested, parent, 0)] != layer)

        def per_name(weights=None, mask=None):
            keep = slice(None) if mask is None else mask
            w = None if weights is None else weights[keep]
            return np.bincount(name[keep], weights=w, minlength=len(self.names))

        calls, raised = per_name(), per_name(mask=spans["raised"] == 1)
        incl, self_ns = per_name(dur), per_name(own)

        names = np.array(self.names)

        def by_name(values, key):
            return float(values[names == key].sum())

        def by_layer(values, key):
            return float(values[layer_of_name == layer_ids[key]].sum())

        entry_calls = per_name(mask=entry)
        entry_points = per_name(spans["points"], mask=entry)
        m = {}
        for lay in ("bessel", "quadrature"):
            points = int(by_layer(entry_points, lay))
            own_ns = by_layer(self_ns, lay)
            m[f"{lay}.calls"] = int(by_layer(entry_calls, lay))
            m[f"{lay}.points"] = points
            m[f"{lay}.self_s"] = own_ns / 1e9
            m[f"{lay}.ns_per_point"] = own_ns / points if points else 0.0
        rhs = int(by_name(calls, "solver.rhs"))
        rejected = int(by_name(raised, "solver.step"))
        steps = int(by_name(calls, "solver.step")) - rejected
        rhs_self = by_name(self_ns, "solver.rhs") / 1e9
        m["solver.rhs_calls"] = rhs
        m["solver.steps_accepted"] = steps
        m["solver.steps_rejected"] = rejected
        m["solver.rhs_per_step"] = rhs / steps if steps else 0.0
        m["solver.rhs_self_s"] = rhs_self
        m["solver.run_self_s"] = by_layer(self_ns, "solver") / 1e9 - rhs_self
        for metric, key in (
            ("kernels.invert_s", "kernels.invert_operator"),
            ("kernels.apply_s", "kernels.apply_operator"),
            ("certify.certify_s", "certify.certify"),
            ("certify.dominance_s", "certify.check_dominance"),
            ("liouville.oracle_s", "liouville.liouville_picard_oracle"),
            ("hunter_saxton.flow_s", "hunter_saxton.HSExactSolution.flow"),
        ):
            m[metric] = by_name(incl, key) / 1e9
        for lay in ("kernels", "certify", "liouville", "hunter_saxton",
                    "scenario", "cli"):
            m[f"{lay}.self_s"] = by_layer(self_ns, lay) / 1e9
        m["liouville.oracle_steps"] = counts["liouville.oracle_steps"]
        m["scenario.csv_bytes"] = counts["scenario.csv_bytes"]
        m["trace.covered_frac"] = float(dur[~nested].sum()) / wall_ns
        layers = {lay: by_layer(self_ns, lay) / 1e9 for lay in LAYERS}

        def named(values):
            out = collections.Counter()
            for n, v in zip(self.names, values.tolist()):
                out[n] += int(v)
            return {n: v for n, v in sorted(out.items()) if v}

        work = {
            "calls": named(calls),
            "points": named(per_name(spans["points"])),
            "counts": dict(counts),
        }
        return m, layers, work

    def write_spans(self, path, passes):
        """Write [(pass, job ids, spans)] as gzip CSV, one span a line."""
        with gzip.open(path, "wt") as fh:
            fh.write("pass,span,parent,job,name,start_ns,end_ns,points,raised\n")
            for index, job_ids, spans in passes:
                rows = zip(*(spans[c].tolist() for c in COLUMNS))
                for i, (nid, parent, job, start, end, points, raised) in enumerate(rows):
                    fh.write(f"{index},{i},{parent},{job_ids[job] if job >= 0 else ''},"
                             f"{self.names[nid]},{start},{end},{points},{raised}\n")
