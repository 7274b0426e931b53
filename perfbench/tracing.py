"""In-memory span tracer that wraps the public functions of each layer.

Nothing here is imported by the program.  `Tracer.install()` replaces every
binding of each wrapped function (the defining module's own global and every
`from .x import f` copy in the other layer modules), so internal calls such
as `family.mean_width` are seen too.  `uninstall()` puts the originals back.

A span is opened for each call of a wrapped function.  Its self time is its
duration minus the durations of its child spans, so the self times of all
spans add up exactly to the durations of the root spans (one per CLI
command, opened by the benchmark's runner as `cli.main`).

Not measured: methods (ConvexBody, Polyline, SphereGrid, Family) and the
private helpers are not wrapped, so their time, including the Qhull time of
`_intersect_bodies`, `_facet_equations` and `_vertex_adjacency_dirs`, is
self time of the calling public function.  Qhull constructions are counted,
not timed.
"""

import importlib
import inspect
import json
import os
import time

import scipy.spatial

PACKAGE = "descent_geom"
LAYERS = ("geom_core", "cones", "mean_width", "sep", "family", "descent")

# Per-function metrics named in the benchmark; every other public function of
# a layer is wrapped too, so that its time is charged to its own layer.
NAMED = {
    "geom_core": ("hull", "project", "includes", "hausdorff", "body_from_dict"),
    "cones": ("tangent_cone", "normal_cone", "dual_cone", "in_normal_cone",
              "normal_cone_limit_report"),
    "mean_width": ("mean_width",),
    "sep": ("is_sep", "prefix_hulls", "lipschitz_ratio", "length_bound_check"),
    "family": ("complete", "outer_parallel", "validate_stratification", "is_connected"),
    "descent": ("construct_descent", "make_expanding_couple", "is_expanding_couple",
                "is_viable_sdc", "annulus_length_check"),
}

# Cheap, very frequent helpers left unwrapped (their cost is in the caller),
# and the quadrature kernel, kept inside `mean_width.mean_width` self time.
UNWRAPPED = {"as_point", "as_points", "dedup_points", "sphere_measure",
             "mean_width_quadrature"}


def per_layer_metric_names():
    """Every per-layer metric of a traced run, in report order."""
    names = []
    for layer in LAYERS:
        for fn in NAMED[layer]:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
        if layer == "geom_core":
            names.append("geom_core.qhull_calls")
        if layer == "mean_width":
            names.append("mean_width.quad_flops")
        if layer == "sep":
            names.append("sep.is_sep.pairs")
        if layer == "family":
            names.append("family.interp_yield")
        names += [f"{layer}.self_s", f"{layer}.errors"]
    names += ["cli.main.calls", "cli.self_s", "cli.json_bytes_in",
              "cli.json_bytes_out", "cli.errors", "trace.overhead_ratio"]
    return names


class Tracer:
    """Collects spans and counters of one traced run in memory."""

    def __init__(self):
        self.spans = []  # (span id, parent id, job id, name, start, end)
        self.stack = []  # open frames: [span id, name, start, child time]
        self.calls = {}
        self.self_s = {}
        self.errors = {}
        self.counts = {"qhull_calls": 0, "quad_flops": 0, "is_sep_pairs": 0,
                       "complete_added": 0, "complete_outer_parallel": 0,
                       "json_bytes_in": 0, "json_bytes_out": 0}
        self.job = None
        self._next_id = 0
        self._in_complete = 0
        self._last_error = None
        self._patches = []  # (namespace dict, name, original)

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        self._next_id += 1
        self.stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def leave(self):
        end = time.perf_counter()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, parent[0] if parent else 0, self.job, name, start, end))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child

    def error(self, name, exc):
        """Count an exception once, at the innermost span it leaves."""
        if exc is not self._last_error:
            self._last_error = exc
            layer = name.split(".")[0]
            self.errors[layer] = self.errors.get(layer, 0) + 1

    def root_seconds(self):
        return sum(s[5] - s[4] for s in self.spans if s[1] == 0)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                tracer.error(name, e)
                raise
            finally:
                tracer.leave()
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _replace_everywhere(self, namespaces, original, replacement):
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    self._patches.append((ns, key, value))
                    ns[key] = replacement

    def install(self):
        pkg = importlib.import_module(PACKAGE)
        mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        cli = importlib.import_module(f"{PACKAGE}.cli")
        namespaces = [vars(m) for m in mods.values()] + [vars(cli), vars(pkg)]

        hooks = self._hooks()
        for layer, mod in mods.items():
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or fname in UNWRAPPED or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                before, after = hooks.get(fname, (None, None))
                self._replace_everywhere(
                    namespaces, fn, self._wrap(f"{layer}.{fname}", fn, before, after))

        quad = vars(mods["mean_width"])["mean_width_quadrature"]

        def counted_quadrature(K, grid):
            self.counts["quad_flops"] += 2 * grid.size * K.dim * K.nvertices
            return quad(K, grid)

        self._replace_everywhere(namespaces, quad, counted_quadrature)

        load_json = cli._load_json

        def counted_load_json(path):
            if path not in (None, "-"):
                self.counts["json_bytes_in"] += os.path.getsize(path)
            return load_json(path)

        self._replace_everywhere(namespaces, load_json, counted_load_json)

        for cls_name in ("ConvexHull", "HalfspaceIntersection"):
            cls = getattr(scipy.spatial, cls_name)
            self._replace_everywhere(
                namespaces + [vars(scipy.spatial)], cls, self._counting_class(cls))

    def _counting_class(self, cls):
        counts = self.counts

        class Counted(cls):
            def __init__(self, *args, **kwargs):
                counts["qhull_calls"] += 1
                super().__init__(*args, **kwargs)

        Counted.__name__ = cls.__name__
        return Counted

    def _hooks(self):
        counts = self.counts

        def sep_pairs(args, kwargs):
            m = len(args[0].points)
            counts["is_sep_pairs"] += m * (m - 1) // 2

        def complete_before(args, kwargs):
            self._in_complete += 1

        def complete_after(args, fam):
            self._in_complete -= 1
            counts["complete_added"] += len(fam.bodies) - len(args[0].bodies)

        def outer_parallel_before(args, kwargs):
            if self._in_complete:
                counts["complete_outer_parallel"] += 1

        return {
            "is_sep": (sep_pairs, None),
            "complete": (complete_before, complete_after),
            "outer_parallel": (outer_parallel_before, None),
        }

    def uninstall(self):
        for ns, key, value in reversed(self._patches):
            ns[key] = value
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_ratio, jobs):
        """Per-layer metrics (name -> (value, unit)), in the order of
        per_layer_metric_names.  Counts and times are per traced job."""
        out = {}
        layer_self = {layer: 0.0 for layer in LAYERS + ("cli",)}
        for name, s in self.self_s.items():
            layer_self[name.split(".")[0]] += s
        for layer in LAYERS:
            for fn in NAMED[layer]:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = (self.calls.get(key, 0) / jobs, "count")
                out[f"{key}.self_s"] = (self.self_s.get(key, 0.0) / jobs, "s")
            out[f"{layer}.self_s"] = (layer_self[layer] / jobs, "s")
            out[f"{layer}.errors"] = (self.errors.get(layer, 0) / jobs, "count")
        c = self.counts
        out["geom_core.qhull_calls"] = (c["qhull_calls"] / jobs, "count")
        out["mean_width.quad_flops"] = (c["quad_flops"] / jobs, "flop")
        out["sep.is_sep.pairs"] = (c["is_sep_pairs"] / jobs, "count")
        op = c["complete_outer_parallel"]
        out["family.interp_yield"] = (c["complete_added"] / op if op else 0.0, "ratio")
        out["cli.main.calls"] = (self.calls.get("cli.main", 0) / jobs, "count")
        out["cli.self_s"] = (layer_self["cli"] / jobs, "s")
        out["cli.json_bytes_in"] = (c["json_bytes_in"] / jobs, "B")
        out["cli.json_bytes_out"] = (c["json_bytes_out"] / jobs, "B")
        out["cli.errors"] = (self.errors.get("cli", 0) / jobs, "count")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return {k: out[k] for k in per_layer_metric_names()}

    def dump(self, path, extra):
        doc = dict(extra)
        doc["span_fields"] = ["id", "parent", "job", "name", "start", "end"]
        doc["spans"] = self.spans
        doc["calls"] = self.calls
        doc["self_s"] = self.self_s
        doc["errors"] = self.errors
        doc["counts"] = self.counts
        with open(path, "w") as f:
            json.dump(doc, f)
