"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the listed public functions and methods of
the ``hyperbasis`` modules with timing and counting wrappers, under
every module-level name that refers to them (``prune`` imports
``region_tree`` and ``classify_arcs`` by name, for instance), and
``uninstall`` puts the originals back.  A name that no longer exists is
reported as missing and skipped.

Each wrapped call records a span (name, start, end, parent span,
invocation id) in memory.  The two distance-oracle methods run tens of
thousands of times per pipeline, so they are only counted and timed,
and their time is charged to the calling span as child time.  Self time
is a span's duration minus the time of the wrapped calls inside it.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

# (module, attribute path, group).  A group's time is the inclusive time
# of its outermost calls, so nested calls inside one group count once.
TARGETS = (
    ("hypmodel", "regular_model", "hypmodel.load"),
    ("hypmodel", "load_synthetic", "hypmodel.load"),
    ("hypmodel", "RegularDoubledPolygonModel.loop_radius", "hypmodel.loop_radius"),
    ("hypmodel", "SyntheticModel.loop_radius", "hypmodel.loop_radius"),
    ("hypmodel", "RegularDoubledPolygonModel.pair_distance", "hypmodel.pair_distance"),
    ("hypmodel", "SyntheticModel.pair_distance", "hypmodel.pair_distance"),
    ("hypmodel", "RegularDoubledPolygonModel.build_arc_graph", "hypmodel.build_arc_graph"),
    ("hypmodel", "SyntheticModel.build_arc_graph", "hypmodel.build_arc_graph"),
    ("growth", "simulate", "growth.simulate"),
    ("growth", "verify_radius_bounds", "growth.verify_radius_bounds"),
    ("growth", "arc_graph", "growth.arc_graph"),
    ("spheremap", "from_json", "spheremap.from_json"),
    ("spheremap", "classify_components", "spheremap.classify"),
    ("spheremap", "classify_arcs", "spheremap.classify"),
    ("spheremap", "region_tree", "spheremap.region_tree"),
    ("spheremap", "is_nonseparating", "spheremap.parity"),
    ("spheremap", "region_admits_odd_curve", "spheremap.parity"),
    ("spheremap", "SphereMap.without_arcs", "spheremap.without_arcs"),
    ("spheremap", "MapBuilder.region_of_vertex", "spheremap.mapbuilder"),
    ("spheremap", "MapBuilder.corners_on_region", "spheremap.mapbuilder"),
    ("spheremap", "MapBuilder.region_item_contents", "spheremap.mapbuilder"),
    ("spheremap", "MapBuilder.add_bone", "spheremap.mapbuilder"),
    ("spheremap", "MapBuilder.attach_edge", "spheremap.mapbuilder"),
    ("spheremap", "MapBuilder.add_loop", "spheremap.mapbuilder"),
    ("spheremap", "MapBuilder.finalize", "spheremap.mapbuilder"),
    ("cover", "build_cover", "cover.build_cover"),
    ("cover", "complement_components", "cover.complement_components"),
    ("cover", "z2_cycle_rank", "cover.z2_cycle_rank"),
    ("prune", "prune", "prune.prune"),
    ("prune", "preliminary_steps", "prune.preliminary_steps"),
    ("prune", "verify", "prune.verify"),
    ("jsonio", "dumps", "jsonio.dumps"),
    ("jsonio", "dumps_pretty", "jsonio.dumps"),
)

# counted and timed without a span record; they call no wrapped code
LEAF_GROUPS = frozenset({"hypmodel.loop_radius", "hypmodel.pair_distance"})

PACKAGE = "hyperbasis"

# per-layer metric name -> unit; the order is the report order
LAYER_METRICS = {
    "hypmodel.loop_radius_calls": "count",
    "hypmodel.pair_distance_calls": "count",
    "hypmodel.oracle_s": "s",
    "hypmodel.load_s": "s",
    "hypmodel.build_arc_graph_s": "s",
    "growth.simulate_self_s": "s",
    "growth.events": "count",
    "growth.verify_radius_bounds_s": "s",
    "growth.arc_graph_s": "s",
    "growth.simulate_slope": "ratio",
    "growth.simulate_slope_points": "count",
    "spheremap.from_json_s": "s",
    "spheremap.mapbuilder_s": "s",
    "spheremap.mapbuilder_calls": "count",
    "spheremap.classify_s": "s",
    "spheremap.region_tree_s": "s",
    "spheremap.region_tree_calls": "count",
    "spheremap.parity_s": "s",
    "spheremap.without_arcs_calls": "count",
    "spheremap.without_arcs_s": "s",
    "spheremap.faces": "count",
    "spheremap.region_levels_max": "count",
    "cover.build_cover_s": "s",
    "cover.build_cover_calls": "count",
    "cover.scaffold_edges": "count",
    "cover.branch_cuts": "count",
    "cover.cells": "count",
    "cover.complement_components_s": "s",
    "cover.z2_cycle_rank_s": "s",
    "cover.rank_rows": "count",
    "cover.build_cover_slope": "ratio",
    "cover.build_cover_slope_points": "count",
    "prune.prune_self_s": "s",
    "prune.preliminary_steps_s": "s",
    "prune.verify_self_s": "s",
    "prune.trace_steps": "count",
    "prune.kept_arcs": "count",
    "jsonio.dumps_s": "s",
    "cli.report_bytes": "bytes",
    "cli.other_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.untraced_batch_s": "s",
}


def _simulate_sizes(tracer, args, result, dur):
    tracer.count("growth.events", len(result.events))
    tracer.sample("simulate", args[0].n_points, dur)


def _map_faces(tracer, args, result, dur):
    tracer.count("spheremap.faces", len(result.faces))


def _region_levels(tracer, args, result, dur):
    levels = max(result.levels.values(), default=0)
    tracer.counters["spheremap.region_levels_max"] = max(
        tracer.counters.get("spheremap.region_levels_max", 0), levels
    )


def _cover_sizes(tracer, args, result, dur):
    master = result.master
    tracer.count("cover.scaffold_edges", sum(1 for e in master.edges if e.arc_id is None))
    tracer.count("cover.branch_cuts", len(master.branch_cuts))
    tracer.count("cover.cells", result.n_vertices + result.n_edges + result.n_faces)
    tracer.sample("build_cover", args[0].n_cone, dur)


def _rank_rows(tracer, args, result, dur):
    cov, cycles = args[0], args[1]
    tracer.count("cover.rank_rows", cov.n_faces + len(cycles))


def _prune_sizes(tracer, args, result, dur):
    tracer.count("prune.trace_steps", len(result.trace))
    tracer.count("prune.kept_arcs", len(result.kept))


# size counters read off returned objects, keyed by target name
HOOKS = {
    "growth.simulate": _simulate_sizes,
    "growth.arc_graph": _map_faces,
    "spheremap.from_json": _map_faces,
    "spheremap.region_tree": _region_levels,
    "cover.build_cover": _cover_sizes,
    "cover.z2_cycle_rank": _rank_rows,
    "prune.prune": _prune_sizes,
}


class _Frame:
    __slots__ = ("sid", "child")

    def __init__(self, sid):
        self.sid = sid
        self.child = 0.0


class Tracer:
    """Spans and counters of the wrapped calls made since the last reset."""

    def __init__(self):
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.hook_errors: set[str] = set()
        self.op = -1
        self.reset()

    def reset(self) -> None:
        # span: (sid, op, name, group, start, end, parent sid, self time)
        self.spans: list[tuple] = []
        self.stack: list[_Frame] = []
        self.next_sid = 0
        self.group_depth: dict[str, int] = {}
        self.group_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[tuple[int, float]]] = {}
        self.root_time = 0.0

    def count(self, key: str, n) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def sample(self, key: str, size: int, dur: float) -> None:
        self.samples.setdefault(key, []).append((size, dur))

    # -- wrappers -------------------------------------------------------

    def _leaf(self, group, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                tracer.calls[group] = tracer.calls.get(group, 0) + 1
                tracer.group_time[group] = tracer.group_time.get(group, 0.0) + dur
                if tracer.stack:
                    tracer.stack[-1].child += dur
                else:
                    tracer.root_time += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, name, group, fn):
        tracer = self
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = _Frame(tracer.next_sid)
            tracer.next_sid += 1
            depth = tracer.group_depth.get(group, 0)
            tracer.group_depth[group] = depth + 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.group_depth[group] = depth
                if depth == 0:
                    tracer.group_time[group] = tracer.group_time.get(group, 0.0) + dur
                tracer.calls[group] = tracer.calls.get(group, 0) + 1
                own = dur - frame.child
                tracer.self_time[name] = tracer.self_time.get(name, 0.0) + own
                if parent is None:
                    tracer.root_time += dur
                else:
                    parent.child += dur
                tracer.spans.append(
                    (frame.sid, tracer.op, name, group, t0, t1,
                     None if parent is None else parent.sid, own)
                )
            if hook is not None:
                try:
                    hook(tracer, args, result, dur)
                except (AttributeError, TypeError, IndexError) as e:
                    tracer.hook_errors.add(f"{name}: {e}")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target found in the imported package modules."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrappers: dict[int, object] = {}
        self.missing = []
        for mod_name, path, group in TARGETS:
            *cls, attr = path.split(".")
            owner = modules.get(f"{PACKAGE}.{mod_name}")
            if owner is not None and cls:
                owner = getattr(owner, cls[0], None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{path}")
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (self._leaf(group, fn) if group in LEAF_GROUPS
                                    else self._span(f"{mod_name}.{attr}", group, fn))
            if cls:
                # methods are looked up on the class at every call
                self._set(owner, attr, wrappers[id(fn)])
        # module-level functions: replace every name bound to an original
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None and getattr(w, "__wrapped__", None) is value:
                    self._set(mod, attr, w)

    def _set(self, owner, attr, wrapper) -> None:
        self.installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    # -- per-pass metrics -----------------------------------------------

    def layer_metrics(self, op_time: float, report_bytes: int) -> dict[str, float]:
        """Per-layer values of one traced pass over the batch; ``op_time``
        is the summed wall time of the pass's invocations."""
        g, c, s = self.group_time.get, self.calls.get, self.self_time.get
        sim_slope, sim_n = _loglog_slope(self.samples.get("simulate", []))
        cov_slope, cov_n = _loglog_slope(self.samples.get("build_cover", []))
        out = {
            "hypmodel.loop_radius_calls": c("hypmodel.loop_radius", 0),
            "hypmodel.pair_distance_calls": c("hypmodel.pair_distance", 0),
            "hypmodel.oracle_s": g("hypmodel.loop_radius", 0.0) + g("hypmodel.pair_distance", 0.0),
            "hypmodel.load_s": g("hypmodel.load", 0.0),
            "hypmodel.build_arc_graph_s": g("hypmodel.build_arc_graph", 0.0),
            "growth.simulate_self_s": s("growth.simulate", 0.0),
            "growth.events": self.counters.get("growth.events", 0),
            "growth.verify_radius_bounds_s": g("growth.verify_radius_bounds", 0.0),
            "growth.arc_graph_s": g("growth.arc_graph", 0.0),
            "growth.simulate_slope": sim_slope,
            "growth.simulate_slope_points": sim_n,
            "spheremap.from_json_s": g("spheremap.from_json", 0.0),
            "spheremap.mapbuilder_s": g("spheremap.mapbuilder", 0.0),
            "spheremap.mapbuilder_calls": c("spheremap.mapbuilder", 0),
            "spheremap.classify_s": g("spheremap.classify", 0.0),
            "spheremap.region_tree_s": g("spheremap.region_tree", 0.0),
            "spheremap.region_tree_calls": c("spheremap.region_tree", 0),
            "spheremap.parity_s": g("spheremap.parity", 0.0),
            "spheremap.without_arcs_calls": c("spheremap.without_arcs", 0),
            "spheremap.without_arcs_s": g("spheremap.without_arcs", 0.0),
            "spheremap.faces": self.counters.get("spheremap.faces", 0),
            "spheremap.region_levels_max": self.counters.get("spheremap.region_levels_max", 0),
            "cover.build_cover_s": g("cover.build_cover", 0.0),
            "cover.build_cover_calls": c("cover.build_cover", 0),
            "cover.scaffold_edges": self.counters.get("cover.scaffold_edges", 0),
            "cover.branch_cuts": self.counters.get("cover.branch_cuts", 0),
            "cover.cells": self.counters.get("cover.cells", 0),
            "cover.complement_components_s": g("cover.complement_components", 0.0),
            "cover.z2_cycle_rank_s": g("cover.z2_cycle_rank", 0.0),
            "cover.rank_rows": self.counters.get("cover.rank_rows", 0),
            "cover.build_cover_slope": cov_slope,
            "cover.build_cover_slope_points": cov_n,
            "prune.prune_self_s": s("prune.prune", 0.0),
            "prune.preliminary_steps_s": g("prune.preliminary_steps", 0.0),
            "prune.verify_self_s": s("prune.verify", 0.0),
            "prune.trace_steps": self.counters.get("prune.trace_steps", 0),
            "prune.kept_arcs": self.counters.get("prune.kept_arcs", 0),
            "jsonio.dumps_s": g("jsonio.dumps", 0.0),
            "cli.report_bytes": report_bytes,
            "cli.other_s": op_time - self.root_time,
        }
        return out

    def self_time_total(self) -> float:
        """Summed self time of every wrapped call, oracle calls included."""
        return (sum(self.self_time.values()) + self.group_time.get("hypmodel.loop_radius", 0.0)
                + self.group_time.get("hypmodel.pair_distance", 0.0))


def _loglog_slope(samples) -> tuple[float, int]:
    """Least-squares slope of log(time) against log(size), with the
    number of calls it was fitted over; 0.0 with fewer than two sizes."""
    pts = [(math.log(n), math.log(t)) for n, t in samples if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0, len(pts)
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx, len(pts)
