"""Span tracer that instruments racklab from outside the package.

`Tracer.install()` wraps every public function of the layer modules, replaces
each reference to it in every racklab module (and in `verify.CHECKS`), and
patches `Rack.closure` on the class.  Each wrapped call becomes a span
(id, parent, name, start, end, self time) kept in memory; `Rack.closure` is
too hot for spans and is aggregated as a call count plus total time, charged
to the enclosing span as child time.  Self times therefore add up to the
root span's duration exactly, which `layer_metrics` checks.  Counter
bookkeeping runs after a span closes and lands in its caller's self time;
the traced-minus-untraced wall time (trace.overhead_s) covers it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import re
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("groups", "racks", "lattice", "topology", "partitions", "catalog", "verify", "cli")

# public lattice functions whose self time is reported as lattice.analytics_s
ANALYTICS = frozenset(
    "lattice." + n
    for n in (
        "gradedness", "all_maximal_chain_lengths", "atoms", "coatoms", "int_lattice",
        "compute_M", "is_boolean", "is_boolean_sets", "product_decomposition_check",
    )
)

CLOSURE = "racks.Rack.closure"
# called up to hundreds of thousands of times per workload: aggregated, not spans
HOT = frozenset((
    CLOSURE, "lattice.closure_bar", "groups.conjugate_subgroup_mask",
    "groups.subgroup_closure_mask",
))
_DIMENSION_RE = re.compile(r"at dimension (\d+)")
_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # (id, parent id, name, start, end, self seconds, closure calls beneath)
        self.spans: list[tuple] = []
        # open frames: [span id, child seconds, direct closure calls]
        self.frames: list[list] = []
        # aggregated hot functions: name -> [calls, seconds]
        self.hot: dict[str, list] = {}
        self.counters: dict[str, float] = defaultdict(int)
        self.budget_events: list[dict] = []
        self.wall_s = 0.0
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._cached_analyze = None
        self.budget_exception: tuple[type, ...] = ()

    # -- spans ----------------------------------------------------------

    def _open(self) -> list:
        self._next_id += 1
        frame = [self._next_id, 0.0, 0]
        self.frames.append(frame)
        return frame

    def _close(self, frame: list, name: str, t0: float, t1: float) -> None:
        self.frames.pop()
        dur = t1 - t0
        self.frames[-1][1] += dur
        parent = self.frames[-1][0]
        self.spans.append((frame[0], parent, name, t0, t1, dur - frame[1], frame[2]))

    def start_root(self) -> None:
        self.frames[:] = [[0, 0.0, 0]]
        self.root_start = _clock()

    def stop_root(self) -> None:
        t1 = _clock()
        root = self.frames[0]
        self.wall_s = t1 - self.root_start
        self.spans.append((0, None, "bench.run", self.root_start, t1,
                           self.wall_s - root[1], root[2]))

    @contextmanager
    def span(self, name: str):
        frame = self._open()
        t0 = _clock()
        try:
            yield
        finally:
            self._close(frame, name, t0, _clock())

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            frame = self._open()
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, name, t0, _clock())
                if isinstance(exc, self.budget_exception):
                    self._budget_error(name, exc)
                raise
            self._close(frame, name, t0, _clock())
            self._observe(name, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        # each resumption is a span, so the consumer's time is never charged here

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = self._open()
                t0 = _clock()
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(frame, name, t0, _clock())
                    return
                self._close(frame, name, t0, _clock())
                yield item

        return traced

    def _wrap_hot(self, name: str, fn, is_closure: bool):
        # count and total time only; charged to the enclosing span as child time
        frames = self.frames
        stat = self.hot.setdefault(name, [0, 0.0])

        def traced(*args):
            t0 = _clock()
            result = fn(*args)
            dt = _clock() - t0
            frame = frames[-1]
            frame[1] += dt
            frame[2] += is_closure
            stat[0] += 1
            stat[1] += dt
            return result

        return traced

    def _budget_error(self, name: str, exc) -> None:
        if getattr(exc, "_perfbench_seen", False):
            return
        exc._perfbench_seen = True
        m = _DIMENSION_RE.search(str(exc))
        self.budget_events.append({
            "span": name,
            "partial": exc.partial,
            "dimension": int(m.group(1)) if m else None,
            "message": str(exc),
        })

    def _observe(self, name: str, args: tuple, result) -> None:
        c = self.counters
        if name == "lattice.enumerate_subracks":
            c["lattice.nodes"] += result.n
            c["lattice.covers"] += result.edge_count()
        elif name == "topology.order_complex":
            c["topology.simplices"] += result.size()
        elif name == "topology.collapse_complex":
            c["topology.collapse_in"] += args[0].size()
            c["topology.simplices_reduced"] += result.size()
        elif name == "topology.rank_and_torsion":
            rank, torsion = result
            c["topology.unit_factors"] += rank - len(torsion)
            c["topology.nonunit_factors"] += len(torsion)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        import racklab
        from racklab import catalog, lattice, racks, verify

        layer_modules = {layer: importlib.import_module(f"racklab.{layer}") for layer in LAYERS}
        self.budget_exception = lattice.BudgetExceeded
        self._cached_analyze = catalog.analyze_group
        check_names = {fn: "verify.check." + cid for cid, fn in verify.CHECKS.items()}
        # id(original) -> (original, wrapper); the original is kept alive here
        wrapped: dict[int, tuple[object, object]] = {}
        for layer, mod in layer_modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_own_function(obj, mod.__name__):
                    continue
                name = check_names.get(obj, f"{layer}.{attr}")
                if name in HOT:
                    wrapper = self._wrap_hot(name, obj, is_closure=False)
                elif inspect.isgeneratorfunction(obj):
                    wrapper = self._wrap_generator(name, obj)
                else:
                    wrapper = self._wrap(name, obj)
                wrapped[id(obj)] = (obj, wrapper)
        for mod in [racklab, *layer_modules.values()]:
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])
        for cid, fn in list(verify.CHECKS.items()):
            self._patch_item(verify.CHECKS, cid, wrapped[id(fn)][1])
        self._patch(racks.Rack, "closure", self._wrap_hot(CLOSURE, racks.Rack.closure, is_closure=True))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_item(self, mapping: dict, key, new) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, self_s, closures in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "start": t0, "end": t1,
                    "self_s": self_s, "closure_calls": closures,
                }) + "\n")
            for name, (calls, seconds) in sorted(self.hot.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls, "seconds": seconds}) + "\n")
            for event in self.budget_events:
                fh.write(json.dumps({"budget_exceeded": event}) + "\n")

    def layer_metrics(self, check_ids) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        self_by_layer: dict[str, float] = defaultdict(float)
        calls_by_layer: dict[str, int] = defaultdict(int)
        by_name: dict[str, float] = defaultdict(float)
        enum_closures = 0
        by_id = {s[0]: s for s in self.spans}
        check_incl: dict[str, float] = defaultdict(float)
        analyze_s = 0.0
        analyze_calls = 0
        for sid, parent, name, t0, t1, self_s, closures in self.spans:
            layer = name.split(".", 1)[0]
            self_by_layer[layer] += self_s
            calls_by_layer[layer] += 1
            by_name[name] += self_s
            if name == "lattice.enumerate_subracks":
                enum_closures += closures
            if name.startswith("verify.check."):
                check_incl[name] += t1 - t0
            elif name == "catalog.analyze_group":
                analyze_s += t1 - t0
                analyze_calls += 1
                # the shared warm-up is charged to catalog, not to the check
                # that happened to ask first
                up = by_id.get(parent)
                while up is not None and not up[2].startswith("verify.check."):
                    up = by_id.get(up[1])
                if up is not None:
                    check_incl[up[2]] -= t1 - t0
        closure_calls, closure_s = self.hot.get(CLOSURE, (0, 0.0))
        for name, (calls, seconds) in self.hot.items():
            if name != CLOSURE:
                layer = name.split(".", 1)[0]
                self_by_layer[layer] += seconds
                calls_by_layer[layer] += calls
        wall = self.wall_s
        accounted = sum(self_by_layer.values()) + closure_s
        c = self.counters
        cache = self._cached_analyze.cache_info() if self._cached_analyze else None
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        m["groups.calls"] = calls_by_layer["groups"]
        m["racks.closure_s"] = closure_s
        m["racks.closure_calls"] = closure_calls
        m["lattice.enumerate_s"] = by_name["lattice.enumerate_subracks"]
        m["lattice.analytics_s"] = sum(v for k, v in by_name.items() if k in ANALYTICS)
        m["lattice.nodes"] = c["lattice.nodes"]
        m["lattice.covers"] = c["lattice.covers"]
        m["lattice.cover_yield"] = c["lattice.covers"] / enum_closures if enum_closures else 0.0
        m["topology.order_complex_s"] = by_name["topology.order_complex"]
        m["topology.collapse_s"] = by_name["topology.collapse_complex"]
        m["topology.boundary_s"] = by_name["topology.boundary_matrices"]
        m["topology.snf_s"] = by_name["topology.rank_and_torsion"] + by_name["topology.smith_normal_form"]
        m["topology.simplices"] = c["topology.simplices"]
        m["topology.simplices_reduced"] = c["topology.simplices_reduced"]
        m["topology.collapse_yield"] = (
            1 - c["topology.simplices_reduced"] / c["topology.collapse_in"]
            if c["topology.collapse_in"] else 0.0
        )
        m["topology.unit_factors"] = c["topology.unit_factors"]
        m["topology.nonunit_factors"] = c["topology.nonunit_factors"]
        topo_budget = [e for e in self.budget_events if e["span"].startswith("topology.")]
        m["topology.budget_exceeded"] = len(topo_budget)
        m["topology.budget_partial"] = sum(e["partial"] for e in topo_budget)
        m["topology.budget_dimension"] = max(
            (e["dimension"] for e in topo_budget if e["dimension"] is not None), default=-1
        )
        m["catalog.analyze_s"] = analyze_s
        m["catalog.analyze_calls"] = analyze_calls
        m["catalog.cache_hits"] = cache.hits if cache else 0
        for cid in check_ids:
            m[f"verify.check.{cid}_s"] = check_incl["verify.check." + cid]
        m["bench.self_s"] = self_by_layer["bench"]
        m["trace.wall_s"] = wall
        m["trace.unaccounted_s"] = wall - accounted
        m["trace.spans"] = len(self.spans)
        return m


def _is_own_function(obj, module_name: str) -> bool:
    if inspect.isfunction(obj):
        return obj.__module__ == module_name
    # functools.lru_cache wrappers (catalog.analyze_group)
    inner = getattr(obj, "__wrapped__", None)
    return hasattr(obj, "cache_info") and inspect.isfunction(inner) and inner.__module__ == module_name

