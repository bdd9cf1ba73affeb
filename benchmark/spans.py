"""Spans and counters recorded from outside `wobble`.

`Tracer.install()` swaps each traced public function of `wobble` for a
wrapper, in every module namespace that holds it, and `uninstall()` puts the
originals back, so untraced ops run the unmodified program. A wrapped
function records a span (name, start, end, parent, pid). Terrain height and
gradient calls are counted and timed but get no span each: a march solve
makes about half a million of them.

Campaign runs execute in forked pool workers. The wrapper around
`cli._run_one` ships the worker's spans and counter deltas back inside the
run's record, and the wrapper around `cli.run_campaign` merges them before
the CSV is written; the CSV columns are fixed, so the extra key never
reaches it.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

SPAN_FUNCTIONS = {
    "terrain": ("estimate_slope_bound", "generate_terrain", "parse_terrain"),
    "ring": ("trace_ring", "ring_point", "chord_advance",
             "circle_surface_intersection"),
    "contact": ("settle_three_feet", "drop_rotate", "signed_heights"),
    "motion": ("run_march", "run_pivot_slide", "find_equilibrium",
               "verify_equilibrium"),
    "balance": ("height_scan", "find_balance_angles", "approximate_equilibrium"),
    "cli": ("main", "run_campaign", "_run_one"),
}
_TRACE_KEY = "_bench_trace"


class Tracer:
    def __init__(self):
        import wobble

        self.wobble = wobble
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        # name -> [calls, seconds, points]
        self.counters: dict[str, list] = {}
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _counter(self, name: str) -> list:
        return self.counters.setdefault(name, [0, 0.0, 0])

    def count(self, name: str) -> None:
        self._counter(name)[0] += 1

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        spans = self.spans
        idx = len(spans)
        rec = [name, time.perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1, os.getpid()]
        spans.append(rec)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    # ------------------------------------------------------------- wrappers

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _terrain_wrapper(self, name: str, fn):
        scalar = self._counter(f"{name}.scalar")
        array = self._counter(f"{name}.array")
        clock = time.perf_counter
        ndarray = np.ndarray

        @functools.wraps(fn)
        def wrapper(terrain, x, y):
            t = clock()
            try:
                return fn(terrain, x, y)
            finally:
                dt = clock() - t
                if isinstance(x, ndarray) or isinstance(y, ndarray):
                    array[0] += 1
                    array[1] += dt
                    array[2] += np.broadcast(x, y).size
                else:
                    scalar[0] += 1
                    scalar[1] += dt
        return wrapper

    def _find_equilibrium_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(trace, terrain):
            resolver = trace.resolver
            if resolver is not None:
                def counted(param):
                    self.count("motion.find_equilibrium.resolves")
                    return resolver(param)
                trace.resolver = counted
            try:
                return self.call("motion.find_equilibrium", fn, trace, terrain)
            finally:
                trace.resolver = resolver
        return wrapper

    def _g_at_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(scan, theta):
            self.count("balance.g_evals")
            return fn(scan, theta)
        return wrapper

    def _run_one_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(args):
            if os.getpid() == self.pid:
                return self.call("cli.run", fn, args)
            # forked pool worker: ship this run's spans and counter deltas
            base = len(self.spans)
            before = {k: list(v) for k, v in self.counters.items()}
            rec = self.call("cli.run", fn, args)
            delta = {}
            for k, v in self.counters.items():
                b = before.get(k, [0, 0.0, 0])
                if v != b:
                    delta[k] = [v[0] - b[0], v[1] - b[1], v[2] - b[2]]
                    v[:] = b
            rec = dict(rec)
            rec[_TRACE_KEY] = (base, self.spans[base:], delta)
            del self.spans[base:]
            return rec
        return wrapper

    def _run_campaign_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(cfg):
            result = self.call("cli.run_campaign", fn, cfg)
            for rec in result.records:
                shipped = rec.pop(_TRACE_KEY, None)
                if shipped is not None:
                    self._merge(*shipped)
            return result
        return wrapper

    def _merge(self, base: int, spans: list, delta: dict) -> None:
        offset = len(self.spans) - base
        for name, start, end, parent, pid in spans:
            if parent >= base:
                parent += offset
            self.spans.append([name, start, end, parent, pid])
        for k, (calls, secs, pts) in delta.items():
            c = self._counter(k)
            c[0] += calls
            c[1] += secs
            c[2] += pts

    # -------------------------------------------------------- install/undo

    def _replace(self, original, replacement) -> None:
        """Point every wobble namespace that holds `original` at `replacement`."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _modules(self):
        w = self.wobble
        return (w, w.terrain, w.ring, w.contact, w.motion, w.balance, w.cli)

    def install(self) -> None:
        w = self.wobble
        special = {
            "find_equilibrium": self._find_equilibrium_wrapper,
            "_run_one": self._run_one_wrapper,
            "run_campaign": self._run_campaign_wrapper,
        }
        for layer, names in SPAN_FUNCTIONS.items():
            mod = getattr(w, layer)
            for name in names:
                fn = getattr(mod, name)
                if name in special:
                    self._replace(fn, special[name](fn))
                else:
                    self._replace(fn, self._span_wrapper(f"{layer}.{name}", fn))
        ring_cls = w.ring.GroundRing
        self._patch_method(ring_cls, "point_at",
                           self._span_wrapper("ring.point_at", ring_cls.point_at))
        scan_cls = w.balance.HeightScan
        self._patch_method(scan_cls, "g_at", self._g_at_wrapper(scan_cls.g_at))
        for cls in (w.terrain.BumpTerrain, w.terrain.GridTerrain):
            for meth in ("height", "gradient"):
                self._patch_method(cls, meth, self._terrain_wrapper(
                    f"terrain.{meth}", cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# ------------------------------------------------------------- analysis

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, pid in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, pid) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def campaign_shares(spans: list[list]) -> tuple[float, float, float]:
    """(busy seconds, worker-seconds available, idle seconds at the tail)
    summed over every campaign in the spans."""
    runs: dict[int, list] = {}
    for name, start, end, parent, pid in spans:
        if name == "cli.run":
            runs.setdefault(parent, []).append((start, end, pid))
    busy = avail = tail = 0.0
    for parent, items in runs.items():
        c_start, c_end = spans[parent][1], spans[parent][2]
        workers = {pid for _, _, pid in items}
        busy += sum(e - s for s, e, _ in items)
        avail += len(workers) * (c_end - c_start)
        finish = max(e for _, e, _ in items)
        last = {}
        for s, e, pid in items:
            last[pid] = max(last.get(pid, s), e)
        tail += sum(finish - e for e in last.values())
    return busy, avail, tail


def layer_metrics(spans: list[list], counters: dict, ops: int) -> dict[str, float]:
    """Per-op figures of every layer metric, from one or more traced rounds."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for (name, start, end, _, _), st in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
        total_s[name] = total_s.get(name, 0.0) + (end - start)

    def c(name, field=0):
        return counters.get(name, [0, 0.0, 0])[field]

    point_at = calls.get("ring.point_at", 0)
    fallbacks = calls.get("ring.ring_point", 0)
    busy, avail, tail = campaign_shares(spans)
    m = {
        "terrain.height.scalar_calls": c("terrain.height.scalar"),
        "terrain.height.array_calls": c("terrain.height.array"),
        "terrain.height.array_points": c("terrain.height.array", 2),
        "terrain.gradient.array_points": c("terrain.gradient.array", 2),
        "terrain.height.s": c("terrain.height.scalar", 1) + c("terrain.height.array", 1),
        "terrain.gradient.s": c("terrain.gradient.scalar", 1) + c("terrain.gradient.array", 1),
        "terrain.estimate_slope_bound.calls": calls.get("terrain.estimate_slope_bound", 0),
        "terrain.estimate_slope_bound.s": total_s.get("terrain.estimate_slope_bound", 0.0),
        "terrain.generate_terrain.self_s": self_s.get("terrain.generate_terrain", 0.0),
        "terrain.parse_terrain.s": total_s.get("terrain.parse_terrain", 0.0),
        "ring.trace_ring.self_s": self_s.get("ring.trace_ring", 0.0),
        "ring.point_at.calls": point_at,
        "ring.point_at.self_s": self_s.get("ring.point_at", 0.0),
        "ring.point_at.fallbacks": fallbacks,
        "ring.chord_advance.calls": calls.get("ring.chord_advance", 0),
        "ring.chord_advance.self_s": self_s.get("ring.chord_advance", 0.0),
        "ring.circle_surface_intersection.calls": calls.get("ring.circle_surface_intersection", 0),
        "ring.circle_surface_intersection.self_s": self_s.get("ring.circle_surface_intersection", 0.0),
        "contact.settle_three_feet.self_s": self_s.get("contact.settle_three_feet", 0.0),
        "contact.drop_rotate.self_s": self_s.get("contact.drop_rotate", 0.0),
        "contact.signed_heights.calls": calls.get("contact.signed_heights", 0),
        "motion.run_march.self_s": self_s.get("motion.run_march", 0.0),
        "motion.run_pivot_slide.self_s": self_s.get("motion.run_pivot_slide", 0.0),
        "motion.find_equilibrium.self_s": self_s.get("motion.find_equilibrium", 0.0),
        "motion.find_equilibrium.resolves": c("motion.find_equilibrium.resolves"),
        "motion.verify_equilibrium.self_s": self_s.get("motion.verify_equilibrium", 0.0),
        "balance.height_scan.self_s": self_s.get("balance.height_scan", 0.0),
        "balance.find_balance_angles.self_s": self_s.get("balance.find_balance_angles", 0.0),
        "balance.g_evals": c("balance.g_evals"),
        "balance.approximate_equilibrium.self_s": self_s.get("balance.approximate_equilibrium", 0.0),
        "cli.run_campaign.self_s": self_s.get("cli.run_campaign", 0.0),
        "cli.tail_idle_s": tail,
    }
    out = {k: v / ops for k, v in m.items()}
    # ratios are not per-op sums
    out["ring.point_at.fallback_share"] = fallbacks / point_at if point_at else 0.0
    out["cli.worker_busy_share"] = busy / avail if avail else 0.0
    out["trace.spans"] = len(spans) / ops
    return out


def write_spans(path, spans: list[list]) -> None:
    t0 = min((s[1] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,parent,pid,name,start_s,end_s\n")
        for idx, (name, start, end, parent, pid) in enumerate(spans):
            fh.write(f"{idx},{parent},{pid},{name},{start - t0:.9f},{end - t0:.9f}\n")
