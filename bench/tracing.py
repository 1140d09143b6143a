"""Per-layer tracing of the gceo package from outside, with no edit to it.

``Tracer.install`` wraps the public functions listed in ``LAYERS``.  Each
function is rebound both on its defining module and under every other
name in a ``gceo`` module that refers to the same object (``refinement``
imports ``r_star`` and ``gaussian_mi`` by name, for example), so calls
made inside the package are traced too.  ``Tracer.restore`` puts every
original back.

A span is recorded only while ``Tracer.active`` is set; the harness sets
it around the timed part of an operation, so oracle checks and input
generation, which call gceo themselves, leave no spans.  Spans are kept in
compact arrays and reduced to per-layer numbers once the run is over.
``model`` helpers such as ``precision`` are not wrapped on purpose: a
wrapper would cost more than the call.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """One wrapped function: ``module.func`` recorded as span ``name``.

    ``tag(args, result, before)`` labels a span for per-class statistics;
    ``before()`` is read just ahead of the call and passed to ``tag``.
    """

    module: str
    func: str
    name: str
    tag: Callable | None = None
    before: Callable | None = None


def _r_star_misses() -> int:
    return sys.modules["gceo.inversion"]._r_star_cached.cache_info().misses


def _r_star_tag(args, result, misses_before):
    # A cache hit returns the stored result, whose method names the path
    # that originally solved it; label hits separately so the per-path
    # latencies describe solver work only.
    if _r_star_misses() == misses_before:
        return "cache_hit"
    return result.method


LAYERS = (
    Layer("cli", "main", "cli.main"),
    Layer("inversion", "r_star", "inversion.r_star", _r_star_tag, _r_star_misses),
    Layer("inversion", "tilde_params", "inversion.tilde_params"),
    Layer("inversion", "classify_omega", "inversion.classify_omega"),
    Layer("refinement", "check_refinement", "refinement.check_refinement"),
    Layer("refinement", "reachable_set_l2", "refinement.reachable_set_l2"),
    Layer("polymatroid", "min_slack", "polymatroid.min_slack", lambda a, res, b: a[0].L),
    Layer("polymatroid", "identify_face", "polymatroid.identify_face"),
    Layer("hyperplane", "support_value", "hyperplane.support_value"),
    Layer("scheduler", "build_schedule", "scheduler.build_schedule"),
    Layer("scheduler", "gaussian_mi", "scheduler.gaussian_mi"),
    Layer("scheduler", "validate_schedule", "scheduler.validate_schedule"),
    Layer("montecarlo", "simulate_distortion", "montecarlo.simulate", lambda a, res, b: a[2].n_samples),
    Layer("montecarlo", "simulate_refinement", "montecarlo.simulate", lambda a, res, b: a[2].n_samples),
)


class Tracer:
    """Span recorder for the wrapped gceo functions."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, object] = {}
        self._name_index: dict[str, int] = {}
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.start)
        code = self._name_index.get(name)
        if code is None:
            code = self._name_index[name] = len(self.names)
            self.names.append(name)
        self.name_of.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, layer: Layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            before = layer.before() if layer.before else None
            idx = tracer.open(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if layer.tag is not None:
                tracer.tags[idx] = layer.tag(args, result, before)
            return result

        return traced

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every LAYERS function under every gceo name bound to it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "gceo" or n.startswith("gceo.")]
        try:
            for layer in LAYERS:
                original = getattr(sys.modules["gceo." + layer.module], layer.func)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._rebound.append((module, attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every function ``install`` replaced."""
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    # -- reduction ----------------------------------------------------

    def spans(self):
        """(name, parent, start, end, tag) of every recorded span."""
        return [
            (self.names[self.name_of[i]], self.parent[i], self.start[i], self.end[i], self.tags.get(i))
            for i in range(len(self.start))
        ]


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    Child intervals are clipped to the parent and merged, so overlapping
    children are not counted twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo_i, hi_i = start[i], end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(start[c], lo_i), min(end[c], hi_i)) for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi_i - lo_i - covered)
    return out


def _p50_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


MIN_SLACK_SIZES = (2, 3, 4, 5, 6, 8, 9, 10, 11, 12)
R_STAR_PATHS = ("closed_form_l2", "enumeration", "bisection")


def layer_metrics(spans, busy_s: float, grid_nodes: int, cache_hits: int, cache_lookups: int) -> dict:
    """Per-layer numbers of one traced run.

    ``spans`` come from ``Tracer.spans``; ``busy_s`` is the operation wall
    time of the traced run, ``grid_nodes`` the number of omega-map nodes it
    produced, and the cache counts are r_star LRU deltas over its
    operations.  A layer the workload never reaches reports 0.
    """
    parent = [s[1] for s in spans]
    selfs = self_times(parent, [s[2] for s in spans], [s[3] for s in spans])
    calls = defaultdict(int)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    by_tag = defaultdict(list)
    samples = 0
    root_s = 0.0
    for (name, par, lo, hi, tag), own in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += own
        durations[name].append(hi - lo)
        if tag is not None:
            by_tag[name, tag].append(hi - lo)
        if name == "montecarlo.simulate":
            samples += tag
        if par < 0:
            root_s += hi - lo
    mc_s = sum(durations["montecarlo.simulate"])
    m = {
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_s["cli.main"],
        "inversion.r_star.calls": calls["inversion.r_star"],
        "inversion.r_star.self_s": self_s["inversion.r_star"],
    }
    for path in R_STAR_PATHS:
        m[f"inversion.r_star.{path}.p50_ms"] = _p50_ms(by_tag["inversion.r_star", path])
    m["inversion.cache_hit_ratio"] = cache_hits / cache_lookups if cache_lookups else 0.0
    m["inversion.cache_lookups"] = cache_lookups
    m["inversion.tilde_params.calls"] = calls["inversion.tilde_params"]
    m["inversion.tilde_params.calls_per_node"] = (
        calls["inversion.tilde_params"] / grid_nodes if grid_nodes else 0.0
    )
    m["inversion.classify_omega.self_s"] = self_s["inversion.classify_omega"]
    m["refinement.check_refinement.calls"] = calls["refinement.check_refinement"]
    m["refinement.check_refinement.self_s"] = self_s["refinement.check_refinement"]
    m["refinement.reachable_set_l2.self_s"] = self_s["refinement.reachable_set_l2"]
    m["refinement.reachable_set_l2.nodes"] = grid_nodes
    m["polymatroid.min_slack.calls"] = calls["polymatroid.min_slack"]
    for n in MIN_SLACK_SIZES:
        m[f"polymatroid.min_slack.L{n}.p50_ms"] = _p50_ms(by_tag["polymatroid.min_slack", n])
    m["polymatroid.identify_face.self_s"] = self_s["polymatroid.identify_face"]
    m["hyperplane.support_value.calls"] = calls["hyperplane.support_value"]
    m["hyperplane.support_value.self_s"] = self_s["hyperplane.support_value"]
    m["hyperplane.support_value.p50_ms"] = _p50_ms(durations["hyperplane.support_value"])
    m["scheduler.build_schedule.self_s"] = self_s["scheduler.build_schedule"]
    m["scheduler.build_schedule.p50_ms"] = _p50_ms(durations["scheduler.build_schedule"])
    m["scheduler.gaussian_mi.calls"] = calls["scheduler.gaussian_mi"]
    m["scheduler.validate_schedule.self_s"] = self_s["scheduler.validate_schedule"]
    m["montecarlo.simulate.self_s"] = self_s["montecarlo.simulate"]
    m["montecarlo.simulate.samples"] = samples
    m["montecarlo.simulate.samples_per_s"] = samples / mc_s if mc_s > 0.0 else 0.0
    m["trace.spans"] = len(spans)
    m["trace.unattributed_frac"] = 1.0 - root_s / busy_s if busy_s > 0.0 else 0.0
    return m
