"""Outside-in layer timing for the benchmark.

The program is timed without editing it: :class:`LayerTracer` replaces
public functions with timing wrappers, under the name each caller
actually looks up at call time.  ``repro.core.engine.elaborate`` and
``repro.elab.degeneracy.elaborate`` are two bindings of one function, so
both are wrapped; a binding nobody looks up would measure nothing.

A layer's *self time* is the wrapped call's duration minus the time of
wrapped calls nested inside it, so every second is counted once.  Time
outside every outermost wrapped call is the pass's unattributed time.

Pool workers and the serve daemon's children run in other processes, so
their time is invisible here; for those, the program's own
``repro.obs.metrics`` registry is read instead (see :func:`registry_view`).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: (layer, module, attribute, timed).  ``attribute`` may be ``Class.method``.
#: Untimed entries only count calls; their time stays with the caller's
#: layer.  The layer's prefix is its group; a pass wraps only its groups.
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("hdl.parse", "repro.core.engine", "parse_source", True),
    ("hdl.parse", "repro.core.workflow", "parse_source", True),
    ("hdl.software_metrics", "repro.core.engine", "software_metrics", True),
    ("elab.elaborate", "repro.core.engine", "elaborate", True),
    ("elab.elaborate", "repro.elab.degeneracy", "elaborate", True),
    ("elab.elaborate", "repro.elab.elaborator", "elaborate", True),
    ("elab.account", "repro.core.engine", "select_components", True),
    ("elab.account", "repro.core.engine", "minimal_parameters", True),
    ("elab.degeneracy", "repro.elab.degeneracy", "degeneracy_events", False),
    ("synth.lower", "repro.core.engine", "synthesize_module", True),
    ("synth.lower", "repro.synth.lower", "synthesize_module", True),
    ("synth.timing", "repro.synth.report", "timing_report", True),
    ("synth.fpga", "repro.synth.report", "map_to_luts", True),
    ("synth.cones", "repro.synth.report", "fanin_logic_cones", True),
    ("synth.power_area", "repro.synth.report", "power_report", True),
    ("synth.power_area", "repro.synth.report", "area_report", True),
    ("flow.report", "repro.flow.metrics", "flow_report", True),
    ("flow.report", "repro.flow.metrics", "aggregate_flow", True),
    ("flow.dfg", "repro.flow.metrics", "build_dfg", True),
    ("flow.spectral", "repro.flow.metrics", "laplacian_stats", True),
    ("cache.load", "repro.cache", "SynthesisCache.key", True),
    ("cache.load", "repro.cache", "SynthesisCache.load", True),
    ("cache.load", "repro.cache", "SynthesisCache.measurement_key", True),
    ("cache.load", "repro.cache", "SynthesisCache.load_measurement", True),
    ("cache.store", "repro.cache", "SynthesisCache.store", True),
    ("cache.store", "repro.cache", "SynthesisCache.store_measurement", True),
    ("stats.fit_nlme", "repro.stats.robust", "fit_nlme", True),
    ("stats.fit_nlme", "repro.core.estimator", "fit_nlme", True),
    ("stats.fixed_effects", "repro.stats.robust", "fit_fixed_effects", True),
    ("stats.fixed_effects", "repro.core.estimator", "fit_fixed_effects",
     True),
    ("stats.verify", "repro.stats.robust", "verify_nlme_convergence", True),
)

#: Layer groups each kind of pass exercises.
MEASURE_GROUPS = ("hdl", "elab", "synth", "flow", "cache")
FIT_GROUPS = ("stats",)


def _targets(groups: tuple[str, ...]):
    return [t for t in TARGETS if t[0].split(".")[0] in groups]


def preload(groups: tuple[str, ...]) -> None:
    """Import every module holding a target of ``groups``.

    Traced and untraced passes both call this during set-up, so lazy
    imports land in set-up time on both sides, not in the timed work of
    only the untraced one.
    """
    for _layer, module, _attr, _timed in _targets(groups):
        importlib.import_module(module)


class LayerTracer:
    """Wraps the targets of some layer groups and accumulates self time."""

    def __init__(self, groups: tuple[str, ...]) -> None:
        self._groups = groups
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Total duration of outermost wrapped calls (all threads).
        self.attributed_s = 0.0

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    self.self_s[layer] += dt - nested
                    self.calls[layer] += 1
                    if not stack:
                        self.attributed_s += dt

        return wrapper

    def _counted(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> "LayerTracer":
        for layer, module, attr, timed in _targets(self._groups):
            owner: Any = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            make = self._timed if timed else self._counted
            setattr(owner, name, make(layer, getattr(owner, name)))
        return self

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "attributed_s": self.attributed_s,
            }


#: Per-layer metrics: every traced run prints all of them; a layer a
#: workload never enters reads 0.
TIMED_LAYERS = (
    "hdl.parse", "hdl.software_metrics", "elab.elaborate", "elab.account",
    "synth.lower", "synth.timing", "synth.fpga", "synth.cones",
    "synth.power_area", "flow.dfg", "flow.spectral", "flow.report",
    "cache.load", "cache.store", "stats.fit_nlme", "stats.fixed_effects",
    "stats.verify",
)
CALL_COUNTS = ("hdl.parse", "elab.elaborate", "stats.fit_nlme")
#: Layer metric -> ``repro.obs.metrics`` instrument (histograms: ``.sum``).
REGISTRY_METRICS = {
    "synth.specializations": "synth.specializations",
    "cache.hits": "cache.hits",
    "cache.misses": "cache.misses",
    "cache.measure_hits": "cache.measure_hits",
    "cache.measure_misses": "cache.measure_misses",
    "exec.dispatched": "exec.dispatched",
    "exec.spawn_s": "exec.spawn_s.sum",
    "exec.queue_wait_s": "exec.queue_wait_s.sum",
    "exec.pickle_s": "exec.pickle_s.sum",
    "exec.payload_bytes": "exec.payload_bytes",
    "exec.retries": "exec.retries",
}


#: Daemon metrics the serve-mixed client measures.
SERVE_METRICS = (
    "serve.requests", "serve.hit_p50_ms", "serve.miss_p50_ms",
    "serve.estimate_p50_ms", "serve.p99_ms", "serve.batch_size_mean",
    "serve.metrics_scrape_ms", "serve.rss_growth_mb",
)


def layer_metrics(snap: dict, registry: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (or daemon); the serve-mixed
    client fills in ``SERVE_METRICS``."""
    self_s, calls = snap.get("self_s", {}), snap.get("calls", {})
    out = dict.fromkeys(SERVE_METRICS, 0.0)
    out.update({f"{name}_s": self_s.get(name, 0.0) for name in TIMED_LAYERS})
    out.update({f"{name}_calls": float(calls.get(name, 0))
                for name in CALL_COUNTS})
    for metric, key in REGISTRY_METRICS.items():
        out[metric] = registry.get(key, 0.0)
    out["elab.degeneracy_calls"] = float(calls.get("elab.degeneracy", 0))
    hits = out["cache.hits"] + out["cache.measure_hits"]
    lookups = hits + out["cache.misses"] + out["cache.measure_misses"]
    out["cache.lookups"] = lookups
    out["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    return out


def snapshot_delta(end: dict, start: dict) -> dict:
    """The :meth:`LayerTracer.snapshot` of the window between two."""
    return {
        "self_s": {k: v - start["self_s"].get(k, 0.0)
                   for k, v in end["self_s"].items()},
        "calls": {k: v - start["calls"].get(k, 0)
                  for k, v in end["calls"].items()},
        "attributed_s": end["attributed_s"] - start["attributed_s"],
    }


def registry_delta(end: dict, start: dict) -> dict[str, float]:
    """The :func:`registry_view` of the window between two."""
    return {k: v - start.get(k, 0.0) for k, v in end.items()}


def registry_view(snapshot: dict[str, Any]) -> dict[str, float]:
    """The counters and histogram sums of a ``repro.obs.metrics`` snapshot
    (the dict ``snapshot()`` returns and ``GET /metrics`` serves), flat."""
    out: dict[str, float] = {}
    for name, value in snapshot.get("counters", {}).items():
        out[name] = float(value)
    for name, hist in snapshot.get("histograms", {}).items():
        out[name + ".sum"] = float(hist.get("sum", 0.0))
        out[name + ".count"] = float(hist.get("count", 0))
    return out
