"""Cost attribution over a span forest: rollups, critical path, flamegraph.

This module answers "where did the time go?" for one recorded run.  It
works on the generic JSONL row dicts of a trace (``Tracer.to_rows()`` live
or :func:`repro.obs.trace.read_jsonl` from a ``--trace`` file), so every
query here agrees byte-for-byte whether it runs in-process or offline --
the same property the timings report already has.

Three views, all zero-dependency:

* **Rollups** (:func:`rollup`): per-span-name call count, total (inclusive)
  wall time, and *self* wall time (total minus direct children), plus CPU
  time and error counts.  Summing self time across all names accounts each
  recorded moment exactly once, which is what makes the top-N table of
  ``ucomplexity profile`` trustworthy.
* **Critical path** (:func:`critical_path`): the chain of spans obtained
  by starting at the slowest root and descending into the slowest child at
  every level.  On a parallel run this is the sequence of frames a
  speedup effort has to shorten -- everything off the path is already
  hidden behind it.
* **Flamegraph export** (:func:`flamegraph_lines` /
  :func:`write_flamegraph`): the collapsed-stack format consumed by
  ``flamegraph.pl``, speedscope, and most flame viewers -- one line per
  unique root-to-frame stack, ``name;name;name <self-µs>``.  Worker-
  grafted subtrees (namespaced ids like ``"b0.w3:7"``) fold in exactly
  like local spans because stacks are built from the parent links, not
  from the id encoding.

The wall-clock *breakdown* of a supervised parallel run (utilization,
serialization share, idle) builds on these rows too but lives in
:mod:`repro.obs.timeline`, next to the Gantt and Perfetto exporters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

SpanId = int | str


def span_rows(rows: Sequence[dict]) -> list[dict]:
    """The finished span rows of a trace (wall time known)."""
    return [
        r for r in rows
        if r.get("type") == "span" and r.get("wall_s") is not None
    ]


def metrics_values(rows: Sequence[dict]) -> dict[str, Any]:
    """The metrics snapshot embedded in the trace (empty dict if absent)."""
    for r in rows:
        if r.get("type") == "metrics":
            return r.get("values") or {}
    return {}


def histogram_sum(rows: Sequence[dict], name: str) -> float:
    """Sum of one histogram's observations from the metrics snapshot."""
    hist = metrics_values(rows).get("histograms", {}).get(name)
    if not hist:
        return 0.0
    return float(hist.get("sum", 0.0))


def counter_value(rows: Sequence[dict], name: str) -> float:
    """One counter's value from the metrics snapshot (0.0 if absent)."""
    return float(metrics_values(rows).get("counters", {}).get(name, 0.0))


# -- rollups -----------------------------------------------------------------


@dataclass
class Rollup:
    """Aggregate cost of every span sharing one name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0
    errors: int = 0


def rollup(rows: Sequence[dict]) -> list[Rollup]:
    """Per-name rollups over the span forest, largest self time first.

    *Total* is inclusive of children; *self* subtracts every direct
    child's wall time (clamped at zero: a grafted worker subtree carries
    worker-local timings, so a child can nominally overrun its parent by
    scheduling noise).  Ties order by name for determinism.
    """
    spans = span_rows(rows)
    child_wall: dict[SpanId, float] = {}
    for r in spans:
        parent = r.get("parent")
        if parent is not None:
            child_wall[parent] = child_wall.get(parent, 0.0) + r["wall_s"]
    totals: dict[str, Rollup] = {}
    for r in spans:
        agg = totals.setdefault(r["name"], Rollup(name=r["name"]))
        agg.count += 1
        agg.total_s += r["wall_s"]
        agg.self_s += max(r["wall_s"] - child_wall.get(r["id"], 0.0), 0.0)
        if r.get("cpu_s") is not None:
            agg.cpu_s += r["cpu_s"]
        if r.get("status", "ok") != "ok":
            agg.errors += 1
    return sorted(totals.values(), key=lambda a: (-a.self_s, a.name))


# -- critical path -----------------------------------------------------------


@dataclass
class PathStep:
    """One frame of the critical path."""

    name: str
    span_id: SpanId
    wall_s: float
    self_s: float
    attrs: dict[str, Any] = field(default_factory=dict)


def critical_path(rows: Sequence[dict]) -> list[PathStep]:
    """Slowest root -> slowest child chain, with per-frame self time.

    The returned frames nest: ``frames[i+1]`` is the slowest direct child
    of ``frames[i]``.  Each frame's ``self_s`` is its wall time minus all
    its direct children (not just the one on the path), so the path's
    self times show where the descent actually spends its exclusive time.
    """
    spans = span_rows(rows)
    if not spans:
        return []
    children: dict[SpanId | None, list[dict]] = {}
    for r in spans:
        children.setdefault(r.get("parent"), []).append(r)

    def heaviest(candidates: list[dict]) -> dict:
        return max(candidates, key=lambda r: (r["wall_s"], str(r["id"])))

    path: list[PathStep] = []
    roots = children.get(None)
    if not roots:
        # A partial trace (e.g. filtered rows) may have no true roots;
        # fall back to the spans whose parents are absent from the set.
        ids = {r["id"] for r in spans}
        roots = [r for r in spans if r.get("parent") not in ids]
        if not roots:
            return []
    node = heaviest(roots)
    while node is not None:
        kids = children.get(node["id"], [])
        child_sum = sum(k["wall_s"] for k in kids)
        path.append(
            PathStep(
                name=node["name"],
                span_id=node["id"],
                wall_s=node["wall_s"],
                self_s=max(node["wall_s"] - child_sum, 0.0),
                attrs=dict(node.get("attrs") or {}),
            )
        )
        node = heaviest(kids) if kids else None
    return path


# -- flamegraph export -------------------------------------------------------


def _frame_name(name: str) -> str:
    """A collapsed-stack-safe frame name (';' is the stack separator)."""
    return name.replace(";", ":").replace("\n", " ").strip() or "?"


def flamegraph_lines(rows: Sequence[dict]) -> list[str]:
    """Collapsed-stack lines (``a;b;c <self-µs>``), sorted for determinism.

    Self time is emitted in integer microseconds (the conventional unit
    for wall-clock collapsed stacks); frames whose self time rounds to
    zero are omitted, matching what a sampling profiler would produce.
    Stacks with identical frame sequences (e.g. two
    ``measure.component_safe`` spans under the same parent chain) merge by
    summation.
    """
    spans = span_rows(rows)
    by_id = {r["id"]: r for r in spans}
    child_wall: dict[SpanId, float] = {}
    for r in spans:
        parent = r.get("parent")
        if parent is not None:
            child_wall[parent] = child_wall.get(parent, 0.0) + r["wall_s"]

    stacks: dict[str, int] = {}
    for r in spans:
        self_us = round(
            max(r["wall_s"] - child_wall.get(r["id"], 0.0), 0.0) * 1e6
        )
        if self_us <= 0:
            continue
        frames = [_frame_name(r["name"])]
        seen = {r["id"]}
        parent = by_id.get(r.get("parent"))
        while parent is not None and parent["id"] not in seen:
            seen.add(parent["id"])
            frames.append(_frame_name(parent["name"]))
            parent = by_id.get(parent.get("parent"))
        stack = ";".join(reversed(frames))
        stacks[stack] = stacks.get(stack, 0) + self_us
    return [f"{stack} {value}" for stack, value in sorted(stacks.items())]


def write_flamegraph(rows: Sequence[dict], path: str | Path) -> Path:
    """Write the collapsed-stack export of ``rows`` to ``path``."""
    path = Path(path)
    lines = flamegraph_lines(rows)
    path.write_text("\n".join(lines) + ("\n" if lines else ""),
                    encoding="utf-8")
    return path


# -- serialization share -----------------------------------------------------


@dataclass
class SerializationSummary:
    """Measured serialization cost of one run's pool traffic."""

    pickle_s: float            # parent: payload pickling at dispatch
    unpickle_s: float          # parent: result unpickling at join
    worker_unpickle_s: float   # workers: payload unpickling
    payload_bytes: float
    result_bytes: float

    @property
    def total_s(self) -> float:
        """All measured serialization seconds (parent + worker sides).

        The worker-side *result pickle* is the one leg not directly
        measured (it happens after the outcome's telemetry is sealed);
        its cost is bounded by the parent-side unpickle of the same
        bytes, so the total here is a slight undercount, never an
        overcount.
        """
        return self.pickle_s + self.unpickle_s + self.worker_unpickle_s

    @property
    def total_bytes(self) -> float:
        return self.payload_bytes + self.result_bytes


def serialization_summary(rows: Sequence[dict]) -> SerializationSummary:
    """Aggregate the run's pool serialization costs from its metrics."""
    return SerializationSummary(
        pickle_s=histogram_sum(rows, "exec.pickle_s"),
        unpickle_s=histogram_sum(rows, "exec.unpickle_s"),
        worker_unpickle_s=histogram_sum(rows, "exec.worker_unpickle_s"),
        payload_bytes=counter_value(rows, "exec.payload_bytes"),
        result_bytes=counter_value(rows, "exec.result_bytes"),
    )


def filter_spans(
    rows: Iterable[dict], name: str
) -> list[dict]:
    """All finished spans named ``name`` (a convenience for callers)."""
    return [r for r in span_rows(list(rows)) if r["name"] == name]
