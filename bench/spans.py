"""Spans around the calls between paulicrit's modules, for the traced run.

A ``Tracer`` replaces the module-level names that one layer resolves
another through with recording wrappers, and puts the originals back on
exit.  Each call leaves a span (name, start, end, parent) in memory, plus
counts read from its result.  Self time is a span's duration minus the
durations of its direct children; calls run one at a time, so children
never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sweeps(result) -> dict:
    return {"sweeps": result.iterations_used, "converged": int(result.converged)}


def _edges(graph) -> dict:
    return {"edges": graph.edge_count}


def _order(group) -> dict:
    return {"group_order": len(group)}


# (module, attribute) -> (span name, count reader).  These are the names the
# calls between layers resolve through; cut_commute and permute_partition
# are left alone, so their cost shows as their callers' self time.
TARGETS: dict[tuple[str, str], tuple[str, Callable | None]] = {
    ("cli", "criteria_report"): ("bounds.criteria_report", None),
    ("cli", "verify_bound"): ("oracle.verify_bound", None),
    ("cli", "evaluate_q"): ("states.evaluate_q", None),
    ("cli", "classify"): ("bounds.classify", None),
    ("cli", "load_state"): ("states.load_state", None),
    ("cli", "symmetry_group"): ("cuts.symmetry_group", _order),
    ("cli", "orbit_representatives"): ("cuts.orbit_representatives", None),
    ("bounds", "symmetry_group"): ("cuts.symmetry_group", _order),
    ("bounds", "build_graph"): ("graphs.build_graph", _edges),
    ("bounds", "max_clique"): ("graphs.max_clique", None),
    ("bounds", "bound_for_partition"): ("bounds.bound_for_partition", None),
    ("oracle", "bound_for_partition"): ("bounds.bound_for_partition", None),
    ("oracle", "maximize_q_product"): ("oracle.maximize_q_product", _sweeps),
    ("oracle", "evaluate_q"): ("states.evaluate_q", None),
}


class Tracer:
    """Records spans while active; use as a context manager."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, *args, count: Callable | None = None):
        """Call ``fn(*args)`` inside a span named ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
        if count is not None:
            span.counts = count(result)
        return result

    def _wrapper(self, name: str, original: Callable, count: Callable | None):
        def traced(*args, **kwargs):
            return self.span(name, lambda: original(*args, **kwargs), count=count)

        return traced

    def __enter__(self) -> "Tracer":
        for (mod_name, attr), (name, count) in TARGETS.items():
            module = self.modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original, count))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, total and self seconds, and summed counts."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    out: dict[str, dict] = {}
    for idx, span in enumerate(spans):
        row = out.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
        )
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += span.duration - child_time[idx]
        for key, value in span.counts.items():
            if key == "group_order":
                row["counts"][key] = max(row["counts"].get(key, 0), value)
            else:
                row["counts"][key] = row["counts"].get(key, 0) + value
    return out


def to_json(spans: list[Span]) -> list[dict]:
    return [
        {
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            **({"counts": s.counts} if s.counts else {}),
        }
        for s in spans
    ]
