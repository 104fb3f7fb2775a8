"""In-memory spans around calls into each trackforge module, and self time.

A span is a dict with ``id``, ``name`` (``<layer>.<call>``), ``parent`` (the
enclosing span's id, or None), ``file`` (the input file it belongs to, or
None) and ``start``/``end`` in ``time.perf_counter`` seconds. The layer of a
span is its name up to the first dot, which is the trackforge module called.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Collects nested spans in call order; nothing is written until asked."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, file: str | None = None):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "file": file,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Same interface as Tracer, records nothing."""

    def span(self, name: str, file: str | None = None):
        return nullcontext()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(s["start"], s["end"], children.get(s["id"], []))
        for s in spans
    }


def layer_summary(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per layer: ``busy_s`` (spans not nested in a span of the same layer),
    ``self_s`` (sum of self times) and ``calls``."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        layer = layer_of(s["name"])
        row = out.setdefault(layer, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += selfs[s["id"]]
        parent = by_id.get(s["parent"])
        if parent is None or layer_of(parent["name"]) != layer:
            row["busy_s"] += s["end"] - s["start"]
    return out


def busy(spans: list[dict], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
