"""In-memory span recorder and the statistics the benchmark reports.

A span is one timed call at a layer boundary: a name, a start and end on
the monotonic clock (ns), the index of the enclosing span (-1 at top
level), the run id shared by every span of one benchmark run, and the
number of work items the call handled (samples, records, groups).
Spans are kept in a list and written out once, when the run ends, so
that recording costs one list append per call.

Everything here runs in the benchmark's single thread, so spans nest
strictly: a child starts after and ends before its parent.
"""

from __future__ import annotations

import json
import math
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "items")

    def __init__(self, name: str, start: int, parent: int, items: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.items = items

    @property
    def duration(self) -> int:
        return self.end - self.start


class _Open:
    """Context manager returned by SpanRecorder.span; closes one span."""

    __slots__ = ("rec", "index")

    def __init__(self, rec: "SpanRecorder", index: int):
        self.rec = rec
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.rec.spans[self.index].end = time.perf_counter_ns()
        self.rec._stack.pop()
        return False


class SpanRecorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, items: int = 1) -> _Open:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), parent, items))
        self._stack.append(index)
        return _Open(self, index)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"run_id": self.run_id, "id": i, "name": s.name,
                                     "start_ns": s.start, "end_ns": s.end,
                                     "parent": s.parent, "items": s.items}))
                fh.write("\n")


# -- self time and coverage ---------------------------------------------------


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end) covered by the union of the given intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if min(b, end) > max(a, start))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered_ns(s.start, s.end, children.get(i, ())) for i, s in enumerate(spans)]


def self_time_table(spans: list[Span]) -> dict[str, dict]:
    """Total and self time (ms) and call count per span name."""
    table: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += s.duration / 1e6
        row["self_ms"] += own / 1e6
    return table


def uncovered_share(spans: list[Span], root: str) -> float:
    """Share of the root spans' wall time that no child span covers."""
    selfs = self_times(spans)
    total = own = 0
    for s, o in zip(spans, selfs):
        if s.name == root:
            total += s.duration
            own += o
    return own / total if total else 0.0


# -- grouping spans into per-item samples ---------------------------------------


def per_item(spans: list[Span], name: str, scale: float = 1e-6) -> list[float]:
    """Duration of each span called `name`, divided by its item count."""
    return [s.duration * scale / s.items for s in spans if s.name == name and s.items > 0]


def per_ancestor(spans: list[Span], name: str, ancestor: str, scale: float = 1e-6) -> list[float]:
    """Summed duration of the `name` spans under each `ancestor` span.

    Used where a layer is called several times per sample (one norm per
    residual, one attention per encoder layer): the sample is the unit.
    """
    sums: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s.name == ancestor:
            sums.setdefault(i, 0)
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != ancestor:
            p = spans[p].parent
        if p >= 0:
            sums[p] += s.duration
    return [v * scale for v in sums.values()]


# -- percentiles ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


TAIL_CANDIDATES = (99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest reported percentile that has at least ten samples beyond it."""
    for q in TAIL_CANDIDATES:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND:
            return q
    return None


def summarize(values) -> dict:
    """p50 and p90 with the sample count, plus the tail the count supports.

    p90 is always reported because the benchmark names it; `tail_q` says
    which percentile actually has ten samples beyond it (None below 20).
    An empty list means the layer did not run: every figure is 0.
    """
    values = list(values)
    n = len(values)
    if n == 0:
        return {"p50": 0.0, "p90": 0.0, "n": 0, "tail_q": None, "tail": None}
    q = tail_percentile(n)
    return {"p50": percentile(values, 50.0), "p90": percentile(values, 90.0), "n": n,
            "tail_q": q, "tail": None if q is None else percentile(values, q)}


def median(values) -> float:
    return percentile(list(values), 50.0)
