"""Spans and counts recorded around the benchmark's calls into treewco.

Spans live in memory and are written out when the run ends.  The untraced
run uses ``NullTracer``, whose spans cost one method call and record
nothing, so both runs execute the same code.
"""

from __future__ import annotations

import json
import math
import statistics
import time


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer, self.rec = tracer, rec

    def __enter__(self):
        t = self.tracer
        self.rec["parent"] = t.stack[-1] if t.stack else None
        t.stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec["start"] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Records (name, start, end, parent, operator id, phase, counts)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.phase = ""

    def span(self, name: str, op=None) -> _Span:
        return _Span(self, {"name": name, "op": op, "phase": self.phase})

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **rec}, sort_keys=True, default=str) + "\n")


class _NullSpan:
    __slots__ = ("rec",)

    def __init__(self):
        self.rec: dict = {}

    def __enter__(self):
        return self.rec

    def __exit__(self, *exc):
        return False


class NullTracer:
    phase = ""

    def __init__(self):
        self._span = _NullSpan()

    def span(self, name: str, op=None) -> _NullSpan:
        return self._span


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


# -- summaries -------------------------------------------------------------------

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Inclusive linear-interpolation percentile, 0 <= p <= 100."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _highest_p(n: int):
    """The highest listed percentile with at least ten of n samples beyond it."""
    return next((p for p in PERCENTILES if n * (100.0 - p) / 100.0 >= 10), None)


def pass_summary(per_case: list) -> dict:
    """Summary of one stage from per-case samples: a pass runs every case
    once, so each statistic of a pass is the sum over cases.

    ``fastest`` (the sum of per-case minima) is the value the benchmark
    reports.  Other tenants of the machine only ever add time, in
    stretches that last from seconds to whole runs, so the fastest sample
    of each case tracks the program's own cost more steadily across runs
    than the median does.  The median and the highest percentile with ten
    samples beyond it are printed beside it.
    """
    n = min(len(c) for c in per_case)
    p = _highest_p(n)
    return {
        "n": n,
        "median": sum(median(c) for c in per_case),
        "fastest": sum(min(c) for c in per_case),
        "high": None if p is None else (p, sum(percentile(c, p) for c in per_case)),
    }


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len(pts) < 2:
        raise ValueError("a scaling exponent needs at least two ladder rungs")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
