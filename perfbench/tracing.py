"""In-memory spans around the benchmark's calls into plval.

A span is one dict: name, start, end, parent (index of the enclosing
span or None), case (index of the case being run, or None) and any
counts the caller attaches.  Spans stay in memory and are written out
when the run ends.  NullTracer has the same interface and records
nothing; every end-to-end figure is measured with it.  Span times come
from the tracer's clock, time.perf_counter unless another is given.
"""

from __future__ import annotations

import time


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        tr = self.tracer
        self.rec["parent"] = tr._stack[-1] if tr._stack else None
        self.rec["case"] = tr.case
        tr._stack.append(len(tr.spans))
        tr.spans.append(self.rec)
        self.rec["start"] = tr.clock()
        return self.rec

    def __exit__(self, exc_type, exc, tb):
        self.rec["end"] = self.tracer.clock()
        if exc_type is not None:
            self.rec["error"] = exc_type.__name__
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.case = None

    def span(self, name, **counts):
        """Context manager recording one span; yields the span dict so
        counts known only after the call (output sizes) can be added."""
        rec = {"name": name}
        rec.update(counts)
        return _Span(self, rec)


class _NullSpan:
    def __enter__(self):
        return {}

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    case = None

    def span(self, name, **counts):
        return _NULL_SPAN


def duration(rec) -> float:
    return rec["end"] - rec["start"]
