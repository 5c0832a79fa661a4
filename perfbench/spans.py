"""In-memory span recording and self-time attribution for the traced run.

A span is one call into a layer's public function: ``(span_id,
parent_id, thread, name, start_ns, end_ns, n)``.  ``parent_id`` is the
innermost traced call open on the same thread (0 for a root), and ``n``
is an optional per-call count (requests solved, decisions admitted,
journal queue depth) taken at the same boundary.  Spans are appended to
a list in memory and written out once, when the traced server exits.

Clocks: ``time.perf_counter_ns`` reads ``CLOCK_MONOTONIC`` on Linux, the
same clock in every process, so server spans and the benchmark's client
round trips share one time axis.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

# Field positions inside one span tuple.
ID, PARENT, THREAD, NAME, START, END, COUNT = range(7)


class SpanRecorder:
    """Wraps callables so every call records one span."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording a span named ``name`` per call.

        ``count(args, result)`` fills the span's ``n`` field when given;
        a call that raises records ``n = 0``.
        """
        ids, local, spans = self._ids, self._local, self.spans
        clock, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            n = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                end = clock()
                if count is not None:
                    n = count(args, result)
                return result
            except BaseException:
                end = clock()
                raise
            finally:
                stack.pop()
                spans.append((span_id, parent, ident(), name, start, end, n))

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with its traced form."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load(path) -> list:
    with open(path) as fh:
        return [tuple(span) for span in json.load(fh)]


def in_window(spans: list, start_ns: int, end_ns: int) -> list:
    """Spans whose root call started inside ``[start_ns, end_ns]``.

    Roots are selected by start time and their descendants follow them,
    so a request that began in the window is counted whole.
    """
    by_id = {span[ID]: span for span in spans}
    keep: "dict[int, bool]" = {}

    def root_in(span) -> bool:
        known = keep.get(span[ID])
        if known is None:
            parent = by_id.get(span[PARENT])
            if parent is None:
                known = start_ns <= span[START] <= end_ns
            else:
                known = root_in(parent)
            keep[span[ID]] = known
        return known

    return [span for span in spans if root_in(span)]


def totals(spans: list) -> "dict[str, dict[str, float]]":
    """Per span name: ``calls``, inclusive ``ms``, ``self_ms`` and ``n``.

    Self time is a span's duration minus the durations of its direct
    children; children of one span run on its thread and nest inside
    it, so they never overlap.
    """
    child_ns: "dict[int, int]" = defaultdict(int)
    for span in spans:
        if span[PARENT]:
            child_ns[span[PARENT]] += span[END] - span[START]
    out: "dict[str, dict[str, float]]" = defaultdict(
        lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "n": 0, "n_max": 0,
                 "n_nonzero": 0}
    )
    for span in spans:
        row = out[span[NAME]]
        duration = span[END] - span[START]
        row["calls"] += 1
        row["ms"] += duration / 1e6
        row["self_ms"] += (duration - child_ns.get(span[ID], 0)) / 1e6
        row["n"] += span[COUNT]
        row["n_max"] = max(row["n_max"], span[COUNT])
        row["n_nonzero"] += 1 if span[COUNT] else 0
    return dict(out)
