"""A span ledger recorded from outside the program.

During a traced run the benchmark replaces a few of the program's public
functions with wrappers that record a span around each call: its layer
name, start, end, parent span, and the id of the query it belongs to.
Spans stay in memory and are written out once, at the end of the run.
Nothing under ``src/`` knows about it; :meth:`SpanRecorder.restore`
puts the original functions back.

A layer's self time is its spans' durations minus the time their child
spans cover.  The root span of each query is the benchmark's own call;
its self time is reported as ``unattributed``, so the layers' self times
plus ``unattributed`` add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT_LAYER = "unattributed"


class SpanRecorder:
    """Records spans around wrapped calls; single-threaded by design."""

    def __init__(self) -> None:
        #: ``[span_id, parent_id, layer, query_id, start, end]`` rows.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._query = 0

    def _open(self, layer: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, layer, self._query,
                           perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][5] = perf_counter()
        self._stack.pop()

    @contextmanager
    def query(self):
        """The root span of one query; layers called inside nest under it."""
        self._query += 1
        sid = self._open(ROOT_LAYER)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, owner, attr: str, layer: str, on_result=None) -> None:
        """Record a ``layer`` span around every call of ``owner.attr``.

        ``owner`` is a module or a class.  Calls made outside a
        :meth:`query` are passed through unrecorded.  ``on_result`` sees
        each return value (the benchmark reads evaluation counters this
        way).
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return func(*args, **kwargs)
            sid = self._open(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(sid)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer, summed over every query."""
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, _, layer, _, start, end in self.spans:
            totals[layer] += (end - start) - covered[sid]
        return dict(totals)

    def wall_times(self) -> list[float]:
        """Duration of every root span, in query order."""
        return [end - start for _, parent, _, _, start, end in self.spans
                if parent is None]

    def write(self, path) -> None:
        """Write the spans out as JSON lines (times relative to the first)."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, layer, query, start, end in self.spans:
                handle.write(json.dumps({
                    "span": sid, "parent": parent, "layer": layer,
                    "query": query, "start_s": round(start - origin, 9),
                    "end_s": round(end - origin, 9)}) + "\n")


def ledger_metrics(self_times: dict[str, float], queries: int) -> dict:
    """``ledger.<layer>_ms`` per query from :meth:`SpanRecorder.self_times`.

    Layer names may contain dots (``id.partition``); the metric uses an
    underscore.  ``ledger.wall_ms`` is the sum of every self time.
    """
    out = {}
    for layer, seconds in self_times.items():
        out[f"ledger.{layer.replace('.', '_')}_ms"] = \
            seconds * 1000.0 / queries
    out["ledger.wall_ms"] = sum(self_times.values()) * 1000.0 / queries
    return out
