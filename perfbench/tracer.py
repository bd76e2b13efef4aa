"""Span tracing from outside the program, for the traced runs.

:class:`Tracer` replaces named methods of the program's classes with
timing wrappers (and puts the originals back on :meth:`Tracer.remove`).
Each call records a span: name, start, end, thread, parent span and the
operation id it belongs to.  The operation id is the program's ambient
trace id (``repro.obs.tracing.current_trace_id``, which the executor
carries into its worker threads and ``QueryService.handle`` takes from
the request's ``traceparent``), or else the id the benchmark set with
:meth:`Tracer.operation`.

Self time is a span's duration minus the time its child spans cover;
children are the spans opened on the same thread while it was open.
Every wrapped call adds to per-name totals; spans are kept in memory
(up to :data:`MAX_SPANS`) and written as a Chrome trace-event file.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

from repro.obs import tracing as _tracing

#: Spans kept for the trace file; totals count every call regardless.
MAX_SPANS = 100_000


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore: list[tuple[type, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span and total (wrappers stay)."""
        with self._lock:
            self.spans: list[tuple] = []
            self.dropped = 0
            self.calls: dict[str, int] = defaultdict(int)
            self.total_s: dict[str, float] = defaultdict(float)
            self.self_s: dict[str, float] = defaultdict(float)
            self.durations: dict[str, list[float]] = defaultdict(list)

    # ------------------------------------------------------------------
    # operation ids
    # ------------------------------------------------------------------
    def operation(self, op_id: str | None) -> None:
        """Tag this thread's following spans with ``op_id``."""
        self._local.op = op_id

    def _op(self) -> str | None:
        return _tracing.current_trace_id() or getattr(self._local, "op", None)

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner: type, attr: str, name: str, on_return=None,
             generator: bool = False) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``on_return(result, duration_s, args, kwargs)`` sees each
        call's result.  ``generator=True`` times each resumption of the
        returned generator as one span, since its work runs there.
        """
        original = owner.__dict__[attr]
        enter, leave = self._enter, self._leave

        if generator:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    inner = original(*args, **kwargs)
                finally:
                    leave(name, frame)
                while True:
                    frame = enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(name, frame)
                    yield item
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    duration = leave(name, frame)
                if on_return is not None:
                    on_return(result, duration, args, kwargs)
                return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as span ``name``."""
        frame = self._enter()
        try:
            yield
        finally:
            self._leave(name, frame)

    def remove(self) -> None:
        """Put every wrapped method back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _enter(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # [span id, start, child time]
        frame = [next(self._ids), time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list) -> float:
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        span_id, start, child = frame
        duration = end - start
        parent = stack[-1][0] if stack else 0
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - child
            self.durations[name].append(duration)
            if len(self.spans) < MAX_SPANS:
                self.spans.append((name, start, end, span_id, parent,
                                   threading.get_ident(), self._op()))
            else:
                self.dropped += 1
        return duration

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def table(self, operations: int) -> dict:
        """Per-span totals: calls, total and self ms, self ms per op."""
        ops = max(1, operations)
        with self._lock:
            return {
                name: {
                    "calls": self.calls[name],
                    "total_ms": self.total_s[name] * 1e3,
                    "self_ms": self.self_s[name] * 1e3,
                    "self_ms_per_op": self.self_s[name] * 1e3 / ops,
                }
                for name in sorted(self.calls)
            }

    def export(self) -> dict:
        """The kept spans in a JSON-ready form (to cross processes)."""
        with self._lock:
            return {
                "pid": os.getpid(),
                "spans": list(self.spans),
                "dropped": self.dropped,
            }


def chrome_events(exported: dict, t0: float) -> list[dict]:
    """Chrome trace-event ``X`` records of an :meth:`Tracer.export`."""
    pid = exported["pid"]
    return [
        {
            "name": name, "ph": "X", "pid": pid, "tid": tid,
            "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
            "args": {"id": span_id, "parent": parent, "op": op},
        }
        for name, start, end, span_id, parent, tid, op in exported["spans"]
    ]


def write_trace(stem, exports: list[dict], t0: float, table: dict) -> None:
    """``<stem>.trace.json`` (Chrome trace of every process's spans) and
    ``<stem>.selftime.json`` (the per-span self-time table)."""
    stem.parent.mkdir(parents=True, exist_ok=True)
    events = []
    dropped = 0
    for exported in exports:
        events.extend(chrome_events(exported, t0))
        dropped += exported["dropped"]
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": {"spans_dropped": dropped}}
    stem.with_name(stem.name + ".trace.json").write_text(json.dumps(doc))
    stem.with_name(stem.name + ".selftime.json").write_text(
        json.dumps(table, indent=1, sort_keys=True)
    )
