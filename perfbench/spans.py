"""In-memory span recorder for the traced benchmark run.

Spans are taken by the benchmark around public calls into the library
(no instrumentation lives in ``src/``).  Each span records its name,
wall start and end, parent span, op id, thread and the counters the
wrapped call returned.  Breakdown fields a call already reports (the
analysis phase times inside solver construction, the kernel flush time
inside a factorization) become *derived* child spans, laid out inside
their parent, so self times subtract them like any measured child.

Nothing is written until :meth:`SpanRecorder.write_chrome` is called at
the end of the run; the file is Chrome trace-event JSON, which Perfetto
and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = ["Span", "SpanRecorder", "NULL_RECORDER"]


@dataclass
class Span:
    """One timed interval of one layer call."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into SpanRecorder.spans, -1 for roots
    op: int = -1              # benchmark op id, -1 when not tied to one op
    tid: int = 0
    counters: dict = field(default_factory=dict)
    derived: bool = False     # placed from a reported duration, not timed
    index: int = -1           # position in SpanRecorder.spans

    @property
    def dur(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe span store; each thread keeps its own parent stack."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def clear(self) -> None:
        """Forget every span recorded so far."""
        with self._lock:
            self.spans.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: int = -1) -> Iterator[Span]:
        """Time the body as span ``name``; the yielded span takes counters."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op < 0 and parent >= 0:
            op = self.spans[parent].op
        sp = Span(name=name, start=time.perf_counter(), parent=parent, op=op,
                  tid=threading.get_ident())
        with self._lock:
            idx = sp.index = len(self.spans)
            self.spans.append(sp)
        stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def interval(self, name: str, start: float, end: float, op: int = -1,
                 **counters: object) -> None:
        """Add a root span timed by the caller (e.g. a request's lifetime)."""
        with self._lock:
            self.spans.append(Span(name=name, start=start, end=end, op=op,
                                   counters=dict(counters),
                                   index=len(self.spans)))

    def derived(self, parent: Span, name: str, start: float, seconds: float,
                **counters: float) -> float:
        """Add a child of ``parent`` covering ``[start, start + seconds]``.

        Used for durations a call reports about its own internals.  The
        interval is clipped to the parent; returns its end so siblings can
        be laid out one after another.
        """
        start = max(parent.start, min(start, parent.end))
        end = min(parent.end, start + max(0.0, seconds))
        with self._lock:
            self.spans.append(Span(name=name, start=start, end=end,
                                   parent=parent.index, op=parent.op,
                                   tid=parent.tid, counters=dict(counters),
                                   derived=True, index=len(self.spans)))
        return end

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the union of its children.

        Children of one span run on the span's own thread, nested and
        disjoint, except derived spans which are clipped into the parent;
        the union is taken explicitly so overlap never double-subtracts.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for sp in self.spans:
            if sp.parent >= 0:
                children.setdefault(sp.parent, []).append((sp.start, sp.end))
        out = []
        for i, sp in enumerate(self.spans):
            covered = 0.0
            cur_s = cur_e = None
            for s, e in sorted(children.get(i, ())):
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            out.append(max(0.0, sp.dur - covered))
        return out

    def table(self) -> list[dict]:
        """Per span name: calls, p50 duration and self time, total self time."""
        selfs = self.self_times()
        by_name: dict[str, list[tuple[float, float]]] = {}
        for sp, st in zip(self.spans, selfs):
            by_name.setdefault(sp.name, []).append((sp.dur, st))
        rows = []
        for name, vals in sorted(by_name.items()):
            durs = sorted(d for d, _ in vals)
            slf = sorted(s for _, s in vals)
            rows.append({"name": name, "calls": len(vals),
                         "p50_ms": durs[len(durs) // 2] * 1e3,
                         "self_p50_ms": slf[len(slf) // 2] * 1e3,
                         "self_total_ms": sum(slf) * 1e3})
        return rows

    def write_chrome(self, path: Path, metadata: dict) -> None:
        """Write every span as Chrome trace-event JSON (complete events)."""
        t0 = min((sp.start for sp in self.spans), default=0.0)
        tids: dict[int, int] = {}
        events = []
        for sp in self.spans:
            tid = tids.setdefault(sp.tid, len(tids))
            args = {"op": sp.op, **sp.counters}
            if sp.derived:
                args["derived"] = True
            events.append({"name": sp.name, "ph": "X", "pid": 1, "tid": tid,
                           "ts": (sp.start - t0) * 1e6,
                           "dur": sp.dur * 1e6, "args": args})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms",
                                    "metadata": metadata}))


class _NullRecorder(SpanRecorder):
    """Recorder of the untraced runs: spans cost one context switch."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, op: int = -1) -> Iterator[Span]:
        yield _DISCARDED_SPAN

    def interval(self, name: str, start: float, end: float, op: int = -1,
                 **counters: object) -> None:
        pass

    def derived(self, parent: Span, name: str, start: float, seconds: float,
                **counters: float) -> float:
        return start + seconds


_DISCARDED_SPAN = Span(name="", start=0.0)
NULL_RECORDER = _NullRecorder()
