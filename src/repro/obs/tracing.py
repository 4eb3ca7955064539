"""Dependency-free span tracing for the serving hot path.

A :class:`Tracer` produces nested :class:`Span` records — name, trace id,
span id, parent id, start/end, attributes — through a context-manager
API.  Every top-level span opens a new trace (one per admitted request in
the serving broker), and spans opened while another span is active become
its children, so the hierarchy needs no explicit plumbing at call sites.

The clock is injectable: tests pass a :class:`TickClock` and get
byte-identical exports for the same workload, which is what makes trace
output assertable at all.  A disabled tracer hands out one shared no-op
span object and records nothing, keeping the hot path allocation-free
when tracing is off.

Finished spans export to two formats:

* **JSONL** — one span object per line, stable field order, greppable;
* **Chrome trace-event JSON** — loadable directly in ``chrome://tracing``
  or Perfetto (complete ``"X"`` events plus ``"i"`` instants).
"""

from __future__ import annotations

import json
import time

__all__ = [
    "Span",
    "Tracer",
    "TickClock",
    "NOOP_TRACER",
    "spans_to_chrome",
]


class TickClock:
    """Deterministic clock: each call advances by a fixed ``step`` seconds.

    Injected into a :class:`Tracer` for reproducible traces — the same
    sequence of span operations always yields the same timestamps.
    """

    def __init__(self, start: float = 0.0, step: float = 1e-6):
        if step <= 0:
            raise ValueError("step must be positive")
        self._now = float(start)
        self.step = float(step)

    def __call__(self) -> float:
        now = self._now
        self._now += self.step
        return now


class Span:
    """One traced operation: a named interval with attributes and a parent.

    Spans are context managers; entering starts the clock and registers
    the span with its tracer, exiting stops it.  Use :meth:`set` inside
    the block to attach attributes discovered mid-operation.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_s",
        "end_s",
        "attributes",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: dict):
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self.trace_id = 0
        self.span_id = 0
        self.parent_id: int | None = None
        self.start_s = 0.0
        self.end_s: float | None = None

    def set(self, **attributes) -> "Span":
        """Attach or overwrite attributes; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    @property
    def duration_s(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        return 0.0 if self.end_s is None else self.end_s - self.start_s

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._close(self)
        return False

    def to_dict(self) -> dict:
        """JSON-able record (stable key order for byte-stable exports)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attributes": dict(sorted(self.attributes.items())),
        }


class _NoopSpan:
    """The shared do-nothing span a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> bool:
        return False

    def set(self, **_attributes) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects nested spans with deterministic ids and an injectable clock.

    ``enabled=False`` makes every :meth:`span`/:meth:`instant` call a
    no-op returning one shared sentinel object: no spans are recorded and
    nothing is retained, so instrumented code pays essentially nothing
    when tracing is off.
    """

    def __init__(self, *, enabled: bool = True, clock=None):
        self.enabled = bool(enabled)
        self._clock = clock if clock is not None else time.perf_counter
        self._finished: list[Span] = []
        self._stack: list[Span] = []
        self._next_span_id = 1
        self._next_trace_id = 1

    # ------------------------------------------------------------------

    def span(self, name: str, **attributes):
        """A context-managed child of the currently active span.

        With no active span, entering begins a new trace.  Returns the
        shared no-op span when the tracer is disabled.
        """
        if not self.enabled:
            return _NOOP_SPAN
        return Span(self, name, attributes)

    def instant(self, name: str, **attributes) -> None:
        """Record a zero-duration marker span (server crash, shard readmission...)."""
        if not self.enabled:
            return
        span = Span(self, name, attributes)
        self._open(span)
        span.end_s = span.start_s  # zero-length: reuse the open timestamp
        self._stack.pop()
        self._finished.append(span)

    def _open(self, span: Span) -> None:
        span.span_id = self._next_span_id
        self._next_span_id += 1
        if self._stack:
            parent = self._stack[-1]
            span.parent_id = parent.span_id
            span.trace_id = parent.trace_id
        else:
            span.parent_id = None
            span.trace_id = self._next_trace_id
            self._next_trace_id += 1
        span.start_s = self._clock()
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        span.end_s = self._clock()
        # Tolerate exits out of order (an exception unwinding several
        # levels): pop everything above and including this span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self._finished.append(span)

    # ------------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Finished spans in completion order (children before parents)."""
        return list(self._finished)

    @property
    def n_traces(self) -> int:
        """Number of traces begun (top-level spans opened)."""
        return self._next_trace_id - 1

    def traces(self) -> dict[int, list[Span]]:
        """Finished spans grouped by trace id, each sorted by start time."""
        out: dict[int, list[Span]] = {}
        for span in self._finished:
            out.setdefault(span.trace_id, []).append(span)
        for spans in out.values():
            spans.sort(key=lambda s: (s.start_s, s.span_id))
        return out

    def clear(self) -> None:
        """Drop all finished spans (active spans are left alone)."""
        self._finished.clear()

    # ------------------------------------------------------------------
    # Exporters

    def _export_order(self) -> list[Span]:
        return sorted(self._finished, key=lambda s: (s.trace_id, s.start_s, s.span_id))

    def to_jsonl(self) -> str:
        """One JSON object per finished span, ordered by (trace, start)."""
        return "".join(
            json.dumps(span.to_dict(), sort_keys=False) + "\n"
            for span in self._export_order()
        )

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        return spans_to_chrome([span.to_dict() for span in self._export_order()])

    def export_jsonl(self, path) -> None:
        """Write :meth:`to_jsonl` output to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    def export_chrome_trace(self, path) -> None:
        """Write :meth:`to_chrome_trace` output as JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1)
            fh.write("\n")


#: Shared disabled tracer: the default for un-instrumented components.
NOOP_TRACER = Tracer(enabled=False)


def spans_to_chrome(spans: list[dict]) -> dict:
    """Convert span dicts (:meth:`Span.to_dict` / JSONL lines) to Chrome format.

    Durations and timestamps become microseconds; each trace id maps to a
    ``tid`` so Perfetto renders one request per track.  Zero-duration
    spans become instant (``"i"``) events.
    """
    events = []
    for span in spans:
        start_us = span["start_s"] * 1e6
        args = dict(span.get("attributes") or {})
        args["span_id"] = span["span_id"]
        if span.get("parent_id") is not None:
            args["parent_id"] = span["parent_id"]
        common = {
            "name": span["name"],
            "pid": 1,
            "tid": span["trace_id"],
            "ts": start_us,
            "args": args,
        }
        duration_s = span.get("duration_s") or 0.0
        if duration_s <= 0.0:
            events.append({**common, "ph": "i", "s": "t"})
        else:
            events.append({**common, "ph": "X", "dur": duration_s * 1e6})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
