"""Tests for the span tracer: nesting, determinism, exporters, no-op path."""

import json

import pytest

from repro.obs import NOOP_TRACER, Span, TickClock, Tracer, spans_to_chrome
from repro.obs.tracing import _NOOP_SPAN


def _workload(tracer):
    """A fixed two-trace workload used by the determinism tests."""
    with tracer.span("request", index=0):
        with tracer.span("admission", game="Dota2"):
            with tracer.span("cache") as cache:
                cache.set(hits=2, misses=1)
            with tracer.span("predict", batched=1):
                pass
        tracer.instant("shard_readmitted", shard=1)
    with tracer.span("request", index=1) as root:
        root.set(server_id=3)


class TestSpanNesting:
    def test_parent_child_ids(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("request") as root:
            with tracer.span("admission") as admission:
                with tracer.span("cache") as cache:
                    pass
            with tracer.span("policy") as policy:
                pass
        assert root.parent_id is None
        assert admission.parent_id == root.span_id
        assert cache.parent_id == admission.span_id
        assert policy.parent_id == root.span_id
        assert {s.trace_id for s in (root, admission, cache, policy)} == {1}

    def test_top_level_spans_open_new_traces(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("request"):
            pass
        with tracer.span("request"):
            pass
        assert tracer.n_traces == 2
        assert sorted(tracer.traces()) == [1, 2]

    def test_span_ids_unique_and_sequential(self):
        tracer = Tracer(clock=TickClock())
        _workload(tracer)
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids))
        assert sorted(ids) == list(range(1, len(ids) + 1))

    def test_durations_nest(self):
        tracer = Tracer(clock=TickClock(step=1.0))
        with tracer.span("request") as root:
            with tracer.span("admission") as child:
                pass
        assert child.start_s >= root.start_s
        assert child.end_s <= root.end_s
        assert child.duration_s <= root.duration_s

    def test_exception_marks_error_and_unwinds(self):
        tracer = Tracer(clock=TickClock())
        with pytest.raises(RuntimeError):
            with tracer.span("request") as root:
                with tracer.span("predict"):
                    raise RuntimeError("boom")
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["predict"].attributes["error"] == "RuntimeError"
        assert by_name["request"].attributes["error"] == "RuntimeError"
        assert root.end_s is not None
        # The stack fully unwound: the next span starts a fresh trace.
        with tracer.span("request"):
            pass
        assert tracer.n_traces == 2

    def test_instant_is_zero_length_child(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("request") as root:
            tracer.instant("server_crash", server_id=3)
        marker = next(s for s in tracer.spans if s.name == "server_crash")
        assert marker.parent_id == root.span_id
        assert marker.duration_s == 0.0


class TestDeterminism:
    def test_same_workload_same_clock_byte_identical(self):
        a, b = Tracer(clock=TickClock()), Tracer(clock=TickClock())
        _workload(a)
        _workload(b)
        assert a.to_jsonl() == b.to_jsonl()
        assert json.dumps(a.to_chrome_trace()) == json.dumps(b.to_chrome_trace())

    def test_export_files_byte_identical(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            tracer = Tracer(clock=TickClock())
            _workload(tracer)
            path = tmp_path / f"{run}.json"
            tracer.export_chrome_trace(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_tick_clock_advances(self):
        clock = TickClock(start=5.0, step=0.5)
        assert [clock(), clock(), clock()] == [5.0, 5.5, 6.0]
        with pytest.raises(ValueError):
            TickClock(step=0.0)


class TestDisabledTracer:
    def test_records_nothing(self):
        tracer = Tracer(enabled=False)
        _workload(tracer)
        assert tracer.spans == []
        assert tracer.n_traces == 0
        assert tracer.to_jsonl() == ""
        assert tracer.to_chrome_trace() == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }

    def test_hands_out_one_shared_noop_span(self):
        # Identity, not equality: the disabled path allocates no spans.
        tracer = Tracer(enabled=False)
        first = tracer.span("request", index=0)
        second = tracer.span("predict", batched=3)
        assert first is second is _NOOP_SPAN
        assert first.set(anything=1) is first
        assert not isinstance(first, Span)

    def test_module_noop_tracer(self):
        assert NOOP_TRACER.enabled is False
        with NOOP_TRACER.span("request"):
            NOOP_TRACER.instant("marker")
        assert NOOP_TRACER.spans == []


class TestExporters:
    def test_jsonl_one_object_per_span(self):
        tracer = Tracer(clock=TickClock())
        _workload(tracer)
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == len(tracer.spans)
        parsed = [json.loads(line) for line in lines]
        assert all("span_id" in p and "trace_id" in p for p in parsed)
        # Export order is by (trace, start): trace 1 fully precedes trace 2.
        assert [p["trace_id"] for p in parsed] == sorted(
            p["trace_id"] for p in parsed
        )

    def test_chrome_trace_shape(self):
        tracer = Tracer(clock=TickClock(step=1.0))
        _workload(tracer)
        doc = tracer.to_chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["s"] == "t"
        for event in complete:
            assert event["dur"] > 0
            assert event["pid"] == 1
            assert isinstance(event["tid"], int)

    def test_spans_to_chrome_accepts_jsonl_round_trip(self):
        tracer = Tracer(clock=TickClock(step=1.0))
        _workload(tracer)
        reloaded = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
        assert spans_to_chrome(reloaded) == tracer.to_chrome_trace()

    def test_clear(self):
        tracer = Tracer(clock=TickClock())
        _workload(tracer)
        tracer.clear()
        assert tracer.spans == []
        # Ids keep counting up so cleared and new spans never collide.
        with tracer.span("request") as span:
            pass
        assert span.trace_id == 3
