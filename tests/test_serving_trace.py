"""End-to-end tracing through the serving broker (the acceptance bar).

Every admitted session must yield a ``request`` root span with at least
four nested descendants — admission decision, cache lookup, prediction,
policy choice — forming one trace whose child durations sum to no more
than the root's.
"""

import json

import pytest

from repro.obs import TickClock, Tracer
from repro.scheduling.dynamic import generate_sessions
from repro.serving import (
    CMFeasiblePolicy,
    DecisionEngine,
    PredictionCache,
    RequestBroker,
)

N_REQUESTS = 60

#: The stage names the acceptance criteria require inside each request.
REQUIRED_STAGES = {"admission", "cache", "predict", "policy"}


@pytest.fixture(scope="module")
def traced_run(minilab):
    """One traced broker run over a seeded trace (shared by the tests)."""
    sessions = generate_sessions(
        minilab.names[:8], N_REQUESTS, arrival_rate=4.0, seed=11
    )
    tracer = Tracer(clock=TickClock())
    policy = CMFeasiblePolicy(minilab.predictor, 60.0, cache=PredictionCache(4096))
    broker = RequestBroker(DecisionEngine(policy), tracer=tracer)
    report = broker.run(sessions)
    return tracer, report


class TestRequestTraces:
    def test_one_trace_per_admitted_session(self, traced_run):
        tracer, report = traced_run
        assert tracer.n_traces == report.n_sessions == N_REQUESTS
        roots = [s for s in tracer.spans if s.parent_id is None]
        assert len(roots) == N_REQUESTS
        assert all(s.name == "request" for s in roots)

    def test_every_request_has_four_nested_stages(self, traced_run):
        tracer, _ = traced_run
        for trace_id, spans in tracer.traces().items():
            names = {s.name for s in spans if s.parent_id is not None}
            missing = REQUIRED_STAGES - names
            assert not missing, f"trace {trace_id} missing stages {missing}"
            assert len(spans) >= 5  # root + the four stages

    def test_child_durations_sum_within_parent(self, traced_run):
        tracer, _ = traced_run
        by_parent: dict[int, float] = {}
        durations = {}
        for span in tracer.spans:
            durations[span.span_id] = span.duration_s
            if span.parent_id is not None:
                by_parent[span.parent_id] = (
                    by_parent.get(span.parent_id, 0.0) + span.duration_s
                )
        for parent_id, child_sum in by_parent.items():
            assert child_sum <= durations[parent_id] + 1e-12

    def test_root_spans_carry_decision_attributes(self, traced_run):
        tracer, report = traced_run
        roots = sorted(
            (s for s in tracer.spans if s.parent_id is None),
            key=lambda s: s.trace_id,
        )
        for root, placement in zip(roots, report.placements):
            assert root.attributes["game"] == placement.game
            assert root.attributes["server_id"] == placement.server_id
            assert root.attributes["policy"] == placement.policy

    def test_chrome_export_is_valid_trace_json(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "trace.json"
        tracer.export_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["traceEvents"], "no events exported"
        for event in doc["traceEvents"]:
            assert event["ph"] in ("X", "i")
            assert isinstance(event["name"], str)
            assert isinstance(event["ts"], (int, float))
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_trace_reflects_predictor_stages_on_cache_miss(self, traced_run):
        tracer, _ = traced_run
        names = {s.name for s in tracer.spans}
        # The cold cache forces real predictor work in at least one request.
        assert "featurize" in names
        assert "model_eval" in names


class TestTraceDeterminism:
    def _run(self, minilab):
        sessions = generate_sessions(
            minilab.names[:6], 30, arrival_rate=4.0, seed=7
        )
        tracer = Tracer(clock=TickClock())
        policy = CMFeasiblePolicy(
            minilab.predictor, 60.0, cache=PredictionCache(4096)
        )
        RequestBroker(DecisionEngine(policy), tracer=tracer).run(sessions)
        return tracer

    def test_same_seed_and_clock_byte_identical(self, minilab):
        assert self._run(minilab).to_jsonl() == self._run(minilab).to_jsonl()


class TestDisabledTracing:
    def test_untraced_run_records_nothing_and_places_identically(self, minilab):
        sessions = generate_sessions(
            minilab.names[:6], 30, arrival_rate=4.0, seed=7
        )

        def run(tracer):
            policy = CMFeasiblePolicy(
                minilab.predictor, 60.0, cache=PredictionCache(4096)
            )
            controller = DecisionEngine(policy)
            broker = (
                RequestBroker(controller, tracer=tracer)
                if tracer is not None
                else RequestBroker(controller)
            )
            return broker, broker.run(sessions)

        broker_off, report_off = run(None)
        broker_on, report_on = run(Tracer(clock=TickClock()))
        assert broker_off.tracer.spans == []
        assert broker_off.tracer.enabled is False
        assert report_off.choices() == report_on.choices()
        assert broker_on.tracer.n_traces == 30
