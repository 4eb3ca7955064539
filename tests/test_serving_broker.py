"""Tests for the serving broker, admission controller, and policies.

The load-bearing properties: a cached serving policy places exactly like
an uncached one on the same seeded trace (decision parity), missing
profiles degrade to counted fallbacks instead of
crashing, and the cache actually serves the hot path.
"""

import json

import pytest

from repro.core import InterferencePredictor
from repro.games.resolution import Resolution
from repro.scheduling.dynamic import generate_sessions
from repro.serving import (
    CMFeasiblePolicy,
    DecisionEngine,
    DedicatedPolicy,
    MaxFPSPolicy,
    PredictionCache,
    RequestBroker,
    TraceConfig,
    WorstFitPolicy,
    build_policy,
    generate_trace,
)

R1080 = Resolution(1920, 1080)


def _run(policy, sessions, *, fallback=None):
    controller = DecisionEngine(policy, fallback=fallback)
    return controller, RequestBroker(controller).run(sessions)


class TestPolicyParity:
    """Serving decisions must equal a plain, uncached policy's."""

    def test_cm_feasible_matches_offline_policy_500_requests(self, minilab):
        sessions = generate_sessions(minilab.names, 500, arrival_rate=4.0, seed=5)
        cache = PredictionCache(4096)
        serving = CMFeasiblePolicy(minilab.predictor, 60.0, cache=cache)
        controller, report = _run(serving, sessions)

        _, plain_report = _run(CMFeasiblePolicy(minilab.predictor, 60.0), sessions)

        assert report.n_sessions == 500
        assert report.choices() == plain_report.choices()
        assert report.server_ids() == plain_report.server_ids()
        # Zero unhandled exceptions: the fallback path never triggered.
        counters = report.telemetry["counters"]
        assert counters.get("policy_errors", 0) == 0
        assert counters.get("fallbacks", 0) == 0
        assert cache.hit_rate > 0

    def test_margin_forwarded(self, minilab):
        with pytest.raises(ValueError, match="margin"):
            CMFeasiblePolicy(minilab.predictor, 60.0, margin=0.5)


class TestFallback:
    def test_missing_profile_falls_back_without_crash(self, minilab):
        """A game with no profile is served via the fallback chain."""
        known = minilab.names[:3]
        partial_db = minilab.db.subset(known)
        predictor = InterferencePredictor(
            partial_db, classifier=minilab.cm_model, regressor=minilab.rm_model
        )
        sessions = generate_sessions(
            minilab.names[:5], 40, arrival_rate=4.0, seed=7
        )
        assert any(s.game not in known for s in sessions)

        policy = CMFeasiblePolicy(predictor, 60.0, cache=PredictionCache(256))
        fallback = WorstFitPolicy(minilab.vbp)  # full-db VBP can still place
        controller, report = _run(policy, sessions, fallback=fallback)

        counters = report.telemetry["counters"]
        assert report.n_sessions == 40
        assert counters["fallbacks"] > 0
        assert counters["policy_errors"] == counters["fallbacks"]
        fallback_records = [p for p in report.placements if p.fallback]
        assert fallback_records
        assert all(p.policy == "worst-fit" for p in fallback_records)

    def test_double_failure_degrades_to_dedicated(self, minilab):
        """Primary and fallback both failing still never crashes."""
        partial_db = minilab.db.subset(minilab.names[:3])
        predictor = InterferencePredictor(
            partial_db, classifier=minilab.cm_model, regressor=minilab.rm_model
        )
        sessions = generate_sessions(
            minilab.names[:5], 30, arrival_rate=4.0, seed=8
        )
        policy = CMFeasiblePolicy(predictor, 60.0)
        fallback = WorstFitPolicy(minilab.vbp.__class__(partial_db))
        controller, report = _run(policy, sessions, fallback=fallback)
        counters = report.telemetry["counters"]
        assert counters["fallbacks"] > 0
        assert counters["fallback_errors"] > 0
        dedicated = [p for p in report.placements if p.policy == "dedicated"]
        assert dedicated
        assert all(p.choice is None for p in dedicated)

    def test_no_fallback_opens_server(self, minilab):
        class Exploding:
            name = "exploding"

            def select(self, signatures, session):
                raise RuntimeError("boom")

        sessions = generate_sessions(minilab.names[:3], 10, seed=9)
        _, report = _run(Exploding(), sessions)
        assert all(p.choice is None for p in report.placements)
        assert report.telemetry["counters"]["fallbacks"] == 10


class TestPolicies:
    def test_dedicated_opens_per_session(self, minilab):
        sessions = generate_sessions(minilab.names[:3], 15, seed=1)
        _, report = _run(DedicatedPolicy(), sessions)
        assert report.servers_opened == 15
        assert all(p.choice is None for p in report.placements)

    def test_max_fps_trivial_qos_packs(self, minilab):
        sessions = generate_sessions(
            minilab.names[:4], 30, arrival_rate=6.0, seed=2
        )
        policy = MaxFPSPolicy(minilab.predictor, 1.0, cache=PredictionCache(512))
        _, packed = _run(policy, sessions)
        _, dedicated = _run(DedicatedPolicy(), sessions)
        assert packed.servers_opened < dedicated.servers_opened

    def test_max_fps_impossible_qos_opens(self, minilab):
        sessions = generate_sessions(minilab.names[:4], 10, seed=3)
        policy = MaxFPSPolicy(minilab.predictor, 1e9)
        _, report = _run(policy, sessions)
        assert report.servers_opened == 10

    def test_worst_fit_prefers_emptier_server(self, minilab):
        policy = WorstFitPolicy(minilab.vbp)
        session = generate_sessions(minilab.names[:1], 1, seed=4)[0]
        fuller = tuple((minilab.names[i], R1080) for i in (1, 2))
        emptier = ((minilab.names[3], R1080),)
        choice = policy.select([fuller, emptier], session)
        assert choice in (0, 1, None)
        if choice is not None:
            # Worst fit: the emptier server has more slack.
            assert choice == 1

    def test_build_policy_variants(self, minilab):
        for name in ("cm-feasible", "max-fps", "worst-fit", "dedicated"):
            policy, fallback = build_policy(name, predictor=minilab.predictor)
            assert policy.name == name
            if name in ("cm-feasible", "max-fps"):
                assert fallback is not None and fallback.name == "worst-fit"
            else:
                assert fallback is None

    def test_build_policy_validation(self, minilab):
        with pytest.raises(ValueError, match="unknown policy"):
            build_policy("best-effort", predictor=minilab.predictor)
        with pytest.raises(ValueError, match="predictor"):
            build_policy("cm-feasible")
        rm_only = InterferencePredictor(minilab.db, regressor=minilab.rm_model)
        with pytest.raises(ValueError, match="classification"):
            build_policy("cm-feasible", predictor=rm_only)
        cm_only = InterferencePredictor(minilab.db, classifier=minilab.cm_model)
        with pytest.raises(ValueError, match="regression"):
            build_policy("max-fps", predictor=cm_only)


class TestBrokerAccounting:
    def test_telemetry_totals(self, minilab):
        sessions = generate_sessions(
            minilab.names[:4], 50, arrival_rate=4.0, seed=6
        )
        cache = PredictionCache(512)
        policy = CMFeasiblePolicy(minilab.predictor, 60.0, cache=cache)
        controller, report = _run(policy, sessions)
        counters = report.telemetry["counters"]
        assert counters["requests"] == 50
        assert counters["admissions"] + counters["servers_opened"] == 50
        assert counters["servers_opened"] == report.servers_opened
        assert report.telemetry["histograms"]["decision_latency_s"]["count"] == 50
        assert report.telemetry["caches"]["cm-feasible"]["hits"] == cache.hits

    def test_report_round_trips_through_json(self, minilab):
        sessions = generate_sessions(minilab.names[:3], 10, seed=12)
        _, report = _run(DedicatedPolicy(), sessions)
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["n_sessions"] == 10
        assert len(parsed["placements"]) == 10

    def test_trace_config(self):
        config = TraceConfig(n_requests=20, seed=3)
        trace = generate_trace(["a", "b"], config)
        assert len(trace) == 20
        assert trace == generate_trace(["a", "b"], config)
        with pytest.raises(ValueError):
            TraceConfig(n_requests=0)
        with pytest.raises(ValueError):
            TraceConfig(arrival_rate=0.0)
        mixed = TraceConfig(n_requests=200, mixed_resolutions=True, seed=4)
        resolutions = {s.resolution for s in generate_trace(["a"], mixed)}
        assert len(resolutions) > 1

    def test_trace_config_dict_round_trip(self):
        # The report's config.trace names every field, so the trace is
        # reproducible from the report alone.
        config = TraceConfig(n_requests=30, arrival_rate=3.5, seed=8)
        assert TraceConfig(**config.to_dict()) == config
