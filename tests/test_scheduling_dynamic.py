"""Tests for dynamic session scheduling."""

import numpy as np
import pytest

from repro.games.resolution import Resolution
from repro.placement import CMFeasiblePolicy, DedicatedPolicy, VBPFirstFitPolicy
from repro.scheduling.dynamic import Session, generate_sessions, simulate_sessions

R1080 = Resolution(1920, 1080)


class TestSession:
    def test_validation(self):
        with pytest.raises(ValueError):
            Session("a", R1080, arrival=0.0, duration=0.0)
        with pytest.raises(ValueError):
            Session("a", R1080, arrival=-1.0, duration=5.0)


class TestGenerateSessions:
    def test_count_and_ordering(self):
        sessions = generate_sessions(["a", "b"], 50, seed=0)
        assert len(sessions) == 50
        arrivals = [s.arrival for s in sessions]
        assert arrivals == sorted(arrivals)

    def test_mean_duration_plausible(self):
        sessions = generate_sessions(["a"], 3000, mean_duration=20.0, seed=1)
        durations = np.array([s.duration for s in sessions])
        assert durations.mean() == pytest.approx(20.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_sessions(["a"], 0)
        with pytest.raises(ValueError):
            generate_sessions(["a"], 5, arrival_rate=0.0)


class TestPolicies:
    def test_dedicated_never_reuses(self):
        policy = DedicatedPolicy().select
        session = Session("a", R1080, 0.0, 10.0)
        assert policy([(("a", R1080),)], session) is None

    def test_cm_policy_packs_when_feasible(self, minilab):
        policy = CMFeasiblePolicy(minilab.predictor, qos=1.0).select
        session = Session(minilab.names[0], R1080, 0.0, 10.0)
        # With a trivial QoS floor every colocation is feasible: reuse.
        servers = [((minilab.names[1], R1080),)]
        assert policy(servers, session) == 0

    def test_cm_policy_opens_when_infeasible(self, minilab):
        policy = CMFeasiblePolicy(minilab.predictor, qos=10000.0).select
        session = Session(minilab.names[0], R1080, 0.0, 10.0)
        servers = [((minilab.names[1], R1080),)]
        assert policy(servers, session) is None

    def test_cm_policy_respects_max_colocation(self, minilab):
        policy = CMFeasiblePolicy(minilab.predictor, qos=1.0, max_colocation=2).select
        session = Session(minilab.names[0], R1080, 0.0, 10.0)
        full = tuple((minilab.names[i], R1080) for i in (1, 2))
        assert policy([full], session) is None

    def test_vbp_policy_first_fit(self, minilab):
        policy = VBPFirstFitPolicy(minilab.vbp).select
        session = Session(minilab.names[0], R1080, 0.0, 10.0)
        assert policy([()], session) == 0

    def test_margin_validated(self, minilab):
        with pytest.raises(ValueError, match="margin"):
            CMFeasiblePolicy(minilab.predictor, 60.0, margin=0.5)

    def test_margin_never_packs_more(self, minilab):
        sessions = generate_sessions(
            minilab.names[:4], 60, arrival_rate=4.0, seed=9
        )
        loose = simulate_sessions(
            minilab.catalog,
            sessions,
            CMFeasiblePolicy(minilab.predictor, 60.0),
            qos=60.0,
        )
        strict = simulate_sessions(
            minilab.catalog,
            sessions,
            CMFeasiblePolicy(minilab.predictor, 60.0, margin=1.3),
            qos=60.0,
        )
        # A stricter floor cannot systematically pack tighter (small slack
        # because greedy packing is not strictly monotone in the floor).
        assert strict.server_minutes >= 0.9 * loose.server_minutes


class TestSimulateSessions:
    def test_dedicated_baseline_invariants(self, minilab):
        sessions = generate_sessions(minilab.names[:4], 40, seed=2)
        metrics = simulate_sessions(
            minilab.catalog, sessions, DedicatedPolicy(), qos=60.0
        )
        assert metrics.n_sessions == 40
        assert metrics.server_minutes == pytest.approx(
            metrics.dedicated_server_minutes, rel=1e-6
        )
        assert metrics.utilization_gain == pytest.approx(0.0, abs=1e-9)
        assert 0.0 <= metrics.violation_fraction <= 1.0

    def test_cm_policy_saves_server_time(self, minilab):
        sessions = generate_sessions(
            minilab.names[:4], 60, arrival_rate=4.0, seed=3
        )
        dedicated = simulate_sessions(
            minilab.catalog, sessions, DedicatedPolicy(), qos=60.0
        )
        packed = simulate_sessions(
            minilab.catalog,
            sessions,
            CMFeasiblePolicy(minilab.predictor, 60.0),
            qos=60.0,
        )
        assert packed.server_minutes < dedicated.server_minutes
        assert packed.peak_servers <= dedicated.peak_servers

    def test_violation_time_bounded_by_session_time(self, minilab):
        sessions = generate_sessions(minilab.names[:4], 30, seed=4)
        metrics = simulate_sessions(
            minilab.catalog,
            sessions,
            VBPFirstFitPolicy(minilab.vbp),
            qos=60.0,
        )
        # Up to `size` games can violate simultaneously on one server, but
        # total violation time can never exceed total session time.
        assert metrics.violation_minutes <= metrics.session_minutes + 1e-6
