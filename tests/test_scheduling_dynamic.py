"""Tests for dynamic session scheduling."""

import numpy as np
import pytest

from repro.games.resolution import Resolution
from repro.obs import QoSLedger
from repro.placement import CMFeasiblePolicy, DedicatedPolicy, VBPFirstFitPolicy
from repro.scheduling.dynamic import Session, generate_sessions, simulate_sessions

R1080 = Resolution(1920, 1080)


def _ledger(minilab, qos=60.0):
    return QoSLedger(minilab.catalog, minilab.predictor, slo_fps=qos)


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
            sessions, CMFeasiblePolicy(minilab.predictor, 60.0), _ledger(minilab)
        )
        strict = simulate_sessions(
            sessions,
            CMFeasiblePolicy(minilab.predictor, 60.0, margin=1.3),
            _ledger(minilab),
        )
        # A stricter floor cannot systematically pack tighter (small slack
        # because greedy packing is not strictly monotone in the floor).
        assert strict.server_minutes >= 0.9 * loose.server_minutes


class TestSimulateSessions:
    def test_dedicated_baseline_invariants(self, minilab):
        sessions = generate_sessions(minilab.names[:4], 40, seed=2)
        metrics = simulate_sessions(sessions, DedicatedPolicy(), _ledger(minilab))
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
        dedicated = simulate_sessions(sessions, DedicatedPolicy(), _ledger(minilab))
        packed = simulate_sessions(
            sessions, CMFeasiblePolicy(minilab.predictor, 60.0), _ledger(minilab)
        )
        assert packed.server_minutes < dedicated.server_minutes
        assert packed.peak_servers <= dedicated.peak_servers

    def test_violation_time_bounded_by_session_time(self, minilab):
        sessions = generate_sessions(minilab.names[:4], 30, seed=4)
        metrics = simulate_sessions(
            sessions, VBPFirstFitPolicy(minilab.vbp), _ledger(minilab)
        )
        # Up to `size` games can violate simultaneously on one server, but
        # total violation time can never exceed total session time.
        assert metrics.violation_minutes <= metrics.session_minutes + 1e-6


class _Scripted:
    """Replays a fixed list of choices, one per arrival."""

    name = "scripted"

    def __init__(self, choices):
        self._choices = iter(choices)

    def select(self, _signatures, _session):
        return next(self._choices)


class TestServerMinutes:
    """``server_minutes`` is max departure - min arrival per server."""

    def _trace(self, minilab):
        a, b, c, d = (minilab.names[i] for i in range(4))
        return [
            Session(a, R1080, arrival=0.0, duration=10.0),  # departs 10
            Session(b, R1080, arrival=2.0, duration=12.0),  # departs 14
            Session(c, R1080, arrival=5.0, duration=20.0),  # departs 25
            Session(d, R1080, arrival=16.0, duration=4.0),  # departs 20
        ]

    def test_dedicated_equals_summed_durations(self, minilab):
        metrics = simulate_sessions(
            self._trace(minilab), DedicatedPolicy(), _ledger(minilab)
        )
        assert metrics.server_minutes == pytest.approx(10 + 12 + 20 + 4)
        assert metrics.servers_opened == 4

    def test_joined_and_reopened_servers(self, minilab):
        # The second session joins server 0 (0 -> 14); the third opens
        # server 1 (5 -> 25); the fourth arrives after server 0 emptied
        # and opens server 2 (16 -> 20).
        policy = _Scripted([None, 0, None, None])
        metrics = simulate_sessions(self._trace(minilab), policy, _ledger(minilab))
        assert metrics.server_minutes == pytest.approx(14 + 20 + 4)
        assert metrics.dedicated_server_minutes == pytest.approx(46.0)
        assert metrics.peak_servers == 2
        assert metrics.servers_opened == 3

    @pytest.mark.parametrize("qos, expected", [(1.0, 0.0), (1e4, 46.0)])
    def test_violation_minutes_are_the_ledgers(self, minilab, qos, expected):
        ledger = _ledger(minilab, qos=qos)
        policy = _Scripted([None, 0, None, None])
        metrics = simulate_sessions(self._trace(minilab), policy, ledger)
        assert metrics.violation_minutes == ledger.section()["slo"][
            "violation_minutes"
        ]
        assert metrics.violation_minutes == pytest.approx(expected)
