"""Chaos suite: fault injection, degraded modes, and server crashes.

The load-bearing properties: a fully zero-rate injector is a perfect
pass-through (placements equal a plain, unwrapped policy's),
every injected failure mode is absorbed by the admission fallback chain
(the broker never sees an exception), the breaker state machine walks
NORMAL -> DEGRADED -> CONSERVATIVE and back deterministically, and server
crashes re-admit every evicted session.
"""

import json

import pytest

from repro.scheduling.dynamic import generate_sessions
from repro.serving import (
    BreakerConfig,
    CMFeasiblePolicy,
    DecisionEngine,
    DedicatedPolicy,
    FaultConfig,
    FaultInjector,
    InjectedFault,
    Mode,
    PredictionCache,
    RequestBroker,
    WorstFitPolicy,
    build_policy,
)

CHAOS_BREAKER = BreakerConfig(
    failure_threshold=0.3, window=10, min_requests=5, cooldown=10, probe_window=2
)


class _FailsFirstN:
    """Primary policy that errors for its first ``n`` calls, then heals."""

    name = "flaky"

    def __init__(self, n):
        self.n = n
        self.calls = 0

    def select(self, signatures, session):
        self.calls += 1
        if self.calls <= self.n:
            raise RuntimeError("still broken")
        return None


class _AlwaysFails:
    name = "broken"

    def select(self, signatures, session):
        raise RuntimeError("boom")


class _OpensServer:
    name = "opener"

    def select(self, signatures, session):
        return None


class TestFaultConfig:
    def test_rate_validation(self):
        with pytest.raises(ValueError, match="error_rate"):
            FaultConfig(error_rate=1.5)
        with pytest.raises(ValueError, match="latency_s"):
            FaultConfig(latency_s=-1)

    def test_active(self):
        assert not FaultConfig().active
        assert FaultConfig(corrupt_rate=0.1).active

    def test_to_dict_json(self):
        config = FaultConfig(error_rate=0.2, seed=7)
        assert json.loads(json.dumps(config.to_dict()))["error_rate"] == 0.2


class TestInjectorDeterminism:
    def test_same_seed_same_sequence(self):
        a = FaultInjector(FaultConfig(error_rate=0.3, seed=42))
        b = FaultInjector(FaultConfig(error_rate=0.3, seed=42))
        assert [a.fire("error") for _ in range(200)] == [
            b.fire("error") for _ in range(200)
        ]

    def test_zero_rate_never_fires_and_skips_rng(self):
        injector = FaultInjector(FaultConfig(seed=1))
        assert not any(injector.fire("error") for _ in range(100))
        # The RNG was never consumed: enabling one kind later still sees
        # the virgin stream (same draws as a fresh injector).
        probe = FaultInjector(FaultConfig(error_rate=1.0, seed=1))
        assert probe.fire("error")

    def test_fire_counts_telemetry(self):
        injector = FaultInjector(FaultConfig(error_rate=1.0, stale_rate=1.0))
        injector.fire("error")
        injector.fire("stale")
        counters = injector.telemetry.snapshot()["counters"]
        assert counters["faults_injected"] == 2
        assert counters["faults_error"] == 1
        assert counters["faults_stale"] == 1


class TestWrappers:
    def test_policy_error_injection(self):
        policy = FaultInjector(FaultConfig(error_rate=1.0)).wrap_policy(
            _OpensServer()
        )
        assert policy.name == "opener"
        with pytest.raises(InjectedFault):
            policy.select([], None)

    def test_policy_corrupt_returns_out_of_range(self):
        policy = FaultInjector(FaultConfig(corrupt_rate=1.0)).wrap_policy(
            _OpensServer()
        )
        assert policy.select([(), ()], None) == 3  # len + 1: out of range

    def test_predictor_error_injection(self, minilab):
        wrapped = FaultInjector(FaultConfig(error_rate=1.0)).wrap_predictor(
            minilab.predictor
        )
        with pytest.raises(InjectedFault):
            wrapped.colocations_feasible([], 60.0)
        # Non-prediction attributes delegate untouched.
        assert wrapped.db is minilab.predictor.db

    def test_predictor_stale_returns_previous_answer(self, minilab):
        from repro.core import ColocationSpec
        from repro.games.resolution import Resolution

        r = Resolution(1920, 1080)
        specs_a = [ColocationSpec(((minilab.names[0], r), (minilab.names[1], r)))]
        specs_b = [ColocationSpec(((minilab.names[2], r), (minilab.names[3], r)))]
        wrapped = FaultInjector(FaultConfig(stale_rate=1.0)).wrap_predictor(
            minilab.predictor
        )
        first = wrapped.predict_fps_batch(specs_a)  # nothing stale yet: computed
        second = wrapped.predict_fps_batch(specs_b)  # stale: the previous answer
        assert second is first

    def test_predictor_corrupt_flips_verdicts(self, minilab):
        from repro.core import ColocationSpec
        from repro.games.resolution import Resolution

        r = Resolution(1920, 1080)
        specs = [ColocationSpec(((minilab.names[0], r), (minilab.names[1], r)))]
        clean = minilab.predictor.colocations_feasible(specs, 60.0)
        wrapped = FaultInjector(FaultConfig(corrupt_rate=1.0)).wrap_predictor(
            minilab.predictor
        )
        corrupted = wrapped.colocations_feasible(specs, 60.0)
        assert list(corrupted) == [not v for v in clean]

    def test_cache_stale_loses_entry(self):
        cache = PredictionCache(16)
        wrapped = FaultInjector(FaultConfig(stale_rate=1.0)).wrap_cache(cache)
        wrapped.put(("k",), True)
        assert wrapped.lookup(("k",), "gone") == "gone"
        assert cache.invalidations == 1
        assert ("k",) not in cache

    def test_cache_corrupt_on_put(self):
        cache = PredictionCache(16)
        wrapped = FaultInjector(FaultConfig(corrupt_rate=1.0)).wrap_cache(cache)
        wrapped.put(("k",), True)
        assert cache.lookup(("k",)) is False
        assert wrapped.stats()["size"] == 1  # stats delegate to the real cache


class _RecordingInjector(FaultInjector):
    """Logs the kind of every draw it is asked for."""

    def __init__(self, config):
        super().__init__(config)
        self.fired = []

    def fire(self, kind):
        self.fired.append(kind)
        return super().fire(kind)


class TestWholeColocationFaults:
    """``cm-feasible`` puts one whole-colocation question per decision."""

    def _case(self, minilab, config, injector=FaultInjector):
        from repro.core import ColocationSpec
        from repro.games.resolution import Resolution
        from repro.placement.fleet import Session
        from repro.placement.signature import signature_add

        r = Resolution(1920, 1080)
        names = minilab.names
        pools = [[((name, r),) for name in names[i : i + 2]] for i in (0, 2)]
        arrival = Session(names[4], r, arrival=0.0, duration=1.0)
        truth = [
            minilab.predictor.colocations_feasible(
                [ColocationSpec(signature_add(sig, (names[4], r))) for sig in pool],
                60.0,
            ).tolist()
            for pool in pools
        ]
        faults = injector(config)
        policy = CMFeasiblePolicy(faults.wrap_predictor(minilab.predictor), 60.0)
        return policy, faults, pools, arrival, truth

    def test_corrupt_answer_is_a_lie_the_policy_acts_on(self, minilab):
        # The corrupted ndarray arrives as a list with every verdict
        # flipped: an in-range wrong choice, not an AttributeError booked
        # as a policy error.
        policy, _, (pool, _), arrival, (truth, _) = self._case(
            minilab, FaultConfig(corrupt_rate=1.0)
        )
        honest = CMFeasiblePolicy(minilab.predictor, 60.0)
        lie = [not verdict for verdict in truth]
        choice = policy.select(pool, arrival)
        assert choice == (lie.index(True) if any(lie) else None)
        assert choice != honest.select(pool, arrival)
        assert list(policy.cache._store.values()) == lie

    def test_short_stale_replay_reaches_the_resolve_keyerror(self, minilab):
        policy, _, (pool, other), arrival, (truth, _) = self._case(
            minilab, FaultConfig(stale_rate=1.0)
        )
        policy.select(pool[:1], arrival)  # nothing stale yet: one fresh verdict
        with pytest.raises(KeyError):
            policy.select(other, arrival)  # two misses, one replayed answer
        assert len(policy.cache) == 2

    def test_one_error_draw_per_query(self, minilab):
        policy, faults, pools, arrival, _ = self._case(
            minilab, FaultConfig(error_rate=0.5, seed=3), _RecordingInjector
        )
        queries = raised = 0
        inner = policy._query

        def counted(specs):
            nonlocal queries
            queries += 1
            return inner(specs)

        policy._query = counted
        for _ in range(12):
            for pool in pools:
                try:
                    policy.select(pool, arrival)
                except InjectedFault:
                    raised += 1
                policy.cache.clear()
        assert queries == 24 and 0 < raised < 24
        assert faults.fired.count("error") == queries


class TestDegradedModes:
    def test_trip_degrade_recover(self):
        config = BreakerConfig(
            failure_threshold=0.5, window=4, min_requests=2, cooldown=3, probe_window=2
        )
        controller = DecisionEngine(
            _FailsFirstN(4), fallback=_OpensServer(), breaker=config
        )
        for _ in range(25):
            decision = controller.decide([], object())
            assert decision.server is None  # opener/dedicated both open
        assert controller.mode is Mode.NORMAL  # healed and recovered
        snap = controller.resilience_snapshot()
        assert snap["trips"] >= 1
        assert snap["recoveries"] >= 1
        modes = [t["to"] for t in snap["mode_transitions"]]
        assert "degraded" in modes
        assert modes[-1] == "normal"
        # Breaker transitions are mirrored into the telemetry event log.
        events = controller.telemetry.snapshot()["events"]
        assert any(e["event"] == "breaker_transition" for e in events)
        assert any(e["event"] == "mode_transition" for e in events)

    def test_conservative_when_both_policies_fail(self):
        config = BreakerConfig(
            failure_threshold=0.5, window=4, min_requests=2, cooldown=5, probe_window=2
        )
        controller = DecisionEngine(
            _AlwaysFails(), fallback=_AlwaysFails(), breaker=config
        )
        saw_conservative = False
        for _ in range(30):
            decision = controller.decide([], object())
            assert decision.server is None
            assert decision.policy == "dedicated"
            saw_conservative = saw_conservative or controller.mode is Mode.CONSERVATIVE
        assert saw_conservative
        counters = controller.telemetry.snapshot()["counters"]
        assert counters["degraded_decisions"] > 0
        assert counters["conservative_decisions"] > 0

    def test_deadline_overruns_trip_breaker(self):
        config = BreakerConfig(
            failure_threshold=0.5, window=4, min_requests=2, cooldown=50, probe_window=2
        )
        controller = DecisionEngine(
            _OpensServer(),
            fallback=_OpensServer(),
            breaker=config,
            decision_deadline_s=1e-12,  # everything overruns
        )
        for _ in range(10):
            assert controller.decide([], object()).server is None
        counters = controller.telemetry.snapshot()["counters"]
        assert counters["deadline_overruns"] == counters["requests"]
        assert controller.mode is not Mode.NORMAL

    def test_deadline_validation(self):
        with pytest.raises(ValueError, match="decision_deadline_s"):
            DecisionEngine(_OpensServer(), decision_deadline_s=0)

    def test_no_breaker_keeps_legacy_shape(self):
        controller = DecisionEngine(_OpensServer())
        controller.decide([], object())
        snap = controller.resilience_snapshot()
        assert snap["enabled"] is False
        assert snap["mode"] == "normal"
        assert snap["breakers"] == {}


class TestServerCrashes:
    def test_crash_rate_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            RequestBroker(DecisionEngine(DedicatedPolicy()), crash_rate=1.5)

    def test_crashes_evict_and_readmit(self, minilab):
        sessions = generate_sessions(
            minilab.names[:4], 80, arrival_rate=6.0, seed=21
        )
        controller = DecisionEngine(DedicatedPolicy())
        broker = RequestBroker(controller, crash_rate=0.25, crash_seed=21)
        report = broker.run(sessions)
        counters = report.telemetry["counters"]
        assert counters["server_crashes"] > 0
        assert counters["sessions_evicted"] == counters["readmissions"]
        assert len(report.readmissions) == counters["readmissions"]
        assert all(r.readmitted for r in report.readmissions)
        assert not any(p.readmitted for p in report.placements)
        assert report.resilience["server_crashes"] == counters["server_crashes"]
        events = [
            e for e in report.telemetry["events"] if e["event"] == "server_crash"
        ]
        assert len(events) == counters["server_crashes"]
        # Every arrival and every re-admission got a server.
        assert report.n_sessions == 80
        assert all(p.server_id >= 0 for p in report.placements)
        assert all(r.server_id >= 0 for r in report.readmissions)

    def test_crash_determinism(self, minilab):
        sessions = generate_sessions(minilab.names[:4], 60, seed=22)

        def run():
            broker = RequestBroker(
                DecisionEngine(DedicatedPolicy()),
                crash_rate=0.3,
                crash_seed=5,
            )
            return broker.run(sessions)

        first, second = run(), run()
        assert first.to_dict()["placements"] == second.to_dict()["placements"]
        assert first.to_dict()["readmissions"] == second.to_dict()["readmissions"]

    def test_zero_crash_rate_never_touches_rng(self, minilab):
        sessions = generate_sessions(minilab.names[:3], 20, seed=23)
        baseline = RequestBroker(DecisionEngine(DedicatedPolicy())).run(sessions)
        guarded = RequestBroker(
            DecisionEngine(DedicatedPolicy()), crash_rate=0.0, crash_seed=999
        ).run(sessions)
        assert baseline.choices() == guarded.choices()
        assert "server_crashes" not in guarded.telemetry["counters"]


class TestChaosEndToEnd:
    """The acceptance scenario from the issue, end to end."""

    def test_chaos_run_completes_with_all_sessions_placed(self, minilab):
        sessions = generate_sessions(
            minilab.names, 220, arrival_rate=4.0, seed=31
        )
        injector = FaultInjector(FaultConfig(error_rate=0.35, seed=31))
        cache = PredictionCache(1024)
        policy, fallback = build_policy(
            "cm-feasible",
            predictor=minilab.predictor,
            qos=60.0,
            cache=cache,
            injector=injector,
        )
        controller = DecisionEngine(
            policy,
            fallback=fallback,
            telemetry=injector.telemetry,
            breaker=CHAOS_BREAKER,
        )
        broker = RequestBroker(controller, crash_rate=0.05, crash_seed=31)
        report = broker.run(sessions)  # zero uncaught exceptions

        assert report.n_sessions == 220
        counters = report.telemetry["counters"]
        assert counters["faults_injected"] > 0
        assert counters["policy_errors"] > 0
        assert counters["server_crashes"] > 0
        # Every session (arrival or re-admission) was placed somewhere.
        decisions = counters["requests"]
        assert decisions == 220 + counters["readmissions"]
        assert counters["admissions"] + counters["servers_opened"] == decisions
        # Breaker state transitions made it into telemetry.
        assert report.resilience["trips"] >= 1
        assert report.resilience["breakers"]["primary"]["transitions"]
        assert any(
            e["event"] == "breaker_transition"
            for e in report.telemetry["events"]
        )
        # The whole report stays JSON-able.
        json.dumps(report.to_dict())

    def test_full_chaos_all_fault_kinds(self, minilab):
        sessions = generate_sessions(
            minilab.names, 200, arrival_rate=4.0, seed=32
        )
        injector = FaultInjector(
            FaultConfig(
                error_rate=0.2,
                latency_rate=0.05,
                latency_s=1e-4,
                corrupt_rate=0.15,
                stale_rate=0.15,
                seed=32,
            )
        )
        cache = PredictionCache(512)
        primary, fallback = build_policy(
            "max-fps",
            predictor=minilab.predictor,
            qos=60.0,
            cache=cache,
            injector=injector,
        )
        controller = DecisionEngine(
            injector.wrap_policy(primary),
            fallback=fallback,
            telemetry=injector.telemetry,
            breaker=CHAOS_BREAKER,
        )
        report = RequestBroker(controller, crash_rate=0.03, crash_seed=32).run(
            sessions
        )
        counters = report.telemetry["counters"]
        assert report.n_sessions == 200
        assert counters["admissions"] + counters["servers_opened"] == counters[
            "requests"
        ]
        # The corrupt policy wrapper produced out-of-range indices and the
        # controller absorbed every one of them.
        assert counters["invalid_choices"] > 0
        json.dumps(report.to_dict())

    def test_zero_fault_rate_is_byte_identical_to_offline(self, minilab):
        """Fault layer fully wired but all rates zero: exact parity."""
        sessions = generate_sessions(
            minilab.names, 200, arrival_rate=4.0, seed=33
        )
        injector = FaultInjector(FaultConfig(seed=33))  # all rates zero
        cache = PredictionCache(1024)
        policy, fallback = build_policy(
            "cm-feasible",
            predictor=minilab.predictor,
            qos=60.0,
            cache=cache,
            injector=injector,
        )
        controller = DecisionEngine(
            injector.wrap_policy(policy),
            fallback=fallback,
            telemetry=injector.telemetry,
            breaker=CHAOS_BREAKER,
            decision_deadline_s=60.0,
        )
        report = RequestBroker(controller, crash_rate=0.0, crash_seed=33).run(
            sessions
        )

        plain = CMFeasiblePolicy(minilab.predictor, 60.0)
        plain_report = RequestBroker(DecisionEngine(plain)).run(sessions)

        assert report.choices() == plain_report.choices()
        assert report.server_ids() == plain_report.server_ids()
        counters = report.telemetry["counters"]
        assert counters.get("faults_injected", 0) == 0
        assert counters.get("policy_errors", 0) == 0
        assert report.resilience["trips"] == 0
        assert report.resilience["mode"] == "normal"
        assert report.readmissions == []


class TestFallbackChainCounters:
    """Satellite: the full primary -> fallback -> dedicated chain."""

    def test_primary_and_fallback_both_raise(self):
        controller = DecisionEngine(_AlwaysFails(), fallback=_AlwaysFails())
        for _ in range(7):
            decision = controller.decide([((), ())], object())  # never raises
            assert decision.server is None
            assert decision.policy == "dedicated"
            assert decision.fallback
        counters = controller.telemetry.snapshot()["counters"]
        assert counters["requests"] == 7
        assert counters["policy_errors"] == 7
        assert counters["fallbacks"] == 7
        assert counters["fallback_errors"] == 7
        assert counters["servers_opened"] == 7

    def test_primary_raises_fallback_answers(self, minilab):
        fallback = WorstFitPolicy(minilab.vbp)
        controller = DecisionEngine(_AlwaysFails(), fallback=fallback)
        session = generate_sessions(minilab.names[:2], 1, seed=1)[0]
        decision = controller.decide([], session)
        assert decision.fallback
        assert decision.policy in ("worst-fit", "dedicated")
        counters = controller.telemetry.snapshot()["counters"]
        assert counters["policy_errors"] == 1
        assert counters["fallbacks"] == 1
        assert counters.get("fallback_errors", 0) == 0


class TestInvalidChoiceValidation:
    """Satellite: out-of-range policy answers route through the chain."""

    class _OutOfRange:
        name = "liar"

        def select(self, signatures, session):
            return len(signatures) + 5

    class _WrongType:
        name = "typeliar"

        def select(self, signatures, session):
            return "server-3"

    def test_out_of_range_index_falls_back(self):
        controller = DecisionEngine(self._OutOfRange(), fallback=_OpensServer())
        decision = controller.decide([((), ())], object())
        assert decision.server is None
        assert decision.fallback
        assert decision.policy == "opener"
        counters = controller.telemetry.snapshot()["counters"]
        assert counters["invalid_choices"] == 1
        assert counters["policy_errors"] == 1

    def test_negative_and_wrong_type(self):
        class Negative:
            name = "neg"

            def select(self, signatures, session):
                return -1

        for bad in (Negative(), self._WrongType()):
            controller = DecisionEngine(bad)
            decision = controller.decide([((), ())], object())
            assert decision.server is None
            assert controller.telemetry.snapshot()["counters"]["invalid_choices"] == 1

    def test_invalid_fallback_answer_degrades_to_dedicated(self):
        controller = DecisionEngine(
            _AlwaysFails(), fallback=self._OutOfRange()
        )
        decision = controller.decide([((), ())], object())
        assert decision.server is None
        assert decision.policy == "dedicated"
        counters = controller.telemetry.snapshot()["counters"]
        assert counters["invalid_choices"] == 1
        assert counters["fallback_errors"] == 1

    def test_numpy_integer_choice_is_valid(self):
        import numpy as np

        class NumpyChooser:
            name = "np"

            def select(self, signatures, session):
                return np.int64(0)

        controller = DecisionEngine(NumpyChooser())
        decision = controller.decide([((), ())], object())
        assert decision.server == 0
        assert not decision.fallback

    def test_broker_survives_invalid_choices_end_to_end(self, minilab):
        """The exact crash from the issue: ids[decision.server] blowing up."""
        sessions = generate_sessions(minilab.names[:3], 25, seed=41)
        report = RequestBroker(
            DecisionEngine(self._OutOfRange())
        ).run(sessions)
        assert report.n_sessions == 25
        assert all(p.choice is None for p in report.placements)
        assert report.telemetry["counters"]["invalid_choices"] == 25
