"""Chaos suite: fault injection, per-decision fallthrough, server crashes.

The load-bearing properties: a fully zero-rate injector is a perfect
pass-through (placements equal a plain, unwrapped policy's),
every injected failure mode is absorbed by the admission fallback chain
(the broker never sees an exception), a failed decision falls through to
the next policy while the next arrival asks the primary again, and server
crashes re-admit every evicted session.
"""

import json
from types import SimpleNamespace

import pytest

from repro.scheduling.dynamic import generate_sessions
from repro.serving import (
    CMFeasiblePolicy,
    DecisionEngine,
    DedicatedPolicy,
    FaultInjector,
    InjectedFault,
    PredictionCache,
    RequestBroker,
    WorstFitPolicy,
    build_policy,
)
from repro.sharding import ShardConfig, build_shard_brokers


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


class TestFaultInjector:
    def test_rate_validation(self):
        for rate in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="error_rate"):
                FaultInjector(rate)


class TestInjectorDeterminism:
    def test_same_seed_same_sequence(self):
        a = FaultInjector(0.3, seed=42)
        b = FaultInjector(0.3, seed=42)
        assert [a.fire() for _ in range(200)] == [b.fire() for _ in range(200)]

    def test_zero_rate_never_fires_and_skips_rng(self):
        injector = FaultInjector(0.0, seed=1)
        state = injector._rng.bit_generator.state
        assert not any(injector.fire() for _ in range(100))
        # The RNG was never consumed: the stream is still the virgin one.
        assert injector._rng.bit_generator.state == state

    def test_fire_counts_telemetry(self):
        injector = FaultInjector(1.0)
        injector.fire()
        injector.fire()
        counters = injector.telemetry.snapshot()["counters"]
        assert counters["faults_injected"] == 2
        assert counters["faults_error"] == 2


class TestWrappers:
    def test_predictor_error_injection(self, minilab):
        wrapped = FaultInjector(1.0).wrap_predictor(minilab.predictor)
        with pytest.raises(InjectedFault):
            wrapped.colocations_feasible([], 60.0)
        # Non-prediction attributes delegate untouched.
        assert wrapped.db is minilab.predictor.db


class _RecordingInjector(FaultInjector):
    """Counts every draw it is asked for."""

    def __init__(self, error_rate, *, seed=0):
        super().__init__(error_rate, seed=seed)
        self.fired = 0

    def fire(self):
        self.fired += 1
        return super().fire()


class TestWholeColocationFaults:
    """``cm-feasible`` puts one whole-colocation question per decision."""

    def _case(self, minilab, predictor):
        from repro.games.resolution import Resolution
        from repro.placement.fleet import Session

        r = Resolution(1920, 1080)
        names = minilab.names
        pools = [[((name, r),) for name in names[i : i + 2]] for i in (0, 2)]
        arrival = Session(names[4], r, arrival=0.0, duration=1.0)
        return CMFeasiblePolicy(predictor, 60.0), pools, arrival

    def test_short_answer_batch_raises_keyerror(self, minilab):
        # A predictor answering one verdict too few breaks its contract:
        # the answered prefix is cached, the unanswered candidate raises
        # instead of leaving a None verdict behind.
        from repro.placement.signature import entry_of, signature_add

        class _OneShort:
            def colocations_feasible(self, specs, qos):
                return minilab.predictor.colocations_feasible(specs, qos)[:-1]

        policy, (pool, _), arrival = self._case(minilab, _OneShort())
        with pytest.raises(KeyError) as raised:
            policy.select(pool, arrival)  # two misses, one answer
        assert raised.value.args == (signature_add(pool[1], entry_of(arrival)),)
        assert len(policy.cache) == 1

    def test_one_error_draw_per_query(self, minilab):
        faults = _RecordingInjector(0.5, seed=3)
        policy, pools, arrival = self._case(
            minilab, faults.wrap_predictor(minilab.predictor)
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
        assert faults.fired == queries


class TestDegradedModes:
    def test_fallthrough_then_immediate_recovery(self):
        primary = _FailsFirstN(4)
        controller = DecisionEngine(primary, fallback=_OpensServer())
        decisions = [controller.decide([], object()) for _ in range(25)]
        assert all(d.server is None for d in decisions)  # both open a server
        # Each failing decision fell through to the fallback; the first
        # arrival after the primary healed is the primary's again.
        assert [d.policy for d in decisions[:5]] == ["opener"] * 4 + ["flaky"]
        assert [d.fallback for d in decisions] == [True] * 4 + [False] * 21
        assert all(d.policy == "flaky" for d in decisions[4:])
        assert primary.calls == 25  # asked on every arrival, never skipped
        counters = controller.telemetry.snapshot()["counters"]
        assert counters["policy_errors"] == counters["fallbacks"] == 4

    def test_conservative_when_both_policies_fail(self):
        controller = DecisionEngine(_AlwaysFails(), fallback=_AlwaysFails())
        for _ in range(30):
            decision = controller.decide([], object())
            assert decision.server is None
            assert decision.policy == "dedicated"
        counters = controller.telemetry.snapshot()["counters"]
        assert counters["policy_errors"] == counters["fallback_errors"] == 30
        labeled = controller.telemetry.snapshot()["labeled"]["counters"]
        assert labeled["decisions"] == [
            {"labels": {"policy": "dedicated"}, "value": 30}
        ]

    def test_resilience_section_is_crash_accounting(self):
        report = RequestBroker(DecisionEngine(_OpensServer())).run([])
        assert report.resilience == {
            "crash_rate": 0.0,
            "server_crashes": 0,
            "sessions_evicted": 0,
            "readmissions": 0,
        }


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
        injector = FaultInjector(0.35, seed=31)
        cache = PredictionCache(1024)
        policy, fallback = build_policy(
            "cm-feasible",
            predictor=minilab.predictor,
            qos=60.0,
            cache=cache,
            injector=injector,
        )
        controller = DecisionEngine(
            policy, fallback=fallback, telemetry=injector.telemetry
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
        # Every primary error fell through on its own decision.
        assert counters["fallbacks"] == counters["policy_errors"]
        # The whole report stays JSON-able.
        json.dumps(report.to_dict())

    def test_max_fps_chaos_run_completes(self, minilab):
        sessions = generate_sessions(
            minilab.names, 200, arrival_rate=4.0, seed=32
        )
        injector = FaultInjector(0.2, seed=32)
        cache = PredictionCache(512)
        primary, fallback = build_policy(
            "max-fps",
            predictor=minilab.predictor,
            qos=60.0,
            cache=cache,
            injector=injector,
        )
        controller = DecisionEngine(
            primary, fallback=fallback, telemetry=injector.telemetry
        )
        report = RequestBroker(controller, crash_rate=0.03, crash_seed=32).run(
            sessions
        )
        counters = report.telemetry["counters"]
        assert report.n_sessions == 200
        assert counters["admissions"] + counters["servers_opened"] == counters[
            "requests"
        ]
        # Every injected RM error was absorbed by the fallback chain.
        assert counters["faults_injected"] == counters["policy_errors"] > 0
        json.dumps(report.to_dict())

    def test_zero_fault_rate_is_byte_identical_to_offline(self, minilab):
        """Fault layer fully wired but all rates zero: exact parity."""
        sessions = generate_sessions(
            minilab.names, 200, arrival_rate=4.0, seed=33
        )
        injector = FaultInjector(0.0, seed=33)
        cache = PredictionCache(1024)
        policy, fallback = build_policy(
            "cm-feasible",
            predictor=minilab.predictor,
            qos=60.0,
            cache=cache,
            injector=injector,
        )
        controller = DecisionEngine(
            policy, fallback=fallback, telemetry=injector.telemetry
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
        assert counters.get("fallbacks", 0) == 0
        assert report.readmissions == []


class _OutageClassifier:
    """A classifier whose model calls raise while :attr:`arrival` is in
    ``outage``; logs the arrival of every call it answers or refuses."""

    def __init__(self, inner, outage: range):
        self.inner = inner
        self.outage = outage
        self.arrival = -1
        self.calls: list[int] = []

    def predict_from_features(self, X):
        self.calls.append(self.arrival)
        if self.arrival in self.outage:
            raise RuntimeError("model server down")
        return self.inner.predict_from_features(X)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestPredictorOutage:
    """A predictor outage costs only the decisions it covers."""

    WARM, OUTAGE = 60, 20

    def _serve(self, minilab, trace, config, classifier=None):
        predictor = minilab.predictor
        if classifier is not None:
            predictor = SimpleNamespace(
                db=predictor.db, classifier=classifier, regressor=predictor.regressor
            )
        (broker,) = build_shard_brokers(predictor, 1, config)
        broker.start()
        records = []
        for index, session in enumerate(trace):
            if classifier is not None:
                classifier.arrival = index
            records.append(broker.submit(session, index))
        return records, broker.finish()

    def test_recovery_starts_with_the_first_healthy_arrival(self, minilab):
        k = self.WARM
        trace = generate_sessions(minilab.names, 140, arrival_rate=6.0, seed=41)
        classifier = _OutageClassifier(
            minilab.predictor.classifier, range(k, k + self.OUTAGE)
        )
        # No cache: every candidate is a model call, so every arrival in
        # the window with a candidate server fails.
        config = ShardConfig(cache_size=0, seed=41)
        records, report = self._serve(minilab, trace, config, classifier)
        refused = sorted(set(classifier.calls) & set(range(k, k + self.OUTAGE)))
        assert len(refused) >= self.OUTAGE // 2
        for index in refused:
            assert (records[index].policy, records[index].fallback) == (
                "worst-fit",
                True,
            )
        after = records[k + self.OUTAGE]
        assert k + self.OUTAGE in classifier.calls  # the primary was asked
        assert (after.policy, after.fallback) == ("cm-feasible", False)
        assert all(not r.fallback for r in records[k + self.OUTAGE :])
        counters = report.telemetry["counters"]
        assert counters["fallbacks"] == counters["policy_errors"] == len(refused)

    def test_total_outage_places_like_worst_fit(self, minilab):
        trace = generate_sessions(minilab.names, 200, arrival_rate=6.0, seed=42)
        _, down = self._serve(minilab, trace, ShardConfig(fault_rate=1.0, seed=42))
        _, worst = self._serve(minilab, trace, ShardConfig(policy="worst-fit", seed=42))

        def placed(report):
            return [(p.choice, p.server_id) for p in report.placements]

        assert placed(down) == placed(worst)
        assert down.servers_opened == worst.servers_opened
        assert down.peak_servers == worst.peak_servers
        counters = down.telemetry["counters"]
        # Every arrival with a candidate server fell through to worst-fit;
        # the rest (an empty or full pool) never reached the predictor.
        assert counters["fallbacks"] == counters["policy_errors"]
        assert counters["fallbacks"] == sum(p.fallback for p in down.placements)
        assert counters["fallbacks"] >= len(trace) // 2


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
