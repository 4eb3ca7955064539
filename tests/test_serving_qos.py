"""Integration tests for the QoS ledger riding the serving stack.

The load-bearing properties:

* **Conservation** — every session the fleet opens is closed exactly
  once, through normal departures, crash evictions, migrations, and
  end-of-trace finalization alike.
* **Determinism** — the qos section is a pure function of the seed:
  byte-identical across same-seed runs, single-broker and sharded.
"""

import json

import pytest

from repro.games import DegradeLadder
from repro.games.resolution import Resolution
from repro.obs import (
    QoSLedger,
    Telemetry,
    Tracer,
    build_qos_section,
    snapshot_to_prometheus,
    validate_prometheus,
)
from repro.placement.fleet import Session, degraded_to, promoted_to
from repro.scheduling import generate_sessions
from repro.serving import (
    CMFeasiblePolicy,
    DecisionEngine,
    FaultInjector,
    PredictionCache,
    RequestBroker,
    TraceConfig,
    WorstFitPolicy,
    build_policy,
    generate_trace,
)
from repro.sharding import ShardConfig, ShardedBroker, build_shard_brokers
from tests._reference_simulator import ReferenceEngine

R1080 = Resolution(1920, 1080)
R720 = Resolution(1280, 720)
SLO_FPS = 30.0


@pytest.fixture(scope="module")
def trace(minilab):
    return generate_sessions(minilab.names, 120, arrival_rate=4.0, seed=11)


def make_ledger(minilab, **kwargs):
    kwargs.setdefault("slo_fps", SLO_FPS)
    return QoSLedger(minilab.catalog, minilab.predictor, **kwargs)


def run_broker(minilab, sessions, *, ledger, crash_rate=0.0):
    policy, fallback = build_policy("cm-feasible", predictor=minilab.predictor)
    controller = DecisionEngine(policy, fallback=fallback)
    broker = RequestBroker(
        controller, crash_rate=crash_rate, crash_seed=3, ledger=ledger
    )
    return broker.run(sessions)


class TestBrokerLedger:
    def test_conservation_over_full_trace(self, minilab, trace):
        ledger = make_ledger(minilab)
        report = run_broker(minilab, trace, ledger=ledger)
        qos = report.qos
        assert qos, "qos section missing from report"
        sessions = qos["sessions"]
        assert sessions["opened"] == len(trace)
        assert sessions["closed"] == len(trace)
        assert sessions["conservation_errors"] == 0
        assert sessions["close_reasons"] == {"departed": len(trace)}
        assert qos["calibration"]["samples"] == len(trace)
        assert qos["slo"]["target_fps"] == SLO_FPS
        assert qos["per_game"] and qos["per_genre"]

    def test_report_payload_carries_qos_only_when_enabled(self, minilab, trace):
        ledger = make_ledger(minilab)
        with_ledger = run_broker(minilab, trace[:30], ledger=ledger)
        without = run_broker(minilab, trace[:30], ledger=None)
        assert "qos" in with_ledger.to_dict()
        assert "qos" not in without.to_dict()

    def test_same_seed_runs_are_byte_identical(self, minilab, trace):
        first = run_broker(minilab, trace, ledger=make_ledger(minilab))
        second = run_broker(minilab, trace, ledger=make_ledger(minilab))
        assert json.dumps(first.qos, sort_keys=True) == json.dumps(
            second.qos, sort_keys=True
        )

    def test_crash_chaos_conserves_sessions(self, minilab, trace):
        ledger = make_ledger(minilab)
        report = run_broker(minilab, trace, ledger=ledger, crash_rate=0.2)
        sessions = report.qos["sessions"]
        assert sessions["conservation_errors"] == 0
        reasons = sessions["close_reasons"]
        assert reasons.get("evicted", 0) > 0, "chaos run produced no evictions"
        # Evicted sessions are re-admitted and closed again later, so
        # opened (and closed) exceed the trace length — by the same amount.
        assert sessions["opened"] == sessions["closed"] > len(trace)

    def test_ledger_reuse_resets_between_runs(self, minilab, trace):
        ledger = make_ledger(minilab)
        run_broker(minilab, trace[:20], ledger=ledger)
        report = run_broker(minilab, trace[:20], ledger=ledger)
        assert report.qos["sessions"]["opened"] == 20

    def test_qos_spans_emitted_when_tracing(self, minilab, trace):
        policy, fallback = build_policy("cm-feasible", predictor=minilab.predictor)
        controller = DecisionEngine(policy, fallback=fallback)
        tracer = Tracer(enabled=True)
        broker = RequestBroker(
            controller, tracer=tracer, ledger=make_ledger(minilab)
        )
        broker.run(trace[:20])
        spans = [s for s in tracer.spans if s.name == "qos"]
        assert spans, "no qos spans recorded"
        ops = {s.attributes["op"] for s in spans}
        assert "place" in ops
        assert all("server_id" in s.attributes for s in spans)


class TestShardedLedger:
    def test_requires_catalog(self, minilab):
        with pytest.raises(ValueError, match="catalog"):
            build_shard_brokers(
                minilab.predictor, 2, ShardConfig(slo_fps=SLO_FPS)
            )

    def test_merged_qos_with_per_shard_breakdown(self, minilab, trace):
        config = ShardConfig(slo_fps=SLO_FPS, seed=7)
        brokers = build_shard_brokers(
            minilab.predictor, 3, config, catalog=minilab.catalog
        )
        report = ShardedBroker(brokers).run(trace)
        qos = report.qos
        assert qos["sessions"]["opened"] == len(trace)
        assert qos["sessions"]["conservation_errors"] == 0
        per_shard = qos["per_shard"]
        assert per_shard, "per-shard breakdown missing"
        assert sum(g["opened"] for g in per_shard.values()) == len(trace)
        assert all(
            g["opened"] == g["closed"] for g in per_shard.values()
        ), "per-shard conservation broken"
        assert "qos" in report.to_dict()

    def test_sharded_run_is_deterministic(self, minilab, trace):
        def run():
            config = ShardConfig(slo_fps=SLO_FPS, seed=7)
            brokers = build_shard_brokers(
                minilab.predictor, 2, config, catalog=minilab.catalog
            )
            return ShardedBroker(brokers).run(trace).qos

        assert json.dumps(run(), sort_keys=True) == json.dumps(
            run(), sort_keys=True
        )

    def test_migrations_conserve_sessions(self, minilab):
        from repro.sharding import RebalanceConfig, Rebalancer

        sessions = generate_sessions(
            minilab.names, 200, arrival_rate=8.0, seed=13
        )
        config = ShardConfig(slo_fps=SLO_FPS, seed=7)
        brokers = build_shard_brokers(
            minilab.predictor, 3, config, catalog=minilab.catalog
        )
        rebalancer = Rebalancer(RebalanceConfig(interval=32, hot_factor=1.1))
        report = ShardedBroker(brokers, rebalancer=rebalancer).run(sessions)
        qos = report.qos
        assert qos["sessions"]["conservation_errors"] == 0
        moved = report.telemetry["counters"].get("rebalance_sessions_moved", 0)
        if moved:
            assert qos["sessions"]["close_reasons"].get("migrated", 0) == moved

    def test_shard_chaos_conserves_sessions(self, minilab):
        from repro.sharding import ShardChaos, ShardSupervisor

        sessions = generate_sessions(
            minilab.names, 200, arrival_rate=8.0, seed=17
        )
        config = ShardConfig(slo_fps=SLO_FPS, seed=7)
        brokers = build_shard_brokers(
            minilab.predictor, 3, config, catalog=minilab.catalog
        )
        chaos = ShardChaos(3, 0.05, seed=17)
        supervisor = ShardSupervisor(chaos, min_healthy=1)
        report = ShardedBroker(
            brokers, supervisor=supervisor, chunk_size=32
        ).run(sessions)
        qos = report.qos
        assert qos["sessions"]["conservation_errors"] == 0
        assert qos["sessions"]["opened"] == qos["sessions"]["closed"]

    def test_merged_section_equals_rebuild_from_snapshot(self, minilab):
        # Two shards under degrade, crash and fault chaos: the fleet section
        # (from the merged snapshot) and each shard's (from its live
        # registry) equal a rebuild from the snapshot they report, key
        # order included.
        config = ShardConfig(
            slo_fps=45.0, qos_budget=0.1, seed=7, fault_rate=0.05,
            crash_rate=0.03, degrade_ladder=DegradeLadder.from_str("1080p,720p"),
            restore_interval=16,
        )
        brokers = build_shard_brokers(
            minilab.predictor, 2, config, catalog=minilab.catalog
        )
        sessions = generate_sessions(minilab.names, 200, arrival_rate=9.0, seed=5)
        report = ShardedBroker(brokers).run(sessions)
        assert report.qos["sessions"]["close_reasons"].get("evicted", 0) > 0
        assert set(report.qos["per_shard"]) == {"0", "1"}
        for qos, snapshot in [(report.qos, report.telemetry)] + [
            (shard.qos, shard.telemetry) for shard in report.shard_reports
        ]:
            rebuilt = build_qos_section(snapshot, slo_fps=45.0, budget_fraction=0.1)
            assert json.dumps(rebuilt) == json.dumps(qos)


class TestSectionFromRegistry:
    """``QoSLedger.section()`` reads the live registry, and only reads it."""

    def serve(self, minilab):
        ledger = QoSLedger(
            minilab.catalog, minilab.predictor, slo_fps=45.0, server=minilab.server
        )
        return ledger, serve_chaos(minilab, ledger)

    def test_live_section_equals_snapshot_rebuild(self, minilab):
        ledger, report = self.serve(minilab)
        qos = ledger.section()
        counters = report.telemetry["counters"]
        for exercised in ("server_crashes", "faults_error", "slo_burn_events"):
            assert counters.get(exercised, 0) > 0, exercised
        assert qos["degraded"]["sessions"] > 0
        assert qos["sessions"]["close_reasons"].get("evicted", 0) > 0
        rebuilt = build_qos_section(
            ledger.telemetry.snapshot(), slo_fps=45.0, budget_fraction=0.05
        )
        assert json.dumps(qos) == json.dumps(rebuilt)
        assert json.dumps(report.qos) == json.dumps(qos)

    def test_building_the_section_leaves_the_registry_unchanged(self, minilab):
        ledger, _ = self.serve(minilab)
        before = ledger.telemetry.snapshot()
        ledger.section()
        assert ledger.telemetry.snapshot() == before
        # A registry missing most qos instruments gains none of them, and
        # a group merging two children leaves both children as they were.
        sparse = make_ledger(minilab)
        t = sparse.telemetry
        t.counter("qos_sessions_opened").inc()
        for shard, minutes in (("0", 1.0), ("1", 2.0)):
            t.histogram("qos_session_minutes", game="Dota2", shard=shard).observe(
                minutes
            )
        before = t.snapshot()
        for _ in range(2):
            section = sparse.section()
            assert section["sessions"]["opened"] == 1
            assert section["per_game"]["Dota2"]["session_minutes"] == 3.0
        assert t.snapshot() == before


class TestLedgerPrometheusExport:
    """The ledger's per-game/genre/shard breakdowns are labeled children
    of families that also have an unlabeled series; the exposition must
    still declare each family once and keep its samples together."""

    @pytest.mark.parametrize("shards", [None, 2])
    def test_export_declares_each_family_once(self, minilab, trace, shards):
        if shards is None:
            report = run_broker(minilab, trace, ledger=make_ledger(minilab))
        else:
            brokers = build_shard_brokers(
                minilab.predictor,
                shards,
                ShardConfig(slo_fps=SLO_FPS, seed=7),
                catalog=minilab.catalog,
            )
            report = ShardedBroker(brokers).run(trace)
        text = snapshot_to_prometheus(report.telemetry)
        assert validate_prometheus(text) == []
        types = [line for line in text.splitlines() if line.startswith("# TYPE")]
        assert len(types) == len(set(types))
        assert any("slo_breaches_total{" in line for line in text.splitlines())


class TestGroundTruthDidNotMove:
    """The oracle got cheaper, not different.

    The ledger re-measures every fleet mutation through
    ``ColocationEngine.steady_state``.  Swapping that solver for the
    straight-line loops in :mod:`tests._reference_simulator` must leave
    the whole ``qos`` section — counts, minutes, residuals, per-game and
    per-genre groups — equal to the digit.
    """

    def serve(self, minilab, *, reference_solver):
        controller = DecisionEngine(
            CMFeasiblePolicy(minilab.predictor, 45.0),
            downscale_ladder=DegradeLadder.from_str("1080p,900p,720p"),
        )
        ledger = QoSLedger(
            minilab.catalog, minilab.predictor, slo_fps=45.0, server=minilab.server
        )
        if reference_solver:
            ledger._engine = ReferenceEngine(minilab.server)
        broker = RequestBroker(
            controller, crash_rate=0.03, crash_seed=5, ledger=ledger,
            restore_interval=25,
        )
        config = TraceConfig(
            n_requests=220, arrival_rate=9.0, mean_duration=25.0, seed=3
        )
        return broker.run(generate_trace(minilab.predictor.db.names(), config))

    def test_qos_section_equal_under_reference_solver(self, minilab):
        report = self.serve(minilab, reference_solver=False)
        oracle = self.serve(minilab, reference_solver=True)
        qos = report.qos
        # The run exercises what it claims to: crashes, downscales, and
        # a few hundred distinct ground-truth measurements.
        assert qos["sessions"]["close_reasons"].get("evicted", 0) > 0
        assert qos["degraded"]["sessions"] > 0
        counters = report.telemetry["counters"]
        assert counters["qos_measurements"] > 50
        assert counters == oracle.telemetry["counters"]
        assert json.dumps(qos, sort_keys=True) == json.dumps(
            oracle.qos, sort_keys=True
        )


class EagerLedger(QoSLedger):
    """Measures a new composition the moment it forms.

    What the ledger did before it deferred ground truth to the first read:
    every recompute that misses the memo is flushed on the spot, a batch
    of one.  The deferred ledger must book the same report.
    """

    def _recompute(self, server_id, members, *, op):
        sig = super()._recompute(server_id, members, op=op)
        if self._pending:
            self._flush(server_id)
        return sig


def without_measurement_count(payload):
    """A normalized report minus the numbers deferral may change.

    The count of measurements, and how often the predictor ran: promises
    are priced in batches, so the ledger's RM stage calls (and the
    predictor's per-stage histogram counts, shared with the CM) fall.
    """
    telemetry = payload["telemetry"]
    telemetry["counters"].pop("qos_measurements")
    payload["qos"]["sessions"].pop("measurements")
    for name in ("predict_featurize_s", "predict_model_eval_s"):
        telemetry["histograms"].pop(name)
    stage_calls = telemetry["labeled"]["counters"]["predict_stage_calls"]
    stage_calls[:] = [c for c in stage_calls if c["labels"]["model"] != "rm"]
    return payload


def flush_spans(tracer):
    """Attributes of every ground-truth flush the tracer recorded."""
    return [
        s.attributes for s in tracer.spans
        if s.name == "qos" and s.attributes["op"] == "flush"
    ]


def serve_chaos(minilab, ledger, tracer=None):
    """Serve 320 sessions through ``ledger`` under faults, crashes,
    downscales and restores, with one planned migration."""
    from tests.test_serving_degrade import LADDER

    telemetry = Telemetry()
    injector = FaultInjector(0.03, seed=13, telemetry=telemetry)
    controller = DecisionEngine(
        CMFeasiblePolicy(
            injector.wrap_predictor(minilab.predictor),
            45.0,
            cache=PredictionCache(96),
            margin=1.05,
        ),
        fallback=WorstFitPolicy(minilab.vbp),
        telemetry=telemetry,
        downscale_ladder=LADDER,
    )
    broker = RequestBroker(
        controller, crash_rate=0.03, crash_seed=13, ledger=ledger,
        restore_interval=16, tracer=tracer,
    )
    config = TraceConfig(
        n_requests=320, arrival_rate=9.0, mean_duration=25.0, seed=13
    )
    sessions = sorted(
        generate_trace(minilab.predictor.db.names(), config),
        key=lambda s: s.arrival,
    )
    broker.start()
    for index, session in enumerate(sessions):
        broker.submit(session, index)
        if index == 150:
            # A planned migration of the fullest server, back into the
            # same fleet: closed "migrated" and re-placed at one instant.
            now = session.arrival
            signatures = broker.fleet.signatures()
            fullest = max(range(len(signatures)), key=lambda i: len(signatures[i]))
            moved = broker.evict_for_migration(
                broker.fleet.server_ids()[fullest], now=now, index=index
            )
            assert len(moved) >= 2
            broker.admit_migrations(moved, index, now=now)
    return broker.finish()


class TestDeferredGroundTruth:
    """When a composition is measured cannot change what is booked.

    The deferred ledger measures on first read, in batches of whatever is
    pending; :class:`EagerLedger` measures inside every hook, one at a
    time.  A measurement is a pure function of the signature, and accrual,
    burn events and closes run at the same points in both, so everything
    but the count of measurements, the predictor's call counts (promises
    are priced in batches) and wall-clock histograms is equal.
    """

    def serve(self, minilab, ledger_cls, tracer=None):
        from tests.test_serving_degrade import normalized

        ledger = ledger_cls(
            minilab.catalog, minilab.predictor, slo_fps=45.0, server=minilab.server
        )
        return normalized(serve_chaos(minilab, ledger, tracer).to_dict())

    def test_chaos_run_books_the_same_report(self, minilab):
        tracer = Tracer(enabled=True)
        deferred = self.serve(minilab, QoSLedger, tracer=tracer)
        eager = self.serve(minilab, EagerLedger)
        counters = deferred["telemetry"]["counters"]
        for exercised in (
            "server_crashes", "readmissions", "faults_error",
            "fallbacks", "restore_queries", "migrations", "slo_burn_events",
        ):
            assert counters.get(exercised, 0) > 0, exercised
        assert deferred["qos"]["degraded"]["sessions"] > 0
        sessions = deferred["qos"]["sessions"]
        assert sessions["opened"] == sessions["closed"] > 320
        assert sessions["close_reasons"]["migrated"] >= 2
        # Deferral only skips compositions replaced before any time passed;
        # what it adds is the look-ahead, which the flush spans count.
        ahead = sum(flush["ahead"] for flush in flush_spans(tracer))
        assert ahead > 0
        assert 50 < counters["qos_measurements"] <= (
            eager["telemetry"]["counters"]["qos_measurements"] + ahead
        )
        deferred, eager = map(without_measurement_count, (deferred, eager))
        assert deferred["telemetry"]["events"] == eager["telemetry"]["events"]
        assert deferred["qos"] == eager["qos"]
        assert deferred == eager

    def test_flush_spans_name_the_trigger_and_the_batch(self, minilab):
        tracer = Tracer(enabled=True)
        report = self.serve(minilab, QoSLedger, tracer=tracer)
        flushes = flush_spans(tracer)
        assert flushes
        assert all("server_id" in flush for flush in flushes)
        measured = sum(flush["compositions"] for flush in flushes)
        assert measured == report["telemetry"]["counters"]["qos_measurements"]
        # Need is the only trigger, yet most flushes find company.
        assert measured > len(flushes)

    # -- the reads that force a flush, one at a time ---------------------

    def pair(self, minilab):
        a, b = minilab.names[:2]
        return (
            generate_sessions([a], 1, seed=1)[0],
            generate_sessions([b], 1, seed=2)[0],
        )

    def both(self, minilab, run):
        """``run`` under a deferred and an eager ledger; books must agree."""
        deferred = run(make_ledger(minilab))
        eager = run(EagerLedger(minilab.catalog, minilab.predictor, slo_fps=SLO_FPS))
        booked = []
        for ledger in (deferred, eager):
            snapshot = ledger.telemetry.snapshot()
            snapshot["counters"].pop("qos_measurements", None)
            booked.append(json.dumps(snapshot, sort_keys=True))
        assert booked[0] == booked[1]
        return deferred, eager

    def test_zero_lifetime_close_reads_ground_truth(self, minilab):
        def run(ledger):
            s1, s2 = self.pair(minilab)
            ledger.advance(3.0)
            ledger.fleet_placed(0, 0, s1)
            ledger.fleet_placed(0, 1, s2)
            # No time has passed: the close itself is the first read.
            ledger.fleet_departed(0, 1, s2, 3.0)
            ledger.finalize()
            return ledger

        deferred, _ = self.both(minilab, run)
        counters = deferred.telemetry.snapshot()["counters"]
        assert counters["qos_sessions_closed"] == 2
        # The pair (read by the close) and s1 alone (read at finalize).
        assert counters["qos_measurements"] == 2

    def test_server_evicted_while_pending(self, minilab):
        def run(ledger):
            s1, s2 = self.pair(minilab)
            ledger.advance(1.0)
            ledger.fleet_placed(4, 0, s1)
            ledger.fleet_placed(4, 1, s2)
            ledger.advance(6.0)
            # The server is popped before it is accrued: the flush has to
            # fill the records it was handed, not the ones it can look up.
            ledger.fleet_evicted(4, [(0, s1), (1, s2)])
            assert not ledger._pending and not ledger._servers
            return ledger

        deferred, eager = self.both(minilab, run)
        section = deferred.section()
        assert section["sessions"]["close_reasons"] == {"evicted": 2}
        assert section["slo"]["session_minutes"] == 10.0
        # s1 was alone for an instant only: that composition was replaced
        # unread, so only the pair was ever measured.
        assert section["sessions"]["measurements"] == 1
        assert eager.section()["sessions"]["measurements"] == 2

    def test_reset_drops_pending_marks(self, minilab):
        s1, s2 = self.pair(minilab)
        ledger = make_ledger(minilab)
        ledger.advance(1.0)
        ledger.fleet_placed(0, 0, s1)
        assert list(ledger._pending) == [0]
        ledger.reset()
        assert not ledger._pending
        # The next run reuses server id 0; nothing of the abandoned run's
        # composition is measured or written to.
        ledger.advance(2.0)
        ledger.fleet_placed(0, 0, s2)
        ledger.finalize()
        counters = ledger.telemetry.snapshot()["counters"]
        assert counters["qos_measurements"] == 1
        assert list(ledger._measured) == [((s2.game, s2.resolution),)]

    # -- look-ahead and batched promises ---------------------------------

    def test_next_departure_rides_the_first_flush(self, minilab):
        a, b = minilab.names[:2]
        first = Session(a, R1080, arrival=0.0, duration=10.0)
        second = Session(b, R1080, arrival=0.0, duration=20.0)

        def run(ledger):
            ledger.instrument(tracer=Tracer(enabled=True))
            ledger.advance(0.0)
            ledger.fleet_placed(0, 0, first)
            ledger.fleet_placed(0, 1, second)
            # The departure's accrual reads the pair; `second` alone rides
            # along, so the group the departure leaves is known already.
            ledger.fleet_departed(0, 0, first, 10.0)
            assert not ledger._pending
            ledger.finalize()
            return ledger

        deferred, _ = self.both(minilab, run)
        (flush,) = flush_spans(deferred.tracer)
        assert (flush["compositions"], flush["ahead"]) == (2, 1)
        assert list(deferred._measured)[1] == ((b, R1080),)

    def test_reset_drops_unpriced_claims(self, minilab):
        s1, s2 = self.pair(minilab)
        ledger = make_ledger(minilab)
        ledger.advance(1.0)
        ledger.fleet_placed(0, 0, s1)
        assert list(ledger._claims) == [((s1.game, s1.resolution),)]
        ledger.reset()
        assert not ledger._claims
        ledger.advance(2.0)
        ledger.fleet_placed(0, 0, s2)
        ledger.finalize()
        counters = ledger.telemetry.snapshot()["counters"]
        assert counters["qos_predictions"] == 1
        assert list(ledger._promised) == [((s2.game, s2.resolution),)]

    def test_restore_keeps_its_own_price(self, minilab):
        game = minilab.names[0]
        full, low = ((game, R1080),), ((game, R720),)

        def run(ledger):
            # A first session prices the full-resolution group.
            ledger.advance(0.0)
            ledger.fleet_placed(1, 0, Session(game, R1080, 0.0, 1.0))
            ledger.fleet_departed(1, 0, None, 1.0)
            assert full in ledger._promised
            # A degraded placement queues its claim; the restore, before
            # any read, is priced at once.  The older claim must not
            # overwrite it when the queue is priced.
            ledger.advance(1.0)
            degraded = degraded_to(Session(game, R1080, 1.0, 5.0), R720)
            ledger.fleet_placed(0, 1, degraded)
            record = ledger._servers[0][1]
            assert record.claim == (low, 0)
            ledger.fleet_resolution_changed(
                0, 1, degraded, promoted_to(degraded, R1080)
            )
            assert record.claim is None and list(ledger._claims) == [low]
            ledger.finalize()
            assert record.promised_fps == ledger._promised[full][0]
            assert ledger._promised[low][0] != ledger._promised[full][0]
            return ledger

        deferred, _ = self.both(minilab, run)
        counters = deferred.telemetry.snapshot()["counters"]
        # The superseded group is still priced, as it was when claimed.
        assert counters["qos_predictions"] == 2

    def test_zero_lifetime_close_prices_its_claim(self, minilab):
        a, b = minilab.names[:2]

        def run(ledger):
            ledger.instrument(tracer=Tracer(enabled=True))
            ledger.advance(0.0)
            ledger.fleet_placed(0, 0, Session(a, R1080, 0.0, 10.0))
            ledger.fleet_placed(0, 1, Session(b, R1080, 0.0, 20.0))
            ledger.fleet_departed(0, 0, None, 10.0)
            # `b` alone was measured ahead, never priced: the new server is
            # not pending, but its one record's promise is.
            ledger.advance(10.0)
            ledger.fleet_placed(1, 2, Session(b, R1080, 10.0, 5.0))
            record = ledger._servers[1][2]
            assert 1 not in ledger._pending and record.claim is not None
            ledger.fleet_evicted(1, [(2, None)])
            assert record.claim is None
            assert record.promised_fps == ledger._promised[((b, R1080),)][0]
            ledger.finalize()
            return ledger

        deferred, _ = self.both(minilab, run)
        assert len(flush_spans(deferred.tracer)) == 1
        counters = deferred.telemetry.snapshot()["counters"]
        assert counters["qos_sessions_closed"] == 3
        # `a` alone, the pair, `b` alone.
        assert counters["qos_predictions"] == 3
