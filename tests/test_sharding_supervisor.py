"""Chaos suite for shard supervision: ejection, failover, readmission.

The load-bearing claims, pinned as tests:

* **Conservation** — under any outage schedule (each shard killed in
  turn, random seeded schedules), every routed arrival is submitted to
  exactly one shard: ``sum(shard n_arrivals) == len(trace)`` and the
  coordinator's ``sessions_lost`` counter stays 0.
* **Determinism** — same seed, same outages, byte-identical telemetry
  and supervision report (modulo wall-clock histograms).
* **Pass-through** — a supervisor whose chaos schedule is inactive
  changes nothing: output is byte-identical to an unsupervised run.
* **Liveness** — the last healthy shard is never ejected, and degraded
  mode routes around the ring when the healthy floor is breached.

Targeted outages ("kill shard 2 for three barriers") are scripted with
:class:`_ScriptedChaos`: the supervisor sees chaos only through
``begin_barrier`` / ``probe``, so a fake schedule is the right seam.
"""

import json
import math

import pytest

from repro.games.resolution import Resolution
from repro.obs import Telemetry, Tracer
from repro.scheduling import generate_sessions
from repro.sharding import (
    RebalanceConfig,
    Rebalancer,
    ShardChaos,
    ShardConfig,
    ShardedBroker,
    ShardSupervisor,
    build_shard_brokers,
)
from repro.sharding.router import ShardRouter
from repro.sharding.supervisor import COOLDOWN_CHUNKS, RECOVERY_BUCKETS


def _strip_wall_clock(snapshot: dict) -> dict:
    """Everything except latency histograms must be run-to-run identical."""
    snapshot = json.loads(json.dumps(snapshot))
    snapshot.pop("histograms", None)
    if "labeled" in snapshot:
        snapshot["labeled"].pop("histograms", None)
    return snapshot


class _ScriptedChaos:
    """Probe answers scripted per shard by barrier; logs every probe.

    ``down`` maps a shard id to the barriers (1-based) at which its
    probes fail.  Always :attr:`active`, even with an empty schedule.
    """

    active = True

    def __init__(self, n_shards: int, down: dict[int, set[int]]):
        self.n_shards = n_shards
        self.down = down
        self.barrier = 0
        self.probes: list[tuple[int, int]] = []  # (barrier, shard)

    def to_dict(self) -> dict:
        return {str(shard): sorted(b) for shard, b in sorted(self.down.items())}

    def begin_barrier(self) -> None:
        self.barrier += 1

    def probe(self, shard_id: int) -> bool:
        self.probes.append((self.barrier, shard_id))
        return self.barrier not in self.down.get(shard_id, set())


def _kill(shard_id: int, n_shards: int = 4) -> _ScriptedChaos:
    """``shard_id`` fails every probe of barriers 1-3, then recovers."""
    return _ScriptedChaos(n_shards, {shard_id: {1, 2, 3}})


@pytest.fixture(scope="module")
def predictor(minilab):
    return minilab.predictor


@pytest.fixture(scope="module")
def trace(predictor):
    return generate_sessions(
        predictor.db.names(),
        240,
        resolutions=[Resolution(1920, 1080), Resolution(1280, 720)],
        seed=5,
    )


def _run(
    predictor,
    trace,
    *,
    chaos=None,
    min_healthy: int = 1,
    n_shards: int = 4,
    chunk_size: int = 32,
    rebalancer: Rebalancer | None = None,
):
    brokers = build_shard_brokers(predictor, n_shards, ShardConfig(seed=3))
    supervisor = (
        ShardSupervisor(chaos, min_healthy=min_healthy)
        if chaos is not None
        else None
    )
    broker = ShardedBroker(
        brokers,
        supervisor=supervisor,
        rebalancer=rebalancer,
        parallel=False,
        chunk_size=chunk_size,
    )
    return broker.run(trace)


class TestShardChaosConfig:
    """The chaos knobs are validated by the :class:`ShardChaos` constructor."""

    @pytest.mark.parametrize("field", ["outage_rate"])
    def test_rates_validated(self, field):
        for rate in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match=field):
                ShardChaos(2, **{field: rate})

    def test_outage_chunks_validated(self):
        with pytest.raises(ValueError, match="outage_chunks"):
            ShardChaos(2, 0.5, outage_chunks=0)


class TestShardChaos:
    def test_shard_count_validated(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardChaos(0, 0.0)

    def test_active_property(self):
        assert not ShardChaos(2, 0.0).active
        assert ShardChaos(2, 0.1).active
        assert ShardChaos(2, 0.1, outage_chunks=3, seed=5).to_dict() == {
            "outage_rate": 0.1,
            "outage_chunks": 3,
            "seed": 5,
        }

    def test_same_seed_same_schedule(self):
        a, b = ShardChaos(3, 0.4, seed=11), ShardChaos(3, 0.4, seed=11)
        seen = []
        for _ in range(20):
            a.begin_barrier()
            b.begin_barrier()
            for shard in range(3):
                pa = [a.probe(shard) for _ in range(2)]
                pb = [b.probe(shard) for _ in range(2)]
                assert pa == pb
                assert pa[0] == pa[1]  # one draw per shard per barrier
                seen.extend(pa)
        assert False in seen  # the schedule actually fired something

    def test_inactive_config_never_fails_a_probe(self):
        chaos = ShardChaos(2, 0.0)
        for _ in range(10):
            chaos.begin_barrier()
            assert chaos.probe(0) and chaos.probe(1)

    def test_zero_rate_never_touches_an_rng(self):
        chaos = ShardChaos(3, 0.0, seed=4)
        before = [rng.bit_generator.state for rng in chaos._rngs]
        for _ in range(5):
            chaos.begin_barrier()
            for shard in range(3):
                chaos.probe(shard)
        assert [rng.bit_generator.state for rng in chaos._rngs] == before

    def test_outage_lasts_outage_chunks_barriers(self):
        chaos = ShardChaos(1, 1.0, outage_chunks=3)
        chaos.begin_barrier()
        assert not chaos.probe(0)  # outage fires on the first draw
        down = [chaos.is_down(0)]
        for _ in range(5):
            chaos.begin_barrier()  # is_down alone never draws
            down.append(chaos.is_down(0))
        assert down == [True, True, True, False, False, False]


class TestSupervisorConfig:
    @pytest.mark.parametrize("kwargs,match", [({"min_healthy": 0}, "min_healthy")])
    def test_validation(self, kwargs, match):
        chaos = ShardChaos(4, 0.5)
        with pytest.raises(ValueError, match=match):
            ShardSupervisor(chaos, **kwargs)


class TestPassThrough:
    def test_inactive_supervisor_is_byte_identical(self, predictor, trace):
        plain = _run(predictor, trace)
        supervised = _run(predictor, trace, chaos=ShardChaos(4, 0.0))
        assert _strip_wall_clock(plain.telemetry) == _strip_wall_clock(
            supervised.telemetry
        )
        assert _strip_wall_clock(plain.coordinator) == _strip_wall_clock(
            supervised.coordinator
        )
        assert supervised.supervision == {}
        assert "supervision" not in supervised.to_dict()
        assert "sessions_lost" not in supervised.coordinator["counters"]

    def test_shard_count_mismatch_rejected(self, predictor):
        brokers = build_shard_brokers(predictor, 2, ShardConfig(seed=3))
        supervisor = ShardSupervisor(ShardChaos(3, 0.5))
        with pytest.raises(ValueError, match="covers 3 shards"):
            ShardedBroker(brokers, supervisor=supervisor, parallel=False)


class TestKillEachShardInTurn:
    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_conservation_and_full_cycle(self, predictor, trace, victim):
        report = _run(predictor, trace, chaos=_kill(victim))
        counters = report.coordinator["counters"]
        assert counters["sessions_lost"] == 0
        assert sum(r.n_arrivals for r in report.shard_reports) == len(trace)
        assert counters["ring_ejections"] >= 1
        assert counters["ring_readmissions"] >= 1
        assert counters["shard_outages"] >= 1
        assert report.supervision["health"][str(victim)] == "healthy"
        # No shard ever saw a policy error: failover re-enters admission.
        assert report.telemetry["counters"].get("policy_errors", 0) == 0

    def test_failed_over_sessions_counted_once_each(self, predictor, trace):
        report = _run(predictor, trace, chaos=_kill(0))
        counters = report.coordinator["counters"]
        migrated_in = report.telemetry["counters"].get("sessions_migrated_in", 0)
        assert counters["sessions_failed_over"] <= migrated_in


class TestRandomOutageSchedules:
    def test_conservation_under_random_outages(self, predictor, trace):
        report = _run(
            predictor,
            trace,
            chaos=ShardChaos(4, 0.3, outage_chunks=2, seed=7),
            min_healthy=2,
        )
        counters = report.coordinator["counters"]
        assert counters["sessions_lost"] == 0
        assert sum(r.n_arrivals for r in report.shard_reports) == len(trace)
        assert counters["ring_ejections"] >= 1

    def test_same_seed_byte_identical(self, predictor, trace):
        a, b = (
            _run(predictor, trace, chaos=ShardChaos(4, 0.3, outage_chunks=2, seed=7))
            for _ in range(2)
        )
        assert _strip_wall_clock(a.coordinator) == _strip_wall_clock(b.coordinator)
        assert _strip_wall_clock(a.telemetry) == _strip_wall_clock(b.telemetry)
        assert a.supervision == b.supervision

    def test_different_seed_different_schedule(self, predictor, trace):
        outages = set()
        for seed in (7, 8, 9):
            chaos = ShardChaos(4, 0.3, outage_chunks=2, seed=seed)
            report = _run(predictor, trace, chaos=chaos)
            outages.add(report.coordinator["counters"].get("shard_outages", 0))
        assert len(outages) > 1


class TestDegradedMode:
    def test_floor_breach_routes_to_least_loaded(self, predictor, trace):
        report = _run(predictor, trace, chaos=_kill(0), min_healthy=4)
        assert report.supervision["config"] == {"min_healthy": 4}
        counters = report.coordinator["counters"]
        assert counters["degraded_transitions"] >= 2  # entered and left
        assert counters["shard_fallbacks"] >= 1
        assert counters["sessions_lost"] == 0
        events = [
            e for e in report.coordinator["events"] if e["event"] == "degraded_mode"
        ]
        assert events[0]["active"] is True

    def test_healthy_fleet_never_degrades(self, predictor, trace):
        chaos = _ScriptedChaos(4, {})  # supervising, but nothing ever fails
        report = _run(predictor, trace, chaos=chaos, min_healthy=4)
        counters = report.coordinator["counters"]
        assert counters["supervise_cycles"] >= 1
        assert counters.get("degraded_transitions", 0) == 0
        assert counters.get("shard_fallbacks", 0) == 0

    def test_forced_routes_traced_with_their_shard(self, predictor, trace):
        tracer = Tracer(enabled=True)
        brokers = build_shard_brokers(predictor, 4, ShardConfig(seed=3))
        sharded = ShardedBroker(
            brokers,
            supervisor=ShardSupervisor(_kill(0), min_healthy=4),
            tracer=tracer,
            parallel=False,
            chunk_size=32,
        )
        router, picks = sharded.router, []
        route_forced = router.route_forced

        def recording(session, index, shard):
            loads = {i: brokers[i].fleet.n_live for i in router.shard_ids}
            picks.append((shard, loads))
            return route_forced(session, index, shard)

        router.route_forced = recording
        report = sharded.run(trace)
        # Degraded mode picks the least-loaded healthy shard, lowest id first.
        assert picks
        for shard, loads in picks:
            assert shard == min(loads, key=lambda i: (loads[i], i))
        routes = [span for span in tracer.spans if span.name == "route"]
        assert len(routes) == len(trace)
        forced = [span for span in routes if span.attributes.get("fallback")]
        assert [span.attributes["shard"] for span in forced] == [s for s, _ in picks]
        counters = report.coordinator["counters"]
        # Every ejection breaches a floor of 4, so each failed-over
        # session took one fallback too; the rest were forced routes.
        assert len(forced) == (
            counters["shard_fallbacks"] - counters["sessions_failed_over"]
        )
        arrivals = {
            record.index: shard_id
            for shard_id, shard in enumerate(report.shard_reports)
            for record in shard.placements
        }
        for span in forced:
            assert span.attributes["fallback"] is True
            assert span.attributes["shard"] != 0  # never the ejected shard
            assert arrivals[span.attributes["request"]] == span.attributes["shard"]


class TestLastShardSuppression:
    def test_sole_shard_survives_total_outage(self, predictor, trace):
        chaos = ShardChaos(1, 1.0, outage_chunks=2)
        report = _run(predictor, trace, chaos=chaos, n_shards=1)
        counters = report.coordinator["counters"]
        assert counters["ejections_suppressed"] >= 1
        assert counters.get("ring_ejections", 0) == 0
        assert counters["sessions_lost"] == 0
        assert report.shard_reports[0].n_arrivals == len(trace)

    def test_all_shards_down_keeps_one_serving(self, predictor, trace):
        chaos = ShardChaos(3, 1.0, outage_chunks=2)
        report = _run(predictor, trace, chaos=chaos, n_shards=3)
        counters = report.coordinator["counters"]
        assert counters["ejections_suppressed"] >= 1
        assert counters["sessions_lost"] == 0
        assert sum(r.n_arrivals for r in report.shard_reports) == len(trace)


class TestSupervisionReport:
    @pytest.fixture(scope="class")
    def killed_report(self, predictor, trace):
        return _run(predictor, trace, chaos=_kill(1))

    def test_outage_timeline_shows_full_cycle(self, killed_report):
        events = [
            e
            for e in killed_report.coordinator["events"]
            if e["event"] in ("shard_outage", "shard_readmitted")
        ]
        assert {e["shard"] for e in events} == {1}  # the one targeted shard
        kinds = [e["event"] for e in events]
        # Outages and readmissions alternate, starting with an outage.
        assert kinds[:2] == ["shard_outage", "shard_readmitted"]
        assert kinds[::2] == ["shard_outage"] * len(kinds[::2])
        assert kinds[1::2] == ["shard_readmitted"] * len(kinds[1::2])
        counters = killed_report.coordinator["counters"]
        assert kinds.count("shard_outage") == counters["ring_ejections"]
        assert kinds.count("shard_readmitted") == counters["ring_readmissions"]
        for event in events[1::2]:
            assert event["down_chunks"] >= COOLDOWN_CHUNKS
        assert "breakers" not in killed_report.supervision

    def test_supervision_section_in_report_dict(self, killed_report):
        payload = killed_report.to_dict()
        assert payload["supervision"]["config"] == {"min_healthy": 1}
        assert payload["supervision"]["chaos"] == {"1": [1, 2, 3]}
        assert set(payload["supervision"]["health"]) == {"0", "1", "2", "3"}

    def test_recovery_histogram_counts_chunks(self, killed_report):
        counters = killed_report.coordinator["counters"]
        hist = killed_report.coordinator["histograms"]["shard_recovery_chunks"]
        assert hist["count"] == counters["ring_readmissions"]
        edges = [b["le_s"] for b in hist["buckets"] if b["le_s"] is not None]
        assert edges == list(RECOVERY_BUCKETS)
        assert hist["total_s"] >= counters["ring_readmissions"]

    def test_health_labels_on_merged_telemetry(self, killed_report):
        entries = killed_report.telemetry["labeled"]["counters"]["admissions"]
        labels = {e["labels"]["shard"]: e["labels"]["health"] for e in entries}
        assert set(labels) == {"0", "1", "2", "3"}
        assert set(labels.values()) <= {"healthy", "ejected"}

    def test_supervise_and_failover_spans_traced(self, predictor, trace):
        tracer = Tracer(enabled=True)
        brokers = build_shard_brokers(predictor, 4, ShardConfig(seed=3))
        broker = ShardedBroker(
            brokers,
            supervisor=ShardSupervisor(_kill(1)),
            tracer=tracer,
            parallel=False,
            chunk_size=32,
        )
        broker.run(trace)
        names = {span.name for span in tracer.spans}
        assert "supervise" in names
        assert "failover" in names
        failover = next(s for s in tracer.spans if s.name == "failover")
        assert failover.attributes["shard"] == 1
        assert "destinations" in failover.attributes


class _IdleBroker:
    """A shard with nothing to fail over."""

    class fleet:
        n_live = 0

        @staticmethod
        def server_ids():
            return []


class TestRecoveryTiming:
    """Ejection, readmission probes and recovery lengths, barrier by barrier."""

    def _tick(self, down, n_barriers, n_shards=3):
        chaos = _ScriptedChaos(n_shards, down)
        supervisor = ShardSupervisor(chaos)
        telemetry = Telemetry()
        supervisor.bind(n_shards, telemetry, Tracer())
        router = ShardRouter(n_shards)
        brokers = [_IdleBroker()] * n_shards
        members = []
        for barrier in range(1, n_barriers + 1):
            supervisor.tick(brokers, router, now=float(barrier), index=barrier)
            members.append(sorted(router.shard_ids))
        return chaos, supervisor, telemetry.snapshot(), members

    def test_first_probe_cooldown_barriers_after_ejection(self):
        chaos, supervisor, snapshot, members = self._tick({1: {2}}, 6)
        probes = [b for b, shard in chaos.probes if shard == 1]
        # Barrier 2: the one failed probe ejects it; barrier
        # 2 + COOLDOWN_CHUNKS: the first readmission probe, which passes.
        assert COOLDOWN_CHUNKS == 2
        assert probes == [1, 2, 4, 5, 6]
        assert [1 in m for m in members] == [True, False, False, True, True, True]
        readmitted = [e for e in snapshot["events"] if e["event"] == "shard_readmitted"]
        assert [(e["shard"], e["down_chunks"]) for e in readmitted] == [(1, 2)]
        hist = snapshot["histograms"]["shard_recovery_chunks"]
        assert (hist["count"], hist["total_s"]) == (1, 2)
        assert "readmit_probes_failed" not in snapshot["counters"]
        assert supervisor.health_of(1) == "healthy"

    def test_failed_probe_rearms_the_countdown(self):
        chaos, supervisor, snapshot, members = self._tick({1: {2, 4, 6}}, 9)
        probes = [b for b, shard in chaos.probes if shard == 1]
        assert probes == [1, 2, 4, 6, 8, 9]
        assert [1 in m for m in members] == [True] + [False] * 6 + [True, True]
        assert snapshot["counters"]["readmit_probes_failed"] == 2
        readmitted = [e for e in snapshot["events"] if e["event"] == "shard_readmitted"]
        assert [(e["shard"], e["down_chunks"]) for e in readmitted] == [(1, 6)]
        hist = snapshot["histograms"]["shard_recovery_chunks"]
        assert (hist["count"], hist["total_s"]) == (1, 6)

    def test_ejected_shard_reports_ejected_until_readmitted(self):
        _, supervisor, _, _ = self._tick({1: {2, 4}}, 5)
        assert supervisor.health_of(1) == "ejected"
        assert supervisor.snapshot()["health"] == {
            "0": "healthy",
            "1": "ejected",
            "2": "healthy",
        }
        assert supervisor.snapshot()["ejected"] == [1]


class TestRebalancerHealthySubset:
    def test_sessions_never_move_to_excluded_shards(self, predictor, trace):
        brokers = build_shard_brokers(predictor, 3, ShardConfig(seed=3))
        for broker in brokers:
            broker.start()
        for i, session in enumerate(trace[:40]):
            brokers[0].submit(session, i)
        rebalancer = Rebalancer(RebalanceConfig(interval=1, hot_factor=1.0))
        moved = rebalancer.rebalance(
            brokers, now=trace[39].arrival, index=39, healthy=[0, 2]
        )
        assert moved > 0
        assert brokers[1].fleet.n_live == 0
        assert brokers[2].fleet.n_live > 0

    def test_none_matches_all_shards(self, predictor, trace):
        def build_and_load():
            brokers = build_shard_brokers(predictor, 3, ShardConfig(seed=3))
            for broker in brokers:
                broker.start()
            for i, session in enumerate(trace[:40]):
                brokers[0].submit(session, i)
            return brokers

        rebalancer = Rebalancer(RebalanceConfig(interval=1, hot_factor=1.0))
        a, b = build_and_load(), build_and_load()
        moved_none = rebalancer.rebalance(a, now=trace[39].arrival, index=39)
        moved_all = rebalancer.rebalance(
            b, now=trace[39].arrival, index=39, healthy=[0, 1, 2]
        )
        assert moved_none == moved_all
        assert [x.fleet.n_live for x in a] == [x.fleet.n_live for x in b]


class TestEvictReason:
    def test_failover_reason_stamped_on_event(self, predictor, trace):
        brokers = build_shard_brokers(predictor, 1, ShardConfig(seed=3))
        broker = brokers[0]
        broker.start()
        broker.submit(trace[0], 0)
        (server_id,) = broker.fleet.server_ids()
        broker.evict_for_migration(server_id, now=1.0, index=0, reason="failover")
        events = [
            e
            for e in broker.controller.telemetry.events
            if e["event"] == "migration_out"
        ]
        assert events[-1]["reason"] == "failover"

    def test_default_reason_leaves_event_unchanged(self, predictor, trace):
        brokers = build_shard_brokers(predictor, 1, ShardConfig(seed=3))
        broker = brokers[0]
        broker.start()
        broker.submit(trace[0], 0)
        (server_id,) = broker.fleet.server_ids()
        broker.evict_for_migration(server_id, now=1.0, index=0)
        events = [
            e
            for e in broker.controller.telemetry.events
            if e["event"] == "migration_out"
        ]
        assert "reason" not in events[-1]
