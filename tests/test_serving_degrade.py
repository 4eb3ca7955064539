"""Serving-tier tests for the downscale actuator and restore loop.

Covers the refactor's byte-parity contract (the default pipeline vs the
frozen pre-refactor engine under seeded chaos), the degraded placement
surface of the broker report,
restore on each broker's own arrival clock (sharded or not), and degraded
sessions surviving crash/migration/failover with conservation intact.
"""

import json

import pytest

from repro.cli import main
from repro.games import DegradeLadder
from repro.obs import QoSLedger, Telemetry
from repro.placement import CMFeasiblePolicy, PlacementOutcome, PredictionCache
from repro.placement.policies import WorstFitPolicy
from repro.serving import (
    DecisionEngine,
    FaultInjector,
    RequestBroker,
    TraceConfig,
    generate_trace,
)
from tests import _reference_engine as frozen

LADDER = DegradeLadder.from_str("1080p,900p,720p")


@pytest.fixture()
def predictor_path(minilab, tmp_path):
    path = tmp_path / "predictor.json"
    minilab.predictor.save(path)
    return str(path)


def normalized(payload):
    """A report with wall-clock timing scrubbed, structure intact.

    Latency histograms (any metric ending in ``_s``) vary run to run —
    totals, means, percentiles, and which latency bucket a sample lands
    in.  Everything else (counters, events, placements, resilience,
    config) must match exactly.
    """

    def scrub_hist(hist):
        # One histogram payload (plain) or a list of labeled payloads.
        if isinstance(hist, list):
            return [scrub_hist(h) for h in hist]
        return {"count": hist.get("count"), "labels": hist.get("labels")}

    def scrub(node):
        if isinstance(node, dict):
            out = {}
            for key, value in node.items():
                if key == "histograms" and isinstance(value, dict):
                    out[key] = {
                        name: scrub_hist(hist) if name.endswith("_s") else hist
                        for name, hist in value.items()
                    }
                else:
                    out[key] = scrub(value)
            return out
        if isinstance(node, list):
            return [scrub(v) for v in node]
        return node

    return scrub(payload)


def build_controller(minilab, engine_cls, **kwargs):
    telemetry = Telemetry()
    injector = FaultInjector(0.08, seed=11, telemetry=telemetry)
    policy = CMFeasiblePolicy(
        injector.wrap_predictor(minilab.predictor),
        45.0,
        cache=PredictionCache(256),
    )
    fallback = WorstFitPolicy(minilab.vbp)
    return engine_cls(
        policy,
        fallback=fallback,
        telemetry=telemetry,
        **kwargs,
    )


class FrozenEngine(frozen.DecisionEngine):
    """The frozen pre-pipeline engine behind the broker's engine interface.

    The frozen copy predates the quality lever: it has no downscale
    actuator, no restore path, and places sessions as submitted.
    """

    ladder = None
    can_restore = False

    def admit(self, fleet, session):
        outcome = super().admit(fleet, session)
        return PlacementOutcome(
            choice=outcome.choice,
            server_id=outcome.server_id,
            policy=outcome.policy,
            fallback=outcome.fallback,
            session=session,
        )


class TestPreRefactorParity:
    """The pipeline's default chain IS the old engine, byte for byte."""

    def test_chaos_run_matches_frozen_engine(self, minilab):
        trace = TraceConfig(
            n_requests=250, arrival_rate=6.0, mean_duration=20.0, seed=5
        )
        sessions = generate_trace(minilab.predictor.db.names(), trace)

        def serve(engine_cls):
            controller = build_controller(minilab, engine_cls)
            broker = RequestBroker(controller, crash_rate=0.03, crash_seed=5)
            report = broker.run(list(sessions))
            return normalized(report.to_dict())

        new = serve(DecisionEngine)
        old = serve(FrozenEngine)
        assert new == frozen.drop_mode(old)


class TestDegradedServing:
    def run_broker(self, minilab, *, ladder=None, restore_interval=None, qos=45.0):
        telemetry = Telemetry()
        controller = DecisionEngine(
            CMFeasiblePolicy(minilab.predictor, qos),
            telemetry=telemetry,
            downscale_ladder=ladder,
        )
        ledger = QoSLedger(
            minilab.catalog, minilab.predictor, slo_fps=qos, server=minilab.server
        )
        broker = RequestBroker(
            controller, ledger=ledger, restore_interval=restore_interval
        )
        trace = TraceConfig(
            n_requests=220, arrival_rate=9.0, mean_duration=25.0, seed=3
        )
        sessions = generate_trace(minilab.predictor.db.names(), trace)
        return broker.run(list(sessions))

    def test_degraded_records_carry_both_resolutions(self, minilab):
        report = self.run_broker(minilab, ladder=LADDER, restore_interval=50)
        degraded = [p for p in report.placements if p.resolution is not None]
        assert degraded, "expected at least one downscaled placement"
        for record in degraded:
            assert record.requested == "1920x1080"
            assert record.resolution in ("1600x900", "1280x720")
        plain = [p for p in report.placements if p.resolution is None]
        assert all("resolution" not in p.to_dict() for p in plain)

    def test_qos_ledger_books_degraded_minutes(self, minilab):
        report = self.run_broker(minilab, ladder=LADDER, restore_interval=50)
        assert report.qos["sessions"]["conservation_errors"] == 0
        degraded = report.qos.get("degraded")
        assert degraded is not None
        assert degraded["sessions"] > 0
        assert degraded["minutes"] > 0
        assert 0 < degraded["minutes_fraction"] < 1

    def test_qos_degraded_absent_without_ladder(self, minilab):
        report = self.run_broker(minilab)
        assert "degraded" not in report.qos
        assert all("resolution" not in p.to_dict() for p in report.placements)

    def test_resilience_reports_downscale_block(self, minilab):
        report = self.run_broker(minilab, ladder=LADDER, restore_interval=50)
        block = report.resilience["downscale"]
        assert block["ladder"] == ["1920x1080", "1600x900", "1280x720"]
        assert block["restore"] is True
        assert block["restore_interval"] == 50

    def test_restore_loop_emits_events_and_promotes(self, minilab):
        report = self.run_broker(minilab, ladder=LADDER, restore_interval=25)
        events = [
            e
            for e in report.telemetry.get("events", [])
            if e.get("event") == "restore"
        ]
        counters = report.telemetry.get("labeled", {}).get("counters", {})
        restores = sum(e["value"] for e in counters.get("restores", ()))
        if restores:
            assert events, "restore promotions should emit restore events"
            assert sum(e["promoted"] for e in events) == restores


class TestDegradedSharded:
    def test_degraded_sessions_survive_chaos(self, minilab):
        from repro.sharding import (
            RebalanceConfig,
            Rebalancer,
            ShardChaos,
            ShardConfig,
            ShardedBroker,
            ShardSupervisor,
            build_shard_brokers,
        )

        telemetry = Telemetry()
        config = ShardConfig(
            policy="cm-feasible",
            qos=45.0,
            crash_rate=0.02,
            seed=9,
            slo_fps=45.0,
            degrade_ladder=LADDER,
        )
        brokers = build_shard_brokers(
            minilab.predictor, 3, config, catalog=minilab.catalog
        )
        chaos = ShardChaos(3, 0.25, outage_chunks=1, seed=9)
        broker = ShardedBroker(
            brokers,
            rebalancer=Rebalancer(RebalanceConfig(interval=40), telemetry=telemetry),
            supervisor=ShardSupervisor(chaos, min_healthy=1),
            telemetry=telemetry,
        )
        trace = TraceConfig(
            n_requests=300, arrival_rate=9.0, mean_duration=25.0, seed=9
        )
        sessions = generate_trace(minilab.predictor.db.names(), trace)
        report = broker.run(list(sessions))
        payload = report.to_dict()
        qos = payload["qos"]
        assert qos["sessions"]["opened"] == qos["sessions"]["closed"]
        lost = payload["telemetry"]["counters"].get("sessions_lost", 0)
        assert lost == 0
        assert qos.get("degraded", {}).get("sessions", 0) > 0, (
            "expected degraded sessions to survive migration/failover"
        )

    def test_every_shard_restores_on_its_own_clock(self, minilab):
        from repro.sharding import ShardConfig, ShardedBroker, build_shard_brokers

        config = ShardConfig(qos=45.0, degrade_ladder=LADDER, restore_interval=20)
        brokers = build_shard_brokers(minilab.predictor, 3, config)
        trace = TraceConfig(
            n_requests=300, arrival_rate=9.0, mean_duration=25.0, seed=9
        )
        sessions = generate_trace(minilab.predictor.db.names(), trace)
        report = ShardedBroker(brokers).run(list(sessions))
        for shard in report.shard_reports:
            assert shard.resilience["downscale"]["restore_interval"] == 20
        assert report.telemetry["counters"].get("restore_queries", 0) > 0


class TestServeCliDegrade:
    def serve(self, predictor_path, tmp_path, *extra, requests="150"):
        out = tmp_path / f"report{abs(hash(extra)) % 10**8}.json"
        rc = main(
            [
                "serve",
                "--predictor",
                predictor_path,
                "--requests",
                requests,
                "--arrival-rate",
                "8",
                "--out",
                str(out),
                *extra,
            ]
        )
        return rc, out

    def test_malformed_ladder_one_line_error(self, predictor_path, tmp_path, capsys):
        rc, _ = self.serve(predictor_path, tmp_path, "--degrade-ladder", "nope")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad resolution 'nope'")
        assert err.count("\n") == 1

    def test_restore_interval_requires_ladder(self, predictor_path, tmp_path, capsys):
        rc, _ = self.serve(predictor_path, tmp_path, "--restore-interval", "10")
        assert rc == 2
        assert "requires --degrade-ladder" in capsys.readouterr().err

    def test_bad_restore_interval_rejected(self, predictor_path, tmp_path, capsys):
        rc, _ = self.serve(
            predictor_path,
            tmp_path,
            "--degrade-ladder",
            "1080p,720p",
            "--restore-interval",
            "0",
        )
        assert rc == 1
        assert "must be >= 1" in capsys.readouterr().err

    def test_config_keys_only_when_armed(self, predictor_path, tmp_path):
        rc, out = self.serve(
            predictor_path, tmp_path, "--degrade-ladder", "1080p,900p,720p"
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["degrade_ladder"] == [
            "1920x1080",
            "1600x900",
            "1280x720",
        ]
        assert payload["config"]["restore_interval"] == 256

        rc, out = self.serve(predictor_path, tmp_path)
        payload = json.loads(out.read_text())
        assert "degrade_ladder" not in payload["config"]
        assert "restore_interval" not in payload["config"]

    def test_sharded_degrade_end_to_end(self, predictor_path, tmp_path):
        rc, out = self.serve(
            predictor_path,
            tmp_path,
            "--shards",
            "2",
            "--rebalance-interval",
            "40",
            "--slo-fps",
            "45",
            "--degrade-ladder",
            "1080p,900p,720p",
            requests="250",
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        qos = payload["qos"]
        assert qos["sessions"]["opened"] == qos["sessions"]["closed"]
        assert payload["config"]["degrade_ladder"] == [
            "1920x1080",
            "1600x900",
            "1280x720",
        ]
