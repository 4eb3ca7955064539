"""Unit tests for the QoS ledger and the qos report-section pipeline.

These tests drive :class:`repro.obs.qos.QoSLedger` directly through its
FleetState-observer hooks with prefilled measurement/prediction caches,
so every number below is hand-computable: no simulator, no trained
predictor.  All durations and FPS values are dyadic floats so histogram
totals are exact regardless of merge/observation order.
"""

import json

import pytest

from repro.games.resolution import REFERENCE_RESOLUTION
from repro.obs import (
    BURN_RATE_BUCKETS,
    FPS_RESIDUAL_BUCKETS,
    QOS_MINUTES_BUCKETS,
    QoSLedger,
    build_qos_section,
    check_regressions,
    diff_qos,
    extract_qos,
    flatten_qos,
    label_snapshot,
    merge_snapshots,
    parse_fail_spec,
    render_diff,
    snapshot_to_prometheus,
    summarize_qos,
    validate_prometheus,
)
from repro.placement.fleet import Session

RES = REFERENCE_RESOLUTION


class StubSpec:
    def __init__(self, genre):
        self.genre = genre


class StubCatalog:
    """Maps game -> genre; enough for the ledger's labeling."""

    GENRES = {"Alpha": "genre-a", "Beta": "genre-b"}

    def get(self, name):
        return StubSpec(self.GENRES[name])


class ExplodingPredictor:
    """Guards that prefilled caches cover every prediction."""

    def predict_fps_batch(self, specs):  # pragma: no cover - only on test bugs
        raise AssertionError(f"uncached prediction requested: {specs}")


def make_ledger(**kwargs):
    kwargs.setdefault("slo_fps", 30.0)
    kwargs.setdefault("budget_fraction", 0.25)
    ledger = QoSLedger(StubCatalog(), ExplodingPredictor(), **kwargs)
    solo_a = (("Alpha", RES),)
    solo_b = (("Beta", RES),)
    pair = tuple(sorted([("Alpha", RES), ("Beta", RES)]))
    ledger._measured = {
        solo_a: (40.0,),
        solo_b: (36.0,),
        pair: (24.0, 16.0) if pair[0][0] == "Alpha" else (16.0, 24.0),
    }
    ledger._promised = {
        solo_a: (42.0,),
        solo_b: (38.0,),
        pair: (30.0, 20.0) if pair[0][0] == "Alpha" else (20.0, 30.0),
    }
    return ledger


def run_pair_scenario(ledger):
    """Two overlapping sessions on one server; hand-computed integrals.

    Alpha [0, 8): solo 40 fps for 4 min, paired 24 fps for 4 min
        -> actual 32, promised 42, residual +10, violation 4/8 min.
    Beta [4, 12): paired 16 fps for 4 min, solo 36 fps for 4 min
        -> actual 26, promised 20, residual -6, violation 4/8 min.
    Both breach (violation fraction 0.5 > budget 0.25) and both burn
    (budget 0.25 * 8 = 2 violation-minutes, exceeded mid-flight).
    """
    s1 = Session("Alpha", RES, arrival=0.0, duration=8.0)
    s2 = Session("Beta", RES, arrival=4.0, duration=8.0)
    ledger.advance(0.0)
    ledger.fleet_placed(0, 0, s1)
    ledger.advance(4.0)
    ledger.fleet_placed(0, 1, s2)
    ledger.fleet_departed(0, 0, s1, 8.0)
    ledger.finalize()
    return s1, s2


class TestBuckets:
    @pytest.mark.parametrize(
        "buckets",
        [FPS_RESIDUAL_BUCKETS, QOS_MINUTES_BUCKETS, BURN_RATE_BUCKETS],
    )
    def test_strictly_increasing_and_positive(self, buckets):
        assert all(b > 0 for b in buckets)
        assert list(buckets) == sorted(set(buckets))


class TestLedgerValidation:
    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match="slo_fps"):
            QoSLedger(StubCatalog(), ExplodingPredictor(), slo_fps=0.0)

    def test_rejects_bad_budget(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="budget_fraction"):
                QoSLedger(
                    StubCatalog(),
                    ExplodingPredictor(),
                    slo_fps=30.0,
                    budget_fraction=bad,
                )


class TestLedgerAccounting:
    def test_conservation_and_exact_calibration(self):
        ledger = make_ledger()
        run_pair_scenario(ledger)
        section = ledger.section()
        sessions = section["sessions"]
        assert sessions["opened"] == 2
        assert sessions["closed"] == 2
        assert sessions["conservation_errors"] == 0
        assert sessions["close_reasons"] == {"departed": 2}
        calibration = section["calibration"]
        assert calibration["samples"] == 2
        assert calibration["fps_residual_mae"] == pytest.approx(8.0)
        assert calibration["fps_residual_bias"] == pytest.approx(2.0)
        assert calibration["overpredictions"] == 1
        assert calibration["underpredictions"] == 1

    def test_exact_slo_stats(self):
        ledger = make_ledger()
        run_pair_scenario(ledger)
        slo = ledger.section()["slo"]
        assert slo["target_fps"] == 30.0
        assert slo["budget_fraction"] == 0.25
        assert slo["session_minutes"] == pytest.approx(16.0)
        assert slo["violation_minutes"] == pytest.approx(8.0)
        assert slo["violation_fraction"] == pytest.approx(0.5)
        assert slo["breaches"] == 2
        assert slo["burn_events"] == 2

    def test_per_game_and_per_genre_breakdowns(self):
        ledger = make_ledger()
        run_pair_scenario(ledger)
        section = ledger.section()
        assert set(section["per_game"]) == {"Alpha", "Beta"}
        alpha = section["per_game"]["Alpha"]
        assert alpha["samples"] == 1
        assert alpha["fps_residual_mae"] == pytest.approx(10.0)
        assert alpha["violation_minutes"] == pytest.approx(4.0)
        assert alpha["breaches"] == 1
        assert alpha["burn_events"] == 1
        beta = section["per_game"]["Beta"]
        assert beta["fps_residual_mae"] == pytest.approx(6.0)
        assert beta["fps_residual_bias"] == pytest.approx(-6.0)
        assert set(section["per_genre"]) == {"genre-a", "genre-b"}
        assert section["per_shard"] == {}

    def test_open_records_gauge_tracks_lifecycle(self):
        ledger = make_ledger()
        s1 = Session("Alpha", RES, arrival=0.0, duration=8.0)
        ledger.fleet_placed(0, 0, s1)
        assert ledger.open_records == 1
        snap = ledger.telemetry.snapshot()
        assert snap["gauges"]["qos_open_sessions"] == 1
        ledger.finalize()
        assert ledger.open_records == 0

    def test_eviction_reason_labels(self):
        ledger = make_ledger()
        s1 = Session("Alpha", RES, arrival=0.0, duration=8.0)
        ledger.fleet_placed(0, 0, s1)
        ledger.advance(2.0)
        ledger.mark_eviction("migrated")
        ledger.fleet_evicted(0, [(0, s1)])
        # The override is consumed: the next eviction reverts to default.
        s2 = Session("Beta", RES, arrival=2.0, duration=4.0)
        ledger.advance(2.0)
        ledger.fleet_placed(1, 1, s2)
        ledger.advance(3.0)
        ledger.fleet_evicted(1, [(1, s2)])
        reasons = ledger.section()["sessions"]["close_reasons"]
        assert reasons == {"evicted": 1, "migrated": 1}

    def test_departed_unknown_member_is_ignored(self):
        ledger = make_ledger()
        s1 = Session("Alpha", RES, arrival=0.0, duration=8.0)
        ledger.fleet_departed(7, 3, s1, 1.0)
        assert ledger.closed == 0

    def test_reset_keeps_caches_clears_run_state(self):
        ledger = make_ledger()
        run_pair_scenario(ledger)
        measured = dict(ledger._measured)
        ledger.reset()
        assert ledger.opened == 0 and ledger.closed == 0
        assert ledger._measured == measured

    def test_clock_never_rewinds(self):
        ledger = make_ledger()
        ledger.advance(5.0)
        ledger.advance(1.0)
        assert ledger._now == 5.0


class TestPrometheusRoundTrip:
    def test_labeled_qos_snapshot_validates(self):
        ledger = make_ledger()
        run_pair_scenario(ledger)
        labeled = label_snapshot(ledger.telemetry.snapshot(), shard="0")
        text = snapshot_to_prometheus(labeled)
        assert validate_prometheus(text) == []
        assert 'fps_residual_abs_bucket{' in text
        assert 'shard="0"' in text

    def test_labeled_snapshot_yields_per_shard_group(self):
        ledger = make_ledger()
        run_pair_scenario(ledger)
        labeled = label_snapshot(ledger.telemetry.snapshot(), shard="3")
        section = build_qos_section(labeled)
        assert set(section["per_shard"]) == {"3"}
        shard = section["per_shard"]["3"]
        assert shard["opened"] == 2 and shard["closed"] == 2
        assert shard["samples"] == 2
        # per-game children also carry shard labels after labeling; they
        # must not leak into the shard group (no double counting).
        assert shard["session_minutes"] == pytest.approx(16.0)


class TestMergeExactness:
    def test_disjoint_shards_merge_exactly(self):
        a, b = make_ledger(), make_ledger()
        run_pair_scenario(a)
        s3 = Session("Beta", RES, arrival=0.0, duration=4.0)
        b.fleet_placed(0, 0, s3)
        b.finalize()
        union = make_ledger()
        union.fleet_placed(9, 9, Session("Beta", RES, arrival=0.0, duration=4.0))
        run_pair_scenario(union)  # its finalize() also closes the solo Beta
        merged = merge_snapshots(
            label_snapshot(a.telemetry.snapshot(), shard="0"),
            label_snapshot(b.telemetry.snapshot(), shard="1"),
        )
        section = build_qos_section(merged)
        want = build_qos_section(union.telemetry.snapshot())
        # Identical fleet-wide accounting whether booked by one ledger or
        # merged from two (the per-shard group is the only extra info).
        assert section["sessions"] == want["sessions"]
        assert section["calibration"] == want["calibration"]
        assert section["slo"] == want["slo"]
        assert section["per_game"] == want["per_game"]
        assert section["per_genre"] == want["per_genre"]
        assert set(section["per_shard"]) == {"0", "1"}
        assert section["per_shard"]["1"]["samples"] == 1

    def test_overlapping_game_labels_merge_exactly(self):
        a, b = make_ledger(), make_ledger()
        run_pair_scenario(a)
        run_pair_scenario(b)
        merged = merge_snapshots(
            label_snapshot(a.telemetry.snapshot(), shard="0"),
            label_snapshot(b.telemetry.snapshot(), shard="1"),
        )
        section = build_qos_section(merged)
        single = build_qos_section(a.telemetry.snapshot())
        assert section["calibration"]["samples"] == 4
        assert section["calibration"]["fps_residual_mae"] == pytest.approx(
            single["calibration"]["fps_residual_mae"]
        )
        alpha = section["per_game"]["Alpha"]
        assert alpha["samples"] == 2
        assert alpha["fps_residual_mae"] == pytest.approx(10.0)
        assert alpha["violation_minutes"] == pytest.approx(8.0)
        assert alpha["breaches"] == 2


class TestSectionHelpers:
    def test_build_returns_none_without_qos_instruments(self):
        from repro.obs import Telemetry

        t = Telemetry()
        t.counter("requests_total").inc()
        assert build_qos_section(t.snapshot()) is None

    def test_extract_from_report_section_and_snapshot(self):
        ledger = make_ledger()
        run_pair_scenario(ledger)
        section = ledger.section()
        snapshot = ledger.telemetry.snapshot()
        assert extract_qos({"qos": section}) == section
        assert extract_qos(section) == section
        rebuilt = extract_qos({"telemetry": snapshot})
        assert rebuilt["sessions"] == section["sessions"]
        bare = extract_qos(snapshot)
        assert bare["calibration"] == section["calibration"]

    def test_extract_rejects_qosless_payload(self):
        with pytest.raises(ValueError, match="--slo-fps"):
            extract_qos({"counters": {}}, source="report.json")

    def test_json_round_trip_is_stable(self):
        ledger = make_ledger()
        run_pair_scenario(ledger)
        section = ledger.section()
        assert json.loads(json.dumps(section)) == section


class TestFlattenDiffGate:
    def test_flatten_paths(self):
        ledger = make_ledger()
        run_pair_scenario(ledger)
        rows = flatten_qos(ledger.section())
        assert rows[("calibration", "fps_residual_mae")] == pytest.approx(8.0)
        assert rows[("slo", "violation_minutes")] == pytest.approx(8.0)
        assert rows[("sessions", "conservation_errors")] == 0.0
        assert rows[("sessions.close_reasons", "departed")] == 2.0
        assert rows[("per_game.Alpha", "breaches")] == 1.0

    def test_identical_sections_diff_clean(self):
        ledger = make_ledger()
        run_pair_scenario(ledger)
        section = ledger.section()
        rows = diff_qos(section, section)
        assert rows and all(row["delta"] == 0.0 for row in rows)
        assert "no differences" in render_diff(rows, only_changed=True)
        spec = parse_fail_spec("fps_residual_mae:+10%")
        assert check_regressions(rows, [spec]) == []

    def test_injected_mae_regression_breaches_gate(self):
        ledger = make_ledger()
        run_pair_scenario(ledger)
        old = ledger.section()
        new = json.loads(json.dumps(old))
        new["calibration"]["fps_residual_mae"] *= 1.5
        rows = diff_qos(old, new)
        breaches = check_regressions(rows, [parse_fail_spec("fps_residual_mae:+10%")])
        assert len(breaches) == 1
        assert breaches[0]["metric"] == "calibration"
        # Scoped spec works too, and a loose threshold does not trip.
        assert check_regressions(
            rows, [parse_fail_spec("calibration.fps_residual_mae:+10%")]
        )
        assert not check_regressions(
            rows, [parse_fail_spec("fps_residual_mae:+60%")]
        )


class TestSummarize:
    def test_mentions_key_stats(self):
        ledger = make_ledger()
        run_pair_scenario(ledger)
        text = summarize_qos(ledger.section(), title="run")
        assert "== run ==" in text
        assert "opened=2 closed=2 conservation_errors=0" in text
        assert "mae=8" in text
        assert "Alpha" in text and "genre-b" in text
