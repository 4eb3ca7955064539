"""Tests for snapshot tooling: load, merge, diff, gate, Prometheus check."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    check_regressions,
    diff_snapshots,
    load_snapshot,
    merge_all,
    merge_snapshots,
    parse_fail_spec,
    render_diff,
    snapshot_to_prometheus,
    summarize_snapshot,
    validate_prometheus,
)
from repro.obs.metrics import Telemetry


def _record(telemetry, observations):
    """A deterministic workload: exact-binary durations, labels, events."""
    for seconds in observations:
        telemetry.counter("requests").inc()
        telemetry.counter("decisions", policy="cm-feasible").inc()
        telemetry.histogram("decision_latency_s").observe(seconds)
        telemetry.histogram("predict_s", model="cm").observe(seconds / 2)
    telemetry.gauge("open_servers").set(len(observations))
    telemetry.event("marker", n=len(observations))


class TestLoadSnapshot:
    def test_bare_snapshot(self, tmp_path):
        t = Telemetry()
        _record(t, [0.25])
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(t.snapshot()))
        assert load_snapshot(path)["counters"]["requests"] == 1

    def test_unwraps_serve_report(self, tmp_path):
        t = Telemetry()
        _record(t, [0.25])
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"n_sessions": 1, "telemetry": t.snapshot()}))
        assert load_snapshot(path)["counters"]["requests"] == 1

    def test_bad_json_names_path(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="corrupt.json"):
            load_snapshot(path)

    def test_wrong_schema_names_path(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(ValueError, match="no telemetry snapshot"):
            load_snapshot(path)


class TestMerge:
    def test_split_workload_equals_single_run(self):
        # Exactly representable durations so the totals match bit for bit.
        full = [0.25, 0.5, 0.125, 2.0, 0.0625, 0.25]
        single = Telemetry()
        _record(single, full)
        first, second = Telemetry(), Telemetry()
        _record(first, full[:3])
        _record(second, full[3:])
        merged = merge_snapshots(first.snapshot(), second.snapshot())
        expected = single.snapshot()
        # The gauge sums (3 + 3 = 6) and both event markers survive; the
        # rest must reproduce the single run exactly.
        expected["gauges"]["open_servers"] = 6.0
        expected["events"] = [{"event": "marker", "n": 3}] * 2
        assert merged == expected

    def test_merge_through_files_round_trip(self, tmp_path):
        first, second = Telemetry(), Telemetry()
        _record(first, [0.25, 0.5])
        _record(second, [0.125])
        paths = []
        for i, t in enumerate((first, second)):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(t.snapshot()))
            paths.append(path)
        merged = merge_snapshots(load_snapshot(paths[0]), load_snapshot(paths[1]))
        assert merged == merge_snapshots(first.snapshot(), second.snapshot())

    def test_labeled_children_merge_by_label_set(self):
        a, b = Telemetry(), Telemetry()
        a.counter("decisions", policy="cm-feasible").inc(2)
        a.counter("decisions", policy="max-fps").inc(1)
        b.counter("decisions", policy="cm-feasible").inc(3)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        children = {
            c["labels"]["policy"]: c["value"]
            for c in merged["labeled"]["counters"]["decisions"]
        }
        assert children == {"cm-feasible": 5, "max-fps": 1}

    def test_mismatched_buckets_rejected(self):
        a, b = Telemetry(), Telemetry()
        a.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        b.histogram("lat", buckets=(0.2, 2.0)).observe(0.05)
        with pytest.raises(ValueError, match="mismatched bucket"):
            merge_snapshots(a.snapshot(), b.snapshot())

    def test_disjoint_metrics_union(self):
        a, b = Telemetry(), Telemetry()
        a.counter("only_a").inc()
        b.counter("only_b").inc(2)
        b.histogram("only_b_s").observe(0.25)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["counters"] == {"only_a": 1, "only_b": 2}
        assert merged["histograms"]["only_b_s"]["count"] == 1


class TestDiffAndGate:
    def _rows(self, old_p99=0.025, new_p99=0.025, old_req=10, new_req=10):
        old, new = Telemetry(), Telemetry()
        old.counter("requests").inc(old_req)
        new.counter("requests").inc(new_req)
        old.histogram("decision_latency_s").observe(old_p99)
        new.histogram("decision_latency_s").observe(new_p99)
        return diff_snapshots(old.snapshot(), new.snapshot())

    def test_identical_runs_no_changes(self):
        rows = self._rows()
        assert all(r["delta"] == 0 for r in rows)
        assert render_diff(rows) == "no differences"
        assert check_regressions(rows, [parse_fail_spec("p99_s:+20%")]) == []

    def test_regression_breaches_spec(self):
        rows = self._rows(old_p99=0.02, new_p99=0.09)
        breaches = check_regressions(rows, [parse_fail_spec("p99_s:+20%")])
        assert len(breaches) == 1
        assert breaches[0]["metric"] == "decision_latency_s"
        assert breaches[0]["spec"] == "p99_s:+20%"

    def test_within_allowance_passes(self):
        rows = self._rows(old_req=100, new_req=105)
        assert check_regressions(rows, [parse_fail_spec("requests:+10%")]) == []
        assert check_regressions(rows, [parse_fail_spec("requests:+2%")])

    def test_metric_scoped_spec(self):
        rows = self._rows(old_p99=0.02, new_p99=0.09)
        scoped = parse_fail_spec("decision_latency_s.p99_s:+20%")
        other = parse_fail_spec("some_other_metric_s.p99_s:+20%")
        assert check_regressions(rows, [scoped])
        assert check_regressions(rows, [other]) == []

    def test_growth_from_zero_breaches(self):
        old, new = Telemetry(), Telemetry()
        new.counter("policy_errors").inc(1)
        rows = diff_snapshots(old.snapshot(), new.snapshot())
        assert check_regressions(rows, [parse_fail_spec("policy_errors:+0%")])

    def test_bad_spec_rejected(self):
        for bad in ("p99_s", "p99_s:-20%", "p99_s:+20", ":+20%"):
            with pytest.raises(ValueError, match="fail-on"):
                parse_fail_spec(bad)

    def test_render_diff_table(self):
        rows = self._rows(old_req=10, new_req=15)
        table = render_diff(rows)
        assert "requests" in table
        assert "+50.0%" in table


class TestSummarize:
    def test_mentions_every_section(self):
        t = Telemetry()
        _record(t, [0.25, 0.5])
        text = summarize_snapshot(t.snapshot(), title="run A")
        assert "== run A" in text
        assert "requests" in text
        assert "open_servers" in text
        assert "decision_latency_s" in text
        assert "events: 1 retained, 0 dropped" in text


class TestPrometheus:
    def test_live_snapshot_round_trip_validates(self):
        t = Telemetry()
        _record(t, [0.25, 0.5, 3.0])  # 3.0 overflows the default buckets
        text = snapshot_to_prometheus(t.snapshot())
        assert validate_prometheus(text) == []
        assert "requests_total 3" in text
        assert 'decisions_total{policy="cm-feasible"} 3' in text
        assert 'decision_latency_s_bucket{le="+Inf"} 3' in text
        assert "open_servers 3" in text
        assert text == t.to_prometheus()

    def test_label_escaping(self):
        t = Telemetry()
        t.counter("odd", game='He said "hi"\nbye').inc()
        text = snapshot_to_prometheus(t.snapshot())
        assert validate_prometheus(text) == []
        assert '\\"hi\\"' in text
        assert "\\n" in text

    def test_validator_flags_malformed_lines(self):
        assert validate_prometheus("ok_total 1\n") == []
        errors = validate_prometheus("9bad{x=1} nope\n")
        assert errors and "malformed sample" in errors[0]
        assert validate_prometheus("x_total 1") == [
            "exposition must end with a newline"
        ]
        assert "malformed comment" in validate_prometheus("# HELLO x y\n")[0]

    def test_validator_flags_redeclared_and_split_families(self):
        head = '# TYPE a_total counter\na_total 1\n# TYPE b gauge\nb 2\n'
        redeclared = validate_prometheus(head + '# TYPE a_total counter\n')
        assert redeclared == ["line 5: duplicate TYPE for family a_total"]
        split = validate_prometheus(head + 'a_total{x="1"} 3\n')
        assert split == ["line 5: family a_total split by another family"]
        histogram = (
            '# TYPE h histogram\nh_bucket{le="+Inf"} 1\nh_sum 0.5\nh_count 1\n'
        )
        assert validate_prometheus(histogram + head) == []

    def test_labeled_and_unlabeled_series_share_one_family(self):
        t = Telemetry()
        t.counter("closed").inc()
        t.counter("closed", reason="crash").inc(2)
        t.histogram("fps_s", game="Dota2").observe(0.25)
        t.histogram("fps_s").observe(0.5)
        text = t.to_prometheus()
        assert validate_prometheus(text) == []
        lines = text.splitlines()
        assert lines[:3] == [
            "# TYPE closed_total counter",
            "closed_total 1",
            'closed_total{reason="crash"} 2',
        ]
        assert lines.count("# TYPE fps_s histogram") == 1

    def test_inf_quantiles_render_as_inf(self):
        t = Telemetry()
        t.histogram("slow_s", buckets=(0.001,)).observe(5.0)
        snap = t.snapshot()
        assert snap["histograms"]["slow_s"]["p50_s"] == math.inf
        text = snapshot_to_prometheus(snap)
        assert validate_prometheus(text) == []


class TestRegistryRoundTrip:
    def test_from_snapshot_inverts_snapshot(self):
        t = Telemetry()
        _record(t, [0.25, 0.5, 3.0])
        t.gauge("mode_level", shard="1").set(2)
        snap = t.snapshot()
        assert Telemetry.from_snapshot(snap).snapshot() == snap
        loaded = Telemetry.from_snapshot(json.loads(json.dumps(snap)))
        assert loaded.snapshot() == snap

    def test_merge_matches_merge_snapshots_and_leaves_other_alone(self):
        a, b = Telemetry(), Telemetry()
        _record(a, [0.25])
        _record(b, [0.5, 0.125])
        before = b.snapshot()
        expected = merge_snapshots(a.snapshot(), b.snapshot())
        a.merge(b)
        assert a.snapshot() == expected
        assert b.snapshot() == before

    def test_merge_counts_dropped_events_exactly(self):
        from repro.obs.metrics import MAX_EVENTS

        a = Telemetry()
        for i in range(MAX_EVENTS - 2):
            a.event("a", i=i)
        events = [{"event": "b", "i": i} for i in range(5)]
        b = Telemetry.from_snapshot({"events": events, "events_dropped": 4})
        a.merge(b)
        assert len(a.events) == MAX_EVENTS
        assert a.snapshot()["events_dropped"] == 4 + 3
        assert a.events[-1] == {"event": "b", "i": 4}


class TestMergeEdgeCases:
    """Regression tests for merge robustness (sharded-tier reporting)."""

    def test_merge_all_empty_list_is_valid_empty_snapshot(self):
        merged = merge_all([])
        assert merged == Telemetry().snapshot()

    def test_merge_all_single_snapshot_normalizes(self):
        t = Telemetry()
        _record(t, [0.25, 0.5])
        merged = merge_all([t.snapshot()])
        assert merged == merge_snapshots(Telemetry().snapshot(), t.snapshot())
        assert merged["counters"] == t.snapshot()["counters"]

    def test_merge_all_matches_pairwise_fold(self):
        parts = []
        for chunk in ([0.25], [0.5, 0.125], [2.0]):
            t = Telemetry()
            _record(t, chunk)
            parts.append(t.snapshot())
        folded = parts[0]
        for part in parts[1:]:
            folded = merge_snapshots(folded, part)
        merged = merge_all(parts)
        # Pairwise folding passes the first snapshot through unnormalized;
        # the counters/histograms content must still agree exactly.
        assert merged["counters"] == folded["counters"]
        assert merged["histograms"] == folded["histograms"]
        assert merged["labeled"] == folded["labeled"]

    def test_disjoint_labeled_metrics_union(self):
        a, b = Telemetry(), Telemetry()
        a.counter("only_a", shard="0").inc(2)
        b.counter("only_b", shard="1").inc(3)
        b.histogram("only_b_s", shard="1").observe(0.25)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["labeled"]["counters"]["only_a"][0]["value"] == 2
        assert merged["labeled"]["counters"]["only_b"][0]["value"] == 3
        assert merged["labeled"]["histograms"]["only_b_s"][0]["count"] == 1

    def test_labeled_entry_without_labels_treated_as_unlabeled(self):
        a = {"labeled": {"counters": {"hits": [{"value": 2}]}}}
        b = {"labeled": {"counters": {"hits": [{"value": 3}]}}}
        merged = merge_snapshots(a, b)
        assert merged["labeled"]["counters"]["hits"][0]["value"] == 5

    def test_histogram_dict_without_buckets_goes_to_overflow(self):
        from repro.obs.metrics import LatencyHistogram

        hist = LatencyHistogram.from_dict("lat", {"count": 4, "total_s": 2.0})
        assert hist.count == 4
        assert hist.total == 2.0
        assert hist.overflow_count == 4
        # And it survives a merge with a real histogram-less snapshot.
        merged = merge_snapshots(
            {"histograms": {"lat": {"count": 4, "total_s": 2.0}}}, {}
        )
        assert merged["histograms"]["lat"]["count"] == 4

    def test_labeled_scalar_entry_without_value_reads_zero(self):
        hand = {
            "labeled": {
                "counters": {"hits": [{"labels": {"shard": "0"}}]},
                "gauges": {"depth": [{"labels": {"shard": "1"}}]},
            }
        }
        merged = merge_snapshots(hand, hand)
        assert merged["labeled"]["counters"]["hits"] == [
            {"labels": {"shard": "0"}, "value": 0}
        ]
        assert merged["labeled"]["gauges"]["depth"][0]["value"] == 0
        text = snapshot_to_prometheus(hand)
        assert validate_prometheus(text) == []
        assert 'hits_total{shard="0"} 0' in text


_names = st.sampled_from(["a", "b", "b_s", "qos", "z"])
_label_sets = st.dictionaries(
    st.sampled_from(["game", "shard", "reason"]),
    st.sampled_from(["0", "1", "Dota2", "x y"]),
    max_size=3,
)


class TestSeries:
    """``Telemetry.series`` is the one definition of export order."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["counters", "gauges", "histograms"]),
                _names,
                st.none() | _label_sets,
            ),
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_series_follows_snapshot_order(self, recorded):
        t = Telemetry()
        for kind, name, labels in recorded:
            if kind == "counters":
                t.counter(name, **(labels or {})).inc()
            elif kind == "gauges":
                t.gauge(name, **(labels or {})).set(1.5)
            else:
                t.histogram(name, **(labels or {})).observe(0.25)
        # A labeled child with an empty label set: only a snapshot makes one.
        snap = t.snapshot()
        snap["labeled"]["counters"]["bare"] = [{"labels": {}, "value": 2}]
        t = Telemetry.from_snapshot(snap)
        snap = t.snapshot()
        before = json.dumps(snap)
        for kind in ("counters", "gauges", "histograms"):
            got = [(i.name, labels) for labels, i in t.series(kind)]
            # Names sorted; the unlabeled series first, then the children
            # by their sorted (key, value) pairs.
            assert got == sorted(
                got,
                key=lambda s: (s[0], s[1] is not None, sorted((s[1] or {}).items())),
            )
            assert [name for name, labels in got if labels is None] == list(snap[kind])
            children: dict = {}
            for name, labels in got:
                if labels is not None:
                    children.setdefault(name, []).append(labels)
            assert children == {
                name: [entry["labels"] for entry in entries]
                for name, entries in snap["labeled"][kind].items()
            }
        assert ("bare", {}) in [(i.name, lb) for lb, i in t.series("counters")]
        assert json.dumps(t.snapshot()) == before  # reading created nothing
