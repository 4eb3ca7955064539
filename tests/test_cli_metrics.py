"""Tests for the ``repro metrics`` subcommand family."""

import json

import pytest

from repro.cli import main
from repro.obs import validate_prometheus
from repro.obs.metrics import Telemetry


def _snapshot(observations):
    t = Telemetry()
    for seconds in observations:
        t.counter("requests").inc()
        t.counter("decisions", policy="cm-feasible").inc()
        t.histogram("decision_latency_s").observe(seconds)
    t.gauge("open_servers").set(len(observations))
    return t.snapshot()


@pytest.fixture()
def snap_path(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(_snapshot([0.25, 0.5, 0.125])))
    return str(path)


@pytest.fixture()
def regressed_path(tmp_path):
    # Same workload with a fattened tail: p99 lands two buckets higher.
    path = tmp_path / "regressed.json"
    path.write_text(json.dumps(_snapshot([0.25, 0.5, 0.9])))
    return str(path)


class TestSummary:
    def test_single_file(self, snap_path, capsys):
        assert main(["metrics", "summary", snap_path]) == 0
        out = capsys.readouterr().out
        assert "requests" in out
        assert "decision_latency_s" in out

    def test_multiple_files_titled(self, snap_path, regressed_path, capsys):
        assert main(["metrics", "summary", snap_path, regressed_path]) == 0
        out = capsys.readouterr().out
        assert f"== {snap_path}" in out
        assert f"== {regressed_path}" in out

    def test_missing_file_exits_1(self, capsys):
        assert main(["metrics", "summary", "/nonexistent/snap.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestDiff:
    def test_identical_exits_zero(self, snap_path, tmp_path, capsys):
        # The second snapshot's histogram overflowed (p99_s is inf):
        # inf - inf is nan, which must not read as a change.
        overflowed = tmp_path / "overflowed.json"
        overflowed.write_text(json.dumps(_snapshot([0.25, 5.0, 7.0])))
        assert json.loads(overflowed.read_text())["histograms"][
            "decision_latency_s"
        ]["p99_s"] == float("inf")
        for path in (snap_path, str(overflowed)):
            rc = main(["metrics", "diff", path, path, "--fail-on", "p99_s:+20%"])
            assert rc == 0
            assert capsys.readouterr().out.strip() == "no differences"

    def test_regression_exits_nonzero(self, snap_path, regressed_path, capsys):
        rc = main(
            [
                "metrics",
                "diff",
                snap_path,
                regressed_path,
                "--fail-on",
                "p99_s:+20%",
            ]
        )
        assert rc != 0
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "decision_latency_s" in captured.out

    def test_no_gate_reports_but_exits_zero(self, snap_path, regressed_path):
        assert main(["metrics", "diff", snap_path, regressed_path]) == 0

    def test_bad_fail_spec_exits_1(self, snap_path, capsys):
        rc = main(
            ["metrics", "diff", snap_path, snap_path, "--fail-on", "p99_s:20"]
        )
        assert rc == 1
        assert "fail-on" in capsys.readouterr().err


class TestMerge:
    def test_counters_add(self, snap_path, tmp_path, capsys):
        out = tmp_path / "merged.json"
        rc = main(
            ["metrics", "merge", snap_path, snap_path, "--out", str(out)]
        )
        assert rc == 0
        merged = json.loads(out.read_text())
        assert merged["counters"]["requests"] == 6
        assert merged["histograms"]["decision_latency_s"]["count"] == 6

    def test_stdout_default(self, snap_path, capsys):
        assert main(["metrics", "merge", snap_path, snap_path]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["counters"]["requests"] == 6

    def test_single_file_rejected(self, snap_path, capsys):
        assert main(["metrics", "merge", snap_path]) == 1
        assert "at least two" in capsys.readouterr().err


class TestExport:
    def test_prometheus(self, snap_path, capsys):
        rc = main(["metrics", "export", snap_path, "--format", "prometheus"])
        assert rc == 0
        out = capsys.readouterr().out
        assert validate_prometheus(out) == []
        assert "requests_total 3" in out

    def test_chrome_trace_from_jsonl(self, tmp_path, capsys):
        from repro.obs import TickClock, Tracer

        tracer = Tracer(clock=TickClock())
        with tracer.span("request", index=0):
            with tracer.span("predict"):
                pass
        trace_path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(trace_path)
        out_path = tmp_path / "trace.json"
        rc = main(
            [
                "metrics",
                "export",
                str(trace_path),
                "--format",
                "chrome-trace",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc == tracer.to_chrome_trace()

    def test_chrome_trace_rejects_snapshot_input(self, snap_path, capsys):
        rc = main(["metrics", "export", snap_path, "--format", "chrome-trace"])
        assert rc == 1
        assert "span trace" in capsys.readouterr().err
