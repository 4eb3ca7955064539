"""Observability: metrics, request tracing, snapshot tooling, exporters.

The bottom layer of the stack — everything here is dependency-free and
imported by the placement core and both frontends:

* :class:`Telemetry` (:mod:`repro.obs.metrics`) — counters, gauges and
  fixed-bucket latency histograms exposed as one JSON snapshot,
  answering *what happened in aggregate*;
* :class:`Tracer` / :class:`Span` — dependency-free nested span tracing
  with deterministic ids, an injectable clock (:class:`TickClock`), and
  exporters to JSONL and Chrome trace-event JSON (Perfetto-loadable),
  answering *what happened to this one request*;
* snapshot tools — load/summarize/merge/diff telemetry snapshots and
  render the Prometheus text exposition, powering the ``repro metrics``
  CLI subcommand;
* :func:`validate_prometheus` — a tiny exposition-format checker used in
  tests and CI so exporter output stays parseable;
* :class:`QoSLedger` (:mod:`repro.obs.qos`) — ground-truth FPS
  accounting over fleet mutations: prediction-calibration drift gauges
  (MAE / bias / p95 residual), SLO error budgets with burn-rate events,
  and the ``qos`` report section (:func:`build_qos_section`) behind the
  ``repro slo`` subcommand.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    LatencyHistogram,
    Telemetry,
    label_snapshot,
    merge_all,
    merge_snapshots,
    snapshot_to_prometheus,
)
from repro.obs.qos import (
    BURN_RATE_BUCKETS,
    FPS_RESIDUAL_BUCKETS,
    QOS_MINUTES_BUCKETS,
    QoSLedger,
    build_qos_section,
    diff_qos,
    extract_qos,
    flatten_qos,
    summarize_qos,
)
from repro.obs.snapshots import (
    FailSpec,
    check_regressions,
    diff_snapshots,
    load_snapshot,
    parse_fail_spec,
    render_diff,
    summarize_snapshot,
    validate_prometheus,
)
from repro.obs.tracing import NOOP_TRACER, Span, TickClock, Tracer, spans_to_chrome

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "Telemetry",
    "DEFAULT_LATENCY_BUCKETS",
    "Span",
    "Tracer",
    "TickClock",
    "NOOP_TRACER",
    "spans_to_chrome",
    "load_snapshot",
    "summarize_snapshot",
    "label_snapshot",
    "merge_snapshots",
    "merge_all",
    "diff_snapshots",
    "render_diff",
    "FailSpec",
    "parse_fail_spec",
    "check_regressions",
    "snapshot_to_prometheus",
    "validate_prometheus",
    "QoSLedger",
    "build_qos_section",
    "extract_qos",
    "flatten_qos",
    "diff_qos",
    "summarize_qos",
    "FPS_RESIDUAL_BUCKETS",
    "QOS_MINUTES_BUCKETS",
    "BURN_RATE_BUCKETS",
]
