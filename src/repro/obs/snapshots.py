"""Snapshot file tooling behind the ``repro metrics`` CLI.

Loads telemetry snapshots (bare :meth:`Telemetry.snapshot` dicts, full
``repro serve`` reports, or benchmark result files — anything with a
recognizable snapshot inside), summarizes them for humans and diffs two
runs with configurable regression thresholds so a perf gate is one CLI
call.  Merging and Prometheus rendering live with the metric model in
:mod:`repro.obs.metrics`.

Also home to :func:`validate_prometheus`, a tiny line-format checker for
the text exposition output — enough to keep the exporter parseable in CI
without depending on a real Prometheus client.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

__all__ = [
    "load_snapshot",
    "summarize_snapshot",
    "diff_row",
    "diff_snapshots",
    "FailSpec",
    "parse_fail_spec",
    "check_regressions",
    "render_diff",
    "validate_prometheus",
]

#: Histogram stats a diff row reports and a fail spec may reference.
_HIST_STATS = ("count", "mean_s", "p50_s", "p99_s", "total_s")


def load_snapshot(path) -> dict:
    """Load a telemetry snapshot from ``path``, unwrapping known containers.

    Accepts a bare snapshot (has ``counters``/``histograms``), a ``repro
    serve`` report (snapshot under ``telemetry``), or a benchmark result
    file with the same layout.  Raises ``ValueError`` naming the path for
    anything else.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if isinstance(data, dict) and isinstance(data.get("telemetry"), dict):
        data = data["telemetry"]
    if not isinstance(data, dict) or (
        "counters" not in data and "histograms" not in data
    ):
        raise ValueError(
            f"{path}: no telemetry snapshot found (expected 'counters'/"
            "'histograms' keys, or a report with a 'telemetry' section)"
        )
    return data


def _fmt_seconds(value: float) -> str:
    if value == math.inf:
        return "inf"
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.0f}us"


def summarize_snapshot(snapshot: dict, title: str = "") -> str:
    """Human-readable table of one snapshot's counters/gauges/histograms."""
    lines: list[str] = []
    if title:
        lines.append(f"== {title}")
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:32s} {value:>12}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:32s} {value:>12g}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append(
            f"  {'histogram':32s} {'count':>8s} {'mean':>10s} "
            f"{'p50':>10s} {'p99':>10s} {'overflow':>9s}"
        )
        for name, data in sorted(histograms.items()):
            lines.append(
                f"  {name:32s} {data['count']:>8} "
                f"{_fmt_seconds(data['mean_s']):>10s} "
                f"{_fmt_seconds(data['p50_s']):>10s} "
                f"{_fmt_seconds(data['p99_s']):>10s} "
                f"{data.get('overflow_count', 0):>9}"
            )
    dropped = snapshot.get("events_dropped", 0)
    events = snapshot.get("events", [])
    lines.append(f"events: {len(events)} retained, {dropped} dropped")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Diffing


def diff_row(metric: str, stat: str, old, new) -> dict:
    """One diff row: ``{"metric", "stat", "old", "new", "delta", "ratio"}``.

    ``ratio`` is ``new / old`` (``inf`` for growth from zero).  Equal
    values — including ``inf == inf``, the quantiles of two histograms
    that both overflowed — are delta 0, ratio 1: naive arithmetic gives
    ``nan`` there, which would read as a change.
    """
    if new == old:
        delta, ratio = 0, 1.0
    else:
        delta = new - old
        ratio = new / old if old else math.inf
    return {
        "metric": metric,
        "stat": stat,
        "old": old,
        "new": new,
        "delta": delta,
        "ratio": ratio,
    }


def diff_snapshots(old: dict, new: dict) -> list[dict]:
    """Per-metric deltas between two snapshots.

    Returns one :func:`diff_row` per counter and one per (histogram,
    stat) pair.
    """
    rows: list[dict] = []
    old_counters = old.get("counters", {})
    new_counters = new.get("counters", {})
    for name in sorted(set(old_counters) | set(new_counters)):
        rows.append(
            diff_row(
                name, "value", old_counters.get(name, 0), new_counters.get(name, 0)
            )
        )
    old_hists = old.get("histograms", {})
    new_hists = new.get("histograms", {})
    for name in sorted(set(old_hists) | set(new_hists)):
        o_hist, n_hist = old_hists.get(name, {}), new_hists.get(name, {})
        for stat in _HIST_STATS:
            rows.append(
                diff_row(
                    name,
                    stat,
                    float(o_hist.get(stat, 0.0)),
                    float(n_hist.get(stat, 0.0)),
                )
            )
    return rows


@dataclass(frozen=True)
class FailSpec:
    """One ``--fail-on`` threshold: which stat may grow by how much.

    ``metric=None`` applies the spec to every metric exposing ``stat``
    (e.g. ``p99_s:+20%`` gates the p99 of every histogram); naming a
    metric (``decision_latency_s.p99_s:+20%``) narrows it to one.
    """

    stat: str
    max_increase: float  # fractional: 0.2 == +20%
    metric: str | None = None

    def describe(self) -> str:
        """The spec in its CLI syntax."""
        target = f"{self.metric}.{self.stat}" if self.metric else self.stat
        return f"{target}:+{self.max_increase * 100:g}%"


_FAIL_SPEC_RE = re.compile(
    r"^(?:(?P<metric>[\w.]+)\.)?(?P<stat>\w+):\+(?P<pct>\d+(?:\.\d+)?)%$"
)


def parse_fail_spec(text: str) -> FailSpec:
    """Parse ``[metric.]stat:+N%`` (e.g. ``p99_s:+20%``) into a spec."""
    match = _FAIL_SPEC_RE.match(text.strip())
    if not match:
        raise ValueError(
            f"bad --fail-on spec {text!r} (expected [metric.]stat:+N%, "
            "e.g. p99_s:+20% or decision_latency_s.p99_s:+10%)"
        )
    return FailSpec(
        stat=match.group("stat"),
        max_increase=float(match.group("pct")) / 100.0,
        metric=match.group("metric"),
    )


def check_regressions(rows: list[dict], specs: list[FailSpec]) -> list[dict]:
    """Diff rows breaching any spec's allowed increase.

    A row matches a spec when the stat names agree (and the metric name,
    when the spec has one); it breaches when ``new`` exceeds ``old`` by
    more than the allowed fraction.  Growth from a zero baseline only
    breaches when the new value is nonzero and the allowance is finite.
    """
    breaches = []
    for row in rows:
        for spec in specs:
            if spec.stat != row["stat"] and spec.stat != row["metric"]:
                continue
            if spec.metric is not None and spec.metric != row["metric"]:
                continue
            old, new = float(row["old"]), float(row["new"])
            limit = old * (1.0 + spec.max_increase)
            if (old == 0 and new > 0) or (old > 0 and new > limit):
                breaches.append({**row, "spec": spec.describe()})
    return breaches


def render_diff(rows: list[dict], *, only_changed: bool = True) -> str:
    """Diff rows as an aligned text table."""
    shown = [r for r in rows if not only_changed or r["delta"] != 0]
    if not shown:
        return "no differences"
    lines = [
        f"{'metric':32s} {'stat':8s} {'old':>12s} {'new':>12s} {'change':>9s}"
    ]
    for row in shown:
        ratio = row["ratio"]
        change = "new" if ratio == math.inf else f"{(ratio - 1.0) * 100:+.1f}%"
        lines.append(
            f"{row['metric']:32s} {row['stat']:8s} "
            f"{row['old']:>12.6g} {row['new']:>12.6g} {change:>9s}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus exposition checking

_PROM_COMMENT_RE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
_PROM_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"  # labels
    r" (?:[+-]?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|Inf)|NaN)$"  # value
)


def _prom_family(name: str, types: dict[str, str]) -> str:
    """The family a sample named ``name`` belongs to, given the TYPEs so far
    (a histogram's or summary's ``_bucket``/``_sum``/``_count`` series
    belong to it)."""
    for suffix in ("_bucket", "_sum", "_count"):
        base = name.removesuffix(suffix)
        if base != name and types.get(base) in ("histogram", "summary"):
            return base
    return name


def validate_prometheus(text: str) -> list[str]:
    """Check ``text`` against the exposition line format.

    Returns a list of error strings (empty = valid): every non-empty line
    must be a ``# HELP``/``# TYPE`` comment or a ``name{labels} value``
    sample, each family may be declared by one ``# TYPE`` line only, and
    a family's samples must be contiguous (not split by another
    family's).  Intentionally small — a format tripwire, not a full
    parser.
    """
    errors = []
    types: dict[str, str] = {}
    current, left = None, set()  # the family being read, families left
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if not _PROM_COMMENT_RE.match(line):
                errors.append(f"line {i}: malformed comment: {line!r}")
                continue
            if not line.startswith("# TYPE "):
                continue
            family, kind = line.split(" ", 3)[2:]
            if family in types:
                errors.append(f"line {i}: duplicate TYPE for family {family}")
            types[family] = kind
        else:
            match = _PROM_SAMPLE_RE.match(line)
            if not match:
                errors.append(f"line {i}: malformed sample: {line!r}")
                continue
            family = _prom_family(match.group(1), types)
            if family != current and family in left:
                errors.append(f"line {i}: family {family} split by another family")
        if family != current:
            left.add(current)
            current = family
    if text and not text.endswith("\n"):
        errors.append("exposition must end with a newline")
    return errors
