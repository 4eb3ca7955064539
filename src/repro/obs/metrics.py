"""Serving telemetry: counters, gauges and fixed-bucket latency histograms.

The broker and admission controller record everything an operator would
scrape from a real dispatcher — request/admission/fallback counts and
per-decision latency distributions — without any external dependency.
Histograms use fixed upper-bound buckets (Prometheus-style ``le`` edges)
so snapshots from different processes are mergeable by bucket-wise
addition: :func:`merge_snapshots` combines two snapshots into exactly the
snapshot one process observing both workloads would have produced.
:meth:`Telemetry.snapshot` returns plain dicts/lists/floats, directly
serializable with :func:`json.dumps`, and
:meth:`Telemetry.to_prometheus` renders the standard text exposition
format for scraping.

Metrics optionally carry **labels**: ``telemetry.counter("decisions",
policy="cm-feasible")`` returns a child counter keyed by the label set,
reported in the snapshot under the ``labeled`` key so the unlabeled
top-level keys stay byte-compatible with older snapshots.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager

__all__ = [
    "BoundInstruments",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "Telemetry",
    "label_snapshot",
    "merge_snapshots",
    "merge_all",
    "snapshot_to_prometheus",
    "DEFAULT_LATENCY_BUCKETS",
    "MAX_EVENTS",
]

#: Cap on retained events: a misbehaving component (a flapping breaker, a
#: chaos run with extreme rates) must not grow the snapshot without bound.
MAX_EVENTS = 10_000

#: Default latency bucket upper bounds in seconds: 50us .. 1s, log-ish spaced.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    5e-5,
    1e-4,
    2.5e-4,
    5e-4,
    1e-3,
    2.5e-3,
    5e-3,
    1e-2,
    2.5e-2,
    5e-2,
    1e-1,
    2.5e-1,
    5e-1,
    1.0,
)


def _label_key(labels: dict) -> tuple:
    """Canonical hashable form of a label set (sorted, stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing integer counter."""

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = {str(k): str(v) for k, v in (labels or {}).items()}
        self._value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0 — counters never decrease)."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        self._value += n

    @property
    def value(self) -> int:
        """Current count."""
        return self._value


class Gauge:
    """A value that can move both ways (pool size, live sessions, mode)."""

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = {str(k): str(v) for k, v in (labels or {}).items()}
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        """Move the gauge up by ``n``."""
        self._value += n

    def dec(self, n: float = 1.0) -> None:
        """Move the gauge down by ``n``."""
        self._value -= n

    @property
    def value(self) -> float:
        """Current value."""
        return self._value


class LatencyHistogram:
    """Fixed-bucket histogram of observed durations (seconds).

    Buckets are cumulative-style upper bounds; observations above the last
    edge land in an implicit +inf overflow bucket.  Tracks count and sum,
    so both mean and bucketed quantile estimates are available.
    """

    def __init__(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        labels: dict | None = None,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.labels = {str(k): str(v) for k, v in (labels or {}).items()}
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # + overflow
        self._count = 0
        self._total = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration."""
        if seconds < 0:
            raise ValueError(f"negative duration {seconds}")
        # The first edge >= seconds; NaN (never <= an edge) overflows.
        at = bisect_left(self.buckets, seconds) if seconds == seconds else -1
        self._counts[at] += 1
        self._count += 1
        self._total += seconds

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of observed durations (seconds)."""
        return self._total

    @property
    def mean(self) -> float:
        """Mean observed duration (0.0 before any observation)."""
        return self._total / self._count if self._count else 0.0

    @property
    def overflow_count(self) -> int:
        """Observations above the last finite bucket edge."""
        return self._counts[-1]

    def quantile(self, q: float) -> float:
        """Bucketed quantile estimate: the upper edge of the q-th bucket.

        A quantile that lands in the overflow bucket returns
        ``math.inf`` — the histogram only knows those observations
        exceeded the last edge, and reporting the edge itself would
        silently understate the tail.  Returns 0.0 before any
        observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = math.ceil(q * self._count)
        running = 0
        for i, n in enumerate(self._counts[:-1]):
            running += n
            if running >= rank:
                return self.buckets[i]
        return math.inf

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s observations in (bucket edges must match)."""
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge mismatched bucket "
                f"edges {other.buckets} into {self.buckets}"
            )
        for i, n in enumerate(other._counts):
            self._counts[i] += n
        self._count += other._count
        self._total += other._total

    def to_dict(self) -> dict:
        """JSON-able snapshot: count, total, mean, p50/p99, bucket counts."""
        return {
            "count": self._count,
            "total_s": self._total,
            "mean_s": self.mean,
            "p50_s": self.quantile(0.5),
            "p99_s": self.quantile(0.99),
            "overflow_count": self._counts[-1],
            "buckets": [
                {"le_s": edge, "count": n}
                for edge, n in zip(self.buckets, self._counts)
            ]
            + [{"le_s": None, "count": self._counts[-1]}],
        }

    @classmethod
    def from_dict(cls, name: str, data: dict) -> "LatencyHistogram":
        """Rebuild a histogram from its :meth:`to_dict` form.

        Individual observations are gone, but bucket counts, count and
        total — everything mean/quantile estimation uses — survive, which
        is what makes snapshot merging exact.  A dict without buckets
        (a hand-built or truncated snapshot) degrades gracefully: the
        default edges with every observation in overflow, rather than a
        ``KeyError`` out of :func:`merge_snapshots`.
        """
        count = int(data.get("count", 0))
        total = float(data.get("total_s", 0.0))
        entries = data.get("buckets")
        if not entries:
            hist = cls(name)
            hist._counts[-1] = count  # all mass in overflow: edges unknown
            hist._count = count
            hist._total = total
            return hist
        edges = tuple(b["le_s"] for b in entries if b["le_s"] is not None)
        hist = cls(name, buckets=edges)
        hist._counts = [int(b["count"]) for b in entries]
        hist._count = count
        hist._total = total
        return hist


class BoundInstruments(dict):
    """``key -> make(key)``, resolved on first use: a hot path's instruments.

    A hit is a dict lookup (no registry call, no label-key sort); a miss
    creates the instrument exactly when a direct call would have.
    """

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        instrument = self[key] = self.make(key)
        return instrument


class Telemetry:
    """Registry of named counters, gauges and histograms with one snapshot.

    Metrics are created on first use, so instrumented code never has to
    pre-declare what it records.  Passing keyword labels returns a child
    metric dedicated to that label set.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._labeled_counters: dict[str, dict[tuple, Counter]] = {}
        self._labeled_gauges: dict[str, dict[tuple, Gauge]] = {}
        self._labeled_histograms: dict[str, dict[tuple, LatencyHistogram]] = {}
        self._events: deque[dict] = deque(maxlen=MAX_EVENTS)
        self._events_dropped = 0

    def counter(self, name: str, **labels) -> Counter:
        """The named counter (created at zero on first use).

        With labels, the child counter for that exact label set.
        """
        if labels:
            children = self._labeled_counters.setdefault(name, {})
            key = _label_key(labels)
            if key not in children:
                children[key] = Counter(name, labels)
            return children[key]
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str, **labels) -> Gauge:
        """The named gauge (created at zero on first use)."""
        if labels:
            children = self._labeled_gauges.setdefault(name, {})
            key = _label_key(labels)
            if key not in children:
                children[key] = Gauge(name, labels)
            return children[key]
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels,
    ) -> LatencyHistogram:
        """The named histogram (created empty on first use)."""
        if labels:
            children = self._labeled_histograms.setdefault(name, {})
            key = _label_key(labels)
            if key not in children:
                children[key] = LatencyHistogram(name, buckets, labels)
            return children[key]
        if name not in self._histograms:
            self._histograms[name] = LatencyHistogram(name, buckets)
        return self._histograms[name]

    @contextmanager
    def time(self, name: str, **labels):
        """Context manager observing the block's wall time into ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(name, **labels).observe(time.perf_counter() - start)

    def event(self, name: str, **fields) -> None:
        """Append a structured event (breaker trip, mode change, crash...).

        Events form an ordered log next to the aggregate counters — the
        "what happened when" an operator needs after an incident.  At most
        :data:`MAX_EVENTS` are retained (a bounded deque, O(1) per
        append); older ones are dropped and the exact drop count is
        surfaced in the snapshot.
        """
        if len(self._events) == MAX_EVENTS:
            self._events_dropped += 1
        self._events.append({"event": name, **fields})

    @property
    def events(self) -> list[dict]:
        """The retained event log (oldest first)."""
        return list(self._events)

    def snapshot(self) -> dict:
        """All metrics as plain JSON-serializable types.

        The ``counters`` / ``histograms`` / ``events`` /
        ``events_dropped`` keys keep their original (unlabeled) shape;
        gauges and labeled child metrics are added under the new
        ``gauges`` and ``labeled`` keys.
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
            "labeled": {
                "counters": {
                    name: [
                        {"labels": child.labels, "value": child.value}
                        for _, child in sorted(children.items())
                    ]
                    for name, children in sorted(self._labeled_counters.items())
                },
                "gauges": {
                    name: [
                        {"labels": child.labels, "value": child.value}
                        for _, child in sorted(children.items())
                    ]
                    for name, children in sorted(self._labeled_gauges.items())
                },
                "histograms": {
                    name: [
                        {"labels": child.labels, **child.to_dict()}
                        for _, child in sorted(children.items())
                    ]
                    for name, children in sorted(self._labeled_histograms.items())
                },
            },
            "events": list(self._events),
            "events_dropped": self._events_dropped,
        }

    def to_prometheus(self) -> str:
        """Current metrics in the Prometheus text exposition format."""
        return snapshot_to_prometheus(self.snapshot())


# ----------------------------------------------------------------------
# Snapshot-level operations: merging and Prometheus rendering work on the
# plain-dict snapshot form, so they apply equally to live Telemetry
# instances and to snapshots loaded back from JSON files.


def _merge_histogram_dicts(name: str, a: dict, b: dict) -> dict:
    merged = LatencyHistogram.from_dict(name, a)
    merged.merge(LatencyHistogram.from_dict(name, b))
    return merged.to_dict()


def _merge_labeled(kind: str, a: dict, b: dict) -> dict:
    """Merge the per-name lists of labeled children from two snapshots.

    Disjoint metric names pass through untouched; an entry missing its
    ``labels`` dict (hand-built snapshots) is treated as unlabeled
    rather than raising.
    """
    out: dict[str, list] = {}
    for name in sorted(set(a) | set(b)):
        by_labels: dict[tuple, dict] = {}
        for entry in list(a.get(name, ())) + list(b.get(name, ())):
            key = _label_key(entry.get("labels", {}))
            if key not in by_labels:
                by_labels[key] = dict(entry)
            elif kind == "histograms":
                labels = by_labels[key].get("labels", {})
                merged = _merge_histogram_dicts(name, by_labels[key], entry)
                by_labels[key] = {"labels": labels, **merged}
            else:
                by_labels[key]["value"] += entry["value"]
        out[name] = [by_labels[key] for key in sorted(by_labels)]
    return out


def label_snapshot(snapshot: dict, **labels) -> dict:
    """Return ``snapshot`` re-labeled with ``labels`` on every metric.

    The transformation the sharded serving tier applies before merging
    per-shard snapshots: every *unlabeled* counter/gauge/histogram stays
    at the top level (so :func:`merge_snapshots` still sums fleet-wide
    totals) **and** gains a labeled child carrying exactly ``labels``
    (e.g. ``shard="2"``); every existing labeled child gains the same
    labels on top of its own (the new labels win on collision).  Events
    gain the label fields verbatim.  Merging the labeled snapshots of N
    shards therefore yields fleet totals at the top level plus intact
    per-shard series under ``labeled`` — one snapshot, both views, and
    the Prometheus exposition renders the per-shard series with the
    ``shard`` label attached.

    Keys outside the snapshot schema (e.g. a broker report's folded-in
    ``caches``) are dropped, matching :func:`merge_snapshots`.
    """
    if not labels:
        raise ValueError("label_snapshot needs at least one label")
    clean = {str(k): str(v) for k, v in labels.items()}

    def relabel_children(children: list) -> list:
        out = []
        for entry in children:
            entry = dict(entry)
            entry["labels"] = {**entry["labels"], **clean}
            out.append(entry)
        return out

    labeled_in = snapshot.get("labeled", {})
    labeled = {
        kind: {
            name: relabel_children(children)
            for name, children in labeled_in.get(kind, {}).items()
        }
        for kind in ("counters", "gauges", "histograms")
    }
    for name, value in snapshot.get("counters", {}).items():
        labeled["counters"].setdefault(name, []).append(
            {"labels": dict(clean), "value": value}
        )
    for name, value in snapshot.get("gauges", {}).items():
        labeled["gauges"].setdefault(name, []).append(
            {"labels": dict(clean), "value": value}
        )
    for name, data in snapshot.get("histograms", {}).items():
        labeled["histograms"].setdefault(name, []).append(
            {"labels": dict(clean), **data}
        )
    return {
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": {
            name: dict(data) for name, data in snapshot.get("histograms", {}).items()
        },
        "labeled": labeled,
        "events": [{**event, **labels} for event in snapshot.get("events", ())],
        "events_dropped": int(snapshot.get("events_dropped", 0)),
    }


def merge_snapshots(a: dict, b: dict) -> dict:
    """Combine two :meth:`Telemetry.snapshot` dicts into one.

    Counters and gauges add; histograms add bucket-wise (matching edges
    required) with count/total/quantiles recomputed from the merged
    buckets, so merging snapshots from a split workload reproduces the
    single-run snapshot exactly.  Event logs concatenate (``a`` first)
    under the same :data:`MAX_EVENTS` cap.  Keys outside the snapshot
    schema (e.g. the broker's folded-in ``caches``) are dropped.
    """
    counters = {
        name: a.get("counters", {}).get(name, 0) + b.get("counters", {}).get(name, 0)
        for name in sorted(set(a.get("counters", {})) | set(b.get("counters", {})))
    }
    gauges = {
        name: a.get("gauges", {}).get(name, 0.0) + b.get("gauges", {}).get(name, 0.0)
        for name in sorted(set(a.get("gauges", {})) | set(b.get("gauges", {})))
    }
    histograms = {}
    hists_a, hists_b = a.get("histograms", {}), b.get("histograms", {})
    for name in sorted(set(hists_a) | set(hists_b)):
        if name in hists_a and name in hists_b:
            histograms[name] = _merge_histogram_dicts(name, hists_a[name], hists_b[name])
        else:
            source = hists_a.get(name, hists_b.get(name))
            # Round-trip through the class so derived fields are canonical.
            histograms[name] = LatencyHistogram.from_dict(name, source).to_dict()
    labeled_a, labeled_b = a.get("labeled", {}), b.get("labeled", {})
    labeled = {
        kind: _merge_labeled(kind, labeled_a.get(kind, {}), labeled_b.get(kind, {}))
        for kind in ("counters", "gauges", "histograms")
    }
    events = list(a.get("events", ())) + list(b.get("events", ()))
    dropped = int(a.get("events_dropped", 0)) + int(b.get("events_dropped", 0))
    if len(events) > MAX_EVENTS:
        dropped += len(events) - MAX_EVENTS
        events = events[-MAX_EVENTS:]
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "labeled": labeled,
        "events": events,
        "events_dropped": dropped,
    }


def merge_all(snapshots) -> dict:
    """Fold any iterable of snapshots through :func:`merge_snapshots`.

    The reduce-with-initial-value the sharded tier's reporting wants: an
    empty iterable yields a valid empty snapshot (the shape
    ``Telemetry().snapshot()`` produces) instead of raising, and one
    snapshot comes back normalized through a merge with the empty
    snapshot rather than passed through by reference.
    """
    merged = Telemetry().snapshot()
    for snapshot in snapshots:
        merged = merge_snapshots(merged, snapshot)
    return merged


def _prom_name(name: str) -> str:
    """Sanitize a metric name to the Prometheus charset."""
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _prom_labels(labels: dict, extra: list[tuple[str, str]] | None = None) -> str:
    items = [(str(k), str(v)) for k, v in sorted(labels.items())] + (extra or [])
    if not items:
        return ""
    rendered = ",".join(
        f'{_prom_name(k)}="{_escape_label(v)}"' for k, v in items
    )
    return "{" + rendered + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _prom_histogram_lines(name: str, labels: dict, data: dict) -> list[str]:
    lines = []
    cumulative = 0
    for bucket in data["buckets"]:
        cumulative += bucket["count"]
        le = "+Inf" if bucket["le_s"] is None else _prom_number(bucket["le_s"])
        lines.append(
            f"{name}_bucket{_prom_labels(labels, [('le', le)])} {cumulative}"
        )
    lines.append(f"{name}_sum{_prom_labels(labels)} {_prom_number(data['total_s'])}")
    lines.append(f"{name}_count{_prom_labels(labels)} {data['count']}")
    return lines


def snapshot_to_prometheus(snapshot: dict) -> str:
    """Render a snapshot dict in the Prometheus text exposition format.

    Counters get the conventional ``_total`` suffix, histograms emit
    cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``, and
    labels (both metric labels and the ``le`` edge) are rendered with
    standard escaping.  No external client library involved.
    """
    lines: list[str] = []
    labeled = snapshot.get("labeled", {})

    for name, value in sorted(snapshot.get("counters", {}).items()):
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name, children in sorted(labeled.get("counters", {}).items()):
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        for child in children:
            lines.append(f"{prom}{_prom_labels(child['labels'])} {child['value']}")

    for name, value in sorted(snapshot.get("gauges", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_number(value)}")
    for name, children in sorted(labeled.get("gauges", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        for child in children:
            lines.append(
                f"{prom}{_prom_labels(child['labels'])} "
                f"{_prom_number(child['value'])}"
            )

    for name, data in sorted(snapshot.get("histograms", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        lines.extend(_prom_histogram_lines(prom, {}, data))
    for name, children in sorted(labeled.get("histograms", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        for child in children:
            lines.extend(_prom_histogram_lines(prom, child["labels"], child))

    dropped = snapshot.get("events_dropped")
    if dropped is not None:
        lines.append("# TYPE repro_events_dropped_total counter")
        lines.append(f"repro_events_dropped_total {dropped}")
    return "\n".join(lines) + "\n"
