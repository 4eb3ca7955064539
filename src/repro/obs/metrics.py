"""Serving telemetry: counters, gauges and fixed-bucket latency histograms.

The broker and admission controller record everything an operator would
scrape from a real dispatcher — request/admission/fallback counts and
per-decision latency distributions — without any external dependency.
Histograms use fixed upper-bound buckets (Prometheus-style ``le`` edges)
so registries from different processes merge exactly by bucket-wise
addition (:meth:`Telemetry.merge`).  :class:`Telemetry` is the one metric
model: its JSON snapshot is just its serialization
(:meth:`~Telemetry.snapshot` / :meth:`~Telemetry.from_snapshot`), and
the snapshot-level operations below load, act on the instruments, dump.

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

#: Cap on retained events: a misbehaving component (a flapping shard, a
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


class _Instrument:
    """What every instrument has: a metric name and a (string) label set."""

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = {str(k): str(v) for k, v in (labels or {}).items()}


class _Scalar(_Instrument):
    """A single-number instrument; its snapshot payload is the number.
    Subclasses set a class-level zero ``_value`` that writes shadow."""

    @classmethod
    def _load(cls, name: str, value) -> "_Scalar":
        made = cls(name)
        made._value = value
        return made

    def _spawn(self, labels: dict | None) -> "_Scalar":
        return type(self)(self.name, labels)

    def _merge(self, other: "_Scalar") -> None:
        self._value += other._value

    def _dump(self):
        return self._value

    def _entry(self) -> dict:
        return {"labels": self.labels, "value": self._value}

    def _prom_lines(self, prom: str) -> list[str]:
        return [f"{prom}{_prom_labels(self.labels)} {_prom_number(self._value)}"]

    @property
    def value(self):
        """Current value."""
        return self._value


class Counter(_Scalar):
    """A monotonically increasing integer counter."""

    _value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0 — counters never decrease)."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        self._value += n


class Gauge(_Scalar):
    """A value that can move both ways (pool size, live sessions)."""

    _value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        """Move the gauge up by ``n``."""
        self._value += n

    def dec(self, n: float = 1.0) -> None:
        """Move the gauge down by ``n``."""
        self._value -= n


class LatencyHistogram(_Instrument):
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
        super().__init__(name, labels)
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
        entries = data.get("buckets")
        if entries:
            hist = cls(name, tuple(b["le_s"] for b in entries if b["le_s"] is not None))
            hist._counts = [int(b["count"]) for b in entries]
        else:
            hist = cls(name)
            hist._counts[-1] = count  # all mass in overflow: edges unknown
        hist._count = count
        hist._total = float(data.get("total_s", 0.0))
        return hist

    _load = from_dict
    _merge = merge

    def _spawn(self, labels: dict | None) -> "LatencyHistogram":
        return LatencyHistogram(self.name, self.buckets, labels)

    _dump = to_dict

    def _entry(self) -> dict:
        return {"labels": self.labels, **self.to_dict()}

    def _prom_lines(self, prom: str) -> list[str]:
        lines = []
        cumulative = 0
        for edge, n in zip(self.buckets + (math.inf,), self._counts):
            cumulative += n
            le = [("le", _prom_number(edge))]
            lines.append(f"{prom}_bucket{_prom_labels(self.labels, le)} {cumulative}")
        labels = _prom_labels(self.labels)
        lines.append(f"{prom}_sum{labels} {_prom_number(self._total)}")
        lines.append(f"{prom}_count{labels} {self._count}")
        return lines


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


#: Snapshot section -> (instrument class, Prometheus type, sample suffix).
_KINDS = {
    "counters": (Counter, "counter", "_total"),
    "gauges": (Gauge, "gauge", ""),
    "histograms": (LatencyHistogram, "histogram", ""),
}


def _get(store: dict, kind, name: str, labels: dict, *args):
    """Get-or-create: the unlabeled ``name`` or its child for ``labels``."""
    key = (name, _label_key(labels)) if labels else name
    found = store.get(key)
    if found is None:
        found = store[key] = kind(name, *args, labels=labels)
    return found


def _absorb(store: dict, instrument, labels: dict | None) -> None:
    """Add ``instrument`` into ``store``'s series for ``labels``.

    ``None`` is the unlabeled series; a label set (even an empty one) is
    a labeled child.  The series is created empty on first sight, so the
    store never aliases an instrument it was handed.
    """
    key = instrument.name if labels is None else (instrument.name, _label_key(labels))
    mine = store.get(key)
    if mine is None:
        mine = store[key] = instrument._spawn(labels)
    mine._merge(instrument)


class Telemetry:
    """Registry of named counters, gauges and histograms with one snapshot.

    Metrics are created on first use, so instrumented code never has to
    pre-declare what it records.  Passing keyword labels returns a child
    metric dedicated to that label set.  One store per kind holds both:
    the unlabeled instrument under its ``name``, a labeled child under
    ``(name, label key)``.
    """

    def __init__(self):
        self._stores: dict[str, dict] = {kind: {} for kind in _KINDS}
        self._counters, self._gauges, self._histograms = self._stores.values()
        self._events: deque[dict] = deque(maxlen=MAX_EVENTS)
        self._events_dropped = 0

    def counter(self, name: str, **labels) -> Counter:
        """The named counter (created at zero on first use).

        With labels, the child counter for that exact label set.
        """
        return _get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The named gauge (created at zero on first use)."""
        return _get(self._gauges, Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels,
    ) -> LatencyHistogram:
        """The named histogram (created empty on first use)."""
        return _get(self._histograms, LatencyHistogram, name, labels, buckets)

    @contextmanager
    def time(self, name: str, **labels):
        """Context manager observing the block's wall time into ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(name, **labels).observe(time.perf_counter() - start)

    def event(self, name: str, **fields) -> None:
        """Append a structured event (server crash, shard outage...).

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

    def merge(self, other: "Telemetry") -> None:
        """Fold ``other`` in, series by series.

        Counters and gauges add; histograms add bucket-wise (matching
        edges required, else ``ValueError``), so merging the registries of
        a split workload reproduces the single-run registry exactly.
        ``other``'s events are appended under the same :data:`MAX_EVENTS`
        cap with an exact drop count.  ``other`` is left untouched.
        """
        for kind, store in self._stores.items():
            for labels, instrument in other.series(kind):
                _absorb(store, instrument, labels)
        self._log(other._events, other._events_dropped)

    def series(self, kind: str):
        """Yield ``(labels, instrument)`` for every ``kind`` series, in export
        order: names sorted, each name's unlabeled series (``labels`` is
        ``None``) first, then its children by label key.  Reads only: no
        instrument is created.
        """
        for key, instrument in sorted(
            self._stores[kind].items(),
            key=lambda item: item[0] if item[0].__class__ is tuple else (item[0],),
        ):
            yield (None if key.__class__ is str else instrument.labels), instrument

    def _log(self, events, dropped: int) -> None:
        """Append ``events`` under the cap; count ``dropped`` + overflow."""
        overflow = len(self._events) + len(events) - MAX_EVENTS
        self._events_dropped += dropped + max(0, overflow)
        self._events.extend(events)

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "Telemetry":
        """The registry :meth:`snapshot` serialized (its inverse).

        Lenient with hand-built or foreign snapshots: keys outside the
        schema (e.g. a broker report's folded-in ``caches``) are ignored,
        a labeled entry without ``labels`` stays a labeled child (with no
        labels), a labeled counter or gauge without ``value`` reads 0, and
        a histogram without buckets keeps its count in overflow
        (:meth:`LatencyHistogram.from_dict`).
        """
        telemetry = cls()
        labeled = snapshot.get("labeled", {})
        for kind, store in telemetry._stores.items():
            load = _KINDS[kind][0]._load
            for name, data in snapshot.get(kind, {}).items():
                _absorb(store, load(name, data), None)
            for name, entries in labeled.get(kind, {}).items():
                for entry in entries:
                    payload = entry if kind == "histograms" else entry.get("value", 0)
                    _absorb(store, load(name, payload), entry.get("labels", {}))
        dropped = int(snapshot.get("events_dropped", 0))
        telemetry._log(snapshot.get("events", ()), dropped)
        return telemetry

    def snapshot(self) -> dict:
        """All metrics as plain JSON-serializable types.

        The ``counters`` / ``histograms`` / ``events`` /
        ``events_dropped`` keys keep their original (unlabeled) shape;
        gauges and labeled child metrics are added under the new
        ``gauges`` and ``labeled`` keys.  Names are sorted, and so are
        each name's children (by label key).
        """
        snap: dict = {kind: {} for kind in _KINDS}
        labeled: dict = {kind: {} for kind in _KINDS}
        for kind in _KINDS:
            for labels, instrument in self.series(kind):
                if labels is None:
                    snap[kind][instrument.name] = instrument._dump()
                else:
                    labeled[kind].setdefault(instrument.name, []).append(
                        instrument._entry()
                    )
        snap["labeled"] = labeled
        snap["events"] = list(self._events)
        snap["events_dropped"] = self._events_dropped
        return snap

    def to_prometheus(self) -> str:
        """Current metrics in the Prometheus text exposition format.

        Counters get the conventional ``_total`` suffix, histograms emit
        cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``,
        and labels (both metric labels and the ``le`` edge) are rendered
        with standard escaping.  Each family — a metric name of one kind
        — is exported once: one ``# TYPE`` line, then its unlabeled
        series, then its children in label-key order.
        """
        lines: list[str] = []
        for kind, (_, prom_type, suffix) in _KINDS.items():
            family = None
            for _, instrument in self.series(kind):
                prom = _prom_name(instrument.name) + suffix
                if instrument.name != family:
                    family = instrument.name
                    lines.append(f"# TYPE {prom} {prom_type}")
                lines.extend(instrument._prom_lines(prom))
        lines.append("# TYPE repro_events_dropped_total counter")
        lines.append(f"repro_events_dropped_total {self._events_dropped}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Snapshot-level operations: each loads snapshots into a registry, acts
# on its instruments and dumps the result, so they apply equally to live
# Telemetry instances and to snapshots loaded back from JSON files.


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
    source = Telemetry.from_snapshot(snapshot)
    relabeled = Telemetry()
    for kind, store in relabeled._stores.items():
        for own, instrument in source.series(kind):
            if own is None:
                _absorb(store, instrument, None)
            _absorb(store, instrument, {**instrument.labels, **labels})
    events = [{**event, **labels} for event in source._events]
    relabeled._log(events, source._events_dropped)
    return relabeled.snapshot()


def merge_all(snapshots) -> dict:
    """Merge any iterable of snapshots into one (:meth:`Telemetry.merge`).

    Counters and gauges add; histograms add bucket-wise (matching edges
    required) with count/total/quantiles recomputed from the merged
    buckets.  Event logs concatenate in order under the :data:`MAX_EVENTS`
    cap.  An empty iterable yields a valid empty snapshot (the shape
    ``Telemetry().snapshot()`` produces), and one snapshot comes back
    normalized rather than passed through by reference.  Keys outside the
    snapshot schema (e.g. the broker's folded-in ``caches``) are dropped.
    """
    merged = Telemetry()
    for snapshot in snapshots:
        merged.merge(Telemetry.from_snapshot(snapshot))
    return merged.snapshot()


def merge_snapshots(a: dict, b: dict) -> dict:
    """Combine two snapshots into one, ``a`` first (see :func:`merge_all`)."""
    return merge_all((a, b))


def snapshot_to_prometheus(snapshot: dict) -> str:
    """Render a snapshot dict in the Prometheus text exposition format
    (:meth:`Telemetry.to_prometheus`).  No external client library."""
    return Telemetry.from_snapshot(snapshot).to_prometheus()


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
