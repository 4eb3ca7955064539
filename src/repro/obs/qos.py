"""Session QoS ledger: ground-truth FPS accounting and SLO burn tracking.

GAugur's whole premise is that the interference model's FPS predictions
are trustworthy enough to pack sessions aggressively.  Everything the
serving stack reports, though, is *about the decision path* — latencies,
fallbacks, policy errors — not about whether admitted sessions actually
received the FPS the predictor promised.  The :class:`QoSLedger` closes
that loop:

* it observes every fleet mutation (placements, departures, crash and
  migration evictions) through the :class:`repro.placement.FleetState`
  observer hooks,
* recomputes **ground-truth FPS** for every session in each affected
  colocation group with the simulator's interference model
  (:func:`repro.simulator.measurement.run_colocations`; the ledger is
  also the offline simulator's only scorer) — not inside the hook, where no
  decision would read it, but when the ledger itself first needs the
  value, together with every other composition waiting by then and the
  composition each of their servers will have after its next departure —
  and
* fixes each session's **promise** at admission time: the FPS the
  predictor's regression model claimed the session would get in its
  post-placement group (priced with the next read's batch, or at the
  session's own close if that comes first).

When a session's record closes (departure, eviction, or end-of-run
finalization) the ledger books exactly one calibration sample — the
residual between promise and the session's time-weighted mean actual
FPS — plus its SLO accounting: minutes spent below the FPS target, an
error-budget burn rate, and threshold events when the budget is
exhausted mid-flight.

Everything is recorded into merge-safe :class:`repro.obs.metrics`
primitives (histograms and counters, never derived gauges), labeled per
game and genre, so the sharded tier's existing ``label_snapshot`` +
``merge_snapshots`` machinery yields an exact fleet-wide calibration
picture: MAE, signed bias and p95 absolute error computed from *merged*
histograms equal what one giant ledger would have reported.
:meth:`QoSLedger.section` derives the ``qos`` section of a
:class:`~repro.serving.broker.ServingReport` from the ledger's live
registry in one read-only pass, and :func:`build_qos_section` the same
section from any (possibly merged) telemetry snapshot.

The conservation invariant the CI smoke jobs gate on is structural:
every ``fleet_placed`` opens exactly one record and every close path
books exactly one sample, so ``qos_sessions_opened ==
qos_sessions_closed`` after :meth:`QoSLedger.finalize` — at any scale,
under any chaos.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.metrics import Counter, LatencyHistogram, Telemetry, _absorb
from repro.obs.snapshots import diff_row
from repro.obs.tracing import NOOP_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.placement.fleet import Session

__all__ = [
    "FPS_RESIDUAL_BUCKETS",
    "QOS_MINUTES_BUCKETS",
    "BURN_RATE_BUCKETS",
    "QoSLedger",
    "build_qos_section",
    "extract_qos",
    "flatten_qos",
    "diff_qos",
    "summarize_qos",
]

#: Absolute FPS-residual bucket edges.  The default latency buckets top
#: out at 1.0 (seconds); residuals live on an FPS scale, so the edges
#: span sub-frame noise (0.25 FPS) up to a full solo-FPS worth of error.
FPS_RESIDUAL_BUCKETS: tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0, 50.0, 80.0, 120.0,
)

#: Bucket edges for per-session minutes (session time and violation
#: time).  Traces draw durations around a 30-minute mean.
QOS_MINUTES_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 90.0, 120.0, 180.0, 360.0,
)

#: Bucket edges for the per-session SLO burn rate
#: (violation fraction / budget fraction; 1.0 = budget exactly spent).
BURN_RATE_BUCKETS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0,
)


@dataclass
class _OpenRecord:
    """One session's stint on one server, from placement to close."""

    member_id: int
    server_id: int
    session: "Session"
    entry: tuple
    genre: str
    opened_at: float
    promised_fps: float = 0.0
    # (signature, slot) of the newest promise not priced yet; see
    # :meth:`QoSLedger._claim`.
    claim: tuple | None = None
    current_fps: float = 0.0
    # Index in the group's canonical ordering; refreshed by every recompute.
    slot: int = 0
    last_time: float = 0.0
    minutes: float = 0.0
    fps_minutes: float = 0.0
    violation_minutes: float = 0.0
    burned: bool = field(default=False)
    # Resolution-actuator state: whether the session is *currently*
    # served below its request, whether it ever was during this stint,
    # and how long — the `qos_minutes_degraded` integrand.
    degraded: bool = False
    was_degraded: bool = False
    degraded_minutes: float = 0.0


class QoSLedger:
    """Ground-truth FPS accounting over live fleet mutations.

    Attach one ledger per fleet: pass it as ``FleetState(observer=...)``
    (the broker wires this when given a ledger) and drive its clock with
    :meth:`advance` before each batch of mutations.  The ledger never
    mutates the fleet; it mirrors membership from the observer callbacks.

    ``slo_fps`` is the per-session FPS target; ``budget_fraction`` the
    tolerated fraction of a session's lifetime below it (the SLO error
    budget — 0.05 means 5% of the session may run degraded before the
    budget burns).  Ground truth is measured on ``server`` under
    ``config``; the offline simulator
    (:func:`repro.scheduling.dynamic.simulate_sessions`) takes its
    violation-minutes from this ledger's ``slo`` section.
    """

    def __init__(
        self,
        catalog,
        predictor,
        *,
        slo_fps: float,
        budget_fraction: float = 0.05,
        server=None,
        config=None,
        telemetry: Telemetry | None = None,
        tracer: Tracer | None = None,
    ):
        if not slo_fps > 0:
            raise ValueError(f"slo_fps must be positive, got {slo_fps}")
        if not 0.0 < budget_fraction <= 1.0:
            raise ValueError(
                f"budget_fraction must be in (0, 1], got {budget_fraction}"
            )
        if server is None:
            from repro.hardware.server import DEFAULT_SERVER

            server = DEFAULT_SERVER
        if config is None:
            from repro.simulator.measurement import MeasurementConfig

            config = MeasurementConfig()
        self.catalog = catalog
        self.predictor = predictor
        self.slo_fps = float(slo_fps)
        self.budget_fraction = float(budget_fraction)
        from repro.simulator.engine import ColocationEngine

        self.server = server
        self.config = config
        self._engine = ColocationEngine(server)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._measured: dict[tuple, tuple[float, ...]] = {}
        self._promised: dict[tuple, tuple[float, ...]] = {}
        self._genres: dict[str, str] = {}
        self.reset()

    # -- lifecycle ------------------------------------------------------

    def reset(self) -> "QoSLedger":
        """Clear per-run state (records, pending marks and claims, the
        clock), keep caches."""
        self._servers: dict[int, dict[int, _OpenRecord]] = {}
        # server id -> (signature, slot-ordered records) of a composition
        # not measured yet; see :meth:`_flush`.
        self._pending: dict[int, tuple[tuple, list[_OpenRecord]]] = {}
        # signature -> records whose promise waits for it, in first-claim
        # order; see :meth:`_price`.
        self._claims: dict[tuple, list[_OpenRecord]] = {}
        self._now = 0.0
        self._evict_reason = "evicted"
        self.opened = 0
        self.closed = 0
        return self

    def instrument(self, *, telemetry: Telemetry | None = None,
                   tracer: Tracer | None = None) -> None:
        """Redirect output to a caller's telemetry registry and tracer.

        The broker calls this so qos metrics land in the same snapshot
        as the serving metrics (and therefore in the same Prometheus
        exposition and the same sharded merge).
        """
        if telemetry is not None:
            self.telemetry = telemetry
        if tracer is not None:
            self.tracer = tracer

    def advance(self, now: float) -> None:
        """Move the ledger clock forward (monotonic; never rewinds)."""
        if now > self._now:
            self._now = now

    @property
    def open_records(self) -> int:
        """Records placed but not yet closed."""
        return self.opened - self.closed

    # -- FleetState observer hooks --------------------------------------

    def fleet_placed(self, server_id: int, member_id: int, session: "Session") -> None:
        """A session was placed (admission, readmission, or migration-in)."""
        now = self._now
        members = self._servers.setdefault(server_id, {})
        self._accrue(server_id, members.values(), now)
        degraded = session.degraded
        record = _OpenRecord(
            member_id=member_id,
            server_id=server_id,
            session=session,
            entry=self._entry(session),
            genre=self._genre(session.game),
            opened_at=now,
            last_time=now,
            degraded=degraded,
            was_degraded=degraded,
        )
        members[member_id] = record
        self._claim(record, self._recompute(server_id, members, op="place"))
        self.opened += 1
        t = self.telemetry
        t.counter("qos_sessions_opened").inc()
        t.gauge("qos_open_sessions").set(self.open_records)

    def fleet_departed(
        self, server_id: int, member_id: int, _session: "Session", when: float
    ) -> None:
        """A session departed normally at ``when``."""
        members = self._servers.get(server_id)
        if members is None or member_id not in members:
            return
        self._accrue(server_id, members.values(), when)
        record = members.pop(member_id)
        self._close(record, reason="departed")
        if members:
            self._recompute(server_id, members, op="depart")
        else:
            self._forget(server_id)

    def fleet_evicted(self, server_id: int, members: list) -> None:
        """A whole server was evicted (crash or planned migration)."""
        open_members = self._servers.pop(server_id, None)
        if open_members is None:
            return
        now = self._now
        self._accrue(server_id, open_members.values(), now)
        reason = self._evict_reason
        self._evict_reason = "evicted"
        for member_id, _ in members:
            record = open_members.pop(member_id, None)
            if record is not None:
                self._close(record, reason=reason)
        # Anything the fleet did not report (should not happen) still
        # closes, so conservation cannot silently break.
        for member_id in sorted(open_members):
            self._close(open_members[member_id], reason=reason)
        self._pending.pop(server_id, None)

    def fleet_resolution_changed(
        self, server_id: int, member_id: int, _old: "Session", new: "Session"
    ) -> None:
        """A member's served resolution changed in place (restore loop).

        Time up to now accrues at the old resolution's measured FPS,
        then the whole group's ground truth is refreshed for the new
        composition.  The changed member gets a fresh promise — like a
        newly placed record, its promise reflects the resolution it is
        *now* served at (its neighbours' promises stay fixed at their own
        admission, exactly as on :meth:`fleet_placed`).  The change is
        logged as a ``resolution_change`` event: together with the
        placement records' degrade fields this is the per-session
        resolution timeline.
        """
        members = self._servers.get(server_id)
        if members is None or member_id not in members:
            return
        now = self._now
        self._accrue(server_id, members.values(), now)
        record = members[member_id]
        old_resolution = str(record.session.resolution)
        degraded = new.degraded
        record.session = new
        record.entry = self._entry(new)
        record.degraded = degraded
        record.was_degraded = record.was_degraded or degraded
        self._claim(record, self._recompute(server_id, members, op="restore"))
        self.telemetry.event(
            "resolution_change",
            time=now,
            server_id=server_id,
            game=new.game,
            old=old_resolution,
            new=str(new.resolution),
        )

    def mark_eviction(self, reason: str) -> None:
        """Label the *next* eviction's close reason (e.g. ``"migrated"``).

        Consumed by the following :meth:`fleet_evicted`; resets to the
        default ``"evicted"`` afterwards.
        """
        self._evict_reason = str(reason)

    def finalize(self) -> None:
        """Close every still-open record at its own departure time.

        Called when the trace ends: remaining sessions run to their
        scheduled departures, shrinking each group in departure order so
        late sessions are credited with the (faster) thinner groups,
        exactly as the fleet would have retired them.  Groups still queued
        for pricing are priced first, even those only superseded claims
        wait for, so ``qos_predictions`` counts every group ever claimed.
        """
        if self._claims:
            self._price()
        pending = [
            (record.session.departure, record.member_id, server_id)
            for server_id, members in self._servers.items()
            for record in members.values()
        ]
        heapq.heapify(pending)
        while pending:
            when, member_id, server_id = heapq.heappop(pending)
            members = self._servers.get(server_id)
            if members is None or member_id not in members:
                continue
            self._accrue(server_id, members.values(), when)
            record = members.pop(member_id)
            self._close(record, reason="departed")
            if members:
                self._recompute(server_id, members, op="finalize")
            else:
                self._forget(server_id)
        self.telemetry.gauge("qos_open_sessions").set(self.open_records)

    # -- report ---------------------------------------------------------

    def section(self, snapshot: dict | None = None) -> dict:
        """The ``qos`` report section of this ledger's live registry, or
        of ``snapshot`` when given (the sharded tier passes its merged
        one); ``{}`` when nothing was recorded."""
        telemetry = (
            self.telemetry if snapshot is None else Telemetry.from_snapshot(snapshot)
        )
        built = _qos_section(telemetry, self.slo_fps, self.budget_fraction)
        return built if built is not None else {}

    # -- internals ------------------------------------------------------

    def _entry(self, session: "Session") -> tuple:
        from repro.placement.signature import entry_of

        return entry_of(session)

    def _genre(self, game: str) -> str:
        genre = self._genres.get(game)
        if genre is None:
            spec = self.catalog.get(game)
            raw = getattr(spec, "genre", None)
            genre = str(getattr(raw, "value", raw)) if raw is not None else "unknown"
            self._genres[game] = genre
        return genre

    def _forget(self, server_id: int) -> None:
        """Drop an emptied server, and whatever it was waiting to measure."""
        del self._servers[server_id]
        self._pending.pop(server_id, None)

    def _accrue(self, server_id: int, records, until: float) -> None:
        """Advance every record's integrals to ``until`` at current FPS.

        ``records`` are server ``server_id``'s.  If its composition is not
        measured yet and time has passed under it, this is the first read
        of that ground truth — the one place a measurement is needed.
        """
        if server_id in self._pending and any(
            until > record.last_time for record in records
        ):
            self._flush(server_id)
        for record in records:
            dt = until - record.last_time
            if dt <= 0:
                continue
            record.last_time = until
            record.minutes += dt
            record.fps_minutes += dt * record.current_fps
            if record.degraded:
                record.degraded_minutes += dt
            if record.current_fps < self.slo_fps:
                record.violation_minutes += dt
                if not record.burned:
                    budget = self.budget_fraction * record.session.duration
                    if record.violation_minutes > budget:
                        record.burned = True
                        self._burn_event(record, until)

    def _burn_event(self, record: _OpenRecord, when: float) -> None:
        t = self.telemetry
        t.counter("slo_burn_events").inc()
        t.counter("slo_burn_events", game=record.session.game).inc()
        t.counter("slo_burn_events", genre=record.genre).inc()
        t.event(
            "slo_burn",
            time=when,
            game=record.session.game,
            server_id=record.server_id,
            violation_minutes=record.violation_minutes,
            budget_minutes=self.budget_fraction * record.session.duration,
        )
        self.tracer.instant(
            "slo_burn", game=record.session.game, server_id=record.server_id
        )

    def _group_signature(self, members) -> tuple[tuple, list[_OpenRecord]]:
        """Canonical signature of a live group and its slot-aligned members.

        Members sort by (entry, member_id): identical entries (same game
        and resolution colocated twice) map onto the measurement's slots
        in admission order, so per-slot simulator noise lands on a
        deterministic session.
        """
        ordered = sorted(members, key=lambda r: (r.entry, r.member_id))
        return tuple(r.entry for r in ordered), ordered

    def _recompute(self, server_id: int, members: dict, *, op: str) -> tuple:
        """Refresh every member's slot, and its ground-truth FPS if known.

        A composition met before is applied from the memo.  A new one is
        only marked pending: no decision reads ground truth, and the
        ledger's own first read is the next :meth:`_accrue` over elapsed
        time (or the close of a zero-lifetime record), so a composition
        replaced before then is never measured at all.  Until the flush,
        members keep the previous composition's ``current_fps``, unread.

        Returns the group's signature, so a caller that goes on to claim
        a promise does not sort the group again.
        """
        sig, ordered = self._group_signature(members.values())
        fps = self._measured.get(sig)
        with self.tracer.span(
            "qos", op=op, server_id=server_id, group=len(ordered),
            cached=fps is not None,
        ):
            for slot, record in enumerate(ordered):
                record.slot = slot
            if fps is None:
                self._pending[server_id] = (sig, ordered)
            else:
                self._pending.pop(server_id, None)
                for record, value in zip(ordered, fps):
                    record.current_fps = value
        return sig

    def _flush(self, server_id: int) -> None:
        """Measure every pending composition, and what comes next, in one batch.

        ``server_id`` is the server whose read forced the flush.  A solve
        costs about the same however many compositions ride in it, so
        each pending server still in ``_servers`` with two or more
        members also brings the group it will have once its member with
        the smallest ``(departure, member_id)`` — the fleet's own order —
        leaves, unless that group is measured already (``ahead`` on the
        span counts them); the departure then finds it in the memo.
        Queued promises are priced first, in one predictor call.

        Each distinct signature is measured once (``qos_measurements``
        counts them) and written to the records it was marked with —
        which may already have left ``_servers``: an evicted server is
        accrued and closed after it is popped.  A measurement is a pure
        function of its signature, whatever batch it rides in, so when
        it runs cannot change what it returns.
        """
        from repro.core.training import ColocationSpec
        from repro.simulator.measurement import run_colocations

        pending = self._pending
        with self.tracer.span("qos", op="flush", server_id=server_id) as span:
            if self._claims:
                self._price()
            batch = dict.fromkeys(sig for sig, _ in pending.values())
            forced = len(batch)
            for sid, (_, ordered) in pending.items():
                if len(ordered) < 2 or sid not in self._servers:
                    continue
                leaving = min(
                    ordered, key=lambda r: (r.session.departure, r.member_id)
                )
                sig = tuple(r.entry for r in ordered if r is not leaving)
                if sig not in self._measured:
                    batch[sig] = None
            sigs = list(batch)
            span.set(compositions=len(sigs), ahead=len(sigs) - forced)
            results = run_colocations(
                [ColocationSpec(sig).instances(self.catalog) for sig in sigs],
                server=self.server,
                config=self.config,
                engine=self._engine,
            )
            for sig, result in zip(sigs, results):
                self._measured[sig] = tuple(float(f) for f in result.fps)
            self.telemetry.counter("qos_measurements").inc(len(sigs))
            for sig, ordered in pending.values():
                for record, value in zip(ordered, self._measured[sig]):
                    record.current_fps = value
        self._pending = {}

    def _claim(self, record: _OpenRecord, sig: tuple) -> None:
        """Promise ``record`` the predictor's FPS for its slot of group ``sig``.

        A group priced before is read at once; a new one is queued for
        :meth:`_price`, and the claim replaces any older unpriced one.
        """
        promised = self._promised.get(sig)
        if promised is not None:
            record.promised_fps = promised[record.slot]
            record.claim = None
        else:
            record.claim = (sig, record.slot)
            self._claims.setdefault(sig, []).append(record)

    def _price(self) -> None:
        """Price every queued group with one predictor call, then its claims.

        ``predict_fps_batch([s])[0]`` is bitwise ``predict_fps(s)``, so
        batching changes when a promise is priced, never its value.
        Every record reads its own newest claim: one an older claim
        superseded is skipped.
        """
        from repro.core.training import ColocationSpec

        sigs = list(self._claims)
        predicted = self.predictor.predict_fps_batch(
            [ColocationSpec(sig) for sig in sigs]
        )
        for sig, fps in zip(sigs, predicted):
            self._promised[sig] = tuple(float(f) for f in fps)
        self.telemetry.counter("qos_predictions").inc(len(sigs))
        for records in self._claims.values():
            for record in records:
                if record.claim is not None:
                    sig, slot = record.claim
                    record.promised_fps = self._promised[sig][slot]
                    record.claim = None
        self._claims = {}

    def _close(self, record: _OpenRecord, *, reason: str) -> None:
        """Book the record's single calibration + SLO sample."""
        minutes = record.minutes
        if minutes <= 0 and record.server_id in self._pending:
            # A zero-lifetime record reads its FPS without ever accruing.
            self._flush(record.server_id)
        if record.claim is not None:
            self._price()
        actual = record.fps_minutes / minutes if minutes > 0 else record.current_fps
        residual = record.promised_fps - actual
        game = record.session.game
        genre = record.genre
        t = self.telemetry
        name = (
            "fps_residual_overpredict" if residual >= 0 else "fps_residual_underpredict"
        )
        for labels in ({}, {"game": game}, {"genre": genre}):
            t.histogram("fps_residual_abs", FPS_RESIDUAL_BUCKETS, **labels).observe(
                abs(residual)
            )
            t.histogram(name, FPS_RESIDUAL_BUCKETS, **labels).observe(abs(residual))
            t.histogram(
                "qos_session_minutes", QOS_MINUTES_BUCKETS, **labels
            ).observe(minutes)
            t.histogram(
                "qos_violation_minutes", QOS_MINUTES_BUCKETS, **labels
            ).observe(record.violation_minutes)
            if record.was_degraded:
                # Instrument is created lazily on first degraded close,
                # so degrade-disabled runs keep their snapshots
                # byte-identical.
                t.histogram(
                    "qos_minutes_degraded", QOS_MINUTES_BUCKETS, **labels
                ).observe(record.degraded_minutes)
        violation_fraction = record.violation_minutes / minutes if minutes > 0 else 0.0
        burn_rate = violation_fraction / self.budget_fraction
        t.histogram("slo_burn_rate", BURN_RATE_BUCKETS).observe(burn_rate)
        if violation_fraction > self.budget_fraction:
            t.counter("slo_breaches").inc()
            t.counter("slo_breaches", game=game).inc()
            t.counter("slo_breaches", genre=genre).inc()
        t.counter("qos_sessions_closed").inc()
        t.counter("qos_sessions_closed", reason=reason).inc()
        self.closed += 1
        t.gauge("qos_open_sessions").set(self.open_records)


# ----------------------------------------------------------------------
# Registry -> qos report section: one pass over a Telemetry registry, a
# ledger's live one or one loaded from a (possibly merged) snapshot.

#: Breakdown -> (its grouping label, labels that keep a child out).  A
#: per-shard group must not double-count the per-game children that also
#: carry a ``shard`` label; bookkeeping labels like ``health`` merge across.
_BREAKDOWNS = {
    "per_game": ("game", ("genre", "reason")),
    "per_genre": ("genre", ("game", "reason")),
    "per_shard": ("shard", ("game", "genre", "reason")),
}

#: The instruments a breakdown group reads.
_GROUPED = frozenset((
    "fps_residual_abs", "fps_residual_overpredict", "fps_residual_underpredict",
    "qos_session_minutes", "qos_violation_minutes", "qos_minutes_degraded",
    "slo_breaches", "slo_burn_events", "qos_sessions_opened", "qos_sessions_closed",
))

#: Stand-ins for an instrument a group never recorded: they read as zero.
_NO_HISTOGRAM = LatencyHistogram("absent")
_NO_COUNTER = Counter("absent")


def _stats(group: dict) -> dict:
    """Calibration, then SLO statistics of a ``{name: instrument}`` group.

    Every statistic reduces to histogram counts and totals and counter
    values, never to re-averaged means, so it is exact under merging.
    """
    get = group.get
    abs_h = get("fps_residual_abs", _NO_HISTOGRAM)
    over_h = get("fps_residual_overpredict", _NO_HISTOGRAM)
    under_h = get("fps_residual_underpredict", _NO_HISTOGRAM)
    n = abs_h.count
    session_minutes = get("qos_session_minutes", _NO_HISTOGRAM).total
    violation_minutes = get("qos_violation_minutes", _NO_HISTOGRAM).total
    return {
        "samples": n,
        "fps_residual_mae": abs_h.mean,
        "fps_residual_bias": (over_h.total - under_h.total) / n if n else 0.0,
        "fps_residual_p95": abs_h.quantile(0.95),
        "overpredictions": over_h.count,
        "underpredictions": under_h.count,
        "session_minutes": session_minutes,
        "violation_minutes": violation_minutes,
        "violation_fraction": (
            violation_minutes / session_minutes if session_minutes else 0.0
        ),
        "breaches": get("slo_breaches", _NO_COUNTER).value,
        "burn_events": get("slo_burn_events", _NO_COUNTER).value,
    }


def _qos_section(
    telemetry: Telemetry, slo_fps: float | None, budget_fraction: float | None
) -> dict | None:
    """The ``qos`` section of ``telemetry``, or ``None`` without a ledger.

    One pass over its counter and histogram series sorts each into the
    fleet map (unlabeled), the close reasons and the breakdown groups.
    A group merges its children in series order — label-key order, the
    order a snapshot lists them in — into instruments of its own, so the
    registry is only read.
    """
    fleet: dict = {}
    close_reasons: dict[str, int] = {}
    groups: dict[str, dict] = {breakdown: {} for breakdown in _BREAKDOWNS}
    for kind in ("counters", "histograms"):
        for labels, instrument in telemetry.series(kind):
            name = instrument.name
            if labels is None:
                fleet[name] = instrument
                continue
            if name == "qos_sessions_closed" and "reason" in labels:
                reason = labels["reason"]
                close_reasons[reason] = close_reasons.get(reason, 0) + instrument.value
            if name not in _GROUPED:
                continue
            for breakdown, (label, forbid) in _BREAKDOWNS.items():
                if label in labels and not any(f in labels for f in forbid):
                    group = groups[breakdown].setdefault(labels[label], {})
                    _absorb(group, instrument, None)
    if "qos_sessions_opened" not in fleet and "fps_residual_abs" not in fleet:
        return None
    opened, closed, measurements, predictions = (
        fleet.get(name, _NO_COUNTER).value
        for name in ("qos_sessions_opened", "qos_sessions_closed",
                     "qos_measurements", "qos_predictions")
    )
    stats = _stats(fleet)
    items = list(stats.items())  # six calibration keys, then the SLO ones
    slo = {}
    if slo_fps is not None:
        slo["target_fps"] = float(slo_fps)
    if budget_fraction is not None:
        slo["budget_fraction"] = float(budget_fraction)
    slo.update(items[6:])
    burn_h = fleet.get("slo_burn_rate", _NO_HISTOGRAM)
    slo["burn_rate_p50"] = burn_h.quantile(0.5)
    slo["burn_rate_p99"] = burn_h.quantile(0.99)
    section = {
        "sessions": {
            "opened": opened,
            "closed": closed,
            "conservation_errors": abs(opened - closed),
            "close_reasons": {k: close_reasons[k] for k in sorted(close_reasons)},
            "measurements": measurements,
            "predictions": predictions,
        },
        "calibration": dict(items[:6]),
        "slo": slo,
    }
    for breakdown, found in groups.items():
        section[breakdown] = out = {}
        for value in sorted(found):
            group = found[value]
            out[value] = row = _stats(group)
            degraded_h = group.get("qos_minutes_degraded")
            if degraded_h is not None:
                # Present only when the downscale actuator degraded sessions
                # in this group — absent keys keep old reports byte-stable.
                row["degraded_sessions"] = degraded_h.count
                row["degraded_minutes"] = degraded_h.total
            if "qos_sessions_opened" in group:
                # Only shard groups carry the ledger lifecycle counters (they
                # are unlabeled per broker and gain the shard label on
                # merge); surface per-shard conservation alongside the stats.
                row["opened"] = group["qos_sessions_opened"].value
                row["closed"] = group.get("qos_sessions_closed", _NO_COUNTER).value
    degraded_h = fleet.get("qos_minutes_degraded")
    if degraded_h is not None:
        # Fleet-wide resolution-actuator accounting; the key exists only
        # when at least one session closed after a degraded stint, so
        # degrade-disabled reports stay byte-identical.
        total_minutes = stats["session_minutes"]
        section["degraded"] = {
            "sessions": degraded_h.count,
            "minutes": degraded_h.total,
            "mean_minutes": degraded_h.mean,
            "minutes_fraction": (
                degraded_h.total / total_minutes if total_minutes else 0.0
            ),
        }
    return section


def build_qos_section(
    snapshot: dict,
    *,
    slo_fps: float | None = None,
    budget_fraction: float | None = None,
) -> dict | None:
    """Derive the ``qos`` report section from a telemetry snapshot.

    Works on a single broker's snapshot or on the sharded tier's merged
    snapshot: fleet-wide stats come from the unlabeled histograms, and
    the per-game / per-genre / per-shard breakdowns from the labeled
    children (exact under ``merge_snapshots``, because every stat is
    derived from histogram totals and counts, never re-averaged).
    Returns ``None`` when the snapshot carries no qos instruments (the
    ledger was not enabled).  The snapshot is loaded once
    (:meth:`Telemetry.from_snapshot`) and read like a live registry.
    """
    return _qos_section(Telemetry.from_snapshot(snapshot), slo_fps, budget_fraction)


def extract_qos(payload: dict, source: str = "payload") -> dict:
    """Find (or rebuild) the qos section inside a loaded JSON payload.

    Accepts a full serving report (``qos`` key), a bare qos section, a
    report with only telemetry, or a bare telemetry snapshot — the same
    flexibility ``repro metrics`` affords with :func:`load_snapshot`.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{source}: expected a JSON object")
    qos = payload.get("qos")
    if isinstance(qos, dict) and qos:
        return qos
    if "calibration" in payload and "sessions" in payload:
        return payload
    snapshot = payload.get("telemetry", payload)
    built = build_qos_section(snapshot) if isinstance(snapshot, dict) else None
    if built is None:
        raise ValueError(
            f"{source}: no qos section found (was the run started with --slo-fps?)"
        )
    return built


# -- diffing ------------------------------------------------------------

_NUMERIC = (int, float)


def flatten_qos(section: dict) -> dict[tuple[str, str], float]:
    """Flatten a qos section into ``(metric, stat) -> value`` rows.

    ``metric`` is the dotted group path (``calibration``,
    ``per_game.Dota2``, ...), ``stat`` the leaf key — the same shape
    :func:`repro.obs.snapshots.check_regressions` consumes, so
    ``repro slo diff --fail-on fps_residual_mae:+10%`` reuses the
    metrics gate machinery unchanged.
    """
    rows: dict[tuple[str, str], float] = {}

    def emit(metric: str, stats: dict) -> None:
        for stat, value in stats.items():
            if isinstance(value, _NUMERIC) and not isinstance(value, bool):
                rows[(metric, stat)] = float(value)

    for group in ("sessions", "calibration", "slo", "degraded"):
        if isinstance(section.get(group), dict):
            emit(group, section[group])
    reasons = section.get("sessions", {}).get("close_reasons", {})
    if isinstance(reasons, dict):
        emit("sessions.close_reasons", reasons)
    for group in ("per_game", "per_genre", "per_shard"):
        for value, stats in section.get(group, {}).items():
            emit(f"{group}.{value}", stats)
    return rows


def diff_qos(old: dict, new: dict) -> list[dict]:
    """Row-wise diff of two qos sections (union of keys, old-first order)."""
    old_rows = flatten_qos(old)
    new_rows = flatten_qos(new)
    return [
        diff_row(*key, old_rows.get(key, 0.0), new_rows.get(key, 0.0))
        for key in sorted(set(old_rows) | set(new_rows))
    ]


# -- rendering ----------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def summarize_qos(section: dict, title: str = "qos") -> str:
    """Human-readable multi-line summary of a qos section."""
    lines = [f"== {title} =="]
    sessions = section.get("sessions", {})
    lines.append(
        "sessions: opened={opened} closed={closed} conservation_errors={err}".format(
            opened=sessions.get("opened", 0),
            closed=sessions.get("closed", 0),
            err=sessions.get("conservation_errors", 0),
        )
    )
    reasons = sessions.get("close_reasons", {})
    if reasons:
        pairs = " ".join(f"{k}={reasons[k]}" for k in sorted(reasons))
        lines.append(f"  close reasons: {pairs}")
    calibration = section.get("calibration", {})
    if calibration:
        lines.append(
            "calibration: n={n} mae={mae} bias={bias} p95={p95}".format(
                n=calibration.get("samples", 0),
                mae=_fmt(calibration.get("fps_residual_mae", 0.0)),
                bias=_fmt(calibration.get("fps_residual_bias", 0.0)),
                p95=_fmt(calibration.get("fps_residual_p95", 0.0)),
            )
        )
    slo = section.get("slo", {})
    if slo:
        target = slo.get("target_fps")
        head = f"slo (target {_fmt(target)} fps)" if target is not None else "slo"
        lines.append(
            "{head}: violation_minutes={viol}/{total} ({frac}) "
            "breaches={breaches} burn_events={burns}".format(
                head=head,
                viol=_fmt(slo.get("violation_minutes", 0.0)),
                total=_fmt(slo.get("session_minutes", 0.0)),
                frac=_fmt(slo.get("violation_fraction", 0.0)),
                breaches=slo.get("breaches", 0),
                burns=slo.get("burn_events", 0),
            )
        )
    degraded = section.get("degraded", {})
    if degraded:
        lines.append(
            "degraded: sessions={n} minutes={minutes} "
            "fraction={frac}".format(
                n=degraded.get("sessions", 0),
                minutes=_fmt(degraded.get("minutes", 0.0)),
                frac=_fmt(degraded.get("minutes_fraction", 0.0)),
            )
        )
    for group, header in (
        ("per_game", "per game"),
        ("per_genre", "per genre"),
        ("per_shard", "per shard"),
    ):
        entries = section.get(group, {})
        if not entries:
            continue
        lines.append(f"{header}:")
        for value in sorted(entries):
            stats = entries[value]
            lines.append(
                "  {value}: n={n} mae={mae} bias={bias} "
                "violation={viol} breaches={breaches}".format(
                    value=value,
                    n=stats.get("samples", 0),
                    mae=_fmt(stats.get("fps_residual_mae", 0.0)),
                    bias=_fmt(stats.get("fps_residual_bias", 0.0)),
                    viol=_fmt(stats.get("violation_fraction", 0.0)),
                    breaches=stats.get("breaches", 0),
                )
            )
    return "\n".join(lines)
