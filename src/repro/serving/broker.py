"""The request broker: a discrete-event online serving loop.

Replays a session trace (arrivals and departures) against a growing and
shrinking server pool, asking the
:class:`~repro.placement.DecisionEngine` for a placement at every
arrival — the role a cloud-gaming fleet's dispatcher plays, with
GAugur's predictions on the hot path (paper Section 5, Algorithm 1's
online setting).

The pool bookkeeping is the shared
:class:`repro.placement.FleetState`, and every placement goes through
:meth:`repro.placement.DecisionEngine.admit`.  The offline simulator
(:func:`repro.scheduling.dynamic.simulate_sessions`) *is* a broker run —
over a strict engine, scored by the QoS ledger — so offline and serving
placements agree by construction.  Around the core the broker adds
telemetry, caches, fallback accounting, a JSON-able report — and
failure realism.  With a nonzero ``crash_rate``,
servers crash at (seeded, deterministic) random before arrivals: a
crashed server leaves the pool and its live sessions re-enter the
admission queue for immediate re-placement, counted as
``server_crashes`` / ``sessions_evicted`` / ``readmissions``.  With
``crash_rate`` zero the crash RNG is never consulted.

The broker runs in two modes.  :meth:`run` is the one-shot replay loop
every existing caller uses.  Underneath it sits an incremental API —
:meth:`start` / :meth:`submit` / :meth:`finish` — that external drivers
(the sharded tier in :mod:`repro.sharding`) use to feed arrivals one at
a time, interleave control actions between them, and collect the report
when the stream ends.  ``run`` is exactly ``start`` + one ``submit`` per
arrival + ``finish``, so both modes share one code path and one
telemetry sequence.  Session *migration* (the sharded tier's rebalancer
moving load between brokers) reuses the crash→evict→readmit machinery as
its transport but is counted distinctly: ``migrations`` /
``sessions_migrated_out`` / ``sessions_migrated_in``, never
``server_crashes``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.obs.tracing import Tracer
from repro.placement.engine import DecisionEngine
from repro.placement.fleet import FleetState, Session
from repro.utils.rng import spawn_rng

__all__ = ["PlacementRecord", "ServingReport", "RequestBroker"]


@dataclass(slots=True)
class PlacementRecord:
    """One admission decision's outcome.

    ``choice`` is the policy's index into the open-server list presented
    at decision time (``None`` = new server) — directly comparable with an
    offline policy's return value; ``server_id`` is the stable identifier
    of the server that ended up hosting the session.  ``readmitted``
    marks a session displaced by a server crash and placed again;
    ``migrated`` marks a session moved in from another fleet shard by
    the rebalancer.  ``resolution``/``requested`` are set only when the
    downscale actuator placed the session below its request — records
    from degrade-disabled runs keep the historical eight-key shape.
    """

    index: int
    game: str
    choice: int | None
    server_id: int
    policy: str
    fallback: bool
    readmitted: bool = False
    migrated: bool = False
    resolution: str | None = None
    requested: str | None = None

    def to_dict(self) -> dict:
        """JSON-able form (degrade keys only for degraded placements)."""
        payload = {
            "index": self.index,
            "game": self.game,
            "choice": self.choice,
            "server_id": self.server_id,
            "policy": self.policy,
            "fallback": self.fallback,
            "readmitted": self.readmitted,
            "migrated": self.migrated,
        }
        if self.resolution is not None:
            payload["resolution"] = self.resolution
            payload["requested"] = self.requested
        return payload


@dataclass
class ServingReport:
    """Everything one broker run produced."""

    placements: list[PlacementRecord]
    servers_opened: int
    peak_servers: int
    telemetry: dict = field(default_factory=dict)
    readmissions: list[PlacementRecord] = field(default_factory=list)
    resilience: dict = field(default_factory=dict)
    migrations: list[PlacementRecord] = field(default_factory=list)
    n_arrivals: int = 0
    qos: dict = field(default_factory=dict)

    @property
    def n_sessions(self) -> int:
        """Sessions replayed (original arrivals, not re-admissions).

        Falls back to the arrival count when the broker ran with
        ``keep_records=False`` and retained no per-session records.
        """
        return len(self.placements) if self.placements else self.n_arrivals

    def choices(self) -> list[int | None]:
        """Per-arrival policy decisions (index into open servers or None)."""
        return [p.choice for p in self.placements]

    def server_ids(self) -> list[int]:
        """Per-arrival hosting server ids."""
        return [p.server_id for p in self.placements]

    def to_dict(self) -> dict:
        """JSON-able summary including per-session placements.

        The ``qos`` key appears only when a :class:`~repro.obs.qos.QoSLedger`
        rode the run — reports from ledger-less runs stay byte-identical
        to previous releases.
        """
        payload = {
            "n_sessions": self.n_sessions,
            "servers_opened": self.servers_opened,
            "peak_servers": self.peak_servers,
            "placements": [p.to_dict() for p in self.placements],
            "readmissions": [p.to_dict() for p in self.readmissions],
            "migrations": [p.to_dict() for p in self.migrations],
            "resilience": self.resilience,
            "telemetry": self.telemetry,
        }
        if self.qos:
            payload["qos"] = self.qos
        return payload


class RequestBroker:
    """Event loop pairing a session trace with an admission controller.

    ``crash_rate`` is the per-arrival probability that one open server
    crashes just before the arrival is handled; crashes are drawn from a
    dedicated substream of ``crash_seed`` so a chaos run is exactly
    reproducible and a zero rate never touches the RNG.

    ``keep_records=False`` drops the per-session
    :class:`PlacementRecord` lists (the counters and histograms still
    accumulate) — the memory valve the million-session scale benchmarks
    need; everything per-arrival is then only in telemetry.

    ``restore_interval`` (arrivals) runs the controller's restore loop
    once per that many of this broker's own arrivals, re-promoting
    downscale-degraded sessions that departure-freed capacity now allows;
    ``None`` (the default) never restores.  It is the only restore clock:
    a shard of the sharded tier counts its own arrivals exactly like an
    unsharded broker.
    """

    #: ``(telemetry, its open_servers gauge)``, bound at the first
    #: admission under that registry.
    _open_servers = (None, None)

    def __init__(
        self,
        controller: DecisionEngine,
        *,
        crash_rate: float = 0.0,
        crash_seed: int = 0,
        tracer: Tracer | None = None,
        keep_records: bool = True,
        ledger=None,
        restore_interval: int | None = None,
    ):
        if not 0.0 <= crash_rate <= 1.0:
            raise ValueError(f"crash_rate must be in [0, 1], got {crash_rate}")
        if restore_interval is not None and restore_interval <= 0:
            raise ValueError(
                f"restore_interval must be positive, got {restore_interval}"
            )
        self.restore_interval = restore_interval
        self.controller = controller
        self.crash_rate = float(crash_rate)
        self.crash_seed = int(crash_seed)
        self.keep_records = bool(keep_records)
        # One `tracer=` argument in either place instruments the whole
        # request path: an explicit tracer here is pushed down into the
        # controller (and through it, the policies and predictor).
        if tracer is not None:
            controller.set_tracer(tracer)
        self.tracer = controller.tracer
        # Optional QoS ledger (repro.obs.qos.QoSLedger): rides the fleet
        # as a mutation observer and records into the controller's
        # telemetry so qos metrics land in the same snapshot/merge.
        self.ledger = ledger
        if ledger is not None:
            ledger.instrument(telemetry=controller.telemetry, tracer=self.tracer)
        self.fleet = FleetState(observer=ledger)
        self._placements: list[PlacementRecord] = []
        self._readmissions: list[PlacementRecord] = []
        self._migrations: list[PlacementRecord] = []
        self._n_arrivals = 0
        self._crash_rng = None

    # -- incremental API ------------------------------------------------

    def start(self) -> "RequestBroker":
        """Reset per-run state; the first step of every replay.

        External drivers (:class:`repro.sharding.ShardedBroker`) call
        this once, then :meth:`submit` arrivals in nondecreasing arrival
        order, then :meth:`finish`.  :meth:`run` does exactly this over a
        sorted trace.
        """
        if self.ledger is not None:
            self.ledger.reset()
        self.fleet = FleetState(observer=self.ledger)
        self._placements = []
        self._readmissions = []
        self._migrations = []
        self._n_arrivals = 0
        self._crash_rng = (
            spawn_rng(self.crash_seed, "server-crashes")
            if self.crash_rate > 0
            else None
        )
        return self

    def submit(self, session: Session, index: int) -> PlacementRecord:
        """Handle one arrival: departures first, then crashes, then admit.

        ``index`` is the caller's arrival index (global across shards in
        the sharded tier) — it labels records, events and spans but never
        influences a decision.
        """
        if self.ledger is not None:
            self.ledger.advance(session.arrival)
        removed = self.fleet.pop_departures(session.arrival)
        if removed:
            self.controller.telemetry.counter("departures").inc(removed)
        if (
            self.restore_interval is not None
            and self._n_arrivals
            and self._n_arrivals % self.restore_interval == 0
        ):
            promoted = self.controller.restore(self.fleet)
            if promoted:
                self.controller.telemetry.event(
                    "restore",
                    time=session.arrival,
                    arrival_index=index,
                    promoted=promoted,
                )
        self._maybe_crash(session.arrival, index)
        record = self._admit(session, index, readmitted=False)
        self._n_arrivals += 1
        if self.keep_records:
            self._placements.append(record)
        return record

    def finish(self) -> ServingReport:
        """Snapshot telemetry and assemble the :class:`ServingReport`."""
        qos = {}
        if self.ledger is not None:
            self.ledger.finalize()
            # Read off the registry before the snapshot dict is built, so
            # the two transient peaks do not stack.
            qos = self.ledger.section()
        telemetry = self.controller.telemetry
        snapshot = telemetry.snapshot()
        snapshot["caches"] = {
            name: cache.stats()
            for name, cache in self.controller.caches().items()
        }
        counters = snapshot["counters"]
        resilience = {
            "crash_rate": self.crash_rate,
            "server_crashes": counters.get("server_crashes", 0),
            "sessions_evicted": counters.get("sessions_evicted", 0),
            "readmissions": counters.get("readmissions", 0),
        }
        ladder = self.controller.ladder
        if ladder is not None:
            # Extra key only when the quality lever rode the run: degrade-
            # disabled reports stay byte-identical to previous releases.
            resilience["downscale"] = {
                "ladder": ladder.to_list(),
                "restore": bool(self.controller.can_restore),
                "restore_interval": self.restore_interval,
            }
        return ServingReport(
            placements=self._placements,
            servers_opened=self.fleet.servers_opened,
            peak_servers=self.fleet.peak,
            telemetry=snapshot,
            readmissions=self._readmissions,
            resilience=resilience,
            migrations=self._migrations,
            n_arrivals=self._n_arrivals,
            qos=qos,
        )

    # -- migration hooks (driven by repro.sharding.Rebalancer) ----------

    def evict_for_migration(
        self, server_id: int, *, now: float, index: int, reason: str = "migration"
    ) -> list[Session]:
        """Evict ``server_id`` wholesale as the *source* side of a migration.

        Reuses the crash→evict primitive (:meth:`FleetState.crash`, so
        evicted sessions come back in admission order) but counts
        ``migrations`` / ``sessions_migrated_out`` — an operator must be
        able to tell planned moves from failures at a glance.  A
        non-default ``reason`` (the shard supervisor passes
        ``"failover"``) is stamped onto the event; the default leaves
        the event byte-identical to pre-supervision runs.
        """
        if self.ledger is not None:
            self.ledger.advance(now)
            self.ledger.mark_eviction(
                "migrated" if reason == "migration" else reason
            )
        evicted = self.fleet.crash(server_id)
        t = self.controller.telemetry
        t.counter("migrations").inc()
        t.counter("sessions_migrated_out").inc(len(evicted))
        t.gauge("open_servers").set(self.fleet.n_open)
        extra = {} if reason == "migration" else {"reason": reason}
        t.event(
            "migration_out",
            time=now,
            arrival_index=index,
            server_id=server_id,
            sessions=len(evicted),
            **extra,
        )
        return evicted

    def admit_migrations(
        self, sessions: Sequence[Session], index: int, *, now: float | None = None
    ) -> list[PlacementRecord]:
        """Admit sessions arriving from another shard (destination side).

        Each placement is counted as ``sessions_migrated_in`` and
        recorded with ``migrated=True`` — the readmission path's twin,
        with its own ledger.  ``now`` is the barrier time on the
        caller's clock; it advances the QoS ledger so migrated-in
        sessions open their records at the barrier instant rather than
        at this broker's last arrival.
        """
        if self.ledger is not None and now is not None:
            self.ledger.advance(now)
        t = self.controller.telemetry
        records = []
        for session in sessions:
            t.counter("sessions_migrated_in").inc()
            record = self._admit(session, index, readmitted=False, migrated=True)
            records.append(record)
            if self.keep_records:
                self._migrations.append(record)
        if sessions:
            t.event(
                "migration_in", arrival_index=index, sessions=len(sessions)
            )
        return records

    # -- internals ------------------------------------------------------

    def _admit(
        self, session: Session, index: int, *, readmitted: bool, migrated: bool = False
    ) -> PlacementRecord:
        attributes = {"index": index, "game": session.game, "readmitted": readmitted}
        if migrated:
            attributes["migrated"] = True
        with self.tracer.span("request", **attributes) as span:
            outcome = self.controller.admit(self.fleet, session)
            telemetry = self.controller.telemetry
            bound, gauge = self._open_servers
            if bound is not telemetry:
                gauge = telemetry.gauge("open_servers")
                self._open_servers = (telemetry, gauge)
            gauge.set(self.fleet.n_open)
            span.set(server_id=outcome.server_id, policy=outcome.policy)
        placed = outcome.session
        degraded = placed.degraded
        return PlacementRecord(
            index=index,
            game=session.game,
            choice=outcome.choice,
            server_id=outcome.server_id,
            policy=outcome.policy,
            fallback=outcome.fallback,
            readmitted=readmitted,
            migrated=migrated,
            resolution=str(placed.resolution) if degraded else None,
            requested=str(placed.requested) if degraded else None,
        )

    def _maybe_crash(self, now: float, index: int) -> None:
        if self._crash_rng is None or self.fleet.n_open == 0:
            return
        if self._crash_rng.random() >= self.crash_rate:
            return
        telemetry = self.controller.telemetry
        victim = self.fleet.server_ids()[int(self._crash_rng.integers(self.fleet.n_open))]
        evicted = self.fleet.crash(victim)
        telemetry.counter("server_crashes").inc()
        telemetry.counter("sessions_evicted").inc(len(evicted))
        telemetry.event(
            "server_crash",
            time=now,
            arrival_index=index,
            server_id=victim,
            evicted=len(evicted),
        )
        self.tracer.instant(
            "server_crash", server_id=victim, evicted=len(evicted)
        )
        # Evicted sessions re-enter the admission queue immediately, in
        # admission order (FleetState.crash sorts by member id), so the
        # crash -> evict -> readmission trajectory is a pure function
        # of the crash RNG under a fixed seed.
        for session in evicted:
            telemetry.counter("readmissions").inc()
            record = self._admit(session, index, readmitted=True)
            if self.keep_records:
                self._readmissions.append(record)

    # -- one-shot API ---------------------------------------------------

    def run(self, sessions: Sequence[Session]) -> ServingReport:
        """Replay ``sessions`` (sorted by arrival) through the controller.

        Departures are applied to the
        :class:`~repro.placement.fleet.FleetState` before each arrival's
        decision; emptied servers leave the pool.  Crash events (if
        enabled) fire after the departures and before the arrival's own
        decision, and every
        evicted live session is re-admitted immediately, in admission
        order (oldest member first).  Returns the placement log plus a
        telemetry snapshot (with cache statistics folded in) and the
        resilience summary.
        """
        ordered = sorted(sessions, key=lambda s: s.arrival)
        self.start()
        for index, session in enumerate(ordered):
            self.submit(session, index)
        return self.finish()
