"""Shard supervision: health-checked ring ejection, failover, readmission.

The sharded tier's survival layer.  :class:`ShardSupervisor` runs at
every chunk barrier of the :class:`~repro.sharding.ShardedBroker` drain
— the only points where all shard workers are quiescent — and closes the
loop between the chaos layer's ground truth
(:class:`~repro.sharding.chaos.ShardChaos`) and the routing ring:

1. **Health probing.**  Every ring member is probed once per barrier.
   An outage holds for whole barriers, so a failed probe is never
   retried: it would fail again.
2. **Ejection + failover.**  A shard that fails its probe is ejected
   from the consistent-hash ring (``ring_ejections``; remapping is
   minimal by construction) and every live session it hosted is evicted
   through the existing migration primitive
   (:meth:`RequestBroker.evict_for_migration`) and re-admitted on its
   ring successor via :meth:`RequestBroker.admit_migrations` — counted
   ``sessions_failed_over`` and traced as a ``failover`` span.  Zero
   sessions are lost: every arrival is either admitted where it was
   routed or failed over, never dropped.
3. **Recovery.**  An ejected shard is probed again
   :data:`COOLDOWN_CHUNKS` barriers after its ejection; one healthy probe
   readmits it (``ring_readmissions``; the outage length goes to the
   ``shard_recovery_chunks`` histogram), and a failed one
   (``readmit_probes_failed``) starts the same countdown again.  A
   readmitted shard reclaims exactly its old ring arcs, so routing
   converges back to the pre-outage assignment.
4. **Degraded mode.**  When the healthy-shard count drops below
   ``min_healthy``, routing abandons signature affinity and sends every
   arrival to the least-loaded healthy shard (``shard_fallbacks``) until
   the fleet recovers.  Ejecting the *last* healthy shard is refused
   outright (``ejections_suppressed``): a serving tier with zero members
   cannot conserve sessions, so liveness wins over fidelity to the
   chaos schedule.

Everything is deterministic — probes, ejections and failover
destinations are pure functions of the chaos seed and the trace — so a
same-seed chaos run is byte-identical in telemetry and traces,
and a supervisor whose chaos layer is inactive is a perfect pass-through.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.obs.metrics import Telemetry
from repro.obs.tracing import Tracer
from repro.placement.fleet import Session
from repro.serving.broker import RequestBroker
from repro.sharding.chaos import ShardChaos
from repro.sharding.router import ShardRouter

__all__ = ["ShardSupervisor"]

#: Bucket edges for the ``shard_recovery_chunks`` histogram: recovery
#: times are counted in chunk barriers (small integers), not seconds.
RECOVERY_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

#: Barriers between an ejection (or a failed readmission probe) and the
#: next readmission probe.
COOLDOWN_CHUNKS = 2


class ShardSupervisor:
    """Barrier-clocked supervision loop over the shard brokers.

    Tracks each ejected shard's ejection barrier and the barrier of its
    next readmission probe, and writes its counters, events and spans to
    the *coordinator's* telemetry/tracer — shard-local telemetry only ever
    sees the migration primitives, so per-shard snapshots stay
    comparable with unsupervised runs.
    """

    def __init__(self, chaos: ShardChaos, *, min_healthy: int = 1):
        if min_healthy < 1:
            raise ValueError(f"min_healthy must be >= 1, got {min_healthy}")
        self.chaos = chaos
        self.min_healthy = min_healthy
        self.degraded = False
        self._ejected_at: dict[int, int] = {}  # id -> ejection barrier
        self._retry_at: dict[int, int] = {}  # id -> barrier of the next probe
        self._barrier = 0

    @property
    def active(self) -> bool:
        """Whether supervision can observably act (a live chaos schedule)."""
        return self.chaos.active

    def bind(self, n_shards: int, telemetry: Telemetry, tracer: Tracer) -> None:
        """Attach to a tier of ``n_shards``.

        ``telemetry`` and ``tracer`` are the coordinator's: counters,
        events and spans land next to its routing volume.
        """
        if self.chaos.n_shards != n_shards:
            raise ValueError(
                f"chaos schedule covers {self.chaos.n_shards} shards, "
                f"got {n_shards} brokers"
            )
        self.telemetry = telemetry
        self.tracer = tracer

    def health_of(self, shard_id: int) -> str:
        """``healthy`` / ``ejected`` — the Prometheus label."""
        return "ejected" if shard_id in self._ejected_at else "healthy"

    # -- the barrier loop ----------------------------------------------

    def tick(
        self,
        brokers: Sequence[RequestBroker],
        router: ShardRouter,
        *,
        now: float,
        index: int,
    ) -> None:
        """Run one supervision cycle between chunk drains, while :attr:`active`."""
        self._barrier += 1
        self.chaos.begin_barrier()
        ejected_before = sorted(self._ejected_at)
        healthy = set(router.shard_ids)
        with self.tracer.span(
            "supervise",
            barrier=self._barrier,
            arrival_index=index,
            healthy=len(healthy),
        ) as span:
            self.telemetry.counter("supervise_cycles").inc()
            for shard_id in sorted(healthy):
                if self.chaos.probe(shard_id):
                    continue
                if len(healthy) <= 1:
                    # Refuse to empty the tier: the last shard serves on
                    # through its outage rather than stranding sessions.
                    self.telemetry.counter("ejections_suppressed").inc()
                    self.telemetry.event(
                        "ejection_suppressed",
                        shard=shard_id,
                        time=now,
                        arrival_index=index,
                    )
                    continue
                self._eject(shard_id, brokers, router, now=now, index=index)
                healthy.discard(shard_id)
            for shard_id in ejected_before:
                self._maybe_readmit(shard_id, router, now=now, index=index)
            healthy_now = len(router.ring)
            degraded = healthy_now < self.min_healthy
            if degraded != self.degraded:
                self.degraded = degraded
                self.telemetry.counter("degraded_transitions").inc()
                self.telemetry.event(
                    "degraded_mode",
                    active=degraded,
                    healthy=healthy_now,
                    time=now,
                    arrival_index=index,
                )
                self.tracer.instant(
                    "degraded_mode", active=degraded, healthy=healthy_now
                )
            self.telemetry.gauge("healthy_shards").set(healthy_now)
            span.set(ejected=len(self._ejected_at), degraded=self.degraded)

    def _eject(
        self,
        shard_id: int,
        brokers: Sequence[RequestBroker],
        router: ShardRouter,
        *,
        now: float,
        index: int,
    ) -> None:
        router.remove_shard(shard_id)
        self._ejected_at[shard_id] = self._barrier
        self._retry_at[shard_id] = self._barrier + COOLDOWN_CHUNKS
        self.telemetry.counter("shard_outages").inc()
        self.telemetry.counter("ring_ejections").inc()
        self.telemetry.event(
            "shard_outage", shard=shard_id, time=now, arrival_index=index
        )
        broker = brokers[shard_id]
        evicted: list[Session] = []
        for server_id in list(broker.fleet.server_ids()):
            evicted.extend(
                broker.evict_for_migration(
                    server_id, now=now, index=index, reason="failover"
                )
            )
        with self.tracer.span(
            "failover", shard=shard_id, sessions=len(evicted), arrival_index=index
        ) as span:
            per_dest: dict[int, list[Session]] = {}
            for session in evicted:
                dest = self._destination(session, router, brokers)
                per_dest.setdefault(dest, []).append(session)
            for dest in sorted(per_dest):
                brokers[dest].admit_migrations(per_dest[dest], index, now=now)
            self.telemetry.counter("sessions_failed_over").inc(len(evicted))
            span.set(destinations=sorted(per_dest))
        self.telemetry.event(
            "failover",
            shard=shard_id,
            sessions=len(evicted),
            time=now,
            arrival_index=index,
        )

    def _maybe_readmit(
        self, shard_id: int, router: ShardRouter, *, now: float, index: int
    ) -> None:
        if self._barrier < self._retry_at[shard_id]:  # still cooling down
            return
        if not self.chaos.probe(shard_id):
            self.telemetry.counter("readmit_probes_failed").inc()
            self._retry_at[shard_id] = self._barrier + COOLDOWN_CHUNKS
            return
        router.add_shard(shard_id)
        del self._retry_at[shard_id]
        ejected_barrier = self._ejected_at.pop(shard_id)
        self.telemetry.counter("ring_readmissions").inc()
        self.telemetry.histogram(
            "shard_recovery_chunks", buckets=RECOVERY_BUCKETS
        ).observe(self._barrier - ejected_barrier)
        self.telemetry.event(
            "shard_readmitted",
            shard=shard_id,
            time=now,
            arrival_index=index,
            down_chunks=self._barrier - ejected_barrier,
        )
        self.tracer.instant("shard_readmitted", shard=shard_id)

    # -- routing hooks --------------------------------------------------

    def route(
        self,
        session,
        index: int,
        router: ShardRouter,
        brokers: Sequence[RequestBroker],
    ) -> int:
        """Route one arrival, honoring degraded mode.

        Healthy fleets route by signature affinity exactly as an
        unsupervised tier would; below the ``min_healthy`` floor every
        arrival goes to the least-loaded healthy shard instead, trading
        cache affinity for survival.
        """
        if not self.degraded:
            return router.route(session, index)
        return router.route_forced(
            session, index, self._least_loaded(router, brokers)
        )

    def _destination(
        self,
        session,
        router: ShardRouter,
        brokers: Sequence[RequestBroker],
    ) -> int:
        # The live ring, not ``self.degraded``: mid-tick an ejection may
        # already have breached the floor that the barrier has not seen.
        if len(router.ring) < self.min_healthy:
            return self._least_loaded(router, brokers)
        return router.shard_of(session)

    def _least_loaded(
        self, router: ShardRouter, brokers: Sequence[RequestBroker]
    ) -> int:
        """The healthy shard with the fewest live sessions (``shard_fallbacks``)."""
        self.telemetry.counter("shard_fallbacks").inc()
        return min(router.shard_ids, key=lambda i: (brokers[i].fleet.n_live, i))

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> dict:
        """The supervision section of the sharded report."""
        return {
            "config": {"min_healthy": self.min_healthy},
            "chaos": self.chaos.to_dict(),
            "degraded": self.degraded,
            "ejected": sorted(self._ejected_at),
            "health": {
                str(shard_id): self.health_of(shard_id)
                for shard_id in range(self.chaos.n_shards)
            },
        }
