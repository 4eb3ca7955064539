"""Shard supervision: health-checked ring ejection, failover, readmission.

The sharded tier's survival layer.  :class:`ShardSupervisor` runs at
every chunk barrier of the :class:`~repro.sharding.ShardedBroker` drain
— the only points where all shard workers are quiescent — and closes the
loop between the chaos layer's ground truth
(:class:`~repro.sharding.chaos.ShardChaos`) and the routing ring:

1. **Health probing.**  Every ring member is probed once per barrier.  A
   failed probe is retried at once up to :data:`MAX_RETRIES` times
   (``probe_retries``), so transient flakes never touch the ring.
2. **Ejection + failover.**  A shard that stays unresponsive is ejected
   from the consistent-hash ring (``ring_ejections``; remapping is
   minimal by construction) and every live session it hosted is evicted
   through the existing migration primitive
   (:meth:`RequestBroker.evict_for_migration`) and re-admitted on its
   ring successor via :meth:`RequestBroker.admit_migrations` — counted
   ``sessions_failed_over`` and traced as a ``failover`` span.  Zero
   sessions are lost: every arrival is either admitted where it was
   routed or failed over, never dropped.
3. **Recovery.**  Each shard's health is tracked by a
   :class:`~repro.placement.breaker.CircuitBreaker` clocked in barriers:
   ejection trips it OPEN, :data:`COOLDOWN_CHUNKS` barriers later it
   goes HALF_OPEN and probes the shard again, and :data:`PROBE_WINDOW`
   healthy probes readmit it (``ring_readmissions``; the outage length
   goes to the ``shard_recovery_chunks`` histogram).  A readmitted shard
   reclaims exactly its old ring arcs, so routing converges back to the
   pre-outage assignment.
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
from repro.placement.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.placement.fleet import Session
from repro.serving.broker import RequestBroker
from repro.sharding.chaos import ShardChaos
from repro.sharding.router import ShardRouter

__all__ = ["ShardSupervisor"]

#: Bucket edges for the ``shard_recovery_chunks`` histogram: recovery
#: times are counted in chunk barriers (small integers), not seconds.
RECOVERY_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

#: Immediate re-probes of a failed health probe before the shard counts
#: as down for this barrier.
MAX_RETRIES = 2
#: Barriers an ejected shard's breaker stays OPEN before it is probed.
COOLDOWN_CHUNKS = 2
#: Consecutive healthy HALF_OPEN probes that readmit a shard.
PROBE_WINDOW = 1


class ShardSupervisor:
    """Barrier-clocked supervision loop over the shard brokers.

    Owns one :class:`CircuitBreaker` per shard (CLOSED = ring member,
    OPEN = ejected and cooling down, HALF_OPEN = probing for
    readmission) and writes its counters, events and spans to the
    *coordinator's* telemetry/tracer — shard-local telemetry only ever
    sees the migration primitives, so per-shard snapshots stay
    comparable with unsupervised runs.
    """

    def __init__(self, chaos: ShardChaos, *, min_healthy: int = 1):
        if min_healthy < 1:
            raise ValueError(f"min_healthy must be >= 1, got {min_healthy}")
        self.chaos = chaos
        self.min_healthy = min_healthy
        self.degraded = False
        self._breakers: dict[int, CircuitBreaker] = {}
        self._ejected_at: dict[int, tuple[int, float]] = {}  # id -> (barrier, now)
        self._barrier = 0

    @property
    def active(self) -> bool:
        """Whether supervision can observably act (a live chaos schedule)."""
        return self.chaos.config.active

    def bind(self, n_shards: int, telemetry: Telemetry, tracer: Tracer) -> None:
        """Attach to a tier of ``n_shards`` (one recovery breaker each).

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
        self._breakers = {
            shard_id: CircuitBreaker(
                BreakerConfig(
                    failure_threshold=1.0,
                    window=1,
                    min_requests=1,
                    cooldown=COOLDOWN_CHUNKS,
                    probe_window=PROBE_WINDOW,
                ),
                name=f"shard-{shard_id}",
            )
            for shard_id in range(n_shards)
        }

    def health_of(self, shard_id: int) -> str:
        """``healthy`` / ``ejected`` / ``probing`` — the Prometheus label."""
        breaker = self._breakers.get(shard_id)
        if breaker is None or breaker.state is BreakerState.CLOSED:
            return "healthy"
        return "probing" if breaker.state is BreakerState.HALF_OPEN else "ejected"

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
        self.chaos.begin_barrier(now)
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
                if self._probe_with_retries(shard_id):
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

    def _probe_with_retries(self, shard_id: int) -> bool:
        if self.chaos.probe(shard_id):
            return True
        for _ in range(MAX_RETRIES):
            self.telemetry.counter("probe_retries").inc()
            if self.chaos.probe(shard_id):
                self.telemetry.counter("shard_flakes_recovered").inc()
                return True
        return False

    def _eject(
        self,
        shard_id: int,
        brokers: Sequence[RequestBroker],
        router: ShardRouter,
        *,
        now: float,
        index: int,
    ) -> None:
        self._breakers[shard_id].record(False)  # single failure trips OPEN
        router.remove_shard(shard_id)
        self._ejected_at[shard_id] = (self._barrier, now)
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
        breaker = self._breakers[shard_id]
        if not breaker.allow():  # OPEN: still inside the recovery cooldown
            return
        breaker.record(self.chaos.probe(shard_id))
        if breaker.state is not BreakerState.CLOSED:
            return
        router.add_shard(shard_id)
        ejected_barrier, _ = self._ejected_at.pop(shard_id)
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
            "chaos": self.chaos.config.to_dict(),
            "degraded": self.degraded,
            "ejected": sorted(self._ejected_at),
            "health": {
                str(shard_id): self.health_of(shard_id)
                for shard_id in sorted(self._breakers)
            },
            "breakers": {
                str(shard_id): breaker.to_dict()
                for shard_id, breaker in sorted(self._breakers.items())
            },
        }
