"""Occupancy-driven session migration between fleet shards.

Consistent hashing balances *keys*, not *load*: a shard that owns a hot
game's arc can end up hosting far more live sessions than its peers.
The :class:`Rebalancer` is the corrective loop — at every barrier the
sharded broker exposes (once per routed chunk), it compares per-shard
live-session occupancy (the O(1) :attr:`FleetState.n_live`) and, when
the hottest shard exceeds ``hot_factor`` times the mean, moves one
server's worth of sessions from it to the coldest shard.

The transport is the crash→evict→readmit primitive the broker already
has — :meth:`RequestBroker.evict_for_migration` on the source,
:meth:`RequestBroker.admit_migrations` on the destination — so migrated
sessions re-enter admission through the same single decision path as
every other arrival.  The ledger is distinct (``migrations`` /
``sessions_migrated_*`` counters, ``migrated=True`` records), never
``server_crashes``: planned moves must not read as failures.

Every decision is a pure function of shard occupancies at the barrier,
so sharded runs stay deterministic with rebalancing enabled — same
seed, same migrations.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.obs.metrics import Telemetry
from repro.obs.tracing import NOOP_TRACER, Tracer
from repro.serving.broker import RequestBroker

__all__ = ["RebalanceConfig", "Rebalancer"]

#: Server migrations per cycle at most, so one check never stalls the
#: drain.
MAX_MOVES = 4


@dataclass(frozen=True)
class RebalanceConfig:
    """Tuning for the occupancy rebalancer.

    ``interval`` is the number of routed arrivals between checks (the
    sharded broker also uses it as its chunk size so checks land on
    deterministic barriers); ``rebalancer=None`` turns rebalancing off.
    ``hot_factor`` is the occupancy multiple of the fleet mean beyond
    which a shard counts as hot.
    """

    interval: int = 2048
    hot_factor: float = 1.5

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        if self.hot_factor < 1.0:
            raise ValueError(f"hot_factor must be >= 1, got {self.hot_factor}")


class Rebalancer:
    """Moves sessions from hot shards to cold ones at drain barriers."""

    def __init__(
        self,
        config: RebalanceConfig | None = None,
        *,
        telemetry: Telemetry | None = None,
        tracer: Tracer | None = None,
    ):
        self.config = config if config is not None else RebalanceConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER

    def rebalance(
        self,
        brokers: Sequence[RequestBroker],
        *,
        now: float,
        index: int,
        healthy: Sequence[int] | None = None,
    ) -> int:
        """Run one cycle against the shard brokers; returns sessions moved.

        ``now`` is the barrier's logical time (the last routed arrival)
        and ``index`` its global arrival index; both only label events
        and spans.  ``healthy`` restricts the cycle to a subset of shard
        ids (the supervisor passes the current ring members so sessions
        are never rebalanced *onto* an ejected shard); ``None`` means
        all shards, which is bit-for-bit the pre-supervision behaviour.
        Must be called while no shard worker is draining — the sharded
        broker guarantees this by rebalancing only between chunks.
        """
        self.telemetry.counter("rebalance_cycles").inc()
        ids = list(range(len(brokers))) if healthy is None else sorted(healthy)
        n = len(ids)
        if n < 2:
            return 0
        loads = {i: brokers[i].fleet.n_live for i in ids}
        total = sum(loads.values())
        if total == 0:
            return 0
        mean = total / n
        moved = 0
        for _ in range(MAX_MOVES):
            hot = max(ids, key=lambda i: (loads[i], -i))
            cold = min(ids, key=lambda i: (loads[i], i))
            if hot == cold or loads[hot] <= self.config.hot_factor * mean:
                break
            server_loads = brokers[hot].fleet.loads()
            if not server_loads:
                break
            # Smallest server first: least disruption per move, and the
            # gap guard keeps a move from overshooting past the mean
            # (which would just invert the imbalance and thrash).
            victim = min(server_loads, key=lambda sid: (server_loads[sid], sid))
            if server_loads[victim] > (loads[hot] - loads[cold]) / 2:
                break
            with self.tracer.span(
                "migrate",
                from_shard=hot,
                to_shard=cold,
                server_id=victim,
                arrival_index=index,
            ) as span:
                sessions = brokers[hot].evict_for_migration(
                    victim, now=now, index=index
                )
                brokers[cold].admit_migrations(sessions, index, now=now)
                span.set(sessions=len(sessions))
            self.telemetry.counter("rebalance_migrations").inc()
            self.telemetry.counter("rebalance_sessions_moved").inc(len(sessions))
            loads[hot] -= len(sessions)
            loads[cold] += len(sessions)
            moved += len(sessions)
        if moved:
            self.telemetry.event(
                "rebalance",
                time=now,
                arrival_index=index,
                sessions_moved=moved,
            )
        return moved
