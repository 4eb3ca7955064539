"""Session → shard routing over the consistent-hash ring.

:class:`ShardRouter` keys each session by its canonical game signature
entry — the same ``(game, resolution)`` pair
:func:`repro.placement.signature.entry_of` feeds the placement stack —
so every session of the same game at the same resolution lands on the
same shard.  That affinity is what makes sharding *help* placement
rather than fragment it: a shard accumulates the servers hosting its own
games, so colocation candidates for an arriving session live on its own
shard and the per-shard prediction caches stay hot.

Routing is a pure function of the key and the ring layout, memoized per
``(game, resolution)`` entry, so steady-state routing is one dict hit —
cheap enough to sit in front of a million-session drain.  When a tracer
is active each routed session opens a ``route`` span (the layer above
the per-shard ``request`` spans), recording the key and chosen shard.
"""

from __future__ import annotations

from repro.obs.tracing import NOOP_TRACER, Tracer
from repro.placement.signature import entry_of
from repro.sharding.ring import HashRing

__all__ = ["routing_key", "ShardRouter"]


def routing_key(session) -> str:
    """Canonical routing key: the session's signature entry as text."""
    game, resolution = entry_of(session)
    return f"{game}@{resolution.width}x{resolution.height}"


class ShardRouter:
    """Route sessions onto shard ids ``0..n_shards-1`` by game signature.

    The ring is fixed for the life of a serve run — the rebalancer moves
    *sessions* between shards, never ring arcs — so the memo table only
    needs invalidating on explicit :meth:`add_shard` /
    :meth:`remove_shard` topology changes.
    """

    def __init__(self, n_shards: int, *, tracer: Tracer | None = None):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.ring = HashRing(range(n_shards))
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._memo: dict[tuple, int] = {}

    @property
    def n_shards(self) -> int:
        return len(self.ring)

    @property
    def shard_ids(self) -> list[int]:
        return self.ring.nodes

    def shard_of(self, session) -> int:
        """The shard owning ``session`` (memoized ring lookup)."""
        entry = entry_of(session)
        shard = self._memo.get(entry)
        if shard is None:
            shard = self.ring.lookup(routing_key(session))
            self._memo[entry] = shard
        return shard

    def route(self, session, index: int) -> int:
        """Route one arrival, opening a ``route`` span when tracing."""
        if not self.tracer.enabled:
            return self.shard_of(session)
        return self._traced(session, index, None)

    def route_forced(self, session, index: int, shard: int) -> int:
        """Route one arrival to a caller-chosen shard (degraded mode).

        The supervisor uses this below its healthy-shard floor: affinity
        is abandoned in favor of any shard still standing.  The span is
        marked ``fallback=True`` so traces distinguish forced routes
        from ring lookups.
        """
        if not self.tracer.enabled:
            return shard
        return self._traced(session, index, shard)

    def _traced(self, session, index: int, forced: int | None) -> int:
        """The ``route`` span around a ring lookup, or a ``forced`` shard."""
        with self.tracer.span(
            "route",
            request=index,
            game=session.game,
            resolution=str(session.resolution),
        ) as span:
            if forced is None:
                shard = self.shard_of(session)
                span.set(shard=shard)
            else:
                shard = forced
                span.set(shard=shard, fallback=True)
        return shard

    # -- topology -------------------------------------------------------

    def add_shard(self, shard_id: int) -> None:
        """Join a shard; only ~1/N of the key space re-routes to it."""
        self.ring.add(shard_id)
        self._memo.clear()

    def remove_shard(self, shard_id: int) -> None:
        """Drop a shard; its arcs fall to the surviving shards."""
        self.ring.remove(shard_id)
        self._memo.clear()
