"""Shard-level chaos: seeded whole-shard outages.

The serving fault model (:mod:`repro.serving.faults`, the broker's
server crashes) stops at the component layer — an erroring predictor, a
crashing server inside one fleet; this module models the failure domain
above it — an entire broker shard dropping out of the serving tier, the
way a rack loses power or a worker process is OOM-killed.  It is the
*generative* half of shard supervision: :class:`ShardChaos` decides,
deterministically, which shards are down when, and the
:class:`~repro.sharding.ShardSupervisor` only ever observes that world
through :meth:`ShardChaos.probe` — exactly the information a real health
checker would have.

The one fault is an **outage**: with probability ``outage_rate`` per
shard per chunk barrier, a shard stops responding for ``outage_chunks``
consecutive barriers, and the supervisor must eject it from the ring and
fail its sessions over.  Every draw comes from the shard's own substream
(``derive_seed(seed, "shard-chaos", shard_id)``), so adding a shard
never perturbs another shard's schedule, a zero rate never touches an
RNG, and the same seed replays the same outages byte for byte.
"""

from __future__ import annotations

import math

from repro.utils.rng import derive_seed, spawn_rng

__all__ = ["ShardChaos"]


class ShardChaos:
    """The ground truth of shard availability, advanced barrier by barrier.

    ``outage_rate`` is the per-shard per-barrier outage probability;
    ``outage_chunks`` is how many barriers a shard stays down once an
    outage fires (its recovery is deterministic, so the supervisor's
    cooldown/probe loop — not luck — decides when it rejoins the ring).

    The supervisor calls :meth:`begin_barrier` once per chunk barrier,
    then :meth:`probe` against individual shards.  The outage draw
    happens at most once per shard per barrier — on the first probe — so
    a later probe in the same barrier observes a stable world instead of
    rerolling it.
    """

    def __init__(
        self,
        n_shards: int,
        outage_rate: float,
        *,
        outage_chunks: int = 4,
        seed: int = 0,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if math.isnan(outage_rate) or not 0.0 <= outage_rate <= 1.0:
            raise ValueError(f"outage_rate must be in [0, 1], got {outage_rate}")
        if outage_chunks < 1:
            raise ValueError(f"outage_chunks must be >= 1, got {outage_chunks}")
        self.n_shards = int(n_shards)
        self.outage_rate = float(outage_rate)
        self.outage_chunks = int(outage_chunks)
        self.seed = seed
        self._rngs = [
            spawn_rng(derive_seed(seed, "shard-chaos", shard_id))
            for shard_id in range(self.n_shards)
        ]
        self._down_until = [0] * self.n_shards  # exclusive barrier index
        self._drawn = [False] * self.n_shards
        self._barrier = 0

    @property
    def active(self) -> bool:
        """True when outages can fire."""
        return self.outage_rate > 0.0

    def to_dict(self) -> dict:
        """JSON-able form (embedded in the supervision report)."""
        return {
            "outage_rate": self.outage_rate,
            "outage_chunks": self.outage_chunks,
            "seed": self.seed,
        }

    def begin_barrier(self) -> None:
        """Advance the barrier clock."""
        self._barrier += 1
        self._drawn = [False] * self.n_shards

    def is_down(self, shard_id: int) -> bool:
        """Whether ``shard_id`` is inside an outage at the current barrier."""
        return self._barrier < self._down_until[shard_id]

    def probe(self, shard_id: int) -> bool:
        """One health probe against ``shard_id``; ``False`` = no response.

        The first probe of a barrier draws the shard's outage for that
        barrier; an already-down shard draws nothing, so its recovery
        date never depends on how often it was probed.
        """
        if not (self._drawn[shard_id] or self.is_down(shard_id)):
            self._drawn[shard_id] = True
            # A zero rate short-circuits before the RNG, as
            # FaultInjector.fire does: an inactive schedule never draws.
            if self.outage_rate > 0.0 and (
                self._rngs[shard_id].random() < self.outage_rate
            ):
                self._down_until[shard_id] = self._barrier + self.outage_chunks
        return not self.is_down(shard_id)
