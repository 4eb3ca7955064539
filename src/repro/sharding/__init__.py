"""Sharded multi-broker serving: route, drain, rebalance, supervise.

The scale-out tier above the single-fleet serving stack
(:mod:`repro.serving`).  A consistent-hash ring (:class:`HashRing`)
routes sessions by canonical game signature (:class:`ShardRouter`) onto
N independent broker shards (:class:`ShardedBroker` +
:func:`build_shard_brokers`), an occupancy-driven :class:`Rebalancer`
migrates sessions off hot shards between drain chunks, and a
:class:`ShardSupervisor` keeps the tier alive through whole-shard
outages — seeded chaos (:class:`ShardChaos`, whole-shard outages only)
kills shards, the supervisor probes each shard once per barrier, ejects
a dead one from the ring, fails its sessions over, and readmits it once
a probe after a fixed cooldown finds it healthy.  Per-shard telemetry
merges into one shard-labeled snapshot; ``repro serve --shards N`` is the CLI
frontend and ``benchmarks/bench_sharded.py`` the scale proof.
"""

from repro.sharding.broker import (
    ShardConfig,
    ShardedBroker,
    ShardedReport,
    build_shard_brokers,
)
from repro.sharding.chaos import ShardChaos
from repro.sharding.rebalance import RebalanceConfig, Rebalancer
from repro.sharding.ring import HashRing, stable_hash
from repro.sharding.router import ShardRouter, routing_key
from repro.sharding.supervisor import ShardSupervisor

__all__ = [
    "HashRing",
    "stable_hash",
    "ShardRouter",
    "routing_key",
    "ShardConfig",
    "ShardedBroker",
    "ShardedReport",
    "build_shard_brokers",
    "RebalanceConfig",
    "Rebalancer",
    "ShardChaos",
    "ShardSupervisor",
]
