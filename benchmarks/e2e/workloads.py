"""The named workloads and the serving stacks they drain through.

Every workload replays Poisson arrivals (20/min) with exponential
durations at ``qos=60``, ``max_colocation=4`` and
``keep_records=False``, through the public serving API only
(``build_shard_brokers``, ``RequestBroker.start`` / ``submit`` /
``finish``, ``ShardedBroker.run``).  What differs is which layer the
time lands in; the ``why`` of each workload says which.

Occupancy is sized to the decision cost.  A fleet's composition is a
random walk that forgets its past once per turnover (one arrival per
live session), so a timed window of ``N`` arrivals holds ``N / live``
independent looks at it.  The scan-bound workloads decide in well under
a millisecond and keep the sharded scale bench's ~600 live sessions
(mean duration 30 min); the model- and ledger-bound ones decide in
2-8 ms and run at ~200 live (mean 10 min), which keeps every window
above six turnovers.  At 600 live their ten-second windows held two to
four, and every timing metric moved 18-20% from one seed to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments.lab import Lab, LabConfig
from repro.games.resolution import DegradeLadder
from repro.serving import TraceConfig, generate_trace
from repro.sharding import (
    RebalanceConfig,
    Rebalancer,
    ShardConfig,
    ShardedBroker,
    build_shard_brokers,
)

ARRIVAL_RATE = 20.0
QOS = 60.0
MAX_COLOCATION = 4
#: Sharded drain chunk = rebalance interval; the warm-up is a multiple
#: of it, so the timed window starts on a quiescent chunk barrier.
CHUNK = 1024
#: ``--smoke`` sizes: enough arrivals to reach every code path, few
#: enough that the whole suite runs in well under 90 s.
SMOKE_WARMUP, SMOKE_TIMED = 256, 512


@dataclass(frozen=True)
class Workload:
    """One traffic mix plus the stack shape it drains through.

    ``rate`` is timed sessions per second of ``--seconds``: the seed
    code's throughput on the 2-core sandbox, rounded down, so a run
    measures for about ``--seconds`` seconds there while the amount of
    work — and with it every seeded-exact counter — depends only on the
    arguments, never on the machine.
    """

    name: str
    why: str
    shards: int
    games: int | None
    mixed: bool
    cache_size: int
    warmup: int
    rate: int
    mean_duration: float = 30.0
    churn: bool = False

    def sizes(self, seconds: int, *, smoke: bool = False) -> tuple[int, int, int]:
        """``(warm-up, timed, block)`` session counts for one run.

        The timed window is cut into blocks (about 80; a sharded drain's
        are its chunks, the only points where the coordinator hands
        control back); throughput is the median over the blocks.
        """
        warmup, timed = self.warmup, self.rate * seconds
        if smoke:
            warmup, timed = SMOKE_WARMUP, SMOKE_TIMED
        block = math.gcd(warmup, CHUNK) if self.shards > 1 else max(timed // 80, 1)
        return warmup, timed, block


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="fleet_hot",
        why="8 popular games at 1080p, cache hit rate 0.999: all time is "
        "candidate scan, re-keying and cache probes; the models do nothing",
        shards=1,
        games=8,
        mixed=False,
        cache_size=65536,
        warmup=4096,
        rate=2048,
    ),
    Workload(
        name="sharded_4",
        why="fleet_hot's trace (a prefix of this one) through 4 shards with "
        "rebalancing: adds router, rebalancer and merge, divides the scan by 4",
        shards=4,
        games=8,
        mixed=False,
        cache_size=65536,
        warmup=4096,
        rate=6144,
    ),
    Workload(
        name="longtail",
        why="20 games x 3 resolutions with the default 4096-entry cache: "
        "working set >> cache, LRU evicting, featurize + tree eval dominate",
        shards=1,
        games=None,
        mixed=True,
        cache_size=4096,
        warmup=1024,
        rate=448,
        mean_duration=10.0,
    ),
    Workload(
        name="ledger_churn",
        why="longtail mix with crashes, faults, downscale/restore and the QoS "
        "ledger re-measuring every fleet mutation: the write-heavy twin",
        shards=1,
        games=None,
        mixed=True,
        cache_size=65536,
        warmup=512,
        rate=128,
        mean_duration=10.0,
        churn=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: ``ledger_churn``'s failure realism and actuator settings.  Injected
#: predictor faults send a decision to the worst-fit fallback, which
#: costs ~50 ms; at 0.5% they stay rarer than the p99 rank, so the tail
#: metric reads the main path and the fallback still runs.
CHURN_CONFIG = {
    "slo_fps": QOS,
    "degrade_ladder": DegradeLadder.from_str("1080p,900p,720p"),
    "crash_rate": 0.01,
    "fault_rate": 0.005,
}
CHURN_RESTORE_INTERVAL = 64


def small_lab() -> Lab:
    """The 20-game lab the predictor is built from (names and catalog).

    The config is passed explicitly so the harness never depends on
    ``REPRO_SCALE`` in the ambient environment.
    """
    return Lab(LabConfig.small())


def make_trace(workload: Workload, lab: Lab, n_sessions: int, seed: int) -> list:
    """The first ``n_sessions`` arrivals of the workload's seeded trace.

    ``generate_trace`` draws sessions sequentially, so a shorter trace
    is a prefix of a longer one at the same seed — which is what makes
    ``fleet_hot`` a prefix of ``sharded_4``.
    """
    names = lab.names if workload.games is None else lab.names[: workload.games]
    return generate_trace(
        names,
        TraceConfig(
            n_requests=n_sessions,
            arrival_rate=ARRIVAL_RATE,
            mean_duration=workload.mean_duration,
            mixed_resolutions=workload.mixed,
            seed=seed,
        ),
    )


@dataclass
class Stack:
    """The brokers of one run and, when sharded, their coordinator."""

    brokers: list
    sharded: ShardedBroker | None = None

    def drive(self, stream):
        """Drain ``stream`` (arrival-ordered sessions); returns the report.

        One process, one thread: ``ShardedBroker(parallel=False)`` gives
        identical results by design, and four shard threads on two
        cores would measure the GIL rather than the program.
        """
        if self.sharded is not None:
            return self.sharded.run(stream, presorted=True)
        (broker,) = self.brokers
        broker.start()
        for index, session in enumerate(stream):
            broker.submit(session, index)
        return broker.finish()


def build_stack(
    workload: Workload, predictor, lab: Lab, seed: int, warmup: int, tracer=None
) -> Stack:
    """Construct the workload's serving stack over ``predictor``.

    ``seed`` feeds ``ShardConfig.seed`` only (from which the per-shard
    crash and fault substreams derive).  A ``tracer`` is shared by every
    shard and the coordinator: the drain is single-threaded, so one span
    stack nests routing, draining and rebalancing into one tree.
    """
    config = ShardConfig(
        qos=QOS,
        cache_size=workload.cache_size,
        max_colocation=MAX_COLOCATION,
        seed=seed,
        keep_records=False,
        **(CHURN_CONFIG if workload.churn else {}),
    )
    brokers = build_shard_brokers(
        predictor,
        workload.shards,
        config,
        tracers=[tracer] * workload.shards if tracer is not None else None,
        catalog=lab.catalog if workload.churn else None,
    )
    if workload.churn:
        # build_shard_brokers leaves the restore clock to its caller (the
        # sharded tier restores at barriers); a single broker takes it
        # as this plain attribute.
        for broker in brokers:
            broker.restore_interval = CHURN_RESTORE_INTERVAL
    if workload.shards == 1:
        return Stack(brokers)
    chunk = math.gcd(warmup, CHUNK)
    sharded = ShardedBroker(
        brokers,
        rebalancer=Rebalancer(
            RebalanceConfig(interval=chunk, hot_factor=1.2), tracer=tracer
        ),
        tracer=tracer,
        parallel=False,
        chunk_size=chunk,
    )
    return Stack(brokers, sharded)
