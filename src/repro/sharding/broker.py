"""The sharded serving tier: N broker shards behind one router.

A single :class:`~repro.serving.RequestBroker` is an event loop over one
fleet; at millions of sessions its decision cost grows with the pool and
one Python thread caps throughput.  :class:`ShardedBroker` scales the
tier *out* instead: arrivals are routed by canonical game signature over
a consistent-hash ring (:class:`~repro.sharding.ShardRouter`) onto N
shard workers, each owning a full, independent serving stack — its own
:class:`~repro.placement.FleetState`, decision engine, prediction cache,
telemetry and tracer.  Shards share only immutable inputs (the profile
database and trained models, behind per-shard predictor facades), so
they drain concurrently without locks and every shard is a deterministic
function of its own arrival subsequence and seed
(``derive_seed(seed, "shard", shard_id)`` for chaos substreams).

The drain alternates routing and serving in chunks: the coordinator
routes a chunk of the arrival-ordered trace into per-shard batches, the
workers drain their batches in parallel, and the chunk boundary is a
barrier where the :class:`~repro.sharding.Rebalancer` (if configured)
may migrate sessions between quiescent shards — which is what keeps
rebalanced runs deterministic under a fixed seed.

Reporting merges the per-shard telemetry snapshots with
:func:`~repro.obs.label_snapshot` + :func:`~repro.obs.merge_snapshots`:
the merged snapshot carries fleet-wide totals at the top level and
intact per-shard series (``shard`` label) underneath, so one Prometheus
exposition shows both views.

:func:`build_shard_brokers` is the one constructor of a serving stack —
telemetry, fault injector, prediction cache, policies, decision engine,
QoS ledger, broker — for the CLI and the benchmarks alike.  An unsharded
``repro serve`` is shard 0 of a one-shard stack driven by
:meth:`RequestBroker.run`, so ``--shards 1`` telemetry is byte-identical
to it at the same seed, chaos and degrade runs included (the parity
tests pin this).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

from repro.games.resolution import DegradeLadder
from repro.obs.metrics import Telemetry, label_snapshot, merge_all
from repro.obs.tracing import NOOP_TRACER, Tracer
from repro.placement.fleet import Session
from repro.serving.broker import RequestBroker, ServingReport
from repro.sharding.rebalance import Rebalancer
from repro.sharding.router import ShardRouter
from repro.sharding.supervisor import ShardSupervisor
from repro.utils.rng import derive_seed

__all__ = [
    "ShardConfig",
    "ShardedReport",
    "ShardedBroker",
    "build_shard_brokers",
]

#: Chunk size for the route → drain alternation when no rebalancer
#: interval dictates one: large enough to amortize thread handoff,
#: small enough to keep per-chunk batch lists cache-friendly.
DEFAULT_CHUNK = 8192


@dataclass(frozen=True)
class ShardConfig:
    """Per-shard serving-stack knobs (mirrors ``repro serve``'s flags).

    One config builds every shard; the only per-shard variation is the
    seed-derived chaos substream (``derive_seed(seed, "shard", id)``), so
    adding a shard never perturbs another shard's randomness.
    """

    policy: str = "cm-feasible"
    qos: float = 60.0
    cache_size: int = 4096
    max_colocation: int = 4
    fault_rate: float = 0.0
    crash_rate: float = 0.0
    seed: int = 0
    keep_records: bool = True
    #: Per-session FPS target for the QoS ledger; ``None`` disables
    #: ground-truth accounting entirely (zero overhead, byte-identical
    #: reports to pre-ledger runs).
    slo_fps: float | None = None
    #: SLO error budget: tolerated fraction of a session's lifetime below
    #: ``slo_fps`` before its budget burns.
    qos_budget: float = 0.05
    #: Resolution ladder for the downscale actuator; ``None`` disables
    #: quality degradation entirely (byte-identical to pre-actuator runs).
    degrade_ladder: DegradeLadder | None = None
    #: Re-promote degraded sessions every K of a shard's own arrivals
    #: (:class:`~repro.serving.RequestBroker`'s restore clock); ``None``
    #: never restores.
    restore_interval: int | None = None


def build_shard_brokers(
    predictor,
    n_shards: int,
    config: ShardConfig | None = None,
    *,
    tracers: Sequence[Tracer] | None = None,
    catalog=None,
) -> list[RequestBroker]:
    """Build ``n_shards`` independent broker stacks over one predictor.

    Each shard gets its own telemetry, prediction cache, fault injector,
    policy chain, decision engine and (optionally) tracer; the expensive
    immutable inputs — profile database and trained models — are shared
    through a per-shard :class:`~repro.core.InterferencePredictor`
    facade, so instrumentation and caches never cross shard boundaries.

    With ``config.slo_fps`` set, each shard additionally carries its own
    :class:`~repro.obs.qos.QoSLedger` over ``catalog`` (required then):
    qos metrics stay shard-private like every other mutable piece and
    merge exactly through the labeled-snapshot machinery.
    """
    from repro.core.predictor import InterferencePredictor
    from repro.placement import DecisionEngine, PredictionCache, build_policy
    from repro.serving.faults import FaultInjector

    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if tracers is not None and len(tracers) != n_shards:
        raise ValueError(f"need {n_shards} tracers, got {len(tracers)}")
    config = config if config is not None else ShardConfig()
    if config.slo_fps is not None and catalog is None:
        raise ValueError("slo_fps accounting needs a game catalog")
    brokers = []
    for shard_id in range(n_shards):
        telemetry = Telemetry()
        facade = InterferencePredictor(
            predictor.db,
            classifier=predictor.classifier,
            regressor=predictor.regressor,
        )
        injector = None
        if config.fault_rate:  # the injector rejects a rate outside [0, 1]
            injector = FaultInjector(
                config.fault_rate,
                seed=derive_seed(config.seed, "shard", shard_id),
                telemetry=telemetry,
            )
        policy, fallback = build_policy(
            config.policy,
            predictor=facade,
            qos=config.qos,
            cache=PredictionCache(config.cache_size),
            max_colocation=config.max_colocation,
            injector=injector,
        )
        controller = DecisionEngine(
            policy,
            fallback=fallback,
            telemetry=telemetry,
            tracer=tracers[shard_id] if tracers is not None else None,
            downscale_ladder=config.degrade_ladder,
        )
        ledger = None
        if config.slo_fps is not None:
            from repro.obs.qos import QoSLedger

            ledger = QoSLedger(
                catalog,
                facade,
                slo_fps=config.slo_fps,
                budget_fraction=config.qos_budget,
            )
        brokers.append(
            RequestBroker(
                controller,
                crash_rate=config.crash_rate,
                crash_seed=derive_seed(config.seed, "shard", shard_id),
                keep_records=config.keep_records,
                ledger=ledger,
                restore_interval=config.restore_interval,
            )
        )
    return brokers


@dataclass
class ShardedReport:
    """Everything one sharded drain produced.

    ``telemetry`` is the shard-labeled merge of every shard's snapshot
    (fleet totals at the top level, per-shard series under ``labeled``);
    ``coordinator`` is the router/rebalancer's own snapshot (routing
    volume and latency, rebalance cycles).  ``peak_servers`` sums the
    per-shard peaks — the fleet's provisioning envelope when every shard
    is a separate capacity pool.
    """

    shard_reports: list[ServingReport]
    telemetry: dict = field(default_factory=dict)
    coordinator: dict = field(default_factory=dict)
    supervision: dict = field(default_factory=dict)
    qos: dict = field(default_factory=dict)

    @property
    def n_shards(self) -> int:
        return len(self.shard_reports)

    @property
    def n_sessions(self) -> int:
        """Original arrivals routed (not re-admissions or migrations)."""
        return sum(r.n_arrivals for r in self.shard_reports)

    @property
    def shard_sessions(self) -> list[int]:
        """Arrivals per shard, in shard-id order (balance at a glance)."""
        return [r.n_arrivals for r in self.shard_reports]

    @property
    def servers_opened(self) -> int:
        return sum(r.servers_opened for r in self.shard_reports)

    @property
    def peak_servers(self) -> int:
        return sum(r.peak_servers for r in self.shard_reports)

    @property
    def migrations(self) -> int:
        """Server migrations executed across all shards (source side)."""
        return sum(
            r.telemetry.get("counters", {}).get("migrations", 0)
            for r in self.shard_reports
        )

    @property
    def sessions_migrated(self) -> int:
        return sum(
            r.telemetry.get("counters", {}).get("sessions_migrated_out", 0)
            for r in self.shard_reports
        )

    def to_dict(self) -> dict:
        """JSON-able summary plus per-shard reports.

        ``supervision`` only appears when a supervisor actually ran —
        unsupervised (and zero-chaos) reports stay byte-identical to
        pre-supervision output.
        """
        out = {
            "n_sessions": self.n_sessions,
            "n_shards": self.n_shards,
            "shard_sessions": self.shard_sessions,
            "servers_opened": self.servers_opened,
            "peak_servers": self.peak_servers,
            "migrations": self.migrations,
            "sessions_migrated": self.sessions_migrated,
            "coordinator": self.coordinator,
            "telemetry": self.telemetry,
            "shards": [r.to_dict() for r in self.shard_reports],
        }
        if self.supervision:
            out["supervision"] = self.supervision
        if self.qos:
            out["qos"] = self.qos
        return out


class ShardedBroker:
    """Coordinator: route a trace across shard brokers and merge reports.

    ``brokers`` own all mutable serving state; the coordinator owns only
    the router, its own telemetry, and the drain loop.  ``parallel=False``
    drains shards sequentially on the calling thread (useful under
    profilers); results are identical either way because workers share
    nothing.
    """

    def __init__(
        self,
        brokers: Sequence[RequestBroker],
        *,
        rebalancer: Rebalancer | None = None,
        supervisor: ShardSupervisor | None = None,
        telemetry: Telemetry | None = None,
        tracer: Tracer | None = None,
        parallel: bool = True,
        chunk_size: int | None = None,
    ):
        if not brokers:
            raise ValueError("need at least one shard broker")
        self.brokers = list(brokers)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.router = ShardRouter(len(self.brokers), tracer=self.tracer)
        self.rebalancer = rebalancer
        self.supervisor = supervisor
        if supervisor is not None:
            # Its counters, events and spans land in the coordinator's
            # telemetry/tracer, so one snapshot carries routing volume and
            # the resilience timeline side by side.
            supervisor.bind(len(self.brokers), self.telemetry, self.tracer)
        # Supervision only observably acts when the chaos schedule can
        # fire; gating here keeps zero-chaos runs byte-exact pass-throughs.
        self._supervising = supervisor is not None and supervisor.active
        self.parallel = bool(parallel)
        if chunk_size is None:
            chunk_size = (
                rebalancer.config.interval if rebalancer is not None else DEFAULT_CHUNK
            )
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = int(chunk_size)

    def _drain(self, shard_id: int, batch: list[tuple[int, Session]]) -> None:
        broker = self.brokers[shard_id]
        for index, session in batch:
            broker.submit(session, index)

    def run(
        self, sessions: Iterable[Session], *, presorted: bool = False
    ) -> ShardedReport:
        """Route and drain ``sessions``; returns the merged report.

        ``presorted=True`` promises the iterable is already in
        nondecreasing arrival order (what the trace generators emit) and
        streams it without materializing — the memory valve that lets
        the scale benchmark push millions of sessions.
        """
        stream = (
            iter(sessions)
            if presorted
            else iter(sorted(sessions, key=lambda s: s.arrival))
        )
        for broker in self.brokers:
            broker.start()
        n_shards = len(self.brokers)
        pool = (
            ThreadPoolExecutor(
                max_workers=n_shards, thread_name_prefix="shard"
            )
            if self.parallel and n_shards > 1
            else None
        )
        index = 0
        try:
            while True:
                chunk = list(islice(stream, self.chunk_size))
                if not chunk:
                    break
                # Supervision barrier first: outages fire and failover
                # completes *before* routing, so every arrival in this
                # chunk is routed against a ring of healthy shards and no
                # session can land on a shard that dies mid-chunk.
                if self._supervising:
                    self.supervisor.tick(
                        self.brokers,
                        self.router,
                        now=chunk[0].arrival,
                        index=index,
                    )
                batches: list[list[tuple[int, Session]]] = [
                    [] for _ in range(n_shards)
                ]
                with self.telemetry.time("route_batch_s"):
                    if self._supervising:
                        for session in chunk:
                            shard = self.supervisor.route(
                                session, index, self.router, self.brokers
                            )
                            batches[shard].append((index, session))
                            index += 1
                    else:
                        for session in chunk:
                            batches[self.router.route(session, index)].append(
                                (index, session)
                            )
                            index += 1
                self.telemetry.counter("routed").inc(len(chunk))
                if pool is not None:
                    futures = [
                        pool.submit(self._drain, shard_id, batch)
                        for shard_id, batch in enumerate(batches)
                        if batch
                    ]
                    for future in futures:
                        future.result()
                else:
                    for shard_id, batch in enumerate(batches):
                        if batch:
                            self._drain(shard_id, batch)
                # Chunk boundary: every worker is quiescent, so shard
                # occupancies are stable and migration is deterministic.
                if self.rebalancer is not None:
                    self.rebalancer.rebalance(
                        self.brokers,
                        now=chunk[-1].arrival,
                        index=index - 1,
                        healthy=(
                            self.router.shard_ids if self._supervising else None
                        ),
                    )
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        reports = [broker.finish() for broker in self.brokers]
        if self._supervising:
            # The conservation invariant, as a metric: every routed
            # arrival was submitted to exactly one shard.  Nonzero here
            # means the tier dropped sessions — the bench guard and the
            # chaos-smoke CI job both fail on any growth from zero.
            routed = self.telemetry.counter("routed").value
            arrived = sum(r.n_arrivals for r in reports)
            self.telemetry.counter("sessions_lost").inc(max(0, routed - arrived))
        labeled = []
        for shard_id, report in enumerate(reports):
            if self._supervising:
                labels = {
                    "shard": shard_id,
                    "health": self.supervisor.health_of(shard_id),
                }
            else:
                labels = {"shard": shard_id}
            labeled.append(label_snapshot(report.telemetry, **labels))
        merged = merge_all(labeled)
        # Fleet-wide qos: derived from the *merged* snapshot, so the
        # calibration stats are exactly what one giant ledger would have
        # reported (every stat reduces to histogram totals/counts).
        ledgers = [b.ledger for b in self.brokers if b.ledger is not None]
        qos = ledgers[0].section(merged) if ledgers else {}
        return ShardedReport(
            shard_reports=reports,
            telemetry=merged,
            coordinator=self.telemetry.snapshot(),
            supervision=self.supervisor.snapshot() if self._supervising else {},
            qos=qos,
        )
