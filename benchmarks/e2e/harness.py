"""One benchmark run: build, set up, drain, check, measure.

A run is a discrete-event closed loop — the next arrival is submitted
when the previous decision returns, so there is no queue and no waiting
metric.  Its trace is ``W`` warm-up sessions (the fleet ramps to steady
occupancy, prediction cache and lazy memos fill; untimed, booked to
``setup_s``) followed by ``N`` timed ones.  :func:`run_e2e` is the
tracer-off run behind the end-to-end metrics; :func:`run_traced` drains
half the budget untraced and half traced, which yields the per-layer
metrics, the tracing overhead, and the traced-equals-untraced check.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from repro.core.predictor import InterferencePredictor
from repro.core.training import ColocationSpec
from repro.experiments.lab import Lab, LabConfig
from repro.obs.tracing import Tracer

from benchmarks.e2e import probes
from benchmarks.e2e.workloads import QOS, Workload, build_stack, make_trace, small_lab

ROOT = Path(__file__).resolve().parents[2]
#: Build outputs (the trained predictor bundle) live here, inside the
#: checkout and out of git; traces and suite results go to RESULTS_DIR.
BUILD_DIR = ROOT / ".bench_build" / "e2e"
RESULTS_DIR = ROOT / "bench_results"
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3

clock = time.perf_counter


# ----------------------------------------------------------------------
# Build: the offline pipeline, once per checkout.


def _source_key() -> str:
    """Hash of the program's sources: a changed ``src/`` retrains."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_predictor() -> Path:
    """Path of the small-lab predictor bundle, training it if absent.

    The offline pipeline (profile, measure, train RM, train CM: about
    27 s) is this benchmark's build step.  It always starts from an
    empty cache directory, so it never depends on a warm
    ``.repro_cache``; its stage timings are kept next to the bundle and
    printed, because at 27 s they cannot be re-measured inside every run.
    """
    bundle = BUILD_DIR / f"predictor-{_source_key()}.json"
    if bundle.exists():
        return bundle
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    previous = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        try:
            lab = Lab(LabConfig.small())
            stages = {}
            for stage, artifact in (
                ("experiments.lab.profile_s", "db"),
                ("experiments.lab.measure_s", "measured"),
                ("experiments.lab.train_rm_s", "rm_model"),
                ("experiments.lab.train_cm_s", "cm_model"),
            ):
                began = clock()
                getattr(lab, artifact)
                stages[stage] = clock() - began
            partial = Path(cache_dir) / "predictor.json"
            lab.predictor.save(partial)
            os.replace(partial, bundle)
        finally:
            if previous is None:
                del os.environ["REPRO_CACHE_DIR"]
            else:
                os.environ["REPRO_CACHE_DIR"] = previous
    bundle.with_suffix(".build.json").write_text(json.dumps(stages, indent=2) + "\n")
    print(f"built {bundle.name}: {json.dumps(stages)}", file=sys.stderr)
    return bundle


# ----------------------------------------------------------------------
# One drain.


def staged(trace, marks: dict):
    """Yield ``trace``, calling ``marks[i]()`` just before item ``i``.

    ``marks[len(trace)]`` fires on exhaustion.  ``ShardedBroker.run``
    pulls a whole chunk before routing it and only then asks for the
    next, so a mark on a chunk boundary fires while every shard is
    quiescent: the previous chunk is drained and rebalanced.
    """
    for index, session in enumerate(trace):
        mark = marks.get(index)
        if mark is not None:
            mark()
        yield session
    mark = marks.get(len(trace))
    if mark is not None:
        mark()


class Drain:
    """Set a workload up and drain it once; holds everything measured."""

    def __init__(
        self,
        workload: Workload,
        bundle: Path,
        seed: int,
        warmup: int,
        timed: int,
        *,
        block: int = 0,
        traced: bool = False,
        warmup_only: bool = False,
    ):
        self.warmup, self.timed = warmup, timed
        self.tracer = Tracer() if traced else None
        self.outcomes = probes.Outcomes()
        self.tallies = probes.LayerTallies()
        self.stamps: dict[str, float] = {"begin": clock()}
        self.predictor = InterferencePredictor.load(bundle)
        self.stamps["loaded"] = clock()
        self.lab = small_lab()
        self.trace = make_trace(workload, self.lab, warmup + timed, seed)
        self.stamps["generated"] = clock()
        self.stack = build_stack(
            workload, self.predictor, self.lab, seed, warmup, self.tracer
        )
        self.stamps["built"] = clock()
        self.window = None
        self.finish_s = 0.0
        self.spans: list = []
        self.at_boundary: dict = {}
        self.block_ends: list[float] = []
        marks = {0: self._started, warmup: self._boundary}
        if block:
            for index in range(warmup + block, warmup + timed, block):
                marks[index] = self._block_ended
        marks[warmup + timed] = self._ended
        # A warm-up-only drain is a set-up measurement: everything a run
        # does before its timed window (the whole trace is generated),
        # and nothing after.
        sessions = self.trace[:warmup] if warmup_only else self.trace
        self.report = self.stack.drive(staged(sessions, marks))

    # The marks, in firing order.

    def _started(self) -> None:
        # Brokers are started (fleets exist) by the time the first
        # session is pulled: the earliest the fleet shims can go on.
        if self.tracer is not None:
            probes.add_layer_spans(self.stack, self.tracer, self.tallies)
        probes.watch_submits(self.stack.brokers, self.outcomes)
        for broker in self.stack.brokers:
            self._time_finish(broker)

    def _time_finish(self, broker) -> None:
        inner = broker.finish

        def finish():
            began = clock()
            report = inner()
            self.finish_s += clock() - began
            return report

        broker.finish = finish

    def _boundary(self) -> None:
        gc.collect()
        self.outcomes.latencies.clear()
        self.at_boundary = self._counters()
        if self.tracer is not None:
            self.tracer.clear()
            self.tallies.reset()
            self.window = self.tracer.span("h.window")
            self.window.__enter__()
        self.stamps["boundary"] = clock()

    def _block_ended(self) -> None:
        self.block_ends.append(clock())

    def _ended(self) -> None:
        self.stamps["end"] = clock()
        self.block_ends.append(self.stamps["end"])
        if self.window is not None:
            self.window.__exit__(None, None, None)
            self.spans = self.tracer.spans
        self.at_end = self._counters()

    def _counters(self) -> dict:
        """Program counters the per-layer metrics take deltas of."""
        totals = {"hits": 0, "misses": 0, "evictions": 0, "restore_queries": 0}
        for broker in self.stack.brokers:
            for cache in broker.controller.caches().values():
                stats = cache.stats()
                for key in ("hits", "misses", "evictions"):
                    totals[key] += stats[key]
            totals["restore_queries"] += broker.controller.telemetry.counter(
                "restore_queries"
            ).value
        return totals

    # What the drain measured.

    @property
    def setup_s(self) -> float:
        return self.stamps["boundary"] - self.stamps["begin"]

    @property
    def wall_s(self) -> float:
        return self.stamps["end"] - self.stamps["boundary"]

    def block_seconds(self) -> list[float]:
        """Wall time of each block of the timed window, in order."""
        edges = [self.stamps["boundary"], *self.block_ends]
        return [b - a for a, b in zip(edges, edges[1:])]

    def delta(self, key: str) -> int:
        return self.at_end[key] - self.at_boundary[key]

    def exact(self) -> dict:
        """Seeded-exact outputs: equal across repeats and tracer on/off."""
        out = {
            "placements_sha": self.outcomes.digest(),
            "servers_opened": self.report.servers_opened,
            "peak_servers": self.report.peak_servers,
        }
        if self.report.qos:
            out["violation_share"] = self.report.qos["slo"]["violation_fraction"]
            out["fps_residual_mae"] = self.report.qos["calibration"][
                "fps_residual_mae"
            ]
        return out

    def verify(self) -> tuple[int, int, list[str]]:
        """``(attempted, failed, problems)`` for this drain.

        Failures: a ``submit`` that raised, a routed session no shard
        received, a ledger record opened but never closed — and a
        sampled ``cm-feasible`` colocation that an un-instrumented,
        cache-less predictor facade does not call feasible at the QoS
        floor (every 64th colocating placement is audited).
        """
        problems = []
        counters = self.report.telemetry["counters"]
        arrivals = self.warmup + self.timed
        attempted = (
            arrivals
            + counters.get("readmissions", 0)
            + counters.get("sessions_migrated_in", 0)
        )
        lost = arrivals - self.outcomes.raised - self.report.n_sessions
        if self.outcomes.raised:
            problems.append(f"{self.outcomes.raised} submit call(s) raised")
        if lost:
            problems.append(f"{lost} session(s) lost between trace and shards")
        unclosed = 0
        if self.report.qos:
            unclosed = self.report.qos["sessions"]["conservation_errors"]
            if unclosed:
                problems.append(f"ledger opened != closed by {unclosed}")
        facade = InterferencePredictor(
            self.predictor.db, classifier=self.predictor.classifier
        )
        infeasible = sum(
            not facade.colocation_feasible(ColocationSpec(sig), QOS)
            for sig in self.outcomes.audit
        )
        if infeasible:
            problems.append(
                f"{infeasible} of {len(self.outcomes.audit)} audited "
                "cm-feasible placements are infeasible per the bare CM"
            )
        failed = self.outcomes.raised + abs(lost) + unclosed + infeasible
        return attempted, failed, problems


def nearest_rank(ordered: list, q: float) -> float:
    """The ``q``-quantile of an ascending list (nearest-rank)."""
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def run_e2e(workload: Workload, seed: int, seconds: int, smoke: bool) -> dict:
    """Tracer-off run: every end-to-end metric, from one process."""
    bundle = ensure_predictor()
    warmup, timed, block = workload.sizes(seconds, smoke=smoke)
    setups = []
    for _ in range(SETUPS - 1):
        setups.append(
            Drain(workload, bundle, seed, warmup, timed, warmup_only=True).setup_s
        )
        gc.collect()
    drain = Drain(workload, bundle, seed, warmup, timed, block=block)
    setups.append(drain.setup_s)
    attempted, failed, problems = drain.verify()
    latencies = drain.outcomes.latencies
    metrics = {
        "sessions_per_s": (
            block / statistics.median(drain.block_seconds()),
            "sessions/s",
        ),
        "decision_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "servers_opened": (drain.report.servers_opened, "count"),
        "peak_servers": (drain.report.peak_servers, "count"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MiB",
        ),
        "setup_s": (statistics.median(setups), "s"),
    }
    details = {
        "workload": workload.name,
        "seed": seed,
        "warmup": warmup,
        "timed": timed,
        "latency_samples": len(latencies),
        "audited_placements": len(drain.outcomes.audit),
        "setups_s": setups,
        "window_s": drain.wall_s,
        "blocks_s": drain.block_seconds(),
        "exact": drain.exact(),
        "problems": problems,
    }
    return _result(metrics, attempted, failed, problems, details)


def run_traced(workload: Workload, seed: int, seconds: int, smoke: bool) -> dict:
    """Untraced then traced drain of the same trace: per-layer metrics."""
    bundle = ensure_predictor()
    warmup, timed, _ = workload.sizes(seconds, smoke=smoke)
    timed //= 2
    plain = Drain(workload, bundle, seed, warmup, timed)
    attempted, failed, problems = plain.verify()
    stamps = plain.stamps
    exact = plain.exact()
    p99_ms = nearest_rank(sorted(plain.outcomes.latencies), 0.99) * 1e3
    finish_s = plain.finish_s
    del plain
    gc.collect()
    traced = Drain(workload, bundle, seed, warmup, timed, traced=True)
    traced_exact = traced.exact()
    if traced_exact != exact:
        problems.append(f"traced run diverged from untraced: {traced_exact} != {exact}")
    layers, counts = probes.self_times(traced.spans)
    by_name = defaultdict(list)
    for span in traced.spans:
        by_name[span.name].append(span.attributes)
    wall = traced.wall_s
    untraced_wall = stamps["end"] - stamps["boundary"]
    tallies = traced.tallies
    arrivals = max(timed, 1)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def attributes(name, key):
        return [found.get(key) for found in by_name[name]]

    generate_s = stamps["generated"] - stamps["loaded"]
    decisions = attributes("admission", "choice")
    rows = sum(attributes("model_eval", "rows"))
    mutations = (
        counts["h.fleet.place"]
        + tallies.departures
        + counts["h.fleet.crash"]
        + counts["h.fleet.update_resolution"]
    )
    probed = traced.delta("hits") + traced.delta("misses")
    shard_arrivals = getattr(
        traced.report, "shard_sessions", [traced.report.n_sessions]
    )
    qos = traced.report.qos
    values = {
        "core.predictor.load_s": (stamps["loaded"] - stamps["begin"], "s"),
        "serving.loadgen.generate_s": (generate_s, "s"),
        "serving.loadgen.sessions_per_s": (
            per(warmup + timed, generate_s),
            "sessions/s",
        ),
        "setup.stack_build_s": (stamps["built"] - stamps["generated"], "s"),
        "setup.warmup_s": (stamps["boundary"] - stamps["built"], "s"),
        "sharding.router.route_us_per_session": (
            per(layers["sharding.router.route_self_s"], counts["route"]) * 1e6,
            "us",
        ),
        "sharding.rebalance.cycles": (counts["h.rebalance"], "count"),
        "sharding.rebalance.sessions_migrated": (tallies.migrated, "count"),
        "sharding.broker.shard_imbalance": (
            per(max(shard_arrivals), statistics.fmean(shard_arrivals)),
            "ratio",
        ),
        "serving.broker.decision_p99_ms": (p99_ms, "ms"),
        "serving.broker.finish_s": (finish_s, "s"),
        "placement.fleet.mutations": (mutations, "count"),
        "placement.engine.fallback_share": (
            per(sum(attributes("admission", "fallback")), len(decisions)),
            "ratio",
        ),
        "placement.engine.dedicated_share": (
            per(sum(c is None for c in decisions), len(decisions)),
            "ratio",
        ),
        "placement.engine.breaker_opens": (
            sum(to == "open" for to in attributes("breaker_transition", "to")),
            "count",
        ),
        "placement.engine.downscales": (
            sum(o == "hit" for o in attributes("downscale", "outcome")),
            "count",
        ),
        "placement.engine.restore_queries": (
            traced.delta("restore_queries"),
            "count",
        ),
        "placement.cache.probes_per_arrival": (per(probed, arrivals), "count"),
        "placement.cache.hit_rate": (per(traced.delta("hits"), probed), "ratio"),
        "placement.cache.evictions": (traced.delta("evictions"), "count"),
        "core.predictor.batch_calls": (counts["predict_batch"], "count"),
        "core.predictor.specs_per_call": (
            per(sum(attributes("predict_batch", "specs")), counts["predict_batch"]),
            "count",
        ),
        "core.predictor.featurize_us_per_row": (
            per(layers["core.predictor.featurize_self_s"], rows) * 1e6,
            "us",
        ),
        "ml.packed.rows": (rows, "count"),
        "ml.packed.eval_us_per_row": (
            per(layers["ml.packed.eval_self_s"], rows) * 1e6,
            "us",
        ),
        "obs.qos.recomputes": (counts["qos"], "count"),
        "obs.qos.us_per_mutation": (
            per(layers["obs.qos.self_s"], mutations) * 1e6,
            "us",
        ),
        "obs.qos.share_of_wall": (layers["obs.qos.self_s"] / wall, "ratio"),
        "obs.qos.violation_share": (
            qos["slo"]["violation_fraction"] if qos else 0.0,
            "ratio",
        ),
        "obs.qos.fps_residual_mae": (
            qos["calibration"]["fps_residual_mae"] if qos else 0.0,
            "FPS",
        ),
        "obs.tracing.overhead_share": ((wall - untraced_wall) / untraced_wall, "ratio"),
        "obs.tracing.spans_per_arrival": (len(traced.spans) / arrivals, "count"),
        "obs.tracing.span_cost_us": (probes.span_cost_us(Tracer), "us"),
        "attribution.coverage": (
            1.0 - layers["attribution.unattributed_s"] / wall,
            "ratio",
        ),
        "attribution.window_s": (wall, "s"),
    }
    values.update({name: (self_s, "s") for name, self_s in layers.items()})
    values.update(probes.scan_work(tallies.samples))
    RESULTS_DIR.mkdir(exist_ok=True)
    traced.tracer.export_jsonl(RESULTS_DIR / f"e2e_trace_{workload.name}.jsonl")
    details = {
        "workload": workload.name,
        "seed": seed,
        "warmup": warmup,
        "timed": timed,
        "spans": len(traced.spans),
        "sampled_decisions": len(tallies.samples),
        "untraced_window_s": untraced_wall,
        "exact": exact,
        "problems": problems,
    }
    return _result(values, attempted, failed, problems, details)


def _result(metrics, attempted, failed, problems, details) -> dict:
    return {
        "details": details,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
    }
