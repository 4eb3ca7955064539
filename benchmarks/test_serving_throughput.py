"""Throughput bench: broker admission decisions/sec, cold vs. warm cache.

The serving hot path is one CM evaluation per candidate server per
arrival; the prediction cache plus the batched CM call are what keep it
dispatch-rate capable.  This bench replays one seeded trace twice — once
against a cold cache, then against the now-warm cache — and reports
decisions per second for both, so the perf trajectory tracks the serving
loop and not just the figure pipelines.
"""

import time

from benchmarks.conftest import emit, emit_json

from repro.games import DegradeLadder
from repro.obs import QoSLedger
from repro.scheduling.dynamic import generate_sessions
from repro.serving import (
    CMFeasiblePolicy,
    DecisionEngine,
    PredictionCache,
    RequestBroker,
)

N_REQUESTS = 400
SLO_FPS = 30.0
DEGRADE_LADDER = DegradeLadder.from_str("1080p,900p,720p")


def _sessions(lab):
    return generate_sessions(
        lab.names[:8], N_REQUESTS, arrival_rate=4.0, seed=17
    )


def _replay(lab, sessions, cache, *, ledger=None):
    policy = CMFeasiblePolicy(lab.predictor, 60.0, cache=cache)
    return RequestBroker(DecisionEngine(policy), ledger=ledger).run(sessions)


def test_serving_throughput_cold_vs_warm(lab, benchmark):
    sessions = _sessions(lab)
    # Materialize the full predictor (CM *and* RM training) outside any
    # timed region: touching only cm_model used to leave the RM's lazy
    # fit inside the cold timing, dwarfing the decisions being measured.
    lab.predictor

    cold_cache = PredictionCache(8192)
    start = time.perf_counter()
    cold_report = _replay(lab, sessions, cold_cache)
    cold_seconds = time.perf_counter() - start

    warm_cache = PredictionCache(8192)
    _replay(lab, sessions, warm_cache)  # warm every signature the trace visits
    warm_report = benchmark.pedantic(
        _replay, args=(lab, sessions, warm_cache), rounds=3, iterations=1
    )
    warm_seconds = benchmark.stats.stats.mean

    assert cold_report.choices() == warm_report.choices()
    assert warm_cache.hit_rate > cold_cache.hit_rate

    cold_rate = N_REQUESTS / cold_seconds
    warm_rate = N_REQUESTS / warm_seconds
    # Per-decision latency distribution of the cold replay, straight from
    # the engine's decision_latency_s histogram.  Re-keyed into the warm
    # telemetry emitted below so `repro metrics diff` gates the cold path
    # (p50/p99 ceilings; total_s is the inverse of cold decisions/s at
    # the fixed request count) alongside the existing warm-path gates.
    cold_latency = cold_report.telemetry["histograms"]["decision_latency_s"]
    emit(
        "serving_throughput",
        "\n".join(
            [
                "Serving broker throughput (cm-feasible, 8 games, "
                f"{N_REQUESTS} requests)",
                f"{'cache':8s} {'decisions/s':>12s} {'hit rate':>9s}",
                f"{'cold':8s} {cold_rate:12.0f} {cold_cache.hit_rate:9.2%}",
                f"{'warm':8s} {warm_rate:12.0f} {warm_cache.hit_rate:9.2%}",
                "cold decision latency: "
                f"p50<={cold_latency['p50_s']:.4f}s "
                f"p99<={cold_latency['p99_s']:.4f}s "
                f"mean={cold_latency['mean_s'] * 1e3:.2f}ms",
            ]
        ),
    )
    # Ground-truth calibration replay, deliberately outside every timed
    # region: the ledger recomputes measured FPS per mutation, which
    # would otherwise pollute the throughput numbers above.  Its qos
    # section is seeded-deterministic, so the CI calibration gate
    # (`repro slo diff ... --fail-on fps_residual_mae:+10%`) compares
    # it bit-for-bit meaningfully across runs.
    ledger = QoSLedger(lab.catalog, lab.predictor, slo_fps=SLO_FPS)
    qos_report = _replay(lab, sessions, PredictionCache(8192), ledger=ledger)
    assert qos_report.qos["sessions"]["conservation_errors"] == 0

    # Machine-readable twin of the table above: consumed by the CI
    # regression guard via `repro metrics diff` (throughput) and
    # `repro slo diff` (calibration) against the committed baseline in
    # benchmarks/baselines/BENCH_serving.json — promote a fresh local
    # run with `python benchmarks/promote_baselines.py`.
    telemetry = dict(warm_report.telemetry)
    telemetry["histograms"] = dict(telemetry["histograms"])
    telemetry["histograms"]["cold_decision_latency_s"] = cold_latency
    emit_json(
        "BENCH_serving",
        {
            "bench": "serving_throughput",
            "n_requests": N_REQUESTS,
            "slo_fps": SLO_FPS,
            "cold_decisions_per_s": round(cold_rate, 1),
            "warm_decisions_per_s": round(warm_rate, 1),
            "cold_decision_latency_s": {
                "p50_s": cold_latency["p50_s"],
                "p99_s": cold_latency["p99_s"],
                "mean_s": cold_latency["mean_s"],
            },
            "cold_hit_rate": round(cold_cache.hit_rate, 4),
            "warm_hit_rate": round(warm_cache.hit_rate, 4),
            "telemetry": telemetry,
            "qos": qos_report.qos,
        },
    )
    # The warm path must at least keep dispatch-rate viability.
    assert warm_rate > 50


def test_serving_degrade_capacity(lab, benchmark):
    """Capacity bench for the resolution-downscale actuator.

    Replays one dense seeded trace twice — plain chain vs. the actuator
    armed on the 1080p > 900p > 720p ladder with the restore loop — and
    reports servers opened for both.  The decisions are a pure function
    of the seeds (no wall clocks anywhere in placement), so the emitted
    ``servers_opened`` counter is machine-stable and CI gates it hard at
    +0%: a regression that stops the actuator from downscaling shows up
    as a servers_opened jump, not a silent capacity loss.
    """
    lab.predictor
    sessions = generate_sessions(
        lab.names[:8], N_REQUESTS, arrival_rate=9.0, seed=17
    )

    def replay(ladder, restore_interval):
        policy = CMFeasiblePolicy(lab.predictor, 60.0, cache=PredictionCache(8192))
        controller = DecisionEngine(policy, downscale_ladder=ladder)
        ledger = QoSLedger(lab.catalog, lab.predictor, slo_fps=SLO_FPS)
        broker = RequestBroker(
            controller, ledger=ledger, restore_interval=restore_interval
        )
        return broker.run(sessions)

    baseline = replay(None, None)
    report = benchmark.pedantic(
        replay, args=(DEGRADE_LADDER, 64), rounds=1, iterations=1
    )
    assert report.qos["sessions"]["conservation_errors"] == 0
    labeled = report.telemetry.get("labeled", {}).get("counters", {})
    downscales = sum(e["value"] for e in labeled.get("downscales", ()))
    degraded = report.qos.get("degraded", {})
    emit(
        "serving_degrade",
        "\n".join(
            [
                "Serving degrade capacity (cm-feasible, 8 games, "
                f"{N_REQUESTS} requests @ 9/min)",
                f"{'chain':22s} {'servers opened':>14s} {'downscales':>10s}",
                f"{'baseline':22s} {baseline.servers_opened:14d} {0:10d}",
                f"{'downscale + restore':22s} {report.servers_opened:14d} "
                f"{downscales:10d}",
            ]
        ),
    )
    emit_json(
        "BENCH_degrade",
        {
            "bench": "serving_degrade",
            "n_requests": N_REQUESTS,
            "slo_fps": SLO_FPS,
            "ladder": DEGRADE_LADDER.to_list(),
            "restore_interval": 64,
            "servers_opened": report.servers_opened,
            "servers_opened_baseline": baseline.servers_opened,
            "downscales": downscales,
            "degraded_sessions": int(degraded.get("sessions", 0)),
            "degraded_minutes": round(float(degraded.get("minutes", 0.0)), 3),
            "telemetry": report.telemetry,
            "qos": report.qos,
        },
    )
    # The actuator must never cost capacity on the pinned trace.
    assert report.servers_opened <= baseline.servers_opened
