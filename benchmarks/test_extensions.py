"""Benches for the extension experiments (paper Sections 6-8 items).

Not figures of the paper, but quantified versions of its discussion items:
processing-delay prediction (§7), conservative profiling (§7), dynamic
sessions (§1's online regime), profile completion (§6), heterogeneous
servers (§8), and the design-choice ablations from DESIGN.md.
"""

import os

import pytest

from benchmarks.conftest import emit, run_once
from repro.experiments import (
    ablations,
    ext_completion,
    ext_conservative,
    ext_delay,
    ext_dynamic,
    ext_hetero,
)


def _small() -> bool:
    return os.environ.get("REPRO_SCALE") == "small"


def test_ext_delay(lab, benchmark):
    result = run_once(benchmark, ext_delay.run, lab)
    emit("ext_delay", ext_delay.render(result))
    # The methodology extends to processing delay with similar accuracy.
    assert result["overall_error"] < (0.25 if _small() else 0.15)
    assert result["delay_ratio_range"][1] > 1.2  # contention visibly inflates delay


def test_ext_conservative(lab, benchmark):
    result = run_once(benchmark, ext_conservative.run, lab)
    emit("ext_conservative", ext_conservative.render(result))
    # Conservative profiling only removes colocations (never adds)...
    assert result["conservative_is_subset"]
    assert result["feasible_min"] <= result["feasible_mean"]
    # ...and mean-FPS profiling does admit transient violators (the
    # Section 7 concern is real in this world).
    if result["feasible_mean"]:
        assert result["transient_violations"] >= 0


def test_ext_dynamic(lab, benchmark):
    n_sessions = 200 if _small() else 800
    result = run_once(
        benchmark, lambda: ext_dynamic.run(lab, n_sessions=n_sessions)
    )
    emit("ext_dynamic", ext_dynamic.render(result))
    metrics = result["metrics"]
    # CM-driven consolidation saves substantial server time vs dedicated...
    assert metrics["GAugur(CM)"].utilization_gain > 0.10
    # ...and uses no more server time than blind VBP packing.
    assert (
        metrics["GAugur(CM)"].server_minutes
        <= 1.1 * metrics["VBP"].server_minutes
    )
    # Dedicated provisioning is the no-consolidation reference.
    # Server-minutes are summed per server interval, so they match the
    # summed durations only to within rounding.
    assert metrics["Dedicated"].utilization_gain == pytest.approx(0.0, abs=1e-9)


def test_ext_completion(lab, benchmark):
    result = run_once(benchmark, ext_completion.run, lab)
    emit("ext_completion", ext_completion.render(result))
    # Five-sevenths of the sweeps for half the games are saved...
    assert result["profiling_cost_saved"] > 0.3
    # ...reconstruction is far better than uninformed (curves live in
    # [0, 1.1-ish]; guessing the mean would sit near 0.2 MAE)...
    assert result["reconstruction_mae"] < 0.2
    # ...and the downstream RM pays only a modest accuracy price.
    assert result["rm_error_completed"] < result["rm_error_full"] + 0.05


def test_ext_hetero(lab, benchmark):
    result = run_once(benchmark, ext_hetero.run, lab)
    emit("ext_hetero", ext_hetero.render(result))
    servers = result["servers"]
    for name, entry in servers.items():
        # Native retraining keeps the RM accurate on every server type.
        assert entry["native_error"] < 0.25, name
        # Transferring the reference model to different hardware is worse
        # than retraining natively (the reason the paper defers this).
        if "transfer_error" in entry:
            assert entry["transfer_error"] >= entry["native_error"] - 0.02


def test_ext_importance(lab, benchmark):
    from repro.experiments import ext_importance

    result = run_once(benchmark, ext_importance.run, lab)
    emit("ext_importance", ext_importance.render(result))
    per_resource = result["per_resource"]
    # Several resources carry real predictive weight (Observation 1 echoed
    # in the trained model), and both feature blocks matter.
    informative = sum(1 for v in per_resource.values() if v > 0.002)
    assert informative >= 3
    assert result["per_block"]["sensitivity curves"] > 0.0
    assert result["per_block"]["aggregate intensity"] > 0.0


def test_ablations(lab, benchmark):
    result = run_once(benchmark, ablations.run, lab)
    emit("ablations", ablations.render(result))

    agg = result["aggregate_transform"]
    # Per-resource sums are informationally close to Eq. 5 for a tree
    # learner (sum = |G| * mean), so those two score similarly; discarding
    # per-resource structure entirely (size only) is what really hurts.
    assert agg["Eq.5 (mean/var per resource)"] <= agg["summed intensities"] + 0.01
    assert agg["Eq.5 (mean/var per resource)"] < agg["colocation size only"]

    knockout = result["feature_knockout"]
    for label, error in knockout.items():
        if label != "full":
            assert error >= knockout["full"] - 0.01, label

    granularity = result["granularity"]
    # Finer pressure sweeps never hurt; k=10 is at least as good as k=2.
    assert granularity[10] <= granularity[2] + 0.01

    noise = result["noise"]
    # More measurement noise means higher RM error (allowing small wiggle).
    sigmas = sorted(noise)
    assert noise[sigmas[-1]] >= noise[sigmas[0]] - 0.01
