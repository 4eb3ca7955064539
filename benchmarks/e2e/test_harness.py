"""Self-test of the end-to-end benchmark harness.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it
explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

It drives the real command in ``--smoke`` mode (every workload at
``W=256, N=512``, one repeat, traced pass and all checks included) and
holds the harness to ``BENCHMARK.json``: the file obeys the driver's
schema, every metric it names is printed exactly once per workload with
a finite value, and the span attribution covers the traced window.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
ONE_RUN = ["--workload", "fleet_hot", "--seconds", "1", "--trace", "0"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_obeys_the_schema():
    assert sorted(SPEC) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def run_harness(arguments, cwd):
    """Run ``benchmarks/e2e/run.py`` of the checkout at ``cwd``."""
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.fixture(scope="module")
def smoke():
    """One ``--smoke`` suite run: ``(stdout, results file payload)``."""
    done = run_harness(["--smoke"], cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    results = ROOT / "bench_results" / "e2e_results_seed0_smoke.json"
    return done.stdout, json.loads(results.read_text())


def test_every_metric_is_printed_once_per_workload(smoke):
    stdout, _ = smoke
    sections = stdout.split("\n== ")[1:]
    assert [s.split(":")[0] for s in sections] == [
        w["name"] for w in SPEC["workloads"]
    ]
    for section in sections:
        printed = [line.split()[0] for line in section.splitlines()[1:] if line.strip()]
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert printed.count(metric["name"]) == 1, metric["name"]


def test_every_value_is_finite_and_checks_pass(smoke):
    _, payload = smoke
    for name, result in payload["workloads"].items():
        assert result["failed"] == 0 and result["attempted"] >= 768, name
        assert result["sizes"] == {"warmup": 256, "timed": 512}
        assert re.fullmatch(r"[0-9a-f]{64}", result["exact"]["placements_sha"])
        for metric in SPEC["end_to_end"]:
            value = result["end_to_end"][metric["name"]]["median"]
            assert math.isfinite(value) and value > 0, (name, metric["name"])
        for metric in SPEC["per_layer"]:
            row = result["per_layer"][metric["name"]]
            assert math.isfinite(row["value"]), (name, metric["name"])
            assert row["unit"] == metric["unit"], (name, metric["name"])
        assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert result["per_layer"]["attribution.coverage"]["value"] >= 0.95, name


def test_layers_separate_the_workloads(smoke):
    _, payload = smoke
    layers = {n: r["per_layer"] for n, r in payload["workloads"].items()}

    def share(workload, *names):
        window = layers[workload]["attribution.window_s"]["value"]
        return sum(layers[workload][n]["value"] for n in names) / window

    scan = ("placement.policies.select_self_s", "placement.cache.span_self_s")
    model = (
        "core.predictor.batch_self_s",
        "core.predictor.featurize_self_s",
        "ml.packed.eval_self_s",
    )
    assert share("fleet_hot", *scan) > 0.5 > share("fleet_hot", *model)
    assert share("longtail", *model) > 0.5 > share("longtail", *scan)
    assert share("ledger_churn", "obs.qos.self_s") > 0.25
    for name in ("fleet_hot", "sharded_4", "longtail"):
        assert layers[name]["obs.qos.self_s"]["value"] == 0
    assert layers["sharded_4"]["sharding.router.route_self_s"]["value"] > 0
    assert layers["fleet_hot"]["sharding.router.route_self_s"]["value"] == 0


def test_one_run_prints_the_driver_result_last():
    done = run_harness([*ONE_RUN, "--seed", "3", "--smoke"], cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e",
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_harness(ONE_RUN, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
