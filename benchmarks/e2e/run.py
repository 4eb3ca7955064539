#!/usr/bin/env python3
"""Fleet-scale end-to-end benchmark: one command, four workloads.

Two ways in, one code path underneath:

* **One run** — what ``BENCHMARK.json``'s ``command`` runs::

      python3 benchmarks/e2e/run.py --workload fleet_hot --seed 0 --seconds 10 --trace 0

  ``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
  per-layer metric, as one JSON object on the last line of stdout.

* **The suite** — no ``--trace``::

      PYTHONPATH=src python -m benchmarks.e2e.run [--seed 0] [--repeats 3]
          [--workload NAME] [--smoke] [--aa]

  For each workload it makes ``--repeats`` untraced runs and one traced
  run, each in a child process of its own (so heap, GC state and peak
  RSS are per run), prints every metric by name with its unit (median
  and quartiles over the repeats), checks the outputs, and writes
  everything to ``bench_results/e2e_results_seed<seed>[_smoke].json``.  It exits
  non-zero if any check fails.  ``--aa`` runs the suite twice and
  compares the two sets against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{__file__}: needs the program under {ROOT / 'src'}; found none")
# Runnable as a plain script from a bare checkout: no PYTHONPATH needed.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e import harness, probes  # noqa: E402
from benchmarks.e2e.workloads import BY_NAME, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The self-time rows: together they sum to the traced window.
SELF_TIME_ROWS = set(probes.LAYER_OF.values())
#: Per-layer rows that are seeded-exact work counters: every count and
#: ratio, except the three ratios of measured times.
WORK_COUNTERS = [
    m["name"]
    for m in SPEC["per_layer"]
    if m["unit"] in ("count", "ratio", "FPS")
    and m["name"]
    not in (
        "obs.tracing.overhead_share",
        "obs.qos.share_of_wall",
        "attribution.coverage",
    )
]


def one_run(args) -> int:
    """Driver mode: a single run, result JSON on the last stdout line."""
    run = harness.run_traced if args.trace else harness.run_e2e
    out = run(BY_NAME[args.workload], args.seed, args.seconds, args.smoke)
    for problem in out["details"]["problems"]:
        print(f"CHECK FAILED [{args.workload}]: {problem}", file=sys.stderr)
    print("details " + json.dumps(out["details"]))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


# ----------------------------------------------------------------------
# Suite mode.


def child(workload: str, args, trace: int) -> dict:
    """One run in a process of its own; returns details + result."""
    command = [sys.executable, str(Path(__file__).resolve())]
    command += ["--workload", workload, "--seed", str(args.seed)]
    command += ["--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("details "):
        raise SystemExit(
            f"{workload} --trace {trace}: no result (exit {done.returncode})"
        )
    return {
        "details": json.loads(lines[-2].removeprefix("details ")),
        **json.loads(lines[-1]),
    }


def quartiles(values: list) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def suite(args) -> tuple[dict, list[str]]:
    """Run every selected workload; returns ``(results, problems)``."""
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    results, problems = {}, []
    for name in names:
        print(f"\n== {name}: {BY_NAME[name].why}", flush=True)
        runs = [child(name, args, 0) for _ in range(args.repeats)]
        traced = child(name, args, 1)
        for run in [*runs, traced]:
            problems += [f"{name}: {p}" for p in run["details"]["problems"]]
        first = runs[0]["details"]["exact"]
        if any(run["details"]["exact"] != first for run in runs[1:]):
            problems.append(f"{name}: seeded-exact outputs differ between repeats")
        details = runs[0]["details"]
        print(
            f"   W={details['warmup']} N={details['timed']} "
            f"latency samples={details['latency_samples']} "
            f"audited placements={details['audited_placements']} "
            f"attempted={runs[0]['attempted']} failed={runs[0]['failed']}"
        )
        print(f"   placements_sha {first['placements_sha']}")
        summary = {}
        for spec in SPEC["end_to_end"]:
            values = [run["metrics"][spec["name"]]["value"] for run in runs]
            q1, median, q3 = quartiles(values)
            summary[spec["name"]] = {
                "unit": spec["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "runs": values,
            }
            print(
                f"   {spec['name']:<40} {median:>14.4f} {spec['unit']:<10} "
                f"[q1 {q1:.4f}, q3 {q3:.4f}]"
            )
        window = traced["metrics"]["attribution.window_s"]["value"]
        layers = {}
        for spec in SPEC["per_layer"]:
            metric = traced["metrics"][spec["name"]]
            layers[spec["name"]] = metric
            share = (
                f"{metric['value'] / window:>7.1%} of traced window"
                if spec["name"] in SELF_TIME_ROWS
                else ""
            )
            print(
                f"   {spec['name']:<52} {metric['value']:>14.4f} "
                f"{metric['unit']:<10} {share}"
            )
        results[name] = {
            "sizes": {"warmup": details["warmup"], "timed": details["timed"]},
            "exact": first,
            "attempted": runs[0]["attempted"],
            "failed": max(run["failed"] for run in [*runs, traced]),
            "end_to_end": summary,
            "per_layer": layers,
            "traced_sizes": {
                "warmup": traced["details"]["warmup"],
                "timed": traced["details"]["timed"],
            },
        }
    return results, problems


def compare(first: dict, second: dict) -> list[str]:
    """A/A: print both medians per (metric, workload); list the misses."""
    misses = []
    print(
        f"\n== A/A: {'metric':<20} {'workload':<14} {'A':>12} {'B':>12} "
        f"{'diff':>8} {'bound':>7}"
    )
    for spec in SPEC["end_to_end"]:
        sign = 1.0 if spec["better"] == "lower" else -1.0
        for name in first:
            a = first[name]["end_to_end"][spec["name"]]["median"]
            b = second[name]["end_to_end"][spec["name"]]["median"]
            worse = sign * (b - a) / a
            flag = ""
            if worse > spec["bound"]:
                flag = "  OUTSIDE BOUND"
                misses.append(
                    f"{spec['name']} on {name}: B worse than A by {worse:.1%}"
                )
            print(
                f"         {spec['name']:<20} {name:<14} {a:>12.4f} {b:>12.4f} "
                f"{(b - a) / a:>+8.2%} {spec['bound']:>7.1%}{flag}"
            )
    drifted = []
    for name in first:
        if first[name]["exact"] != second[name]["exact"]:
            drifted.append(f"seeded-exact outputs differ on {name}")
        a, b = first[name]["per_layer"], second[name]["per_layer"]
        drifted += [
            f"work counter {row} differs on {name}: "
            f"{a[row]['value']} != {b[row]['value']}"
            for row in WORK_COUNTERS
            if a[row]["value"] != b[row]["value"]
        ]
    print(
        f"         exact outputs and {len(WORK_COUNTERS)} work counters on "
        f"{len(first)} workloads: {len(drifted)} differ"
    )
    return misses + drifted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--aa", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.repeats < 1:
        parser.error("--seconds and --repeats must be >= 1")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return one_run(args)
    if args.smoke:
        args.repeats = 1
    results, problems = suite(args)
    payload = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "repeats": args.repeats,
        "workloads": results,
    }
    if args.aa:
        second, more = suite(args)
        payload["aa_second"] = second
        problems += more + compare(results, second)
    harness.RESULTS_DIR.mkdir(exist_ok=True)
    suffix = "_smoke" if args.smoke else ""
    out = harness.RESULTS_DIR / f"e2e_results_seed{args.seed}{suffix}.json"
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"\nwrote {out.relative_to(ROOT)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
