"""Command-line interface.

Wraps the library's offline/online workflow in seven subcommands::

    python -m repro catalog  [--genre moba-esports]
    python -m repro profile  --games "Dota2,H1Z1" --out db.json
    python -m repro train    --db db.json --pairs 80 --out predictor.json
    python -m repro predict  --predictor predictor.json \\
                             --colocation "Dota2@1920x1080,H1Z1@1280x720" --qos 60
    python -m repro serve    --predictor predictor.json --requests 500 \\
                             --policy cm-feasible [--trace-out trace.json] \\
                             [--shards 4 --rebalance-interval 2048] \\
                             [--shard-crash-rate 0.05 --shard-outage-chunks 2] \\
                             [--slo-fps 30 --qos-budget 0.05]
    python -m repro metrics  summary|diff|merge|export ...
    python -m repro slo      summary|diff ...
    python -m repro experiments [--extensions] [--out results.md]

Colocations are written ``Game@WxH`` entries joined with commas; the
resolution suffix is optional and defaults to 1080p.  ``serve`` replays a
synthetic arrival trace through the online serving broker and emits the
telemetry snapshot (JSON) — see :mod:`repro.serving`.  Every run is
wired by :func:`repro.sharding.build_shard_brokers`: without ``--shards``
it is shard 0 of a one-shard stack driven by ``RequestBroker.run`` (so
its chaos substreams are shard 0's, and ``--shards 1`` reproduces it);
``--shards N`` routes the trace across N consistent-hash broker shards
with optional occupancy rebalancing and emits the shard-labeled merged
snapshot — see :mod:`repro.sharding`; ``--shard-crash-rate`` kills whole
shards for ``--shard-outage-chunks`` barriers on a seeded schedule and
engages the shard supervisor (ring ejection, session failover,
readmission after a cooldown probe); ``--trace-out``
additionally records a per-request span trace (Chrome trace-event JSON
by default, Perfetto-loadable).  ``metrics`` post-processes snapshot and
trace files: human summaries, run-to-run regression diffs with
``--fail-on`` thresholds, bucket-wise snapshot merging, and exports to
Prometheus text exposition or Chrome trace format — see
:mod:`repro.obs`.

``serve --slo-fps TARGET`` attaches a :class:`repro.obs.qos.QoSLedger`
to every fleet: ground-truth FPS accounting per session (the simulator's
interference model re-measures each colocation group on every mutation),
prediction-calibration residuals, and SLO error-budget burn tracking —
surfaced as the ``qos`` report section and inspected with ``repro slo
summary`` / ``repro slo diff --fail-on fps_residual_mae:+10%``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from repro.core import (
    ColocationSpec,
    GAugurClassifier,
    GAugurRegressor,
    InterferencePredictor,
    build_dataset,
    generate_colocations,
    measure_colocations,
)
from repro.games import REFERENCE_RESOLUTION, Resolution, build_catalog
from repro.games.genres import Genre
from repro.profiling import ContentionProfiler, ProfileDatabase

__all__ = ["main", "parse_colocation"]


def parse_colocation(text: str) -> ColocationSpec:
    """Parse ``"GameA@1920x1080,GameB"`` into a :class:`ColocationSpec`."""
    entries = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "@" in chunk:
            name, _, res_text = chunk.rpartition("@")
            try:
                width, height = res_text.lower().split("x")
                resolution = Resolution(int(width), int(height))
            except ValueError as exc:
                raise ValueError(
                    f"bad resolution {res_text!r} (expected WxH, e.g. 1920x1080)"
                ) from exc
        else:
            name, resolution = chunk, REFERENCE_RESOLUTION
        entries.append((name.strip(), resolution))
    if not entries:
        raise ValueError("colocation must name at least one game")
    return ColocationSpec(tuple(entries))


def _cmd_catalog(args) -> int:
    catalog = build_catalog(args.seed)
    games = catalog.games()
    if args.genre:
        games = [g for g in games if g.genre.value == args.genre]
        if not games:
            valid = ", ".join(sorted(g.value for g in Genre))
            print(f"no games of genre {args.genre!r}; genres: {valid}")
            return 1
    print(f"{'game':44s} {'genre':16s} {'solo FPS @1080p':>15s}")
    for game in games:
        print(
            f"{game.name:44s} {game.genre.value:16s} "
            f"{game.solo_fps_nominal(REFERENCE_RESOLUTION):15.0f}"
        )
    return 0


def _cmd_profile(args) -> int:
    catalog = build_catalog(args.seed)
    names = [n.strip() for n in args.games.split(",") if n.strip()]
    specs = [catalog.get(n) for n in names]
    profiler = ContentionProfiler()

    def progress(name: str, done: int, total: int) -> None:
        print(f"  [{done}/{total}] {name}")

    print(f"profiling {len(specs)} games...")
    db = profiler.profile_catalog(specs, progress=progress)
    db.save(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_train(args) -> int:
    qos = _checked(args, *_QOS_RANGE)
    catalog = build_catalog(args.seed)
    db = ProfileDatabase.load(args.db)
    sizes = {2: args.pairs}
    if args.triples:
        sizes[3] = args.triples
    if args.quads:
        sizes[4] = args.quads
    print(f"measuring campaign {sizes} over {len(db)} games...")
    colocations = generate_colocations(db.names(), sizes=sizes, seed=args.seed)
    measured = measure_colocations(catalog, colocations)
    dataset = build_dataset(measured, db, qos_values=(qos,))
    print(f"training CM and RM on {len(dataset.rm)} samples...")
    predictor = InterferencePredictor(
        db,
        classifier=GAugurClassifier().fit(dataset.cm),
        regressor=GAugurRegressor().fit(dataset.rm),
    )
    predictor.save(args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_predict(args) -> int:
    qos = _checked(args, *_QOS_RANGE)
    predictor = InterferencePredictor.load(args.predictor)
    spec = parse_colocation(args.colocation)
    fps = predictor.predict_fps(spec)
    verdicts = predictor.predict_feasible(spec, qos)
    print(f"{'game':40s} {'predicted FPS':>13s} {'meets QoS':>10s}")
    for i, (name, resolution) in enumerate(spec.entries):
        print(
            f"{name + ' @ ' + str(resolution):40s} {fps[i]:13.1f} "
            f"{str(bool(verdicts[i])):>10s}"
        )
    feasible = bool(verdicts.all())
    print(f"\ncolocation {'FEASIBLE' if feasible else 'NOT feasible'} at {qos:.0f} FPS")
    return 0 if feasible else 2


#: The QoS floor every subcommand takes: a zero, negative or NaN floor
#: makes every colocation feasible.
_QOS_RANGE = ("--qos", lambda v: 0 < v < math.inf, "positive and finite")

#: ``serve`` flag -> accepted range; a value outside it exits 1 with a
#: one-line ``error:`` (raised as ValueError, printed by ``main``).
_SERVE_RANGES = (
    ("--shards", lambda v: v >= 1, ">= 1"),
    ("--rebalance-interval", lambda v: v >= 1, ">= 1"),
    ("--shard-crash-rate", lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    ("--shard-outage-chunks", lambda v: v >= 1, ">= 1"),
    ("--min-healthy-shards", lambda v: v >= 1, ">= 1"),
    _QOS_RANGE,
    ("--slo-fps", lambda v: 0 < v < math.inf, "positive and finite"),
    ("--qos-budget", lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    ("--max-colocation", lambda v: v >= 1, ">= 1"),
)

#: ``serve`` flags that only mean something next to another flag; a
#: violated row exits 2 (a usage error, not a bad value).
_SERVE_REQUIRES = (
    (
        "--qos-budget requires --slo-fps",
        lambda a: a.qos_budget is not None and a.slo_fps is None,
    ),
    (
        "--restore-interval requires --degrade-ladder",
        lambda a: a.restore_interval is not None and a.degrade_ladder is None,
    ),
    (
        "--rebalance-interval requires --shards",
        lambda a: a.rebalance_interval is not None and a.shards is None,
    ),
    (
        "shard chaos flags require --shards",
        lambda a: a.shards is None and a.shard_crash_rate,
    ),
)


def _checked(args, flag: str, accepts, wording: str):
    """``args``' value for ``flag``, range-checked; ``None`` when not given.

    The QoS flags reach here as strings: argparse's ``type=float`` rejects
    bad values with its own exit code 2 and a usage dump, while malformed
    user input follows the repo's one-line ``error:`` convention (exit 1).
    """
    raw = getattr(args, flag[2:].replace("-", "_"))
    if raw is None:
        return None
    value = shown = raw
    if isinstance(raw, str):
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"{flag} expects a number, got {raw!r}") from None
        shown = f"{value:g}"
    if not accepts(value):
        raise ValueError(f"{flag} must be {wording}, got {shown}")
    return value


def _shard_trace_path(base: str, shard_id: int) -> str:
    stem, ext = os.path.splitext(base)
    return f"{stem}.shard{shard_id}{ext}"


def _cmd_serve(args) -> int:
    from repro.games import DegradeLadder
    from repro.obs import Telemetry, Tracer
    from repro.serving import TraceConfig, generate_trace
    from repro.sharding import (
        RebalanceConfig,
        Rebalancer,
        ShardChaos,
        ShardConfig,
        ShardedBroker,
        ShardSupervisor,
        build_shard_brokers,
    )

    checked = {
        flag: _checked(args, flag, accepts, wording)
        for flag, accepts, wording in _SERVE_RANGES
    }
    if args.shards is not None and args.min_healthy_shards > args.shards:
        raise ValueError(
            f"--min-healthy-shards must be <= --shards ({args.shards}), "
            f"got {args.min_healthy_shards}"
        )
    slo_fps, qos_budget = checked["--slo-fps"], checked["--qos-budget"]
    if qos_budget is None:
        qos_budget = 0.05
    for message, violated in _SERVE_REQUIRES:
        if violated(args):
            print(message, file=sys.stderr)
            return 2
    ladder = restore_interval = None
    if args.degrade_ladder is not None:
        ladder = DegradeLadder.from_str(args.degrade_ladder)
        restore_interval = _checked(
            args, "--restore-interval", lambda v: v >= 1, ">= 1"
        )
        if restore_interval is None:
            restore_interval = 256
    predictor = InterferencePredictor.load(args.predictor)
    if slo_fps is not None and predictor.regressor is None:
        raise ValueError(
            "--slo-fps needs a predictor bundle with a trained regression "
            "model (the FPS promise comes from the RM)"
        )
    trace_config = TraceConfig(
        n_requests=args.requests,
        arrival_rate=args.arrival_rate,
        mean_duration=args.mean_duration,
        mixed_resolutions=args.mixed_resolutions,
        seed=args.trace_seed,
    )
    sessions = generate_trace(predictor.db.names(), trace_config)
    # One stack constructor for every run: without --shards the run is
    # shard 0 of a one-shard stack, driven directly instead of routed.
    n_shards = args.shards or 1
    tracing = args.trace_out is not None
    shard_tracers = (
        [Tracer(enabled=True) for _ in range(n_shards)] if tracing else None
    )
    brokers = build_shard_brokers(
        predictor,
        n_shards,
        ShardConfig(
            policy=args.policy,
            qos=args.qos,
            cache_size=args.cache_size,
            max_colocation=args.max_colocation,
            fault_rate=args.fault_rate,
            crash_rate=args.crash_rate,
            seed=args.trace_seed,
            slo_fps=slo_fps,
            qos_budget=qos_budget,
            degrade_ladder=ladder,
            restore_interval=restore_interval,
        ),
        tracers=shard_tracers,
        catalog=build_catalog(args.seed) if slo_fps is not None else None,
    )
    supervisor = None
    if args.shards is None:
        (broker,) = brokers
        report = broker.run(sessions)
        if tracing:
            exports = [(args.trace_out, shard_tracers[0])]
            exported = f"{shard_tracers[0].n_traces} request traces"
    else:
        telemetry = Telemetry()
        tracer = Tracer(enabled=tracing)
        rebalancer = (
            Rebalancer(
                RebalanceConfig(interval=args.rebalance_interval),
                telemetry=telemetry,
                tracer=tracer,
            )
            if args.rebalance_interval
            else None
        )
        chaos = ShardChaos(
            n_shards,
            args.shard_crash_rate,
            outage_chunks=args.shard_outage_chunks,
            seed=args.trace_seed,
        )
        if chaos.active:
            supervisor = ShardSupervisor(chaos, min_healthy=args.min_healthy_shards)
        report = ShardedBroker(
            brokers,
            rebalancer=rebalancer,
            supervisor=supervisor,
            telemetry=telemetry,
            tracer=tracer,
        ).run(sessions)
        if tracing:
            # Coordinator spans (route/migrate) go to the named file; each
            # shard's request spans to a .shardN sibling (span ids are only
            # unique within one tracer, so the files must not be merged).
            exports = [(args.trace_out, tracer)] + [
                (_shard_trace_path(args.trace_out, shard_id), shard_tracer)
                for shard_id, shard_tracer in enumerate(shard_tracers)
            ]
            exported = f"+{n_shards} shard trace files"
    if tracing:
        for path, t in exports:
            if args.trace_format == "chrome":
                t.export_chrome_trace(path)
            else:
                t.export_jsonl(path)
        print(f"wrote {args.trace_out} ({exported})")
    config = {
        "policy": args.policy,
        "qos": args.qos,
        "cache_size": args.cache_size,
        "max_colocation": args.max_colocation,
        "fault_rate": args.fault_rate,
        "crash_rate": args.crash_rate,
    }
    if args.shards is not None:
        config["shards"] = args.shards
        config["rebalance_interval"] = args.rebalance_interval or 0
    config["trace"] = trace_config.to_dict()
    # Optional keys appear only when their feature ran, so reports from
    # runs without it stay byte-identical to previous releases.
    if supervisor is not None:
        config["shard_chaos"] = chaos.to_dict()
        config["min_healthy_shards"] = args.min_healthy_shards
    if slo_fps is not None:
        config["slo_fps"] = slo_fps
        config["qos_budget"] = qos_budget
    if ladder is not None:
        config["degrade_ladder"] = ladder.to_list()
        config["restore_interval"] = restore_interval
    payload = report.to_dict()
    payload["config"] = config
    _write_or_print(json.dumps(payload, indent=2), args.out)
    return 0


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}")
    else:
        print(text)


def _cmd_metrics_summary(args) -> int:
    from repro.obs import load_snapshot, summarize_snapshot

    for path in args.files:
        snapshot = load_snapshot(path)
        title = path if len(args.files) > 1 else ""
        print(summarize_snapshot(snapshot, title=title))
    return 0


def _cmd_diff(args) -> int:
    """``metrics diff`` and ``slo diff``: one body, two loader/differ pairs."""
    from repro.obs import (
        check_regressions,
        diff_qos,
        diff_snapshots,
        load_snapshot,
        parse_fail_spec,
        render_diff,
    )

    load, differ = (
        (_load_qos, diff_qos)
        if args.command == "slo"
        else (load_snapshot, diff_snapshots)
    )
    specs = [parse_fail_spec(s) for s in args.fail_on]
    rows = differ(load(args.old), load(args.new))
    print(render_diff(rows, only_changed=not args.all))
    breaches = check_regressions(rows, specs)
    for breach in breaches:
        print(
            f"REGRESSION {breach['metric']}.{breach['stat']}: "
            f"{breach['old']:g} -> {breach['new']:g} "
            f"(breaches {breach['spec']})",
            file=sys.stderr,
        )
    return 3 if breaches else 0


def _cmd_metrics_merge(args) -> int:
    from repro.obs import load_snapshot, merge_snapshots

    if len(args.files) < 2:
        raise ValueError("merge needs at least two snapshot files")
    merged = load_snapshot(args.files[0])
    for path in args.files[1:]:
        merged = merge_snapshots(merged, load_snapshot(path))
    _write_or_print(json.dumps(merged, indent=2), args.out)
    return 0


def _cmd_metrics_export(args) -> int:
    from repro.obs import load_snapshot, snapshot_to_prometheus, spans_to_chrome

    if args.format == "prometheus":
        _write_or_print(snapshot_to_prometheus(load_snapshot(args.file)), args.out)
        return 0
    # chrome-trace: the input is a JSONL span trace (one span per line).
    spans = []
    with open(args.file) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{args.file}:{lineno}: not a JSONL span trace ({exc})"
                ) from exc
    if any(not isinstance(s, dict) or "span_id" not in s for s in spans):
        raise ValueError(
            f"{args.file}: not a span trace (expected objects with 'span_id'; "
            "was this written by repro serve --trace-format jsonl?)"
        )
    _write_or_print(json.dumps(spans_to_chrome(spans), indent=1), args.out)
    return 0


def _load_qos(path: str) -> dict:
    from repro.obs import extract_qos

    with open(path) as fh:
        payload = json.load(fh)
    return extract_qos(payload, source=path)


def _cmd_slo_summary(args) -> int:
    from repro.obs import summarize_qos

    for path in args.files:
        title = path if len(args.files) > 1 else "qos"
        print(summarize_qos(_load_qos(path), title=title))
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments.runner import main as runner_main

    argv = []
    if args.extensions:
        argv.append("--extensions")
    if args.out:
        argv.append(args.out)
    return runner_main(argv)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="GAugur reproduction command-line interface"
    )
    parser.add_argument("--seed", type=int, default=20190622, help="catalog seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the game catalog")
    p.add_argument("--genre", help="filter by genre slug")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("profile", help="profile games into a database")
    p.add_argument("--games", required=True, help="comma-separated game names")
    p.add_argument("--out", default="profiles.json", help="output path")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("train", help="measure a campaign and train a predictor")
    p.add_argument("--db", required=True, help="profile database path")
    p.add_argument("--pairs", type=int, default=80, help="pair colocations")
    p.add_argument("--triples", type=int, default=30, help="triple colocations")
    p.add_argument("--quads", type=int, default=20, help="quadruple colocations")
    p.add_argument("--qos", type=float, default=60.0, help="QoS floor (FPS)")
    p.add_argument("--out", default="predictor.json", help="output path")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("predict", help="predict a colocation's outcome")
    p.add_argument("--predictor", required=True, help="predictor bundle path")
    p.add_argument("--colocation", required=True, help='e.g. "Dota2@1920x1080,H1Z1"')
    p.add_argument("--qos", type=float, default=60.0, help="QoS floor (FPS)")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("serve", help="replay a trace through the serving broker")
    p.add_argument("--predictor", required=True, help="predictor bundle path")
    p.add_argument("--requests", type=int, default=500, help="trace length")
    p.add_argument(
        "--arrival-rate", type=float, default=2.0, help="arrivals per minute"
    )
    p.add_argument(
        "--mean-duration", type=float, default=30.0, help="mean session minutes"
    )
    p.add_argument(
        "--mixed-resolutions",
        action="store_true",
        help="draw resolutions from the preset list instead of fixed 1080p",
    )
    p.add_argument(
        "--policy",
        choices=["cm-feasible", "max-fps", "worst-fit", "dedicated"],
        default="cm-feasible",
        help="admission policy",
    )
    p.add_argument("--qos", type=float, default=60.0, help="QoS floor (FPS)")
    p.add_argument(
        "--cache-size", type=int, default=4096, help="prediction cache entries"
    )
    p.add_argument(
        "--max-colocation", type=int, default=4, help="games per server cap"
    )
    p.add_argument("--trace-seed", type=int, default=0, help="trace RNG seed")
    p.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="chaos: per-call probability of an injected predictor fault",
    )
    p.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        help="chaos: per-arrival probability that an open server crashes",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=None,
        help="route arrivals by game signature across N independent broker "
        "shards (omit to drive shard 0 of a one-shard stack directly, "
        "unrouted; see repro.sharding)",
    )
    p.add_argument(
        "--rebalance-interval",
        type=int,
        default=None,
        help="with --shards: arrivals between occupancy rebalance checks; "
        "hot shards migrate sessions to cold ones (omit to disable migration)",
    )
    p.add_argument(
        "--shard-crash-rate",
        type=float,
        default=0.0,
        help="chaos: per-shard per-chunk probability that a whole shard "
        "drops out of the serving tier (with --shards; see repro.sharding)",
    )
    p.add_argument(
        "--shard-outage-chunks",
        type=int,
        default=4,
        help="chaos: chunk barriers a shard stays down once an outage fires",
    )
    p.add_argument(
        "--min-healthy-shards",
        type=int,
        default=1,
        help="healthy-shard floor below which routing falls back to "
        "least-loaded (degraded mode) instead of the hash ring",
    )
    p.add_argument(
        "--slo-fps",
        default=None,
        metavar="FPS",
        help="enable the QoS ledger: book ground-truth FPS per session "
        "against this SLO target and emit a qos report section "
        "(calibration, burn rate, per-game/per-shard breakdowns)",
    )
    p.add_argument(
        "--qos-budget",
        default=None,
        metavar="FRACTION",
        help="with --slo-fps: error budget as a fraction of each session's "
        "duration allowed below target before it counts as a breach "
        "(default 0.05)",
    )
    p.add_argument(
        "--degrade-ladder",
        default=None,
        metavar="RES[,RES...]",
        help="arm the resolution-downscale actuator: comma-separated rungs "
        "(named presets like 1080p,900p,720p or WxH) retried in order "
        "before a placement opens a new server",
    )
    p.add_argument(
        "--restore-interval",
        type=int,
        default=None,
        metavar="N",
        help="with --degrade-ladder: re-promote degraded sessions every N "
        "arrivals when freed capacity allows (default 256; with --shards, "
        "every N of each shard's arrivals)",
    )
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument(
        "--trace-out",
        help="record per-request spans and write the trace file here "
        "(with --shards: plus one .shardN sibling file per shard)",
    )
    p.add_argument(
        "--trace-format",
        choices=["chrome", "jsonl"],
        default="chrome",
        help="trace file format: Chrome trace-event JSON (Perfetto-loadable) "
        "or one span per JSONL line",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "metrics", help="summarize, diff, merge and export snapshot/trace files"
    )
    msub = p.add_subparsers(dest="metrics_command", required=True)

    m = msub.add_parser("summary", help="human-readable snapshot summary")
    m.add_argument("files", nargs="+", help="snapshot/report JSON files")
    m.set_defaults(fn=_cmd_metrics_summary)

    m = msub.add_parser("diff", help="compare two runs, gate on regressions")
    m.add_argument("old", help="baseline snapshot/report JSON")
    m.add_argument("new", help="candidate snapshot/report JSON")
    m.add_argument(
        "--fail-on",
        action="append",
        default=[],
        metavar="[metric.]stat:+N%",
        help="exit nonzero when the stat grew by more than N%% "
        "(e.g. p99_s:+20%%; repeatable)",
    )
    m.add_argument(
        "--all", action="store_true", help="show unchanged metrics too"
    )
    m.set_defaults(fn=_cmd_diff)

    m = msub.add_parser("merge", help="combine snapshots bucket-wise")
    m.add_argument("files", nargs="+", help="snapshot/report JSON files")
    m.add_argument("--out", help="write merged snapshot here instead of stdout")
    m.set_defaults(fn=_cmd_metrics_merge)

    m = msub.add_parser("export", help="convert to exporter formats")
    m.add_argument("file", help="snapshot/report JSON, or a JSONL span trace")
    m.add_argument(
        "--format",
        required=True,
        choices=["prometheus", "chrome-trace"],
        help="prometheus text exposition (from a snapshot) or Chrome "
        "trace-event JSON (from a JSONL span trace)",
    )
    m.add_argument("--out", help="write here instead of stdout")
    m.set_defaults(fn=_cmd_metrics_export)

    p = sub.add_parser(
        "slo", help="summarize and diff QoS ledger sections from serve reports"
    )
    ssub = p.add_subparsers(dest="slo_command", required=True)

    s = ssub.add_parser("summary", help="human-readable qos section summary")
    s.add_argument(
        "files", nargs="+", help="serve reports (run with --slo-fps) or snapshots"
    )
    s.set_defaults(fn=_cmd_slo_summary)

    s = ssub.add_parser("diff", help="compare two qos sections, gate on drift")
    s.add_argument("old", help="baseline serve report/snapshot with a qos section")
    s.add_argument("new", help="candidate serve report/snapshot with a qos section")
    s.add_argument(
        "--fail-on",
        action="append",
        default=[],
        metavar="[metric.]stat:+N%",
        help="exit nonzero when the stat grew by more than N%% "
        "(e.g. fps_residual_mae:+10%%; repeatable)",
    )
    s.add_argument(
        "--all", action="store_true", help="show unchanged stats too"
    )
    s.set_defaults(fn=_cmd_diff)

    p = sub.add_parser("experiments", help="run the evaluation harness")
    p.add_argument("--extensions", action="store_true", help="include extensions")
    p.add_argument("--out", help="write results markdown here")
    p.set_defaults(fn=_cmd_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    All user-input failures — unknown games or policies, malformed
    colocations or trace configs, missing artifact files, corrupt or
    truncated JSON bundles — exit nonzero with a one-line message instead
    of a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, ValueError, OSError) as exc:
        # ValueError covers SerializationError and json.JSONDecodeError;
        # OSError covers missing/unreadable artifact paths.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
