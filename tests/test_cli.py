"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, parse_colocation
from repro.games.resolution import REFERENCE_RESOLUTION, Resolution


@pytest.fixture()
def predictor_path(minilab, tmp_path):
    """The minilab's trained predictor saved as a CLI-loadable bundle."""
    path = tmp_path / "predictor.json"
    minilab.predictor.save(path)
    return str(path)


class TestParseColocation:
    def test_with_resolutions(self):
        spec = parse_colocation("Dota2@1920x1080, H1Z1@1280x720")
        assert spec.entries == (
            ("Dota2", Resolution(1920, 1080)),
            ("H1Z1", Resolution(1280, 720)),
        )

    def test_default_resolution(self):
        spec = parse_colocation("Dota2")
        assert spec.entries == (("Dota2", REFERENCE_RESOLUTION),)

    def test_game_name_with_spaces(self):
        spec = parse_colocation("Far Cry4@1600x900")
        assert spec.entries[0][0] == "Far Cry4"

    def test_bad_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            parse_colocation("Dota2@huge")

    def test_empty(self):
        with pytest.raises(ValueError):
            parse_colocation(" , ")


class TestCatalogCommand:
    def test_lists_games(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "Dota2" in out
        assert "solo FPS" in out

    def test_genre_filter(self, capsys):
        assert main(["catalog", "--genre", "moba-esports"]) == 0
        out = capsys.readouterr().out
        assert "Dota2" in out
        assert "ARK Survival Evolved" not in out

    def test_unknown_genre(self, capsys):
        assert main(["catalog", "--genre", "sports-betting"]) == 1


class TestFullWorkflow:
    """profile -> train -> predict, end to end through the CLI."""

    def test_workflow(self, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        predictor_path = tmp_path / "predictor.json"

        rc = main(
            [
                "profile",
                "--games",
                "Dota2,H1Z1,Stardew Valley,Team Fortress 2,Northgard",
                "--out",
                str(db_path),
            ]
        )
        assert rc == 0
        assert db_path.exists()
        assert len(json.loads(db_path.read_text())["profiles"]) == 5

        rc = main(
            [
                "train",
                "--db",
                str(db_path),
                "--pairs",
                "40",
                "--triples",
                "15",
                "--quads",
                "0",
                "--out",
                str(predictor_path),
            ]
        )
        assert rc == 0
        assert predictor_path.exists()

        rc = main(
            [
                "predict",
                "--predictor",
                str(predictor_path),
                "--colocation",
                "Dota2@1920x1080,Stardew Valley@1280x720",
                "--qos",
                "30",
            ]
        )
        out = capsys.readouterr().out
        assert "predicted FPS" in out
        assert rc in (0, 2)

    def test_serve_cm_feasible(self, predictor_path, capsys):
        rc = main(
            [
                "serve",
                "--predictor",
                predictor_path,
                "--requests",
                "120",
                "--arrival-rate",
                "4.0",
                "--policy",
                "cm-feasible",
                "--trace-seed",
                "3",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_sessions"] == 120
        assert len(payload["placements"]) == 120
        counters = payload["telemetry"]["counters"]
        assert counters["requests"] == 120
        assert counters.get("policy_errors", 0) == 0
        assert payload["telemetry"]["caches"]["cm-feasible"]["hit_rate"] > 0
        assert payload["telemetry"]["histograms"]["decision_latency_s"]["count"] == 120
        assert payload["config"]["policy"] == "cm-feasible"

    def test_serve_dedicated_to_file(self, predictor_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            [
                "serve",
                "--predictor",
                predictor_path,
                "--requests",
                "25",
                "--policy",
                "dedicated",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["servers_opened"] == 25
        assert all(p["choice"] is None for p in payload["placements"])

    def test_serve_deterministic_in_trace_seed(self, predictor_path, capsys):
        argv = [
            "serve",
            "--predictor",
            predictor_path,
            "--requests",
            "40",
            "--policy",
            "worst-fit",
            "--trace-seed",
            "9",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["placements"] == second["placements"]

    def test_predict_unknown_game(self, tmp_path, capsys):
        # Errors surface as exit code 1 with a message, not tracebacks.
        db_path = tmp_path / "db.json"
        assert main(["profile", "--games", "Dota2,H1Z1", "--out", str(db_path)]) == 0
        predictor_path = tmp_path / "p.json"
        assert (
            main(
                [
                    "train",
                    "--db",
                    str(db_path),
                    "--pairs",
                    "10",
                    "--triples",
                    "0",
                    "--quads",
                    "0",
                    "--out",
                    str(predictor_path),
                ]
            )
            == 0
        )
        rc = main(
            [
                "predict",
                "--predictor",
                str(predictor_path),
                "--colocation",
                "NoSuchGame,Dota2",
            ]
        )
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestServeResilience:
    """The chaos-serving CLI flags and the resilience report section."""

    def test_chaos_flags_produce_resilience_report(self, predictor_path, capsys):
        rc = main(
            [
                "serve",
                "--predictor",
                predictor_path,
                "--requests",
                "200",
                "--arrival-rate",
                "4.0",
                "--policy",
                "cm-feasible",
                "--fault-rate",
                "0.35",
                "--crash-rate",
                "0.05",
                "--trace-seed",
                "13",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload["telemetry"]["counters"]
        assert payload["n_sessions"] == 200
        assert counters["faults_injected"] > 0
        assert counters["server_crashes"] > 0
        assert counters["requests"] == 200 + counters.get("readmissions", 0)
        # Every injected fault fell through to worst-fit on its own decision.
        assert counters["fallbacks"] == counters["policy_errors"] > 0
        assert payload["resilience"] == {
            "crash_rate": 0.05,
            "server_crashes": counters["server_crashes"],
            "sessions_evicted": counters["sessions_evicted"],
            "readmissions": counters["readmissions"],
        }
        assert payload["config"]["fault_rate"] == 0.35
        assert payload["config"]["crash_rate"] == 0.05

    def test_zero_fault_flags_match_plain_serve(self, predictor_path, capsys):
        base = [
            "serve",
            "--predictor",
            predictor_path,
            "--requests",
            "60",
            "--policy",
            "cm-feasible",
            "--trace-seed",
            "2",
        ]
        assert main(base) == 0
        plain = json.loads(capsys.readouterr().out)
        assert (
            main(base + ["--fault-rate", "0", "--crash-rate", "0"])
            == 0
        )
        chaosless = json.loads(capsys.readouterr().out)
        assert plain["placements"] == chaosless["placements"]
        assert plain["resilience"] == chaosless["resilience"]

    def test_decision_latency_histogram_counts_every_decision(
        self, predictor_path, capsys
    ):
        rc = main(
            [
                "serve",
                "--predictor",
                predictor_path,
                "--requests",
                "30",
                "--policy",
                "worst-fit",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload["telemetry"]["counters"]
        latency = payload["telemetry"]["histograms"]["decision_latency_s"]
        assert latency["count"] == counters["requests"] == 30

    def test_bad_fault_rate_is_clean_error(self, predictor_path, capsys):
        rc = main(
            ["serve", "--predictor", predictor_path, "--fault-rate", "1.5"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestUserInputErrors:
    """All user-input failures exit 1 with a one-line message."""

    def test_missing_predictor_file(self, capsys):
        rc = main(["serve", "--predictor", "/nonexistent/predictor.json"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "predictor.json" in err

    def test_corrupt_predictor_bundle(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text('{"db": {"profiles": [')  # truncated
        rc = main(["serve", "--predictor", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "corrupt.json" in err

    def test_wrong_schema_bundle(self, tmp_path, capsys):
        path = tmp_path / "notabundle.json"
        path.write_text('{"something": "else"}')
        rc = main(["predict", "--predictor", str(path), "--colocation", "Dota2"])
        assert rc == 1
        assert "not a predictor bundle" in capsys.readouterr().err

    def test_bad_trace_config_values(self, predictor_path, capsys):
        rc = main(
            ["serve", "--predictor", predictor_path, "--arrival-rate", "-1"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_max_colocation_below_one_exit_1(self, predictor_path, capsys, value):
        # A server that may hold no game would open one server per
        # session and admit nothing, silently.
        rc = main(
            [
                "serve",
                "--predictor",
                predictor_path,
                "--requests",
                "5",
                "--max-colocation",
                value,
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--max-colocation" in err
        assert len(err.strip().splitlines()) == 1  # no traceback

    def test_min_healthy_shards_above_shards_exit_1(self, predictor_path, capsys):
        # A floor no run can reach routes every arrival least-loaded from
        # the first barrier: signature affinity silently off.
        rc = main(
            [
                "serve",
                "--predictor",
                predictor_path,
                "--requests",
                "5",
                "--shards",
                "2",
                "--min-healthy-shards",
                "3",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--min-healthy-shards" in err and "--shards (2)" in err
        assert len(err.strip().splitlines()) == 1  # no traceback

    def test_max_colocation_one_is_legal(self, predictor_path, capsys):
        rc = main(
            [
                "serve",
                "--predictor",
                predictor_path,
                "--requests",
                "20",
                "--max-colocation",
                "1",
            ]
        )
        assert rc == 0
        counters = json.loads(capsys.readouterr().out)["telemetry"]["counters"]
        assert counters["servers_opened"] == 20  # one game per server

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--qos", "0"),
            ("--qos", "-30"),
            ("--qos", "inf"),
            ("--qos", "nan"),
            ("--slo-fps", "inf"),
        ],
    )
    def test_qos_floors_must_be_positive_and_finite(
        self, predictor_path, capsys, flag, value
    ):
        # A zero, negative or NaN floor makes every colocation feasible,
        # and an infinite --slo-fps wrote Infinity into the report JSON.
        rc = main(
            ["serve", "--predictor", predictor_path, "--requests", "5", flag, value]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
        assert "positive and finite" in err
        assert len(err.strip().splitlines()) == 1  # no traceback

    @pytest.mark.parametrize("value", ["-5", "0", "inf", "nan"])
    def test_predict_qos_must_be_positive_and_finite(
        self, minilab, predictor_path, capsys, value
    ):
        # -5 printed "colocation FEASIBLE at -5 FPS"; inf and nan failed
        # inside the model instead of naming the flag.
        colocation = ",".join(minilab.names[:2])
        rc = main(
            [
                "predict",
                "--predictor",
                predictor_path,
                "--colocation",
                colocation,
                "--qos",
                value,
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --qos must be positive and finite")
        assert len(captured.err.strip().splitlines()) == 1  # no traceback

    def test_train_qos_must_be_positive_and_finite(self, minilab, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        minilab.db.save(db_path)
        rc = main(
            [
                "train",
                "--db",
                str(db_path),
                "--pairs",
                "1",
                "--triples",
                "0",
                "--quads",
                "0",
                "--qos",
                "-5",
                "--out",
                str(tmp_path / "predictor.json"),
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before measuring anything
        assert captured.err.startswith("error: --qos must be positive and finite")
        assert not (tmp_path / "predictor.json").exists()


def _strip_wall_clock(snapshot):
    snapshot = json.loads(json.dumps(snapshot))
    snapshot.pop("histograms", None)
    snapshot.pop("caches", None)  # hit *rates* ride wall-clock-free, but
    if "labeled" in snapshot:     # keep the comparison to logical state
        snapshot["labeled"].pop("histograms", None)
    return snapshot


class TestServeSharded:
    """The ``--shards`` / ``--rebalance-interval`` serving flags."""

    def test_rebalance_interval_requires_shards(self, predictor_path, capsys):
        rc = main(
            [
                "serve",
                "--predictor",
                predictor_path,
                "--rebalance-interval",
                "64",
            ]
        )
        assert rc == 2
        assert "--shards" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            ["--fault-rate", "0.2", "--crash-rate", "0.05"],
            ["--slo-fps", "30"],
            ["--slo-fps", "30", "--degrade-ladder", "1080p,900p,720p"],
        ],
        ids=["plain", "chaos", "slo", "degrade"],
    )
    def test_shards_one_matches_unsharded(self, predictor_path, capsys, flags):
        """An unsharded run is shard 0 of a one-shard stack, chaos included."""
        argv = [
            "serve",
            "--predictor",
            predictor_path,
            "--requests",
            "120",
            "--arrival-rate",
            "4.0",
            "--trace-seed",
            "3",
            *flags,
        ]
        assert main(argv) == 0
        unsharded = json.loads(capsys.readouterr().out)
        assert main(argv + ["--shards", "1"]) == 0
        sharded = json.loads(capsys.readouterr().out)

        assert sharded["n_shards"] == 1
        assert sharded["n_sessions"] == unsharded["n_sessions"]
        (shard,) = sharded["shards"]
        assert shard["placements"] == unsharded["placements"]
        assert shard["readmissions"] == unsharded["readmissions"]
        assert _strip_wall_clock(shard["telemetry"]) == _strip_wall_clock(
            unsharded["telemetry"]
        )
        assert shard["resilience"] == unsharded["resilience"]

    def test_sharded_run_with_rebalancing(self, predictor_path, capsys):
        rc = main(
            [
                "serve",
                "--predictor",
                predictor_path,
                "--requests",
                "200",
                "--arrival-rate",
                "4.0",
                "--mixed-resolutions",
                "--trace-seed",
                "3",
                "--shards",
                "4",
                "--rebalance-interval",
                "32",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_shards"] == 4
        assert sum(payload["shard_sessions"]) == 200
        assert payload["config"]["shards"] == 4
        assert payload["config"]["rebalance_interval"] == 32
        assert payload["coordinator"]["counters"]["routed"] == 200
        assert payload["telemetry"]["counters"].get("policy_errors", 0) == 0

    def test_sharded_trace_files(self, predictor_path, tmp_path, capsys):
        trace_out = tmp_path / "trace.jsonl"
        rc = main(
            [
                "serve",
                "--predictor",
                predictor_path,
                "--requests",
                "60",
                "--shards",
                "2",
                "--trace-out",
                str(trace_out),
                "--trace-format",
                "jsonl",
                "--out",
                str(tmp_path / "report.json"),
            ]
        )
        assert rc == 0
        # Coordinator spans in the named file, shard spans in siblings.
        coordinator_spans = [
            json.loads(line) for line in trace_out.read_text().splitlines() if line
        ]
        assert {s["name"] for s in coordinator_spans} == {"route"}
        for shard_id in range(2):
            shard_file = tmp_path / f"trace.shard{shard_id}.jsonl"
            assert shard_file.exists()
            names = {
                json.loads(line)["name"]
                for line in shard_file.read_text().splitlines()
                if line
            }
            assert "request" in names


class TestServeShardChaos:
    """Shard-chaos serving flags: validation and the supervised path."""

    @pytest.mark.parametrize(
        "flags,needle",
        [
            (["--shards", "0"], "--shards"),
            (["--shards", "-2"], "--shards"),
            (["--shards", "2", "--rebalance-interval", "0"], "--rebalance-interval"),
            (["--shards", "2", "--rebalance-interval", "-5"], "--rebalance-interval"),
            (["--shards", "2", "--shard-crash-rate", "1.5"], "--shard-crash-rate"),
            (["--shards", "2", "--shard-crash-rate", "-0.1"], "--shard-crash-rate"),
            (["--shards", "2", "--shard-crash-rate", "nan"], "--shard-crash-rate"),
            (["--shards", "2", "--shard-outage-chunks", "0"], "--shard-outage-chunks"),
            (["--shards", "2", "--min-healthy-shards", "0"], "--min-healthy-shards"),
        ],
    )
    def test_bad_values_exit_1_with_one_line_error(
        self, predictor_path, capsys, flags, needle
    ):
        rc = main(["serve", "--predictor", predictor_path, *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert needle.lstrip("-").replace("-", "_") in err.replace("-", "_")
        assert len(err.strip().splitlines()) == 1  # no traceback

    def test_chaos_flags_require_shards(self, predictor_path, capsys):
        rc = main(
            ["serve", "--predictor", predictor_path, "--shard-crash-rate", "0.1"]
        )
        assert rc == 2
        assert "--shards" in capsys.readouterr().err

    def test_supervised_run_conserves_sessions(self, predictor_path, capsys):
        rc = main(
            [
                "serve",
                "--predictor",
                predictor_path,
                "--requests",
                "200",
                "--arrival-rate",
                "4.0",
                "--mixed-resolutions",
                "--trace-seed",
                "3",
                "--shards",
                "4",
                "--rebalance-interval",
                "32",
                "--shard-crash-rate",
                "0.1",
                "--shard-outage-chunks",
                "2",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        coord = payload["coordinator"]["counters"]
        assert coord["routed"] == 200
        assert coord["sessions_lost"] == 0
        assert sum(payload["shard_sessions"]) == 200
        assert coord["ring_ejections"] >= 1
        assert coord["sessions_failed_over"] >= 1
        assert coord["ring_readmissions"] >= 1
        # At seed 3, shard 1 is ejected at the second barrier and
        # readmitted after its cooldown probe.
        kinds = ("shard_outage", "shard_readmitted")
        cycle = [
            e["event"]
            for e in payload["coordinator"]["events"]
            if e.get("shard") == 1 and e["event"] in kinds
        ]
        assert cycle == ["shard_outage", "shard_readmitted"]
        assert payload["supervision"]["health"]["1"] == "healthy"
        assert payload["config"]["shard_chaos"] == {
            "outage_rate": 0.1,
            "outage_chunks": 2,
            "seed": 3,
        }
        assert payload["config"]["min_healthy_shards"] == 1
        assert payload["telemetry"]["counters"].get("policy_errors", 0) == 0

    def test_zero_chaos_matches_unsupervised_sharded(self, predictor_path, capsys):
        argv = [
            "serve",
            "--predictor",
            predictor_path,
            "--requests",
            "120",
            "--arrival-rate",
            "4.0",
            "--trace-seed",
            "3",
            "--shards",
            "2",
        ]
        assert main(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        assert (
            main(argv + ["--shard-crash-rate", "0"]) == 0
        )
        zeroed = json.loads(capsys.readouterr().out)
        assert "supervision" not in zeroed
        assert _strip_wall_clock(zeroed["telemetry"]) == _strip_wall_clock(
            plain["telemetry"]
        )
        assert _strip_wall_clock(zeroed["coordinator"]) == _strip_wall_clock(
            plain["coordinator"]
        )
