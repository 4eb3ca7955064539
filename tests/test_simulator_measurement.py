"""Tests for the measurement API: determinism, noise, CRN structure."""

import numpy as np
import pytest

from repro.bench import make_benchmark
from repro.games import Resolution
from repro.hardware.resources import Resource
from repro.simulator import (
    BenchmarkInstance,
    GameInstance,
    MeasurementConfig,
    measure_solo_fps,
    run_colocation,
)


@pytest.fixture(scope="module")
def pair(catalog):
    return [GameInstance(catalog.get("H1Z1")), GameInstance(catalog.get("Dota2"))]


class TestDeterminism:
    def test_identical_runs_identical_fps(self, pair):
        a = run_colocation(list(pair))
        b = run_colocation(list(pair))
        assert a.fps == b.fps

    def test_different_seed_different_noise(self, pair):
        a = run_colocation(list(pair), config=MeasurementConfig(seed=1))
        b = run_colocation(list(pair), config=MeasurementConfig(seed=2))
        assert a.fps != b.fps

    def test_noise_changes_reading_for_same_scene(self, pair):
        # Same seed => same scene trace; the only difference is the
        # measurement noise multiplier.
        clean = run_colocation(list(pair), config=MeasurementConfig(noise_sigma=0.0))
        noisy = run_colocation(list(pair), config=MeasurementConfig(noise_sigma=0.05))
        assert clean.fps != noisy.fps
        assert clean.fps == pytest.approx(noisy.fps, rel=0.25)


class TestMeasurement:
    def test_solo_fps_close_to_nominal(self, catalog):
        spec = catalog.get("Dota2")
        measured = measure_solo_fps(GameInstance(spec))
        assert measured == pytest.approx(
            spec.solo_fps_nominal(Resolution(1920, 1080)), rel=0.10
        )

    def test_colocation_degrades(self, catalog, pair):
        solo = measure_solo_fps(GameInstance(catalog.get("H1Z1")))
        coloc = run_colocation(list(pair))
        assert coloc.fps[0] < solo

    def test_benchmark_slot_reports_slowdown_not_fps(self, catalog):
        game = GameInstance(catalog.get("H1Z1"))
        bench = BenchmarkInstance(make_benchmark(Resource.GPU_CE, 0.5))
        result = run_colocation([game, bench])
        assert np.isnan(result.fps[1])
        assert result.slowdowns[1] > 1.0
        assert np.isnan(result.slowdowns[0])

    def test_accessors(self, pair):
        result = run_colocation(list(pair))
        assert result.fps_of(0) == result.fps[0]
        assert np.isnan(result.slowdown_of(0))

    def test_min_fps_mode_lower_than_mean(self, catalog):
        instance = GameInstance(catalog.get("ARK Survival Evolved"))
        mean_cfg = MeasurementConfig(noise_sigma=0.0)
        min_cfg = MeasurementConfig(noise_sigma=0.0, min_fps_mode=True)
        assert measure_solo_fps(instance, config=min_cfg) < measure_solo_fps(
            instance, config=mean_cfg
        )

    def test_engine_server_mismatch_rejected(self, pair):
        from repro.hardware.server import ServerSpec
        from repro.simulator import ColocationEngine

        engine = ColocationEngine(ServerSpec(name="other"))
        with pytest.raises(ValueError, match="server"):
            run_colocation(list(pair), engine=engine)


class TestCommonRandomNumbers:
    """The scene trace must be shared between solo and colocated runs."""

    def test_degradation_ratio_stable_at_zero_pressure(self, catalog):
        game = GameInstance(catalog.get("Rise of The Tomb Raider"))
        config = MeasurementConfig(noise_sigma=0.0)
        solo = measure_solo_fps(game, config=config)
        idle = BenchmarkInstance(make_benchmark(Resource.GPU_CE, 0.0))
        coloc = run_colocation([game, idle], config=config)
        # Without CRN the AR(1) trace would shift and the ratio would move
        # by several percent; with CRN it is within the tiny spill effect.
        assert coloc.fps[0] / solo == pytest.approx(1.0, abs=0.02)


class TestSceneSeriesOncePerGame:
    """An engine keeps each game's scene series; readings cannot tell."""

    def test_memo_is_bitwise_and_bounded_by_game_instances(self, catalog, pair):
        from repro.simulator import ColocationEngine, run_colocations

        h1z1_720p = GameInstance(catalog.get("H1Z1"), Resolution(1280, 720))
        idle = BenchmarkInstance(make_benchmark(Resource.GPU_CE, 0.3))
        runs = [pair, [pair[0]], [pair[1], idle], [h1z1_720p, pair[0]], pair[::-1]]
        engine = ColocationEngine()
        batched = run_colocations(runs, engine=engine)
        # Three game instances in nine game rows: H1Z1, H1Z1@720p, Dota2.
        assert len(engine.scenes) == 3
        for workloads, result in zip(runs, batched, strict=True):
            fresh = run_colocation(workloads)
            # NaN marks the other kind of workload: compare bit patterns.
            assert np.array(result.fps).tobytes() == np.array(fresh.fps).tobytes()
            assert np.array(result.slowdowns).tobytes() == (
                np.array(fresh.slowdowns).tobytes()
            )
        # Measuring again through the same engine reads the memo.
        again = run_colocations(runs, engine=engine)
        assert repr([r.fps for r in again]) == repr([r.fps for r in batched])
        assert len(engine.scenes) == 3
        assert not any(
            series.flags.writeable
            for scene in engine.scenes.values()
            for series in scene
        )

    def test_memo_key_names_the_measurement_config(self, pair):
        from repro.simulator import ColocationEngine

        engine = ColocationEngine()
        for config in (
            MeasurementConfig(),
            MeasurementConfig(seed=1),
            MeasurementConfig(n_frames=100),
        ):
            got = run_colocation(pair, config=config, engine=engine)
            assert got.fps == run_colocation(pair, config=config).fps
        assert len(engine.scenes) == 6


class TestMeasurementConfigValidation:
    def test_bad_frames(self):
        with pytest.raises(ValueError):
            MeasurementConfig(n_frames=0)

    def test_bad_noise(self):
        with pytest.raises(ValueError):
            MeasurementConfig(noise_sigma=-0.1)

    def test_bad_percentile(self):
        with pytest.raises(ValueError):
            MeasurementConfig(min_fps_percentile=60.0)
