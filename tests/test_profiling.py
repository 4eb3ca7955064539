"""Tests for the contention profiler and profile database."""

import numpy as np
import pytest

from repro.games.resolution import Resolution
from repro.hardware.resources import CPU_RESOURCES, Resource
from repro.profiling import ContentionProfiler, ProfileDatabase, ProfilerConfig


@pytest.fixture(scope="module")
def profile(catalog):
    """One fully profiled game (module-scoped: ~1s)."""
    profiler = ContentionProfiler()
    return profiler.profile_game(catalog.get("H1Z1"))


class TestProfilerConfig:
    def test_default_dials(self):
        config = ProfilerConfig()
        assert len(config.dials) == 11
        assert config.dials[0] == 0.0 and config.dials[-1] == 1.0

    def test_intensity_dials_coarser(self):
        config = ProfilerConfig()
        assert len(config.intensity_dials) < len(config.dials)

    def test_sensitivity_resolution_must_be_profiled(self):
        with pytest.raises(ValueError, match="sensitivity_resolution"):
            ProfilerConfig(
                resolutions=(Resolution(1280, 720), Resolution(1600, 900)),
                sensitivity_resolution=Resolution(1920, 1080),
            )

    def test_needs_two_resolutions(self):
        with pytest.raises(ValueError, match="two"):
            ProfilerConfig(
                resolutions=(Resolution(1920, 1080), Resolution(1920, 1080)),
            )


class TestProfileGame:
    def test_all_resources_profiled(self, profile):
        for res in Resource:
            assert res in profile.sensitivity
            curve = profile.sensitivity[res]
            assert len(curve.pressures) == 11

    def test_curve_starts_near_one(self, profile):
        for res in Resource:
            assert profile.sensitivity[res].degradations[0] == pytest.approx(
                1.0, abs=0.08
            )

    def test_curves_trend_downward(self, profile):
        # Not strictly monotone (measurement noise) but the endpoint must
        # be materially below the start for at least some resources.
        drops = [
            profile.sensitivity[res].degradations[0]
            - profile.sensitivity[res].degradations[-1]
            for res in Resource
        ]
        assert max(drops) > 0.15

    def test_three_profiled_resolutions(self, profile):
        assert len(profile.profiled_resolutions) == 3

    def test_intensity_non_negative(self, profile):
        for resolution in profile.profiled_resolutions:
            assert all(v >= 0.0 for v in profile.intensity[resolution])

    def test_observation7_cpu_intensity_resolution_stable(self, profile):
        resolutions = profile.profiled_resolutions
        for res in CPU_RESOURCES:
            values = [profile.intensity[r][res] for r in resolutions]
            assert np.ptp(values) < 0.25

    def test_observation8_gpu_intensity_grows_with_pixels(self, profile):
        resolutions = profile.profiled_resolutions
        values = [profile.intensity[r][Resource.GPU_CE] for r in resolutions]
        assert values[-1] >= values[0]

    def test_solo_fps_decreases_with_resolution(self, profile):
        resolutions = profile.profiled_resolutions
        fps = [profile.solo_fps[r] for r in resolutions]
        assert fps[0] > fps[-1]

    def test_demand_reflects_hidden_utilization(self, catalog, profile):
        spec = catalog.get("H1Z1")
        r1080 = Resolution(1920, 1080)
        measured = profile.demand[r1080]
        true = spec.utilization(r1080)
        for res in Resource:
            assert measured[res] == pytest.approx(true[res], rel=0.08)


class TestBatchedProfiling:
    """A game's runs are measured as one batch; the profile cannot tell."""

    def one_at_a_time(self, profiler, spec):
        """Solo FPS, curves and intensity from one ``run_colocation`` per run."""
        from repro.bench.suite import make_benchmark
        from repro.simulator import BenchmarkInstance, GameInstance, run_colocation

        config = profiler.config
        measure = dict(server=profiler.server, config=config.measurement)
        solo, degradations, intensity = {}, {}, {}
        for resolution in config.resolutions:
            game = GameInstance(spec, resolution)
            solo[resolution] = run_colocation([game], **measure).fps[0]
            is_sens = resolution == config.sensitivity_resolution
            dials = config.dials if is_sens else config.intensity_dials
            means = []
            for res in Resource:
                runs = [
                    run_colocation(
                        [game, BenchmarkInstance(make_benchmark(res, float(d)))],
                        **measure,
                    )
                    for d in dials
                ]
                if is_sens:
                    degradations[res] = tuple(
                        r.fps[0] / solo[resolution] for r in runs
                    )
                means.append(float(np.mean([r.slowdowns[1] for r in runs])) - 1.0)
            intensity[resolution] = np.maximum(np.array(means), 0.0)
        return solo, degradations, intensity

    def test_profile_equals_one_run_at_a_time(self, catalog):
        profiler = ContentionProfiler(
            config=ProfilerConfig(pressure_levels=4, intensity_levels=2)
        )
        for name in ("Dota2", "H1Z1", "Stardew Valley"):
            spec = catalog.get(name)
            profile = profiler.profile_game(spec)
            solo, degradations, intensity = self.one_at_a_time(profiler, spec)
            assert profile.solo_fps == solo
            for res in Resource:
                assert profile.sensitivity[res].degradations == degradations[res]
            for resolution, vector in intensity.items():
                assert profile.intensity[resolution].values.tobytes() == (
                    vector.tobytes()
                )


class TestProfileDatabase:
    def test_add_get_len(self, profile):
        db = ProfileDatabase()
        db.add(profile)
        assert len(db) == 1
        assert db.get(profile.name) is profile
        assert profile.name in db

    def test_get_missing(self):
        with pytest.raises(KeyError, match="NoSuchGame"):
            ProfileDatabase().get("NoSuchGame")

    def test_subset(self, profile):
        db = ProfileDatabase()
        db.add(profile)
        sub = db.subset([profile.name])
        assert sub.names() == [profile.name]

    def test_save_load_round_trip(self, profile, tmp_path):
        db = ProfileDatabase(server_name="ref")
        db.add(profile)
        path = tmp_path / "db.json"
        db.save(path)
        restored = ProfileDatabase.load(path)
        assert restored.server_name == "ref"
        original = db.get(profile.name)
        loaded = restored.get(profile.name)
        assert loaded.solo_fps == original.solo_fps
        assert loaded.sensitivity[Resource.GPU_CE] == original.sensitivity[
            Resource.GPU_CE
        ]
        assert loaded.intensity == original.intensity

    def test_iteration_order(self, profile):
        db = ProfileDatabase()
        db.add(profile)
        assert [p.name for p in db] == [profile.name]
