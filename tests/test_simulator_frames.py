"""Tests for the frame-time simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.lab import Lab, LabConfig
from repro.games import Resolution
from repro.simulator.frames import (
    fps_from_frame_times,
    scene_complexity,
    scene_powers,
    simulate_frame_times,
)


@pytest.fixture(scope="module")
def spec(catalog):
    return catalog.get("H1Z1")


R1080 = Resolution(1920, 1080)


class TestSceneComplexity:
    def test_mean_near_one(self):
        rng = np.random.default_rng(0)
        c = scene_complexity(0.95, 0.1, 50_000, rng)
        assert c.mean() == pytest.approx(1.0, rel=0.05)

    def test_positive(self):
        rng = np.random.default_rng(1)
        assert np.all(scene_complexity(0.9, 0.3, 1000, rng) > 0)

    def test_zero_sigma_constant(self):
        rng = np.random.default_rng(2)
        assert np.array_equal(scene_complexity(0.9, 0.0, 10, rng), np.ones(10))

    def test_autocorrelated(self):
        rng = np.random.default_rng(3)
        c = np.log(scene_complexity(0.95, 0.1, 20_000, rng))
        r1 = np.corrcoef(c[:-1], c[1:])[0, 1]
        assert r1 > 0.85

    @pytest.mark.parametrize("rho,sigma,n", [(1.0, 0.1, 10), (0.9, -0.1, 10), (0.9, 0.1, 0)])
    def test_invalid_params(self, rho, sigma, n):
        with pytest.raises(ValueError):
            scene_complexity(rho, sigma, n, np.random.default_rng(0))

    def test_deterministic_given_rng(self):
        a = scene_complexity(0.9, 0.1, 100, np.random.default_rng(5))
        b = scene_complexity(0.9, 0.1, 100, np.random.default_rng(5))
        assert np.array_equal(a, b)


def _lfilter_scene(rho, sigma, n, rng):
    """Reference: the same series through ``scipy.signal.lfilter``."""
    from scipy.signal import lfilter

    if sigma == 0.0:
        return np.ones(n, dtype=float)
    eps = rng.normal(0.0, sigma, size=n)
    stationary_var = sigma * sigma / (1.0 - rho * rho)
    x0 = rng.normal(0.0, np.sqrt(stationary_var))
    x = lfilter([1.0], [1.0, -rho], eps, zi=np.array([rho * x0]))[0]
    return np.exp(x - stationary_var / 2.0)


class TestSceneRecurrenceMatchesLfilter:
    """The in-repo AR(1) recurrence is bitwise the IIR filter it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 400, 50_000])
    @pytest.mark.parametrize("sigma", [0.0, 1e-300, 1e-12, 0.08, 0.2, 1.5])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.95, 0.999999, 0.3719])
    def test_grid(self, rho, sigma, n):
        seed = hash((rho, sigma, n)) % 2**32
        ours = scene_complexity(rho, sigma, n, np.random.default_rng(seed))
        ref = _lfilter_scene(rho, sigma, n, np.random.default_rng(seed))
        assert ours.tobytes() == ref.tobytes()

    def test_random_cases(self):
        draw = np.random.default_rng(2024)
        for case in range(300):
            rho = float(draw.random())
            sigma = float(10.0 ** draw.uniform(-300.0, 0.5))
            n = int(draw.integers(1, 1500))
            ours = scene_complexity(rho, sigma, n, np.random.default_rng(case))
            ref = _lfilter_scene(rho, sigma, n, np.random.default_rng(case))
            assert ours.tobytes() == ref.tobytes(), (rho, sigma, n)

    def test_scene_powers_of_the_small_lab(self):
        lab = Lab(LabConfig.small())
        for seed in range(3):
            for name in lab.names:
                spec = lab.catalog.get(name)
                cpu, gpu = scene_powers(spec, 400, np.random.default_rng(seed))
                c = _lfilter_scene(
                    spec.scene_rho, spec.scene_sigma, 400, np.random.default_rng(seed)
                )
                assert cpu.tobytes() == (c**spec.cpu_complexity_exp).tobytes()
                assert gpu.tobytes() == (c**spec.gpu_complexity_exp).tobytes()

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            scene_complexity(0.9, sigma, 10, np.random.default_rng(0))

    def test_nan_rho_rejected(self):
        with pytest.raises(ValueError, match="rho"):
            scene_complexity(float("nan"), 0.1, 10, np.random.default_rng(0))


class TestSimulateFrameTimes:
    def test_shape_and_positivity(self, spec):
        times = simulate_frame_times(
            spec, R1080, n_frames=100, rng=np.random.default_rng(0)
        )
        assert times.shape == (100,)
        assert np.all(times > 0)

    def test_mean_near_nominal(self, spec):
        times = simulate_frame_times(
            spec, R1080, n_frames=20_000, rng=np.random.default_rng(0)
        )
        nominal = spec.solo_frame_time_ms(R1080)
        assert times.mean() == pytest.approx(nominal, rel=0.15)

    def test_inflations_slow_frames(self, spec):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        base = simulate_frame_times(spec, R1080, n_frames=500, rng=rng_a)
        inflated = simulate_frame_times(
            spec, R1080, stage_inflations=(2.0, 2.0, 2.0), n_frames=500, rng=rng_b
        )
        assert np.all(inflated >= base)

    def test_thrash_multiplies(self, spec):
        a = simulate_frame_times(
            spec, R1080, n_frames=100, rng=np.random.default_rng(1)
        )
        b = simulate_frame_times(
            spec, R1080, thrash=3.0, n_frames=100, rng=np.random.default_rng(1)
        )
        assert np.allclose(b, 3.0 * a)

    def test_server_scales_speed_up(self, spec):
        slow = simulate_frame_times(
            spec, R1080, n_frames=100, rng=np.random.default_rng(2)
        )
        fast = simulate_frame_times(
            spec,
            R1080,
            n_frames=100,
            rng=np.random.default_rng(2),
            server_scales=(2.0, 2.0, 2.0),
        )
        assert np.all(fast <= slow)


class TestFpsFromFrameTimes:
    def test_constant_frames(self):
        assert fps_from_frame_times(np.full(100, 10.0)) == pytest.approx(100.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fps_from_frame_times(np.array([]))

    @given(st.lists(st.floats(1.0, 100.0), min_size=1, max_size=50))
    @settings(max_examples=30)
    def test_harmonic_mean_property(self, times):
        # FPS equals 1000 / (arithmetic mean frame time).
        times = np.asarray(times)
        assert fps_from_frame_times(times) == pytest.approx(
            1000.0 / times.mean()
        )
