"""Tests for GameSpec: stage times, utilization scaling, resolution laws."""

import numpy as np
import pytest

from repro.games import REFERENCE_RESOLUTION, Resolution, build_catalog
from repro.games.curves import CurveShape, SensitivityShape
from repro.games.game import PIXEL_SCALED_RESOURCES, GameSpec
from repro.games.genres import Genre
from repro.hardware.resources import Resource, ResourceVector


@pytest.fixture(scope="module")
def spec():
    return build_catalog().get("H1Z1")


R720 = Resolution(1280, 720)
R1080 = Resolution(1920, 1080)


class TestStageTimes:
    def test_gpu_time_grows_with_pixels(self, spec):
        assert spec.gpu_time_ms(R1080) > spec.gpu_time_ms(R720)

    def test_gpu_time_affine_in_pixels(self, spec):
        r900 = Resolution(1600, 900)
        expected = spec.gpu_fixed_ms + spec.gpu_per_mpix_ms * r900.megapixels
        assert spec.gpu_time_ms(r900) == pytest.approx(expected)

    def test_solo_frame_time_is_pipeline(self, spec):
        expected = max(spec.cpu_time_ms, spec.gpu_time_ms(R1080)) + spec.xfer_time_ms(
            R1080
        )
        assert spec.solo_frame_time_ms(R1080) == pytest.approx(expected)

    def test_solo_fps_decreases_with_resolution(self, spec):
        assert spec.solo_fps_nominal(R720) >= spec.solo_fps_nominal(R1080)


class TestUtilizationResolutionLaws:
    def test_observation7_cpu_side_constant(self, spec):
        u720 = spec.utilization(R720)
        u1080 = spec.utilization(R1080)
        for res in (Resource.CPU_CE, Resource.MEM_BW, Resource.LLC):
            assert u720[res] == pytest.approx(u1080[res])

    def test_observation8_gpu_side_affine(self, spec):
        resolutions = [R720, Resolution(1600, 900), R1080]
        mpix = np.array([r.megapixels for r in resolutions])
        for res in PIXEL_SCALED_RESOURCES:
            values = np.array([spec.utilization(r)[res] for r in resolutions])
            if np.any(values >= 1.0):  # clamped at capacity, skip
                continue
            fitted = np.polyfit(mpix, values, 1)
            residual = values - np.polyval(fitted, mpix)
            assert np.max(np.abs(residual)) < 1e-9

    def test_gpu_side_monotone_in_pixels(self, spec):
        u720 = spec.utilization(R720)
        u1080 = spec.utilization(R1080)
        for res in PIXEL_SCALED_RESOURCES:
            assert u1080[res] >= u720[res]

    def test_default_resolution_is_reference(self, spec):
        assert spec.utilization() == spec.utilization(REFERENCE_RESOLUTION)


class TestMemoryDemand:
    def test_gpu_memory_grows_beyond_reference(self, spec):
        _, gpu_ref = spec.memory_demand(REFERENCE_RESOLUTION)
        _, gpu_big = spec.memory_demand(Resolution(3840, 2160))
        assert gpu_big > gpu_ref

    def test_cpu_memory_resolution_independent(self, spec):
        cpu_720, _ = spec.memory_demand(R720)
        cpu_1080, _ = spec.memory_demand(R1080)
        assert cpu_720 == cpu_1080


class TestStageInflations:
    def test_no_pressure_no_inflation(self, spec):
        cpu, gpu, link = spec.stage_inflations(np.zeros(7))
        assert (cpu, gpu, link) == (1.0, 1.0, 1.0)

    def test_additive_within_stage(self, spec):
        pressures = np.zeros(7)
        pressures[int(Resource.GPU_CE)] = 1.0
        _, gpu_one, _ = spec.stage_inflations(pressures)
        pressures[int(Resource.GPU_BW)] = 1.0
        _, gpu_two, _ = spec.stage_inflations(pressures)
        gain_ce = spec.sensitivity[Resource.GPU_CE].magnitude
        gain_bw = spec.sensitivity[Resource.GPU_BW].magnitude
        assert gpu_one == pytest.approx(1.0 + gain_ce)
        assert gpu_two == pytest.approx(1.0 + gain_ce + gain_bw)

    def test_domain_separation(self, spec):
        pressures = np.zeros(7)
        pressures[int(Resource.CPU_CE)] = 1.0
        cpu, gpu, link = spec.stage_inflations(pressures)
        assert cpu > 1.0
        assert gpu == 1.0
        assert link == 1.0

    def test_link_stage(self, spec):
        pressures = np.zeros(7)
        pressures[int(Resource.PCIE_BW)] = 1.0
        _, _, link = spec.stage_inflations(pressures)
        assert link == pytest.approx(
            spec.sensitivity[Resource.PCIE_BW].inflation(1.0)
        )


class TestValidation:
    def _kwargs(self):
        return dict(
            name="t",
            genre=Genre.INDIE,
            cpu_time_ms=2.0,
            gpu_fixed_ms=0.5,
            gpu_per_mpix_ms=1.0,
            xfer_fixed_ms=0.2,
            xfer_per_mpix_ms=0.1,
            base_util=ResourceVector([0.1] * 7),
            sensitivity={r: SensitivityShape(0.5, CurveShape.LINEAR) for r in Resource},
            cpu_mem_gb=1.0,
            gpu_mem_gb=0.5,
        )

    def test_valid_constructs(self):
        GameSpec(**self._kwargs())

    def test_missing_sensitivity_rejected(self):
        kwargs = self._kwargs()
        del kwargs["sensitivity"][Resource.GPU_L2]
        with pytest.raises(ValueError, match="GPU-L2"):
            GameSpec(**kwargs)

    def test_non_positive_cpu_time_rejected(self):
        kwargs = self._kwargs()
        kwargs["cpu_time_ms"] = 0.0
        with pytest.raises(ValueError):
            GameSpec(**kwargs)

    @pytest.mark.parametrize("rho", [1.0, 1.5, -0.1, float("nan")])
    def test_scene_rho_outside_half_open_unit_rejected(self, rho):
        kwargs = self._kwargs()
        kwargs["scene_rho"] = rho
        with pytest.raises(ValueError, match="scene_rho"):
            GameSpec(**kwargs)

    @pytest.mark.parametrize(
        "sigma", [-0.1, float("nan"), float("inf"), -float("inf")]
    )
    def test_scene_sigma_not_finite_non_negative_rejected(self, sigma):
        kwargs = self._kwargs()
        kwargs["scene_sigma"] = sigma
        with pytest.raises(ValueError, match="scene_sigma"):
            GameSpec(**kwargs)

    def test_scene_edges_accepted(self):
        kwargs = self._kwargs()
        kwargs.update(scene_rho=0.0, scene_sigma=0.0)
        GameSpec(**kwargs)
        kwargs.update(scene_rho=0.999999, scene_sigma=1e-300)
        GameSpec(**kwargs)

    def test_dict_round_trip(self):
        spec = GameSpec(**self._kwargs())
        restored = GameSpec.from_dict(spec.to_dict())
        assert restored == spec
