"""The contention-feature profiler."""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro.bench.suite import make_benchmark
from repro.core.profiles import GameProfile, SensitivityCurve
from repro.games.game import GameSpec
from repro.games.resolution import Resolution
from repro.hardware.resources import NUM_RESOURCES, Resource, ResourceVector
from repro.hardware.server import DEFAULT_SERVER, ServerSpec
from repro.profiling.database import ProfileDatabase
from repro.simulator.measurement import (
    ColocationResult,
    MeasurementConfig,
    run_colocations,
)
from repro.simulator.workload import BenchmarkInstance, GameInstance
from repro.utils.rng import spawn_rng

__all__ = ["ProfilerConfig", "ContentionProfiler"]


@dataclass(frozen=True)
class ProfilerConfig:
    """Profiling procedure parameters.

    ``pressure_levels`` is the paper's sampling granularity ``k``: dials
    are ``{0, 1/k, ..., 1}`` (k=10 in the paper's experiments).
    ``resolutions`` are the two profiled resolutions; sensitivity curves
    are recorded at ``sensitivity_resolution`` only (Observation 6 makes
    one resolution sufficient).  ``demand_noise`` is the relative error of
    the performance-counter utilization readings that feed the VBP
    baseline's demand vectors.
    """

    pressure_levels: int = 10
    resolutions: tuple[Resolution, ...] = (
        Resolution(1280, 720),
        Resolution(1600, 900),
        Resolution(1920, 1080),
    )
    sensitivity_resolution: Resolution = Resolution(1920, 1080)
    intensity_levels: int = 4
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    demand_noise: float = 0.01

    def __post_init__(self) -> None:
        if self.pressure_levels < 1 or self.intensity_levels < 1:
            raise ValueError("pressure/intensity levels must be >= 1")
        if len(set(self.resolutions)) < 2:
            raise ValueError("need at least two distinct profiled resolutions")
        if self.sensitivity_resolution not in self.resolutions:
            raise ValueError("sensitivity_resolution must be a profiled resolution")
        if self.demand_noise < 0:
            raise ValueError("demand_noise must be >= 0")

    @property
    def dials(self) -> np.ndarray:
        """The full pressure sweep ``{0, 1/k, ..., 1}`` (sensitivity curves)."""
        return np.linspace(0.0, 1.0, self.pressure_levels + 1)

    @property
    def intensity_dials(self) -> np.ndarray:
        """Coarser sweep for intensity-only resolutions.

        Intensity is the *mean* benchmark slowdown over the dials, so a
        coarse sweep loses little fidelity while cutting the per-resolution
        profiling cost roughly in half.
        """
        return np.linspace(0.0, 1.0, self.intensity_levels + 1)


class ContentionProfiler:
    """Profiles sensitivity and intensity of games against the benchmarks.

    Each (game, resource, dial) colocation yields two readings at once: the
    game's frame rate (a sensitivity-curve sample) and the benchmark's
    slowdown (an intensity sample), exactly as on the paper's testbed.
    """

    def __init__(
        self,
        server: ServerSpec = DEFAULT_SERVER,
        config: ProfilerConfig | None = None,
    ):
        self.server = server
        self.config = config if config is not None else ProfilerConfig()

    # ------------------------------------------------------------------

    def _measure_demand(self, instance: GameInstance) -> ResourceVector:
        """Read solo utilization 'performance counters' (with reading noise)."""
        true_util = instance.base_utilization()
        noise_level = self.config.demand_noise
        if noise_level:
            rng = spawn_rng(
                self.config.measurement.seed, "demand", instance.identity()
            )
            true_util = true_util * rng.lognormal(0.0, noise_level, NUM_RESOURCES)
        return ResourceVector(np.clip(true_util, 0.0, 1.0))

    @staticmethod
    def _runs(instance: GameInstance, dials: np.ndarray) -> list[list]:
        """One resolution's runs: solo, then the benchmark sweep.

        The sweep is resource-major: ``[game, benchmark]`` per (resource, dial).
        """
        return [[instance]] + [
            [instance, BenchmarkInstance(make_benchmark(res, float(dial)))]
            for res in Resource
            for dial in dials
        ]

    @staticmethod
    def _sweep(
        results: Iterator[ColocationResult], solo_fps: float, dials: np.ndarray
    ) -> tuple[dict[Resource, SensitivityCurve], ResourceVector]:
        """Read one benchmark sweep off ``results`` -> (curves, intensity vector)."""
        curves: dict[Resource, SensitivityCurve] = {}
        intensity = np.zeros(NUM_RESOURCES, dtype=float)
        for res in Resource:
            swept = list(islice(results, len(dials)))
            curves[res] = SensitivityCurve(
                resource=res,
                pressures=tuple(float(d) for d in dials),
                degradations=tuple(r.fps[0] / solo_fps for r in swept),
            )
            intensity[int(res)] = float(np.mean([r.slowdowns[1] for r in swept])) - 1.0
        return curves, ResourceVector(np.maximum(intensity, 0.0))

    def profile_game(self, spec: GameSpec) -> GameProfile:
        """Profile one game at the configured resolutions.

        Every run is known up front — per resolution a solo run and a
        benchmark sweep — so the game is measured as one batch.
        """
        solo_fps: dict[Resolution, float] = {}
        intensity: dict[Resolution, ResourceVector] = {}
        demand: dict[Resolution, ResourceVector] = {}
        sensitivity: dict[Resource, SensitivityCurve] | None = None

        plan = []
        for resolution in self.config.resolutions:
            is_sens = resolution == self.config.sensitivity_resolution
            dials = self.config.dials if is_sens else self.config.intensity_dials
            plan.append((resolution, GameInstance(spec, resolution), dials))
        runs = [
            run for _, instance, dials in plan for run in self._runs(instance, dials)
        ]
        results = iter(
            run_colocations(runs, server=self.server, config=self.config.measurement)
        )
        for resolution, instance, dials in plan:
            fps = next(results).fps[0]
            solo_fps[resolution] = fps
            demand[resolution] = self._measure_demand(instance)
            curves, intensity[resolution] = self._sweep(results, fps, dials)
            if resolution == self.config.sensitivity_resolution:
                sensitivity = curves

        assert sensitivity is not None  # guaranteed by config validation
        largest = max(self.config.resolutions, key=lambda r: r.pixels)
        cpu_mem, gpu_mem = spec.memory_demand(largest)
        return GameProfile(
            name=spec.name,
            sensitivity=sensitivity,
            solo_fps=solo_fps,
            intensity=intensity,
            demand=demand,
            cpu_mem_gb=cpu_mem,
            gpu_mem_gb=gpu_mem,
        )

    def profile_catalog(
        self,
        specs,
        *,
        progress: Callable[[str, int, int], None] | None = None,
    ) -> ProfileDatabase:
        """Profile every game in ``specs`` into a :class:`ProfileDatabase`.

        ``progress(name, done, total)`` is invoked after each game — the
        offline profiling pass is the expensive O(N) step of the pipeline.
        """
        specs = list(specs)
        db = ProfileDatabase(
            server_name=self.server.name, config=self.config
        )
        for i, spec in enumerate(specs):
            db.add(self.profile_game(spec))
            if progress is not None:
                progress(spec.name, i + 1, len(specs))
        return db
