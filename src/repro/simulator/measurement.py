"""Measurement API: run colocations, read frame rates.

This is the reproduction's substitute for the paper's testbed procedure
("run the game for several minutes, compute the average frame rate").
Every measurement is deterministic in (workload identities, config seed):
repeated calls with the same inputs return identical FPS, while different
colocations observe independent noise streams.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.hardware.server import DEFAULT_SERVER, ServerSpec
from repro.simulator.engine import ColocationEngine, SteadyState
from repro.simulator.frames import (
    fps_from_frame_times,
    frame_times_from_scene,
    scene_powers,
)
from repro.simulator.workload import GameInstance, Workload
from repro.utils.rng import spawn_rng

__all__ = [
    "MeasurementConfig",
    "ColocationResult",
    "run_colocations",
    "run_colocation",
    "measure_solo_fps",
]


@dataclass(frozen=True)
class MeasurementConfig:
    """Measurement procedure parameters.

    ``noise_sigma`` is the run-to-run multiplicative measurement noise
    (driver scheduling, capture jitter); ``n_frames`` plays the role of the
    paper's multi-minute test period.  ``min_fps_mode`` switches the
    reported statistic from mean FPS to a low percentile of the
    instantaneous frame rate — the conservative profiling variant the paper
    suggests in Section 7.
    """

    n_frames: int = 400
    noise_sigma: float = 0.02
    seed: int = 0
    min_fps_mode: bool = False
    min_fps_percentile: float = 5.0

    def __post_init__(self) -> None:
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not (0.0 < self.min_fps_percentile < 50.0):
            raise ValueError("min_fps_percentile must lie in (0, 50)")


@dataclass(frozen=True)
class ColocationResult:
    """Measured outcome of one colocation run."""

    workloads: tuple[Workload, ...]
    fps: tuple[float, ...]
    slowdowns: tuple[float, ...]
    state: SteadyState

    def fps_of(self, index: int) -> float:
        """Measured FPS of workload ``index`` (NaN for benchmarks)."""
        return self.fps[index]

    def slowdown_of(self, index: int) -> float:
        """Benchmark slowdown of workload ``index`` (NaN for games)."""
        return self.slowdowns[index]


def _scene(config: MeasurementConfig, workload: GameInstance, memo: dict):
    """The game's powered scene series — one per game, not per colocation.

    The paper measures every run of a game on the *same* popular scene
    (Section 3.2), so the rendering workload trace is common across solo
    and colocated runs.  Common random numbers reproduce that: degradation
    ratios are not polluted by trace resampling variance.  ``memo`` is the
    measuring engine's: the key names everything the series depends on.
    """
    spec = workload.spec
    identity = workload.identity()
    key = (
        config.seed,
        config.n_frames,
        identity,
        spec.scene_rho,
        spec.scene_sigma,
        spec.cpu_complexity_exp,
        spec.gpu_complexity_exp,
    )
    scene = memo.get(key)
    if scene is None:
        rng = spawn_rng(config.seed, "scene", identity)
        scene = memo[key] = scene_powers(spec, config.n_frames, rng)
    return scene


def _noise_rng(config: MeasurementConfig, identity: tuple, index: int):
    """Measurement-noise RNG — independent across colocations and slots."""
    return spawn_rng(config.seed, "noise", identity, index)


def _read(
    workloads: Sequence[Workload],
    state: SteadyState,
    server: ServerSpec,
    config: MeasurementConfig,
    scenes: dict,
) -> ColocationResult:
    """Read every workload's FPS or slowdown off one solved colocation."""
    identity = tuple(w.identity() for w in workloads)
    server_scales = (server.cpu_scale, server.gpu_scale, server.link_scale)

    fps: list[float] = []
    slowdowns: list[float] = []
    for i, w in enumerate(workloads):
        noise_rng = _noise_rng(config, identity, i)
        noise = (
            float(noise_rng.lognormal(0.0, config.noise_sigma))
            if config.noise_sigma
            else 1.0
        )
        if isinstance(w, GameInstance):
            times = frame_times_from_scene(
                w.spec,
                w.resolution,
                _scene(config, w, scenes),
                stage_inflations=tuple(state.stage_inflations[i]),
                thrash=state.thrash,
                server_scales=server_scales,
            )
            if config.min_fps_mode:
                inst_fps = 1000.0 / times
                value = float(np.percentile(inst_fps, config.min_fps_percentile))
            else:
                value = fps_from_frame_times(times)
            fps.append(value * noise)
            slowdowns.append(float("nan"))
        else:
            slowdowns.append(float(state.slowdowns[i]) * noise)
            fps.append(float("nan"))

    return ColocationResult(
        workloads=tuple(workloads),
        fps=tuple(fps),
        slowdowns=tuple(slowdowns),
        state=state,
    )


def run_colocations(
    colocations: Sequence[Sequence[Workload]],
    server: ServerSpec = DEFAULT_SERVER,
    config: MeasurementConfig | None = None,
    engine: ColocationEngine | None = None,
) -> list[ColocationResult]:
    """Colocate each workload list on its own ``server`` and measure it.

    Games report FPS (mean over the simulated run, or a low percentile in
    ``min_fps_mode``); benchmarks report completion-time slowdown.  The
    colocations are independent runs — each result is what measuring that
    colocation alone gives — solved as one batch
    (:meth:`ColocationEngine.steady_states`).
    """
    config = config if config is not None else MeasurementConfig()
    if engine is None:
        engine = ColocationEngine(server)
    elif engine.server is not server:
        raise ValueError("engine.server must match the server argument")
    colocations = list(colocations)
    return [
        _read(workloads, state, server, config, engine.scenes)
        for workloads, state in zip(colocations, engine.steady_states(colocations))
    ]


def run_colocation(
    workloads: list[Workload],
    server: ServerSpec = DEFAULT_SERVER,
    config: MeasurementConfig | None = None,
    engine: ColocationEngine | None = None,
) -> ColocationResult:
    """Measure one colocation: :func:`run_colocations` on a batch of one."""
    return run_colocations([workloads], server=server, config=config, engine=engine)[0]


def measure_solo_fps(
    instance: GameInstance,
    server: ServerSpec = DEFAULT_SERVER,
    config: MeasurementConfig | None = None,
) -> float:
    """Measure a game's solo frame rate (same procedure, single workload)."""
    result = run_colocation([instance], server=server, config=config)
    return result.fps[0]
