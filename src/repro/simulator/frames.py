"""Vectorized frame-by-frame timing with AR(1) scene complexity.

The paper measures a game's frame rate as the average over minutes of play
of a popular scene (Section 3.2) and discusses how dynamic scene changes
move the instantaneous frame rate (Section 7).  We model scene complexity
as a stationary log-AR(1) process with mean 1, scale the CPU and GPU stages
by genre-specific complexity exponents, and read FPS off the simulated
frame-time series.
"""

from __future__ import annotations

import numpy as np

from repro.games.game import GameSpec
from repro.games.resolution import Resolution

__all__ = [
    "scene_complexity",
    "scene_powers",
    "frame_times_from_scene",
    "simulate_frame_times",
    "fps_from_frame_times",
]


def scene_complexity(
    rho: float, sigma: float, n_frames: int, rng: np.random.Generator
) -> np.ndarray:
    """Stationary log-AR(1) complexity series with mean ~1.

    ``log c_t = rho * log c_{t-1} + eps_t`` with ``eps ~ N(0, sigma^2)``,
    mean-corrected so ``E[c] = 1``.  The recursion runs in plain Python
    floats in a first-order IIR filter's operation order (``y = z + eps``,
    then ``z = rho * y``): the QoS ledger measures on the serving path,
    which must not pay for importing scipy.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if not (0.0 <= rho < 1.0):
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0.0:
        return np.ones(n_frames, dtype=float)
    eps = rng.normal(0.0, sigma, size=n_frames)
    # Start from the stationary distribution to avoid a warm-up transient.
    stationary_var = sigma * sigma / (1.0 - rho * rho)
    x0 = rng.normal(0.0, np.sqrt(stationary_var))
    x, z = eps.tolist(), rho * float(x0)
    for i, e in enumerate(x):
        x[i] = y = z + e
        z = rho * y
    return np.exp(np.array(x) - stationary_var / 2.0)


def scene_powers(
    spec: GameSpec, n_frames: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The game's scene series raised to its CPU and GPU complexity exponents.

    Depends on the game and the scene RNG only — not on the colocation —
    so a measurer may compute it once per game instance and reuse it; the
    arrays are read-only for that reason.
    """
    c = scene_complexity(spec.scene_rho, spec.scene_sigma, n_frames, rng)
    powers = (c**spec.cpu_complexity_exp, c**spec.gpu_complexity_exp)
    for series in powers:
        series.flags.writeable = False
    return powers


def frame_times_from_scene(
    spec: GameSpec,
    resolution: Resolution,
    scene: tuple[np.ndarray, np.ndarray],
    *,
    stage_inflations: tuple[float, float, float] = (1.0, 1.0, 1.0),
    thrash: float = 1.0,
    server_scales: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> np.ndarray:
    """Per-frame times (ms) for one game under fixed contention inflations.

    The steady-state engine provides mean-field stage inflations; here the
    scene-complexity process (``scene``, from :func:`scene_powers`)
    modulates the CPU and GPU stages around them, reproducing intra-run
    frame-rate variance.
    """
    ic, ig, il = stage_inflations
    cs, gs, ls = server_scales
    cpu_scene, gpu_scene = scene
    t_cpu = (spec.cpu_time_ms / cs) * ic * cpu_scene
    t_gpu = (spec.gpu_time_ms(resolution) / gs) * ig * gpu_scene
    t_link = (spec.xfer_time_ms(resolution) / ls) * il
    return (np.maximum(t_cpu, t_gpu) + t_link) * thrash


def simulate_frame_times(
    spec: GameSpec,
    resolution: Resolution,
    *,
    stage_inflations: tuple[float, float, float] = (1.0, 1.0, 1.0),
    thrash: float = 1.0,
    n_frames: int = 400,
    rng: np.random.Generator,
    server_scales: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> np.ndarray:
    """:func:`frame_times_from_scene` over a scene series drawn from ``rng``."""
    return frame_times_from_scene(
        spec,
        resolution,
        scene_powers(spec, n_frames, rng),
        stage_inflations=stage_inflations,
        thrash=thrash,
        server_scales=server_scales,
    )


def fps_from_frame_times(frame_times_ms: np.ndarray) -> float:
    """Average FPS over a frame-time series: frames / total seconds."""
    frame_times_ms = np.asarray(frame_times_ms, dtype=float)
    if frame_times_ms.size == 0:
        raise ValueError("frame_times_ms must be non-empty")
    total_s = float(frame_times_ms.sum()) / 1000.0
    return frame_times_ms.size / total_s
