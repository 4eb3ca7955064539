"""Steady-state contention resolution for a colocated workload set.

Colocation performance is a fixed point: contention slows each game, a
slowed game issues less compute/bandwidth traffic, which in turn lowers the
pressure its co-runners feel.  The engine iterates this feedback loop with
damping until the per-game rate factors converge, then reports per-workload
pressures, stage inflations, frame times and benchmark slowdowns.

This rate feedback — combined with the non-additive combinators in
:mod:`repro.hardware.contention` — is what makes aggregate intensity differ
from the sum of individual intensities (the paper's Observation 5 and
Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.games.game import StageInflationModel
from repro.hardware.contention import ContentionModel
from repro.hardware.resources import Resource
from repro.hardware.server import DEFAULT_SERVER, ServerSpec
from repro.simulator.workload import (
    RATE_SCALED_MASK,
    BenchmarkInstance,
    GameInstance,
    Workload,
)

__all__ = ["SteadyState", "ColocationEngine"]


@dataclass(frozen=True)
class SteadyState:
    """Converged contention state for one colocation.

    Attributes
    ----------
    pressures:
        ``(n, 7)`` — aggregate pressure each workload suffers per resource.
    rate_factors:
        ``(n,)`` — achieved/solo frame-rate ratio (1.0 for benchmarks).
    stage_inflations:
        ``(n, 3)`` — CPU/GPU/link stage multipliers (1.0 rows for benchmarks).
    frame_times_ms:
        ``(n,)`` — steady-state mean frame time (NaN for benchmarks).
    slowdowns:
        ``(n,)`` — benchmark completion-time inflation (NaN for games).
    converged:
        Whether the fixed point met tolerance within the iteration budget.
    iterations:
        Fixed-point iterations performed.
    thrash:
        Memory-oversubscription multiplier inside ``frame_times_ms`` (>= 1).
    """

    pressures: np.ndarray
    rate_factors: np.ndarray
    stage_inflations: np.ndarray
    frame_times_ms: np.ndarray
    slowdowns: np.ndarray
    converged: bool
    iterations: int
    thrash: float


class ColocationEngine:
    """Resolves contention among colocated workloads on one server.

    Parameters
    ----------
    server:
        Server capacity spec; utilizations and stage times are rescaled
        from the reference server.
    contention:
        Per-resource aggregation combinators.
    max_iterations, tolerance, damping:
        Fixed-point controls.  Damping of 0.5 is ample for the monotone
        maps involved; tests assert convergence across random colocations.
    thrash_penalty:
        Frame-time multiplier slope applied when total memory demand
        exceeds server capacity (the paper excludes memory from contention
        features precisely because it is a cliff, not a gradient).
    rate_feedback:
        How strongly a slowed game's exerted compute/bandwidth pressure
        shrinks with its achieved frame rate: the effective utilization
        scale is ``(1 - rate_feedback) + rate_feedback * rate``.  Real
        games keep issuing background work (streaming, simulation ticks,
        prefetch) even when rendering slowly, so the feedback is partial.
    """

    def __init__(
        self,
        server: ServerSpec = DEFAULT_SERVER,
        contention: ContentionModel | None = None,
        *,
        max_iterations: int = 60,
        tolerance: float = 1e-7,
        damping: float = 0.5,
        thrash_penalty: float = 4.0,
        rate_feedback: float = 0.5,
    ):
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (0.0 < damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        self.server = server
        self.contention = contention if contention is not None else ContentionModel()
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self.damping = float(damping)
        self.thrash_penalty = float(thrash_penalty)
        if not (0.0 <= rate_feedback <= 1.0):
            raise ValueError("rate_feedback must lie in [0, 1]")
        self.rate_feedback = float(rate_feedback)

    # ------------------------------------------------------------------

    def _memory_thrash_factor(self, workloads: list[Workload]) -> float:
        """Frame-time multiplier from memory oversubscription (1.0 if none)."""
        cpu_gb = gpu_gb = 0.0
        for w in workloads:
            if isinstance(w, GameInstance):
                c, g = w.memory_demand()
                cpu_gb += c
                gpu_gb += g
        over = max(
            0.0,
            (cpu_gb - self.server.cpu_mem_gb) / self.server.cpu_mem_gb,
            (gpu_gb - self.server.gpu_mem_gb) / self.server.gpu_mem_gb,
        )
        return 1.0 + self.thrash_penalty * over

    def steady_state(self, workloads: list[Workload]) -> SteadyState:
        """Resolve the colocation to a contention fixed point."""
        n = len(workloads)
        if n == 0:
            raise ValueError("steady_state requires at least one workload")

        # Base utilizations normalized to this server's capacities.
        server = self.server
        scales = np.array([server.domain_scale(res) for res in Resource], dtype=float)
        base_util = np.clip(
            np.array([w.base_utilization() for w in workloads]) / scales, 0.0, 1.0
        )
        is_game = np.array([w.is_game for w in workloads], dtype=bool)
        games = np.flatnonzero(is_game)
        # Cells whose exerted pressure follows the achieved frame rate.
        rate_scaled = is_game[:, None] & RATE_SCALED_MASK
        thrash = self._memory_thrash_factor(workloads)

        # Game rows only: stage times on this server (faster hardware
        # shrinks stages) and the packed sensitivity curves.
        stage_ms = np.array(
            [workloads[i].stage_times_ms() for i in games], dtype=float
        ).reshape(-1, 3) / (server.cpu_scale, server.gpu_scale, server.link_scale)
        solo_frame = np.maximum(stage_ms[:, 0], stage_ms[:, 1]) + stage_ms[:, 2]
        inflate = StageInflationModel([workloads[i].spec for i in games])

        fb = self.rate_feedback
        rate = np.ones(n, dtype=float)
        converged = False
        # One iteration: a fixed sequence of array operations, none per game.
        for iteration in range(1, self.max_iterations + 1):
            scale_rows = ((1.0 - fb) + fb * rate)[:, None]
            eff_util = base_util * np.where(rate_scaled, scale_rows, 1.0)
            pressures = self.contention.pressures_leave_one_out(eff_util)

            inflations = inflate(pressures[games])
            busy = stage_ms * inflations
            frame_times = (np.maximum(busy[:, 0], busy[:, 1]) + busy[:, 2]) * thrash
            new_rate = rate.copy()
            new_rate[games] = solo_frame / frame_times

            delta = np.abs(new_rate - rate).max()
            rate = (1.0 - self.damping) * rate + self.damping * new_rate
            if delta < self.tolerance:
                converged = True
                break

        # Benchmark rows: inflation 1, no frame time, rate 1.
        all_inflations = np.ones((n, 3), dtype=float)
        all_inflations[games] = inflations
        all_frame_times = np.full(n, np.nan, dtype=float)
        all_frame_times[games] = frame_times
        slowdowns = np.full(n, np.nan, dtype=float)
        for i, w in enumerate(workloads):
            if isinstance(w, BenchmarkInstance):
                slowdowns[i] = w.bench.slowdown(pressures[i])

        return SteadyState(
            pressures=pressures,
            rate_factors=np.where(is_game, rate, 1.0),
            stage_inflations=all_inflations,
            frame_times_ms=all_frame_times,
            slowdowns=slowdowns,
            converged=converged,
            iterations=iteration,
            thrash=thrash,
        )
