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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.games.game import StageInflationModel
from repro.hardware.contention import ContentionModel
from repro.hardware.resources import NUM_RESOURCES, Resource
from repro.hardware.server import DEFAULT_SERVER, ServerSpec
from repro.simulator.workload import (
    RATE_SCALED_MASK,
    BenchmarkInstance,
    GameInstance,
    Workload,
)

__all__ = ["SteadyState", "ColocationEngine"]

#: numpy adds fewer than 8 addends in sequence and pairs them up from 8 on;
#: trailing zeros leave a sequential sum bitwise unchanged but would
#: re-pair the real addends of a pairwise one.
_PAIRWISE_SUM_MIN = 8


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
        #: Powered scene-complexity series of the game instances measured
        #: through this engine (filled by
        #: :func:`repro.simulator.measurement.run_colocations`); lives as
        #: long as the engine, bounded by games x resolutions seen.
        self.scenes: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

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
        """Resolve one colocation to a contention fixed point."""
        return self.steady_states([workloads])[0]

    def steady_states(
        self, colocations: Sequence[Sequence[Workload]]
    ) -> list[SteadyState]:
        """Resolve every colocation to its own fixed point, in one program.

        Colocations do not interact: each result is bitwise what solving
        that colocation alone gives, whatever else is in the batch and in
        whatever order.  Colocations of fewer than 8 workloads share one
        state, zero-padded to the widest of them; wider ones share a state
        only with colocations of their own width (``_PAIRWISE_SUM_MIN``).
        """
        colocations = list(colocations)
        if not all(len(workloads) for workloads in colocations):
            raise ValueError("steady_state requires at least one workload")
        by_width: dict[int, list[int]] = {}
        for b, workloads in enumerate(colocations):
            n = len(workloads)
            by_width.setdefault(n if n >= _PAIRWISE_SUM_MIN else 0, []).append(b)
        states: list = [None] * len(colocations)
        for members in by_width.values():
            solved = self._solve([colocations[b] for b in members])
            for b, state in zip(members, solved):
                states[b] = state
        return states

    def _solve(self, batch: list[Sequence[Workload]]) -> list[SteadyState]:
        """The damped fixed point over a ``(B, N, 7)`` zero-padded state."""
        server = self.server
        sizes = np.array([len(workloads) for workloads in batch])
        B, N = len(batch), int(sizes.max())
        # Row-major over (colocation, member): the order of ``flat``.
        real = np.arange(N) < sizes[:, None]
        flat = [w for workloads in batch for w in workloads]

        # Base utilizations normalized to this server's capacities; a
        # padding row stays all zero — a workload that is not there.
        scales = np.array([server.domain_scale(res) for res in Resource], dtype=float)
        base_util = np.zeros((B, N, NUM_RESOURCES), dtype=float)
        base_util[real] = np.clip(
            np.array([w.base_utilization() for w in flat]) / scales, 0.0, 1.0
        )
        is_game = np.zeros((B, N), dtype=bool)
        is_game[real] = [w.is_game for w in flat]
        # Cells whose exerted pressure follows the achieved frame rate.
        rate_scaled = is_game[:, :, None] & RATE_SCALED_MASK

        # Game rows only, as flat (colocation, member) cells: stage times
        # on this server (faster hardware shrinks stages), the packed
        # sensitivity curves and the owning colocation's thrash factor.
        cells = np.flatnonzero(is_game)
        owner = cells // N
        games = [w for w in flat if w.is_game]
        thrash = np.array(
            [self._memory_thrash_factor(workloads) for workloads in batch], dtype=float
        )
        game_thrash = thrash[owner]
        stage_ms = np.array(
            [w.stage_times_ms() for w in games], dtype=float
        ).reshape(-1, 3) / (server.cpu_scale, server.gpu_scale, server.link_scale)
        solo_frame = np.maximum(stage_ms[:, 0], stage_ms[:, 1]) + stage_ms[:, 2]
        inflate = StageInflationModel([w.spec for w in games])

        fb = self.rate_feedback
        rate = np.ones((B, N), dtype=float)
        # Each colocation's outputs as of the iteration it stopped at.
        # Benchmark (and padding) rows: inflation 1, no frame time.
        final_pressures = np.empty_like(base_util)
        final_rate = np.empty_like(rate)
        final_inflations = np.ones((B * N, 3), dtype=float)
        final_frame_times = np.full(B * N, np.nan, dtype=float)
        iterations = np.zeros(B, dtype=int)
        converged = np.zeros(B, dtype=bool)
        running = np.ones(B, dtype=bool)
        # One iteration: a fixed sequence of array operations, none per
        # game and none per colocation.
        for iteration in range(1, self.max_iterations + 1):
            scale_rows = ((1.0 - fb) + fb * rate)[:, :, None]
            eff_util = base_util * np.where(rate_scaled, scale_rows, 1.0)
            pressures = self.contention.pressures_leave_one_out(eff_util)

            inflations = inflate(pressures.reshape(-1, NUM_RESOURCES)[cells])
            busy = stage_ms * inflations
            frame_times = (
                np.maximum(busy[:, 0], busy[:, 1]) + busy[:, 2]
            ) * game_thrash
            new_rate = rate.copy()
            new_rate.reshape(-1)[cells] = solo_frame / frame_times

            met = np.abs(new_rate - rate).max(axis=1) < self.tolerance
            rate = (1.0 - self.damping) * rate + self.damping * new_rate
            # Freeze what stops here; it keeps iterating, unread.
            stopped = running & met if iteration < self.max_iterations else running
            if stopped.any():
                final_pressures[stopped] = pressures[stopped]
                final_rate[stopped] = rate[stopped]
                theirs = stopped[owner]
                final_inflations[cells[theirs]] = inflations[theirs]
                final_frame_times[cells[theirs]] = frame_times[theirs]
                iterations[stopped] = iteration
                converged[stopped] = met[stopped]
                running = running & ~stopped
                if not running.any():
                    break

        final_inflations = final_inflations.reshape(B, N, 3)
        final_frame_times = final_frame_times.reshape(B, N)
        rate_factors = np.where(is_game, final_rate, 1.0)

        states = []
        for b, workloads in enumerate(batch):
            n = len(workloads)
            slowdowns = np.full(n, np.nan, dtype=float)
            for i, w in enumerate(workloads):
                if isinstance(w, BenchmarkInstance):
                    slowdowns[i] = w.bench.slowdown(final_pressures[b, i])
            states.append(
                SteadyState(
                    pressures=final_pressures[b, :n],
                    rate_factors=rate_factors[b, :n],
                    stage_inflations=final_inflations[b, :n],
                    frame_times_ms=final_frame_times[b, :n],
                    slowdowns=slowdowns,
                    converged=bool(converged[b]),
                    iterations=int(iterations[b]),
                    thrash=float(thrash[b]),
                )
            )
        return states
