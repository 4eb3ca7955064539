"""The contention fixed point as straight-line loops — the tests' oracle.

One pass per resource column, one masked-formula evaluation and one rate
update per game: the simulator as it was written before its iteration
became a sequence of whole-array operations.  The production solver must
reproduce this *bitwise*, because the trained bundle, every placement and
every ledger number downstream hang on the last digit of a measured FPS.
Nothing here calls the production kernels
(:meth:`ContentionModel.pressures_leave_one_out`,
:class:`repro.games.curves.PackedResponse`,
:class:`repro.games.game.StageInflationModel`).
"""

import numpy as np

from repro.hardware.resources import NUM_RESOURCES, Resource, ResourceDomain, ResourceKind
from repro.simulator.engine import ColocationEngine, SteadyState
from repro.simulator.workload import RATE_SCALED_MASK, BenchmarkInstance, GameInstance


def leave_one_out(model, util_rows):
    """Row ``i`` = pressure of rows ``!= i``, one column at a time."""
    u = np.clip(np.asarray(util_rows, dtype=float), 0.0, 1.0)
    if u.ndim != 2 or u.shape[1] != len(Resource):
        raise ValueError(f"expected shape (n, {len(Resource)}), got {u.shape}")
    n = u.shape[0]
    out = np.zeros_like(u)
    if n <= 1:
        return out
    for res in Resource:
        col = u[:, int(res)]
        if res.kind is ResourceKind.COMPUTE:
            one_minus = 1.0 - col
            if np.any(one_minus <= 1e-12):
                loo_prod = np.array(
                    [np.prod(np.delete(one_minus, i)) for i in range(n)]
                )
            else:
                loo_prod = np.prod(one_minus) / one_minus
            out[:, int(res)] = 1.0 - loo_prod
        elif res.kind is ResourceKind.BANDWIDTH:
            loo_sum = col.sum() - col
            excess = np.maximum(0.0, loo_sum - model.bandwidth_knee)
            pressured = loo_sum + model.bandwidth_overshoot * excess * excess / max(
                model.bandwidth_knee, 1e-9
            )
            out[:, int(res)] = np.minimum(1.0, pressured)
        else:
            loo_sum = col.sum() - col
            out[:, int(res)] = 1.0 - np.exp(
                -((loo_sum / model.cache_knee) ** model.cache_sharpness)
            )
    return out


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def response(pressures, code, param):
    """Masked power / sigmoid / cliff formulas over one packed shape row."""
    p = np.clip(np.asarray(pressures, dtype=float), 0.0, 1.0)
    g = np.empty_like(p)
    power = code == 0
    if power.any():
        g[power] = p[power] ** param[power]
    sig = code == 1
    if sig.any():
        k = param[sig]
        lo = _sigmoid(-k / 2.0)
        hi = _sigmoid(k / 2.0)
        g[sig] = (_sigmoid(k * (p[sig] - 0.5)) - lo) / (hi - lo)
    cliff = code == 2
    if cliff.any():
        t = param[cliff]
        u = np.clip((p[cliff] - t) / (1.0 - t), 0.0, 1.0)
        g[cliff] = u * u * (3.0 - 2.0 * u)
    return g


_STAGES = [
    np.array([int(r) for r in Resource if r.domain is domain], dtype=int)
    for domain in (ResourceDomain.CPU, ResourceDomain.GPU, ResourceDomain.LINK)
]


def stage_inflations(spec, pressures):
    """One game's (CPU, GPU, link) multipliers for a ``(7,)`` pressure row."""
    mag, code, param = spec._packed_sensitivity
    contrib = mag * response(np.asarray(pressures, dtype=float), code, param)
    return tuple(1.0 + float(contrib[idx].sum()) for idx in _STAGES)


class ReferenceEngine(ColocationEngine):
    """A :class:`ColocationEngine` whose solver is the loops above."""

    def steady_states(self, colocations):
        """One colocation at a time: what a batch must reproduce."""
        return [self.steady_state(workloads) for workloads in colocations]

    def steady_state(self, workloads):
        n = len(workloads)
        if n == 0:
            raise ValueError("steady_state requires at least one workload")
        server = self.server
        scales = np.array([server.domain_scale(res) for res in Resource], dtype=float)
        base_util = np.zeros((n, NUM_RESOURCES), dtype=float)
        for i, w in enumerate(workloads):
            base_util[i] = np.clip(w.base_utilization() / scales, 0.0, 1.0)
        is_game = np.array([w.is_game for w in workloads], dtype=bool)
        thrash = self._memory_thrash_factor(workloads)

        stage_times = np.zeros((n, 3), dtype=float)
        solo_frame = np.zeros(n, dtype=float)
        for i, w in enumerate(workloads):
            if isinstance(w, GameInstance):
                tc, tg, tx = w.stage_times_ms()
                stage_times[i] = (
                    tc / server.cpu_scale,
                    tg / server.gpu_scale,
                    tx / server.link_scale,
                )
                solo_frame[i] = (
                    max(stage_times[i, 0], stage_times[i, 1]) + stage_times[i, 2]
                )

        rate = np.ones(n, dtype=float)
        pressures = np.zeros((n, NUM_RESOURCES), dtype=float)
        inflations = np.ones((n, 3), dtype=float)
        frame_times = np.full(n, np.nan, dtype=float)
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iterations + 1):
            eff_util = base_util.copy()
            fb = self.rate_feedback
            scale_rows = np.where(is_game, (1.0 - fb) + fb * rate, 1.0)[:, None]
            eff_util[:, RATE_SCALED_MASK] *= scale_rows
            pressures = leave_one_out(self.contention, eff_util)

            new_rate = rate.copy()
            for i, w in enumerate(workloads):
                if not isinstance(w, GameInstance):
                    continue
                ic, ig, il = stage_inflations(w.spec, pressures[i])
                inflations[i] = (ic, ig, il)
                tf = (
                    max(stage_times[i, 0] * ic, stage_times[i, 1] * ig)
                    + stage_times[i, 2] * il
                ) * thrash
                frame_times[i] = tf
                new_rate[i] = solo_frame[i] / tf

            delta = float(np.max(np.abs(new_rate - rate)))
            rate = (1.0 - self.damping) * rate + self.damping * new_rate
            if delta < self.tolerance:
                converged = True
                break

        slowdowns = np.full(n, np.nan, dtype=float)
        for i, w in enumerate(workloads):
            if isinstance(w, BenchmarkInstance):
                slowdowns[i] = w.bench.slowdown(pressures[i])
        return SteadyState(
            pressures=pressures,
            rate_factors=np.where(is_game, rate, 1.0),
            stage_inflations=inflations,
            frame_times_ms=frame_times,
            slowdowns=slowdowns,
            converged=converged,
            iterations=iteration,
            thrash=thrash,
        )
