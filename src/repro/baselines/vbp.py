"""The Vector Bin Packing baseline (Section 2.2 / 5.1).

VBP describes each game by its solo-run resource-demand vector and allows a
colocation whenever the summed demands fit within server capacity on every
dimension.  Following the paper, the checked dimensions are the five
utilization-style shared resources (caches are excluded — capacity
occupancy is not a utilization) plus CPU and GPU memory.  VBP has no
interference model at all: it neither predicts frame rates nor accounts
for contention below the capacity ceiling, which is why it both
over-admits (QoS violations) and under-admits (demand measured at solo
speed overstates need).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.training import ColocationSpec
from repro.hardware.resources import Resource, ResourceKind
from repro.hardware.server import DEFAULT_SERVER, ServerSpec

if TYPE_CHECKING:
    from repro.profiling.database import ProfileDatabase

__all__ = ["VBPJudge"]

#: Shared-resource dimensions VBP checks (caches excluded, per the paper).
VBP_RESOURCES: tuple[Resource, ...] = tuple(
    r for r in Resource if r.kind is not ResourceKind.CACHE
)


class VBPJudge:
    """Demand-vector feasibility judge and worst-fit capacity tracker."""

    def __init__(self, db: "ProfileDatabase", server: ServerSpec = DEFAULT_SERVER):
        self.db = db
        self.server = server
        # (game, resolution) -> (profile, its read-only demand vector)
        self._demand: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------

    def demand_vector(self, name: str, resolution) -> np.ndarray:
        """Demand on the checked dimensions: 5 shared resources + 2 memories.

        Shared-resource entries are fractions of server capacity; memory
        entries are normalized by the server's memory sizes.  Memoized (read-
        only) per ``(game, resolution)`` while the database keeps the profile.
        """
        profile = self.db.get(name)
        memo = self._demand.get((name, resolution))
        if memo is not None and memo[0] is profile:
            return memo[1]
        shared = profile.demand_at(resolution)
        demand = [
            shared[res] / self.server.domain_scale(res) for res in VBP_RESOURCES
        ]
        demand.append(profile.cpu_mem_gb / self.server.cpu_mem_gb)
        demand.append(profile.gpu_mem_gb / self.server.gpu_mem_gb)
        vector = np.asarray(demand, dtype=float)
        vector.flags.writeable = False
        self._demand[name, resolution] = (profile, vector)
        return vector

    def total_demand(self, spec: ColocationSpec) -> np.ndarray:
        """Summed demand vector of a colocation."""
        return np.sum(
            [self.demand_vector(name, res) for name, res in spec.entries], axis=0
        )

    def colocation_feasible(self, spec: ColocationSpec, qos: float = 0.0) -> bool:  # noqa: ARG002 — predictor interface
        """Feasible iff summed demand fits capacity on every dimension.

        ``qos`` is accepted for interface compatibility; VBP cannot reason
        about frame rates.
        """
        return bool(np.all(self.total_demand(spec) <= 1.0 + 1e-9))

    def predict_feasible(self, spec: ColocationSpec, qos: float = 0.0) -> np.ndarray:
        """Per-entry verdicts (VBP judges the colocation as a whole)."""
        verdict = self.colocation_feasible(spec, qos)
        return np.full(spec.size, verdict, dtype=bool)

    def remaining_capacity(self, spec: ColocationSpec | None) -> float:
        """Total slack across dimensions — the worst-fit assignment score."""
        if spec is None or spec.size == 0:
            return float(len(VBP_RESOURCES) + 2)
        slack = 1.0 - self.total_demand(spec)
        return float(np.sum(slack))

    def fits_after_adding(
        self, spec: ColocationSpec | None, name: str, resolution
    ) -> bool:
        """Would the colocation still fit with one more game added?"""
        extra = self.demand_vector(name, resolution)
        base = self.total_demand(spec) if spec is not None and spec.size else 0.0
        return bool(np.all(base + extra <= 1.0 + 1e-9))
