"""Per-resource contention aggregation.

The central empirical fact the paper leans on (Observation 5) is that the
aggregate contention intensity of several colocated workloads is **not** the
sum of their individual intensities.  We reproduce that by giving each
resource class a distinct aggregation combinator:

* **Compute** resources (CPU-CE, GPU-CE) aggregate *sub-additively*: a core
  slot is contended only when two runnable tasks coincide, so aggregate
  pressure is ``1 - prod(1 - u_i)`` — the classic independent-occupancy
  model.
* **Bandwidth** resources (MEM-BW, GPU-BW, PCIe-BW) aggregate roughly
  additively at low load but *super-additively* near saturation, because
  interleaved request streams destroy row-buffer/burst locality.  We model
  this with a saturation overshoot term.
* **Cache** resources (LLC, GPU-L2) show a working-set *cliff*: little
  interference while combined footprints fit, rapidly escalating eviction
  pressure past capacity.  We model this with a smooth convex ramp.

All combinators map a vector of per-workload utilizations ``u_i ∈ [0, 1]``
to an aggregate pressure in ``[0, 1]``, are symmetric and monotone in each
argument, and reduce to ``0`` for an empty set.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.hardware.resources import NUM_RESOURCES, Resource, ResourceKind

__all__ = [
    "compute_pressure",
    "bandwidth_pressure",
    "cache_pressure",
    "aggregate_pressure",
    "ContentionModel",
]


#: Row indices of each contention class in a resource-major ``(7, n)`` block.
_COMPUTE_ROWS, _BANDWIDTH_ROWS, _CACHE_ROWS = (
    np.array([int(r) for r in Resource if r.kind is kind])
    for kind in (ResourceKind.COMPUTE, ResourceKind.BANDWIDTH, ResourceKind.CACHE)
)


def _as_util_array(utils: Iterable[float]) -> np.ndarray:
    arr = np.asarray(list(utils) if not isinstance(utils, np.ndarray) else utils,
                     dtype=float)
    if arr.ndim != 1:
        raise ValueError("utilizations must be a 1-D sequence")
    if arr.size and (not np.isfinite(arr).all() or (arr < 0).any()):
        raise ValueError("utilizations must be finite and non-negative")
    return np.clip(arr, 0.0, 1.0)


def compute_pressure(utils: Iterable[float]) -> float:
    """Sub-additive occupancy pressure for compute resources.

    ``1 - prod(1 - u_i)``: the probability that at least one co-runner
    occupies a given execution slot, assuming independent duty cycles.
    """
    arr = _as_util_array(utils)
    if arr.size == 0:
        return 0.0
    return float(1.0 - np.prod(1.0 - arr))


def bandwidth_pressure(
    utils: Iterable[float], *, overshoot: float = 0.35, knee: float = 0.65
) -> float:
    """Bandwidth pressure: additive at low load, super-additive past ``knee``.

    The overshoot term models the loss of access locality when multiple
    request streams interleave: once the summed demand exceeds ``knee`` of
    peak bandwidth, effective pressure grows faster than the sum.
    """
    arr = _as_util_array(utils)
    if arr.size == 0:
        return 0.0
    total = float(arr.sum())
    excess = max(0.0, total - knee)
    pressured = total + overshoot * excess * excess / max(knee, 1e-9)
    return float(min(1.0, pressured))


def cache_pressure(
    utils: Iterable[float], *, capacity_knee: float = 0.55, sharpness: float = 2.6
) -> float:
    """Cache pressure: a smooth working-set cliff.

    ``1 - exp(-(F / knee)^sharpness)`` of the combined footprint ``F``:
    negligible below the knee, convex through it, saturating at 1.  With
    ``sharpness > 1`` this is super-additive for small footprints, which —
    combined with the sub-additive compute combinator — yields the mixed
    behaviour of the paper's Figure 6.
    """
    arr = _as_util_array(utils)
    if arr.size == 0:
        return 0.0
    footprint = float(arr.sum())
    return float(1.0 - np.exp(-((footprint / capacity_knee) ** sharpness)))


def aggregate_pressure(resource: Resource, utils: Iterable[float]) -> float:
    """Aggregate co-runner utilizations into pressure for ``resource``."""
    kind = Resource(resource).kind
    if kind is ResourceKind.COMPUTE:
        return compute_pressure(utils)
    if kind is ResourceKind.BANDWIDTH:
        return bandwidth_pressure(utils)
    return cache_pressure(utils)


@dataclass(frozen=True)
class ContentionModel:
    """Configurable contention model bundling all combinator parameters.

    The default parameters were chosen so that profiling the synthetic game
    catalog reproduces the qualitative shape of the paper's Figures 4–6;
    tests pin the invariants (symmetry, monotonicity, non-additivity).
    """

    bandwidth_overshoot: float = 0.35
    bandwidth_knee: float = 0.65
    cache_knee: float = 0.55
    cache_sharpness: float = 2.6

    def __post_init__(self) -> None:
        for name in ("bandwidth_overshoot", "bandwidth_knee", "cache_knee", "cache_sharpness"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    def pressure(self, resource: Resource, utils: Iterable[float]) -> float:
        """Aggregate pressure on ``resource`` from co-runner utilizations."""
        kind = Resource(resource).kind
        if kind is ResourceKind.COMPUTE:
            return compute_pressure(utils)
        if kind is ResourceKind.BANDWIDTH:
            return bandwidth_pressure(
                utils, overshoot=self.bandwidth_overshoot, knee=self.bandwidth_knee
            )
        return cache_pressure(
            utils, capacity_knee=self.cache_knee, sharpness=self.cache_sharpness
        )

    def pressures_leave_one_out(self, util_rows: np.ndarray) -> np.ndarray:
        """Pressure each workload *suffers* from all the others.

        Given a ``(n, 7)`` utilization matrix, returns a ``(n, 7)`` matrix
        whose row ``i`` is the aggregate pressure over rows ``!= i``; a
        ``(b, n, 7)`` stack of colocations is solved in the same array
        expressions, each colocation on its own.  Computed from column
        aggregates in O(n * 7) instead of the naive O(n^2 * 7): compute
        columns use a product trick, bandwidth/cache columns a sum trick.
        This is the simulator's hot path.

        An all-zero row is a workload that is not there: it adds ``0.0`` to
        every sum and multiplies every product by ``1.0``, so (below numpy's
        switch to pairwise summation at 8 addends) padding a colocation
        with trailing zero rows leaves its real rows bitwise unchanged.
        """
        u = np.clip(np.asarray(util_rows, dtype=float), 0.0, 1.0)
        if u.ndim not in (2, 3) or u.shape[-1] != NUM_RESOURCES:
            raise ValueError(
                f"expected shape (n, {NUM_RESOURCES}) or (b, n, {NUM_RESOURCES}), "
                f"got {u.shape}"
            )
        n = u.shape[-2]
        if n <= 1:
            return np.zeros_like(u)
        # Resource-major ``(7, b, n)``: reducing along a contiguous row adds
        # in the order a lone column's ``sum()`` does; an axis-0 reduction
        # does not.
        ut = np.ascontiguousarray(u.reshape(-1, n, NUM_RESOURCES).transpose(2, 0, 1))
        out = np.empty_like(ut)

        one_minus = 1.0 - ut[_COMPUTE_ROWS]
        if (one_minus <= 1e-12).any():
            # A saturated co-runner: the quotient would divide by ~0, so
            # that colocation's resource row gets exact products — the row
            # with 1.0 in place ``i`` multiplies to what the row without
            # element ``i`` does.  Every other row keeps the quotient.
            rows = one_minus.reshape(-1, n)
            saturated = (rows <= 1e-12).any(axis=1)
            loo_prod = rows.prod(axis=1, keepdims=True) / np.where(
                saturated[:, None], 1.0, rows
            )
            loo_prod[saturated] = np.where(
                np.eye(n, dtype=bool), 1.0, rows[saturated][:, None, :]
            ).prod(axis=2)
            loo_prod = loo_prod.reshape(one_minus.shape)
        else:
            loo_prod = one_minus.prod(axis=2, keepdims=True) / one_minus
        out[_COMPUTE_ROWS] = 1.0 - loo_prod

        bw = ut[_BANDWIDTH_ROWS]
        loo_sum = bw.sum(axis=2, keepdims=True) - bw
        excess = np.maximum(0.0, loo_sum - self.bandwidth_knee)
        pressured = loo_sum + self.bandwidth_overshoot * excess * excess / max(
            self.bandwidth_knee, 1e-9
        )
        out[_BANDWIDTH_ROWS] = np.minimum(1.0, pressured)

        cache = ut[_CACHE_ROWS]
        loo_sum = cache.sum(axis=2, keepdims=True) - cache
        out[_CACHE_ROWS] = 1.0 - np.exp(
            -((loo_sum / self.cache_knee) ** self.cache_sharpness)
        )
        return np.ascontiguousarray(out.transpose(1, 2, 0)).reshape(u.shape)

    def pressure_vector(self, util_rows: np.ndarray) -> np.ndarray:
        """Aggregate a ``(n_workloads, 7)`` utilization matrix column-wise.

        Returns a ``(7,)`` pressure vector; an empty matrix yields zeros.
        """
        util_rows = np.asarray(util_rows, dtype=float)
        if util_rows.size == 0:
            return np.zeros(len(Resource), dtype=float)
        if util_rows.ndim != 2 or util_rows.shape[1] != len(Resource):
            raise ValueError(
                f"expected shape (n, {len(Resource)}), got {util_rows.shape}"
            )
        return np.array(
            [self.pressure(res, util_rows[:, int(res)]) for res in Resource],
            dtype=float,
        )


DEFAULT_CONTENTION = ContentionModel()
