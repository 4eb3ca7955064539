"""The hidden ground-truth specification of a single game.

A :class:`GameSpec` carries everything the simulator needs to produce the
game's frame rate under any colocation: frame-loop stage costs, per-resource
utilizations (what the paper calls *intensity* sources), per-resource
sensitivity shapes, memory demands and scene-complexity dynamics.

These fields are *hidden* from the GAugur pipeline: profiling, training and
prediction only see frame rates measured through :mod:`repro.simulator`,
mirroring the black-box position the paper's methodology is in on real
hardware.

Resolution handling implements the paper's Observations 6-8 exactly:

* sensitivity shapes are resolution-independent (Obs 6);
* CPU-side utilizations are resolution-independent (Obs 7);
* GPU-side utilizations are affine in pixel count (Obs 8), split into a
  fixed part and a pixel-proportional part by ``pixel_fraction``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.games.curves import PackedResponse, SensitivityShape, pack_shapes
from repro.games.genres import Genre
from repro.games.resolution import REFERENCE_RESOLUTION, Resolution
from repro.hardware.resources import (
    GPU_RESOURCES,
    Resource,
    ResourceDomain,
    ResourceVector,
)
from repro.utils.validation import check_fraction, check_positive

__all__ = ["GameSpec", "StageInflationModel"]

#: Resources whose utilization scales with pixel count (Observation 8).
PIXEL_SCALED_RESOURCES: tuple[Resource, ...] = GPU_RESOURCES + (Resource.PCIE_BW,)

#: Resource columns feeding each pipeline stage, in (CPU, GPU, link) order.
_STAGE_IDX = tuple(
    np.array([int(r) for r in Resource if r.domain is domain], dtype=int)
    for domain in (ResourceDomain.CPU, ResourceDomain.GPU, ResourceDomain.LINK)
)


@dataclass(frozen=True)
class GameSpec:
    """Hidden ground truth for one game (see module docstring).

    All stage times are per-frame costs at unit scene complexity on the
    reference server; ``base_util`` is the solo-run utilization vector at the
    reference resolution (1080p).
    """

    name: str
    genre: Genre
    cpu_time_ms: float
    gpu_fixed_ms: float
    gpu_per_mpix_ms: float
    xfer_fixed_ms: float
    xfer_per_mpix_ms: float
    base_util: ResourceVector
    sensitivity: Mapping[Resource, SensitivityShape]
    cpu_mem_gb: float
    gpu_mem_gb: float
    gpu_mem_per_mpix_gb: float = 0.15
    pixel_fraction: float = 0.65
    scene_rho: float = 0.95
    scene_sigma: float = 0.08
    cpu_complexity_exp: float = 0.8
    gpu_complexity_exp: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.cpu_time_ms, "cpu_time_ms")
        check_positive(self.gpu_per_mpix_ms, "gpu_per_mpix_ms")
        if self.gpu_fixed_ms < 0 or self.xfer_fixed_ms < 0 or self.xfer_per_mpix_ms < 0:
            raise ValueError("fixed/transfer stage times must be non-negative")
        check_positive(self.cpu_mem_gb, "cpu_mem_gb")
        check_positive(self.gpu_mem_gb, "gpu_mem_gb")
        check_fraction(self.pixel_fraction, "pixel_fraction")
        if not 0.0 <= self.scene_rho < 1.0:
            raise ValueError(f"scene_rho must lie in [0, 1), got {self.scene_rho!r}")
        if not (np.isfinite(self.scene_sigma) and self.scene_sigma >= 0):
            raise ValueError(f"scene_sigma must be finite, >= 0: {self.scene_sigma!r}")
        missing = [r.label for r in Resource if r not in self.sensitivity]
        if missing:
            raise ValueError(f"{self.name}: sensitivity missing for {missing}")

    # ------------------------------------------------------------------
    # Stage times

    def gpu_time_ms(self, resolution: Resolution) -> float:
        """GPU stage time per frame at ``resolution`` (unit complexity)."""
        return self.gpu_fixed_ms + self.gpu_per_mpix_ms * resolution.megapixels

    def xfer_time_ms(self, resolution: Resolution) -> float:
        """PCIe transfer time per frame at ``resolution``."""
        return self.xfer_fixed_ms + self.xfer_per_mpix_ms * resolution.megapixels

    def solo_frame_time_ms(self, resolution: Resolution) -> float:
        """Uncontended frame time at unit complexity: CPU/GPU overlap + transfer."""
        return max(self.cpu_time_ms, self.gpu_time_ms(resolution)) + self.xfer_time_ms(
            resolution
        )

    def solo_fps_nominal(self, resolution: Resolution) -> float:
        """Analytic solo FPS at unit scene complexity (noise-free)."""
        return 1000.0 / self.solo_frame_time_ms(resolution)

    # ------------------------------------------------------------------
    # Utilization (= intensity ground truth)

    def utilization(self, resolution: Resolution | None = None) -> ResourceVector:
        """Solo-run utilization vector at ``resolution``.

        CPU-side entries are resolution-independent (Obs 7); GPU-side and
        PCIe entries are affine in the pixel ratio (Obs 8):
        ``u = u_ref * (1 - pixel_fraction + pixel_fraction * ratio)``.
        """
        if resolution is None:
            resolution = REFERENCE_RESOLUTION
        ratio = resolution.pixel_ratio()
        scale = 1.0 - self.pixel_fraction + self.pixel_fraction * ratio
        values = self.base_util.values.copy()
        for res in PIXEL_SCALED_RESOURCES:
            values[int(res)] = min(1.0, values[int(res)] * scale)
        return ResourceVector(values)

    def memory_demand(self, resolution: Resolution | None = None) -> tuple[float, float]:
        """(CPU GB, GPU GB) memory demand; GPU part grows with render targets."""
        if resolution is None:
            resolution = REFERENCE_RESOLUTION
        extra = self.gpu_mem_per_mpix_gb * max(
            0.0, resolution.megapixels - REFERENCE_RESOLUTION.megapixels
        )
        return (self.cpu_mem_gb, self.gpu_mem_gb + extra)

    # ------------------------------------------------------------------
    # Sensitivity (resolution-independent, Obs 6)

    def inflation(self, resource: Resource, pressure: float) -> float:
        """Stage-time multiplier this game suffers from ``pressure`` on ``resource``."""
        return self.sensitivity[Resource(resource)].inflation(pressure)

    @cached_property
    def _packed_sensitivity(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(magnitude, code, param) arrays for vectorized response evaluation."""
        return pack_shapes([self.sensitivity[res] for res in Resource])

    def stage_inflations(self, pressures: np.ndarray) -> tuple[float, float, float]:
        """(CPU, GPU, link) stage multipliers for a ``(7,)`` pressure vector.

        The one-row case of :class:`StageInflationModel`.
        """
        row = np.asarray(pressures, dtype=float)[None, :]
        cpu, gpu, link = StageInflationModel([self])(row)[0]
        return float(cpu), float(gpu), float(link)

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize to plain types."""
        return {
            "name": self.name,
            "genre": self.genre.value,
            "cpu_time_ms": self.cpu_time_ms,
            "gpu_fixed_ms": self.gpu_fixed_ms,
            "gpu_per_mpix_ms": self.gpu_per_mpix_ms,
            "xfer_fixed_ms": self.xfer_fixed_ms,
            "xfer_per_mpix_ms": self.xfer_per_mpix_ms,
            "base_util": self.base_util.to_dict(),
            "sensitivity": {r.label: s.to_dict() for r, s in self.sensitivity.items()},
            "cpu_mem_gb": self.cpu_mem_gb,
            "gpu_mem_gb": self.gpu_mem_gb,
            "gpu_mem_per_mpix_gb": self.gpu_mem_per_mpix_gb,
            "pixel_fraction": self.pixel_fraction,
            "scene_rho": self.scene_rho,
            "scene_sigma": self.scene_sigma,
            "cpu_complexity_exp": self.cpu_complexity_exp,
            "gpu_complexity_exp": self.gpu_complexity_exp,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GameSpec":
        """Inverse of :meth:`to_dict`."""
        kwargs = dict(data)
        kwargs["genre"] = Genre(kwargs["genre"])
        kwargs["base_util"] = ResourceVector.from_dict(kwargs["base_util"])
        kwargs["sensitivity"] = {
            Resource.from_label(label): SensitivityShape.from_dict(sd)
            for label, sd in kwargs["sensitivity"].items()
        }
        return cls(**kwargs)


class StageInflationModel:
    """Batched (CPU, GPU, link) stage multipliers for a fixed list of games.

    Per-resource stall contributions within a stage add up:
    ``1 + sum_r magnitude_r * g_r(p_r)`` over the stage's resources.
    Additive composition keeps the single-resource semantics of
    ``magnitude`` (profiled against one benchmark at a time) while
    avoiding the unrealistically harsh multiplicative compounding.
    """

    def __init__(self, specs: "list[GameSpec]"):
        packed = [spec._packed_sensitivity for spec in specs]
        self._magnitude, code, param = (
            np.array([p[k] for p in packed]).reshape(-1, len(Resource))
            for k in range(3)
        )
        self._response = PackedResponse(code, param)

    def __call__(self, pressures: np.ndarray) -> np.ndarray:
        """``(m, 7)`` pressures, one row per game -> ``(m, 3)`` multipliers."""
        contrib = self._magnitude * self._response(pressures)
        out = np.empty((len(contrib), 3))
        # Per-stage row sums: ``np.add.reduceat`` adds in another order.
        for stage, idx in enumerate(_STAGE_IDX):
            out[:, stage] = contrib[:, idx].sum(axis=1)
        return 1.0 + out
