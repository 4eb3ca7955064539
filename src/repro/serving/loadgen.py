"""Trace-driven load generation for the serving loop.

Wraps :func:`repro.scheduling.dynamic.generate_sessions` behind a single
validated, serializable configuration object so a serving run is fully
described by ``(trace config, policy config, predictor bundle)`` — the
reproducibility contract the CLI's ``serve`` subcommand exposes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.games.resolution import PRESET_RESOLUTIONS, Resolution
from repro.placement.fleet import Session
from repro.scheduling.dynamic import generate_sessions

__all__ = ["TraceConfig", "generate_trace"]


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of a synthetic arrival trace.

    ``arrival_rate`` is sessions per minute (Poisson); ``mean_duration``
    is minutes (exponential); ``mixed_resolutions`` draws each session's
    resolution uniformly from the preset list instead of fixing 1080p.
    """

    n_requests: int = 500
    arrival_rate: float = 2.0
    mean_duration: float = 30.0
    mixed_resolutions: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.arrival_rate <= 0 or self.mean_duration <= 0:
            raise ValueError("arrival_rate and mean_duration must be positive")

    def to_dict(self) -> dict:
        """JSON-able form (for embedding in serving reports)."""
        return {
            "n_requests": self.n_requests,
            "arrival_rate": self.arrival_rate,
            "mean_duration": self.mean_duration,
            "mixed_resolutions": self.mixed_resolutions,
            "seed": self.seed,
        }


def generate_trace(names: Sequence[str], config: TraceConfig) -> list[Session]:
    """Sessions over ``names`` as described by ``config`` (deterministic)."""
    resolutions: Sequence[Resolution] | None = (
        PRESET_RESOLUTIONS if config.mixed_resolutions else None
    )
    return generate_sessions(
        names,
        config.n_requests,
        arrival_rate=config.arrival_rate,
        mean_duration=config.mean_duration,
        resolutions=resolutions,
        seed=config.seed,
    )
