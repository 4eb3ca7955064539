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

    @classmethod
    def from_dict(cls, data: dict) -> "TraceConfig":
        """Rebuild a config from :meth:`to_dict` output, validating shape.

        Malformed configs (non-dict input, unknown keys, wrong value
        types) raise :class:`ValueError` with a one-line message naming
        the offending field — never a bare ``TypeError`` traceback — so
        user-supplied trace files surface as clean CLI errors.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"trace config must be a mapping, got {type(data).__name__}"
            )
        known = {
            "n_requests": int,
            "arrival_rate": float,
            "mean_duration": float,
            "mixed_resolutions": bool,
            "seed": int,
        }
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(
                f"unknown trace config key(s): {', '.join(unknown)}; "
                f"expected {', '.join(sorted(known))}"
            )
        kwargs = {}
        for key, value in data.items():
            want = known[key]
            if isinstance(value, bool) and want is not bool:
                raise ValueError(f"trace config {key!r} must be {want.__name__}")
            # Coercion must not change the value: bool("false") is True
            # and int(2.7) is 2.
            lossy = (want is bool and not isinstance(value, bool)) or (
                want is int and isinstance(value, float) and not value.is_integer()
            )
            try:
                if lossy:
                    raise ValueError(value)
                kwargs[key] = want(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"trace config {key!r} must be {want.__name__}, "
                    f"got {value!r}"
                ) from exc
        return cls(**kwargs)


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
