"""Display resolutions and pixel-count scaling.

Players choose resolutions per request (Section 3.3).  The reference
resolution for hidden catalog parameters is 1080p; GPU-side quantities scale
with the pixel ratio relative to it (Observations 7-8).

This module also owns the *degrade ladder* vocabulary used by the
placement tier's downscale step (``DecisionEngine.ladder``):
a named, ordered list of resolutions a session may be stepped down
through when the CM deems every candidate infeasible at the requested
resolution (and stepped back up through when capacity frees).  Ladders
parse from the CLI (``--degrade-ladder 1080p,900p,720p``) via
:meth:`DegradeLadder.from_str`, accepting both named presets and raw
``WxH`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "Resolution",
    "REFERENCE_RESOLUTION",
    "PRESET_RESOLUTIONS",
    "NAMED_RESOLUTIONS",
    "DegradeLadder",
    "DEFAULT_DEGRADE_LADDER",
]


class _WidthHeight(NamedTuple):
    width: int
    height: int


class Resolution(_WidthHeight):
    """A display resolution in pixels: a ``(width, height)`` tuple, so it
    hashes, compares and orders in C, exactly like the plain pair."""

    __slots__ = ()

    def __new__(cls, width: int, height: int) -> "Resolution":
        if width <= 0 or height <= 0:
            raise ValueError(f"resolution must be positive, got {width}x{height}")
        return tuple.__new__(cls, (width, height))

    @classmethod
    def _make(cls, iterable) -> "Resolution":
        # Through __new__, so _make and _replace keep the positivity check.
        return cls(*iterable)

    @property
    def pixels(self) -> int:
        """Total pixel count."""
        return self.width * self.height

    @property
    def megapixels(self) -> float:
        """Pixel count in units of 10^6."""
        return self.pixels / 1e6

    def pixel_ratio(self, reference: "Resolution | None" = None) -> float:
        """Pixel count relative to ``reference`` (default 1080p).

        The reference must carry a positive pixel count: a duck-typed
        reference with zero or negative ``pixels`` would silently divide
        into nonsense (or crash deep inside a scaling law), so it is
        rejected here at the boundary.
        """
        ref = reference if reference is not None else REFERENCE_RESOLUTION
        ref_pixels = getattr(ref, "pixels", None)
        if ref_pixels is None or ref_pixels <= 0:
            raise ValueError(
                f"pixel_ratio reference must have a positive pixel count, "
                f"got {ref!r}"
            )
        return self.pixels / ref_pixels

    def __str__(self) -> str:
        return f"{self.width}x{self.height}"

    def to_dict(self) -> dict:
        """Serialize to plain types."""
        return {"width": self.width, "height": self.height}

    @classmethod
    def from_dict(cls, data: dict) -> "Resolution":
        """Inverse of :meth:`to_dict`."""
        return cls(int(data["width"]), int(data["height"]))

    @classmethod
    def from_str(cls, text: str) -> "Resolution":
        """Parse a named preset (``"900p"``) or a ``WxH`` pair (``"1600x900"``).

        Raises :class:`ValueError` with a one-line message on malformed
        input — the CLI surfaces it verbatim as ``error: ...``.
        """
        token = text.strip().lower()
        if not token:
            raise ValueError("empty resolution")
        named = NAMED_RESOLUTIONS.get(token)
        if named is not None:
            return named
        if "x" in token:
            width_text, _, height_text = token.partition("x")
            try:
                return cls(int(width_text), int(height_text))
            except ValueError:
                pass
        known = ", ".join(sorted(NAMED_RESOLUTIONS))
        raise ValueError(
            f"bad resolution {text!r} (expected WxH like 1600x900, "
            f"or one of: {known})"
        )


REFERENCE_RESOLUTION = Resolution(1920, 1080)

#: Resolutions players may pick, mirroring common presets on the paper's
#: GTX 1060 testbed (a 1060 streams 720p-1080p; 1440p cloud gaming was not
#: served on this hardware class).
PRESET_RESOLUTIONS: tuple[Resolution, ...] = (
    Resolution(1280, 720),
    Resolution(1600, 900),
    Resolution(1920, 1080),
)

#: Named presets accepted wherever a resolution is parsed from text.
NAMED_RESOLUTIONS: dict[str, Resolution] = {
    "720p": Resolution(1280, 720),
    "900p": Resolution(1600, 900),
    "1080p": Resolution(1920, 1080),
    "1440p": Resolution(2560, 1440),
    "2160p": Resolution(3840, 2160),
    "4k": Resolution(3840, 2160),
}


@dataclass(frozen=True)
class DegradeLadder:
    """An ordered quality ladder for the resolution-downscale actuator.

    ``rungs`` are distinct resolutions sorted by descending pixel count;
    a session requested at some resolution may be placed (or re-placed)
    at any rung strictly below it, and promoted back up towards the
    requested resolution when capacity frees.
    """

    rungs: tuple[Resolution, ...]

    def __post_init__(self) -> None:
        if not self.rungs:
            raise ValueError("degrade ladder needs at least one resolution")
        ordered = tuple(
            sorted(self.rungs, key=lambda r: r.pixels, reverse=True)
        )
        if len({r.pixels for r in ordered}) != len(ordered):
            raise ValueError(
                "degrade ladder rungs must have distinct pixel counts, got "
                + ",".join(str(r) for r in self.rungs)
            )
        object.__setattr__(self, "rungs", ordered)

    def __len__(self) -> int:
        return len(self.rungs)

    def __iter__(self):
        return iter(self.rungs)

    def rungs_below(self, resolution: Resolution) -> tuple[Resolution, ...]:
        """Ladder rungs strictly below ``resolution``, best (largest) first."""
        return tuple(r for r in self.rungs if r.pixels < resolution.pixels)

    def rungs_between(
        self, floor: Resolution, ceiling: Resolution
    ) -> tuple[Resolution, ...]:
        """Rungs strictly above ``floor`` and strictly below ``ceiling``,
        best (largest) first — the intermediate promotion targets of the
        restore loop."""
        return tuple(
            r
            for r in self.rungs
            if floor.pixels < r.pixels < ceiling.pixels
        )

    def to_list(self) -> list[str]:
        """JSON-able form (``["1920x1080", ...]``, descending)."""
        return [str(r) for r in self.rungs]

    @classmethod
    def from_str(cls, text: str) -> "DegradeLadder":
        """Parse ``"1080p,900p,720p"`` (presets and/or ``WxH`` entries).

        Raises :class:`ValueError` with a one-line message on malformed
        input, surfaced by the CLI as ``error: ...``.
        """
        tokens = [chunk.strip() for chunk in text.split(",")]
        tokens = [t for t in tokens if t]
        if not tokens:
            raise ValueError(
                f"--degrade-ladder expects a comma-separated resolution "
                f"list, got {text!r}"
            )
        return cls(tuple(Resolution.from_str(token) for token in tokens))


#: The stock ladder: the preset resolutions, best first (1080p→900p→720p).
DEFAULT_DEGRADE_LADDER = DegradeLadder(PRESET_RESOLUTIONS)
