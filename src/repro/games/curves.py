"""Parametric sensitivity-curve shapes.

Observation 4 of the paper: a game's sensitivity does not necessarily change
linearly with pressure.  Each game maps the external pressure ``p`` on a
shared resource to a stage-time *inflation factor* through one of five
normalized response shapes.  All responses ``g`` satisfy ``g(0) = 0`` and
``g(1) = 1`` and are monotone non-decreasing, so the ``magnitude`` parameter
alone controls the worst-case inflation ``1 + magnitude``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_in_range

__all__ = ["CurveShape", "SensitivityShape", "PackedResponse"]


class CurveShape(enum.Enum):
    """Normalized response families for pressure -> inflation mapping."""

    LINEAR = "linear"
    CONCAVE = "concave"
    CONVEX = "convex"
    SIGMOID = "sigmoid"
    CLIFF = "cliff"


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class SensitivityShape:
    """One game's hidden sensitivity to one shared resource.

    Parameters
    ----------
    magnitude:
        Stage-time inflation at maximum pressure is ``1 + magnitude``.
        ``0`` means the game is insensitive to this resource.
    shape:
        Response family (see :class:`CurveShape`).
    param:
        Shape parameter: exponent for CONCAVE/CONVEX (must be < 1 for
        CONCAVE, > 1 for CONVEX), steepness for SIGMOID (> 0), threshold
        position in (0, 1) for CLIFF.  Ignored for LINEAR.
    """

    magnitude: float
    shape: CurveShape = CurveShape.LINEAR
    param: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.magnitude) or self.magnitude < 0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude!r}")
        if self.shape is CurveShape.CONCAVE:
            check_in_range(self.param, 0.05, 1.0, "param (concave exponent)")
        elif self.shape is CurveShape.CONVEX:
            check_in_range(self.param, 1.0, 20.0, "param (convex exponent)")
        elif self.shape is CurveShape.SIGMOID:
            check_in_range(self.param, 0.5, 50.0, "param (sigmoid steepness)")
        elif self.shape is CurveShape.CLIFF:
            check_in_range(self.param, 0.0, 0.95, "param (cliff threshold)", inclusive=False)

    def response(self, pressure):
        """Normalized response ``g(p) in [0, 1]``; accepts scalars or arrays."""
        p = np.clip(np.asarray(pressure, dtype=float), 0.0, 1.0)
        if self.shape is CurveShape.LINEAR:
            g = p
        elif self.shape in (CurveShape.CONCAVE, CurveShape.CONVEX):
            g = p**self.param
        elif self.shape is CurveShape.SIGMOID:
            k = self.param
            lo = _sigmoid(np.asarray(-k / 2.0))
            hi = _sigmoid(np.asarray(k / 2.0))
            g = (_sigmoid(k * (p - 0.5)) - lo) / (hi - lo)
        else:  # CLIFF: smoothstep starting at the threshold
            t = self.param
            u = np.clip((p - t) / (1.0 - t), 0.0, 1.0)
            g = u * u * (3.0 - 2.0 * u)
        if np.isscalar(pressure):
            return float(g)
        return g

    def inflation(self, pressure):
        """Stage-time multiplier ``1 + magnitude * g(p)`` (>= 1)."""
        g = self.response(pressure)
        if np.isscalar(pressure):
            return 1.0 + self.magnitude * float(g)
        return 1.0 + self.magnitude * np.asarray(g)

    def to_dict(self) -> dict:
        """Serialize to plain types."""
        return {
            "magnitude": self.magnitude,
            "shape": self.shape.value,
            "param": self.param,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SensitivityShape":
        """Inverse of :meth:`to_dict`."""
        return cls(
            magnitude=float(data["magnitude"]),
            shape=CurveShape(data["shape"]),
            param=float(data["param"]),
        )

    @classmethod
    def insensitive(cls) -> "SensitivityShape":
        """A shape with zero response at every pressure."""
        return cls(magnitude=0.0, shape=CurveShape.LINEAR)


# ----------------------------------------------------------------------
# Vectorized evaluation across many shapes at once (simulator hot path).

#: Numeric codes grouping shapes by evaluation formula: 0 = power
#: (LINEAR/CONCAVE/CONVEX), 1 = sigmoid, 2 = cliff.
SHAPE_CODES: dict[CurveShape, int] = {
    CurveShape.LINEAR: 0,
    CurveShape.CONCAVE: 0,
    CurveShape.CONVEX: 0,
    CurveShape.SIGMOID: 1,
    CurveShape.CLIFF: 2,
}


def pack_shapes(
    shapes: "list[SensitivityShape]",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack shapes into (magnitude, code, param) arrays for vector_response."""
    mag = np.array([s.magnitude for s in shapes], dtype=float)
    code = np.array([SHAPE_CODES[s.shape] for s in shapes], dtype=np.int8)
    param = np.array(
        [1.0 if s.shape is CurveShape.LINEAR else s.param for s in shapes], dtype=float
    )
    return mag, code, param


class PackedResponse:
    """Normalized responses ``g(p)`` for one fixed layout of packed shapes.

    What depends only on the shapes — which cells follow the power, sigmoid
    or cliff formula, their gathered parameters, the sigmoid end points — is
    worked out once; a call evaluates pressures of the layout's shape.  The
    simulator builds one per colocation and calls it every iteration.
    """

    def __init__(self, code: np.ndarray, param: np.ndarray):
        code = np.asarray(code)
        flat = np.asarray(param, dtype=float).ravel()
        self.shape = code.shape
        self._power, self._sig, self._cliff = (
            np.flatnonzero(code.ravel() == c) for c in range(3)
        )
        self._exponent = flat[self._power]
        self._k = flat[self._sig]
        self._lo = _sigmoid(-self._k / 2.0)
        self._span = _sigmoid(self._k / 2.0) - self._lo
        self._t = flat[self._cliff]
        self._width = 1.0 - self._t

    def __call__(self, pressures: np.ndarray) -> np.ndarray:
        # minimum(maximum()) is np.clip without its Python dispatch.
        p = np.minimum(np.maximum(np.asarray(pressures, dtype=float), 0.0), 1.0)
        if p.shape != self.shape:
            raise IndexError(f"expected pressures of shape {self.shape}, got {p.shape}")
        p = p.ravel()
        g = np.empty_like(p)
        g[self._power] = p[self._power] ** self._exponent
        z = self._k * (p[self._sig] - 0.5)
        g[self._sig] = (_sigmoid(z) - self._lo) / self._span
        u = np.minimum(np.maximum((p[self._cliff] - self._t) / self._width, 0.0), 1.0)
        g[self._cliff] = u * u * (3.0 - 2.0 * u)
        return g.reshape(self.shape)


def vector_response(
    pressures: np.ndarray, code: np.ndarray, param: np.ndarray
) -> np.ndarray:
    """Evaluate normalized responses ``g(p)`` elementwise for packed shapes.

    Equivalent to calling :meth:`SensitivityShape.response` per element;
    the one-shot form of :class:`PackedResponse`.
    """
    return PackedResponse(code, param)(pressures)
