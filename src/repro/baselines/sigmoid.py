"""The Sigmoid baseline [6, 21].

Models a game's colocated frame rate as a logistic function of *how many*
games it shares the server with — ignoring entirely *which* games they are:

``FPS_A(n) = alpha_1 / (1 + exp(-alpha_2 * n + alpha_3))``.

We fit the three per-game parameters on the degradation ratio (frame rate
normalized by the game's solo rate at its resolution) rather than raw FPS,
which makes the fit resolution-robust; predictions are mapped back to FPS
through the profile's solo-FPS law.  Games with too few training
colocations fall back to the population-level fit.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.training import ColocationSpec, MeasuredColocation

if TYPE_CHECKING:
    from repro.profiling.database import ProfileDatabase

__all__ = ["SigmoidPredictor"]


def _sigmoid_model(n, a1, a2, a3):
    return a1 / (1.0 + np.exp(-a2 * n + a3))


def _fit_params(n_values: np.ndarray, ratios: np.ndarray) -> tuple | None:
    """Least-squares logistic fit; None when the optimizer cannot fit."""
    if n_values.size < 3 or np.unique(n_values).size < 2:
        return None
    # Imported where it is used: scipy is most of ``import repro``'s cost.
    from scipy.optimize import curve_fit

    try:
        params, _ = curve_fit(
            _sigmoid_model,
            n_values,
            ratios,
            p0=(float(ratios.max()), -0.8, -1.0),
            maxfev=5000,
        )
    except (RuntimeError, ValueError):
        return None
    return tuple(float(p) for p in params)


class SigmoidPredictor:
    """Per-game logistic degradation-vs-colocation-size model."""

    def __init__(self, db: "ProfileDatabase"):
        self.db = db
        self._params: dict[str, tuple] = {}
        self._fallback: tuple | None = None

    def fit(self, measured: Sequence[MeasuredColocation]) -> "SigmoidPredictor":
        """Fit per-game parameters from measured training colocations."""
        per_game: dict[str, list[tuple[int, float]]] = {}
        for m in measured:
            k = m.spec.size
            if k < 2:
                continue
            for i, (name, resolution) in enumerate(m.spec.entries):
                solo = self.db.get(name).solo_fps_at(resolution)
                per_game.setdefault(name, []).append((k - 1, m.fps[i] / solo))

        all_n, all_r = [], []
        for name, points in per_game.items():
            n_values = np.array([p[0] for p in points], dtype=float)
            ratios = np.array([p[1] for p in points], dtype=float)
            all_n.append(n_values)
            all_r.append(ratios)
            params = _fit_params(n_values, ratios)
            if params is not None:
                self._params[name] = params
        if all_n:
            self._fallback = _fit_params(np.concatenate(all_n), np.concatenate(all_r))
        if self._fallback is None:
            self._fallback = (1.0, -0.8, -1.0)
        return self

    # ------------------------------------------------------------------

    def _degradation(self, name: str, n_corunners: int) -> float:
        params = self._params.get(name, self._fallback)
        value = _sigmoid_model(float(n_corunners), *params)
        return float(np.clip(value, 0.01, 1.5))

    def predict_degradations(self, spec: ColocationSpec) -> np.ndarray:
        """Degradation ratio per entry (depends only on colocation size)."""
        n = spec.size - 1
        return np.array(
            [self._degradation(name, n) for name, _ in spec.entries], dtype=float
        )

    def predict_fps(self, spec: ColocationSpec) -> np.ndarray:
        """Predicted FPS per entry."""
        solo = np.array(
            [self.db.get(name).solo_fps_at(res) for name, res in spec.entries]
        )
        return self.predict_degradations(spec) * solo

    def predict_feasible(self, spec: ColocationSpec, qos: float) -> np.ndarray:
        """Per-entry QoS verdicts by thresholding predicted FPS."""
        return self.predict_fps(spec) >= qos

    def colocation_feasible(self, spec: ColocationSpec, qos: float) -> bool:
        """True iff every entry is predicted to meet QoS."""
        return bool(np.all(self.predict_feasible(spec, qos)))
