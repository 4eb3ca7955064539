"""Processing-delay prediction (paper Section 7 / future work item 4).

"The processing delay of colocated games can be predicted in a similar way
using our methodology."  This module does so: the same contention features
that drive the RM (target sensitivity curves + Eq. 5 aggregate co-runner
intensity) regress the *delay inflation ratio* — colocated processing delay
over solo processing delay — and the predicted ratio is mapped back to
milliseconds through the game's solo delay at its resolution.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.features import rm_feature_vector
from repro.core.scaled import ScaledModel
from repro.core.training import ColocationSpec, SampleSet
from repro.games.catalog import GameCatalog
from repro.hardware.server import DEFAULT_SERVER, ServerSpec
from repro.ml.base import BaseEstimator
from repro.ml.gbdt import GradientBoostingRegressor
from repro.simulator.encoder import EncoderModel, processing_delays
from repro.simulator.measurement import MeasurementConfig, run_colocation

if TYPE_CHECKING:
    from repro.profiling.database import ProfileDatabase

__all__ = [
    "MeasuredDelays",
    "measure_delay_colocations",
    "solo_delay_ms",
    "build_delay_dataset",
    "GAugurDelayRegressor",
]


@dataclass(frozen=True)
class MeasuredDelays:
    """A colocation with the processing delay measured for each game."""

    spec: ColocationSpec
    delays_ms: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.delays_ms) != self.spec.size:
            raise ValueError("delay readings must align with colocation entries")


def solo_delay_ms(
    db: "ProfileDatabase",
    name: str,
    resolution,
    encoder: EncoderModel | None = None,
) -> float:
    """Solo processing delay from profiled quantities only.

    Solo frame time comes from the profile's Eq. 2 law; solo encode time
    from the encoder model (deployers know their encoder's cost curve).
    """
    encoder = encoder if encoder is not None else EncoderModel()
    frame_ms = 1000.0 / db.get(name).solo_fps_at(resolution)
    return frame_ms + encoder.solo_encode_time_ms(resolution)


def measure_delay_colocations(
    catalog: GameCatalog,
    colocations: Sequence[ColocationSpec],
    *,
    server: ServerSpec = DEFAULT_SERVER,
    config: MeasurementConfig | None = None,
    encoder: EncoderModel | None = None,
) -> list[MeasuredDelays]:
    """Run colocations and record per-game processing delays."""
    encoder = encoder if encoder is not None else EncoderModel()
    out = []
    for spec in colocations:
        result = run_colocation(spec.instances(catalog), server=server, config=config)
        delays = processing_delays(result, encoder)
        out.append(MeasuredDelays(spec=spec, delays_ms=tuple(delays[: spec.size])))
    return out


def build_delay_dataset(
    measured: Sequence[MeasuredDelays],
    db: "ProfileDatabase",
    *,
    encoder: EncoderModel | None = None,
) -> SampleSet:
    """Delay-model samples: RM features -> delay inflation ratio."""
    if not measured:
        raise ValueError("measured delay colocations must be non-empty")
    encoder = encoder if encoder is not None else EncoderModel()
    rows, y, cids, sizes, games = [], [], [], [], []
    for cid, m in enumerate(measured):
        if m.spec.size < 2:
            continue
        profiles = [db.get(name) for name, _ in m.spec.entries]
        intensities = [
            profiles[i].intensity_at(res).values
            for i, (_, res) in enumerate(m.spec.entries)
        ]
        for i, (name, resolution) in enumerate(m.spec.entries):
            co = [intensities[j] for j in range(m.spec.size) if j != i]
            rows.append(rm_feature_vector(profiles[i].sensitivity_vector(), co))
            solo = solo_delay_ms(db, name, resolution, encoder)
            y.append(m.delays_ms[i] / solo)
            cids.append(cid)
            sizes.append(m.spec.size)
            games.append(name)
    return SampleSet(
        X=np.vstack(rows),
        y=np.asarray(y, dtype=float),
        colocation_ids=np.asarray(cids, dtype=int),
        sizes=np.asarray(sizes, dtype=int),
        games=games,
    )


class GAugurDelayRegressor(ScaledModel):
    """Delay model: colocation features -> processing-delay inflation."""

    def __init__(
        self,
        estimator: BaseEstimator | None = None,
        encoder: EncoderModel | None = None,
    ):
        super().__init__(
            estimator
            if estimator is not None
            else GradientBoostingRegressor(
                n_estimators=300, learning_rate=0.06, max_depth=4
            )
        )
        self.encoder = encoder if encoder is not None else EncoderModel()

    def fit(self, samples: SampleSet) -> "GAugurDelayRegressor":
        """Train on samples from :func:`build_delay_dataset`.

        The model regresses ``log(ratio)``: delay inflation is
        multiplicative and heavy-tailed (ratio ~ 1/degradation), so the log
        target keeps extreme colocations from dominating the squared loss.
        """
        if np.any(samples.y <= 0):
            raise ValueError("delay inflation ratios must be positive")
        return self._fit(samples.X, np.log(samples.y))

    def predict_from_features(self, X) -> np.ndarray:
        """Predict delay inflation ratios (clipped below at 0.5)."""
        return np.clip(np.exp(self._predict(X)), 0.5, None)

    def predict_delay_ms(
        self, db: "ProfileDatabase", spec: ColocationSpec
    ) -> np.ndarray:
        """Predicted processing delay (ms) per entry of a colocation."""
        profiles = [db.get(name) for name, _ in spec.entries]
        intensities = [
            profiles[i].intensity_at(res).values
            for i, (_, res) in enumerate(spec.entries)
        ]
        solos = np.array(
            [
                solo_delay_ms(db, name, res, self.encoder)
                for name, res in spec.entries
            ]
        )
        if spec.size < 2:
            return solos
        rows = []
        for i in range(spec.size):
            co = [intensities[j] for j in range(spec.size) if j != i]
            rows.append(rm_feature_vector(profiles[i].sensitivity_vector(), co))
        return self.predict_from_features(np.vstack(rows)) * solos
