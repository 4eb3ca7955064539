"""Training-data collection (paper Section 3.5 and Section 4 setup).

The paper measures 700 real colocations (500 pairs, 100 triples, 100
quadruples) of randomly chosen games at randomly chosen resolutions; a
colocation of ``k`` games yields ``k`` samples per model — one per member
game, labelled with that game's measured QoS outcome (CM) or degradation
ratio (RM).  Train/test splits are made *by colocation*, never by sample,
so sibling samples of one measurement cannot leak across the split.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid the core <-> profiling import cycle
    from repro.profiling.database import ProfileDatabase

import numpy as np

from repro.core.features import cm_feature_vector, rm_feature_vector
from repro.core.profiles import GameProfile
from repro.games.catalog import GameCatalog
from repro.games.resolution import PRESET_RESOLUTIONS, Resolution
from repro.hardware.server import DEFAULT_SERVER, ServerSpec
from repro.simulator.measurement import MeasurementConfig, run_colocations
from repro.simulator.workload import GameInstance
from repro.utils.rng import spawn_rng

__all__ = [
    "ColocationSpec",
    "MeasuredColocation",
    "SampleSet",
    "TrainingDataset",
    "generate_colocations",
    "measure_colocations",
    "build_dataset",
]


@dataclass(frozen=True)
class ColocationSpec:
    """(game name, resolution) entries to run on one server.

    Duplicate games are allowed — two players streaming the same title to
    one server is a normal cloud-gaming configuration (the measurement
    campaign of Section 4 happens not to sample such colocations, but the
    online schedulers of Section 5 may produce them).
    """

    entries: tuple[tuple[str, Resolution], ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 1:
            raise ValueError("a colocation needs at least one game")

    @property
    def size(self) -> int:
        """Number of colocated games."""
        return len(self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        """Game names in entry order."""
        return tuple(name for name, _ in self.entries)

    def instances(self, catalog: GameCatalog) -> list[GameInstance]:
        """Materialize simulator workloads."""
        return [
            GameInstance(catalog.get(name), resolution)
            for name, resolution in self.entries
        ]


@dataclass(frozen=True)
class MeasuredColocation:
    """A colocation together with the frame rates measured when running it."""

    spec: ColocationSpec
    fps: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.fps) != self.spec.size:
            raise ValueError("fps readings must align with colocation entries")


@dataclass
class SampleSet:
    """Feature matrix + labels + provenance for one model.

    ``colocation_ids`` tags each sample with the measurement it came from,
    enabling leakage-free splits; ``sizes`` records the colocation size for
    the paper's per-size error breakdowns.
    """

    X: np.ndarray
    y: np.ndarray
    colocation_ids: np.ndarray
    sizes: np.ndarray
    games: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = self.X.shape[0]
        if not (len(self.y) == len(self.colocation_ids) == len(self.sizes) == n):
            raise ValueError("SampleSet arrays must have equal lengths")

    def __len__(self) -> int:
        return self.X.shape[0]

    def select(self, mask: np.ndarray) -> "SampleSet":
        """Row-subset by boolean mask or index array."""
        idx = np.asarray(mask)
        if idx.dtype == bool:
            idx = np.where(idx)[0]
        return SampleSet(
            X=self.X[idx],
            y=self.y[idx],
            colocation_ids=self.colocation_ids[idx],
            sizes=self.sizes[idx],
            games=[self.games[i] for i in idx],
        )

    def split_by_colocation(
        self, train_ids: Sequence[int]
    ) -> tuple["SampleSet", "SampleSet"]:
        """(train, test) split keeping sibling samples together."""
        train_ids = set(int(i) for i in train_ids)
        mask = np.array([cid in train_ids for cid in self.colocation_ids])
        return self.select(mask), self.select(~mask)

    def subsample(self, n: int, rng: np.random.Generator) -> "SampleSet":
        """Random subset of ``n`` samples (without replacement)."""
        if n > len(self):
            raise ValueError(f"cannot draw {n} samples from {len(self)}")
        return self.select(rng.choice(len(self), size=n, replace=False))


@dataclass
class TrainingDataset:
    """Paired CM and RM sample sets built from the same measurements."""

    cm: SampleSet
    rm: SampleSet
    qos_values: tuple[float, ...]


def generate_colocations(
    names: Sequence[str],
    *,
    sizes: Mapping[int, int] | None = None,
    resolutions: Sequence[Resolution] = PRESET_RESOLUTIONS,
    seed: int = 0,
) -> list[ColocationSpec]:
    """Random colocations mirroring the paper's measurement campaign.

    ``sizes`` maps colocation size to count; the default is the paper's
    {2: 500, 3: 100, 4: 100}.  Games are drawn without replacement within a
    colocation; each runs at a uniformly chosen preset resolution.
    """
    sizes = dict(sizes) if sizes is not None else {2: 500, 3: 100, 4: 100}
    names = list(names)
    resolutions = list(resolutions)
    for size in sizes:
        if size < 1 or size > len(names):
            raise ValueError(f"colocation size {size} impossible with {len(names)} games")
    rng = spawn_rng(seed, "colocations")
    colocations: list[ColocationSpec] = []
    for size in sorted(sizes):
        for _ in range(sizes[size]):
            chosen = rng.choice(len(names), size=size, replace=False)
            entries = tuple(
                (names[int(i)], resolutions[int(rng.integers(len(resolutions)))])
                for i in chosen
            )
            colocations.append(ColocationSpec(entries))
    return colocations


def measure_colocations(
    catalog: GameCatalog,
    colocations: Sequence[ColocationSpec],
    *,
    server: ServerSpec = DEFAULT_SERVER,
    config: MeasurementConfig | None = None,
) -> list[MeasuredColocation]:
    """Run each colocation on the (simulated) testbed, recording frame rates.

    The campaign is known up front, so it is measured as one batch.
    """
    results = run_colocations(
        [spec.instances(catalog) for spec in colocations], server=server, config=config
    )
    return [
        MeasuredColocation(spec=spec, fps=result.fps)
        for spec, result in zip(colocations, results)
    ]


def _profile_inputs(
    db: ProfileDatabase, spec: ColocationSpec
) -> tuple[list[GameProfile], list[np.ndarray], list[float]]:
    """Per-entry (profile, intensity-at-resolution, solo-fps-at-resolution)."""
    profiles = [db.get(name) for name, _ in spec.entries]
    intensities = [
        profiles[i].intensity_at(resolution).values
        for i, (_, resolution) in enumerate(spec.entries)
    ]
    solo = [
        profiles[i].solo_fps_at(resolution)
        for i, (_, resolution) in enumerate(spec.entries)
    ]
    return profiles, intensities, solo


def build_dataset(
    measured: Sequence[MeasuredColocation],
    db: ProfileDatabase,
    *,
    qos_values: Sequence[float] = (60.0,),
) -> TrainingDataset:
    """Turn measured colocations into CM and RM sample sets (Section 3.5).

    Per colocation of ``k`` games, emits ``k`` RM samples (degradation =
    measured FPS / solo FPS at the game's resolution) and ``k * len(qos_values)``
    CM samples (does measured FPS meet the floor?).
    """
    if not measured:
        raise ValueError("measured colocations must be non-empty")
    cm_rows, cm_y, cm_cid, cm_sizes, cm_games = [], [], [], [], []
    rm_rows, rm_y, rm_cid, rm_sizes, rm_games = [], [], [], [], []

    for cid, m in enumerate(measured):
        profiles, intensities, solo = _profile_inputs(db, m.spec)
        k = m.spec.size
        for i in range(k):
            co = [intensities[j] for j in range(k) if j != i]
            if not co:
                continue  # solo "colocations" carry no interference signal
            sens = profiles[i].sensitivity_vector()
            degradation = m.fps[i] / solo[i]
            rm_rows.append(rm_feature_vector(sens, co))
            rm_y.append(degradation)
            rm_cid.append(cid)
            rm_sizes.append(k)
            rm_games.append(m.spec.entries[i][0])
            for qos in qos_values:
                cm_rows.append(cm_feature_vector(qos, solo[i], sens, co))
                cm_y.append(1 if m.fps[i] >= qos else 0)
                cm_cid.append(cid)
                cm_sizes.append(k)
                cm_games.append(m.spec.entries[i][0])

    return TrainingDataset(
        cm=SampleSet(
            X=np.vstack(cm_rows),
            y=np.asarray(cm_y, dtype=int),
            colocation_ids=np.asarray(cm_cid, dtype=int),
            sizes=np.asarray(cm_sizes, dtype=int),
            games=cm_games,
        ),
        rm=SampleSet(
            X=np.vstack(rm_rows),
            y=np.asarray(rm_y, dtype=float),
            colocation_ids=np.asarray(rm_cid, dtype=int),
            sizes=np.asarray(rm_sizes, dtype=int),
            games=rm_games,
        ),
        qos_values=tuple(float(q) for q in qos_values),
    )
