"""Tests for colocation generation, measurement and dataset construction."""

import numpy as np
import pytest

from repro.core.training import (
    ColocationSpec,
    MeasuredColocation,
    SampleSet,
    build_dataset,
    generate_colocations,
    measure_colocations,
)
from repro.games.resolution import PRESET_RESOLUTIONS, Resolution

R1080 = Resolution(1920, 1080)


class TestColocationSpec:
    def test_properties(self):
        spec = ColocationSpec((("A", R1080), ("B", R1080)))
        assert spec.size == 2
        assert spec.names == ("A", "B")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ColocationSpec(())

    def test_duplicates_allowed(self):
        spec = ColocationSpec((("A", R1080), ("A", R1080)))
        assert spec.size == 2

    def test_instances(self, catalog):
        spec = ColocationSpec((("Dota2", R1080), ("H1Z1", R1080)))
        instances = spec.instances(catalog)
        assert [i.spec.name for i in instances] == ["Dota2", "H1Z1"]


class TestGenerateColocations:
    def test_default_paper_campaign(self):
        names = [f"g{i}" for i in range(20)]
        colocations = generate_colocations(names, seed=0)
        sizes = [c.size for c in colocations]
        assert sizes.count(2) == 500
        assert sizes.count(3) == 100
        assert sizes.count(4) == 100

    def test_games_distinct_within_colocation(self):
        colocations = generate_colocations(
            [f"g{i}" for i in range(10)], sizes={4: 50}, seed=1
        )
        for c in colocations:
            assert len(set(c.names)) == c.size

    def test_resolutions_from_presets(self):
        colocations = generate_colocations(
            [f"g{i}" for i in range(5)], sizes={2: 30}, seed=2
        )
        used = {res for c in colocations for _, res in c.entries}
        assert used <= set(PRESET_RESOLUTIONS)

    def test_deterministic(self):
        names = [f"g{i}" for i in range(8)]
        a = generate_colocations(names, sizes={2: 10}, seed=3)
        b = generate_colocations(names, sizes={2: 10}, seed=3)
        assert a == b

    def test_impossible_size_rejected(self):
        with pytest.raises(ValueError):
            generate_colocations(["a", "b"], sizes={3: 1})


class TestMeasureColocations:
    def test_fps_aligned_with_entries(self, catalog):
        specs = generate_colocations(
            ["Dota2", "H1Z1", "Stardew Valley"], sizes={2: 3}, seed=0
        )
        measured = measure_colocations(catalog, specs)
        assert len(measured) == 3
        for m in measured:
            assert len(m.fps) == m.spec.size
            assert all(f > 0 for f in m.fps)

    def test_batch_equals_one_run_at_a_time(self, catalog):
        """The campaign is measured as one batch; no reading may notice."""
        from repro.simulator import run_colocation

        names = ["Dota2", "H1Z1", "Stardew Valley"]
        specs = generate_colocations(names, sizes={1: 3, 2: 6, 3: 4}, seed=5)
        specs += [specs[4], ColocationSpec((("H1Z1", R1080),) * 4)]
        measured = measure_colocations(catalog, specs)
        assert [m.spec for m in measured] == specs
        for m in measured:
            assert m.fps == run_colocation(m.spec.instances(catalog)).fps

    def test_misaligned_fps_rejected(self):
        spec = ColocationSpec((("A", R1080), ("B", R1080)))
        with pytest.raises(ValueError):
            MeasuredColocation(spec=spec, fps=(60.0,))


class TestBuildDataset(object):
    @pytest.fixture(scope="class")
    def dataset(self, minilab):
        return minilab.dataset(60.0)

    def test_sample_counts_match_campaign(self, minilab, dataset):
        expected = sum(c.size for c in minilab.colocations)
        assert len(dataset.rm) == expected
        assert len(dataset.cm) == expected

    def test_rm_labels_are_ratios(self, dataset):
        assert dataset.rm.y.min() > 0.0
        assert dataset.rm.y.max() < 1.3

    def test_cm_labels_binary(self, dataset):
        assert set(np.unique(dataset.cm.y)) <= {0, 1}

    def test_sizes_recorded(self, dataset):
        assert set(np.unique(dataset.rm.sizes)) == {2, 3, 4}

    def test_qos_feature_constant(self, dataset):
        assert np.all(dataset.cm.X[:, 0] == 60.0)

    def test_empty_measurements_rejected(self, minilab):
        with pytest.raises(ValueError):
            build_dataset([], minilab.db)


class TestSampleSet:
    def _sample_set(self, n=10):
        return SampleSet(
            X=np.arange(n * 2, dtype=float).reshape(n, 2),
            y=np.arange(n, dtype=float),
            colocation_ids=np.repeat(np.arange(n // 2), 2),
            sizes=np.full(n, 2),
            games=[f"g{i}" for i in range(n)],
        )

    def test_split_by_colocation_no_leakage(self):
        samples = self._sample_set()
        train, test = samples.split_by_colocation([0, 1])
        assert set(train.colocation_ids) == {0, 1}
        assert set(test.colocation_ids) == {2, 3, 4}
        assert len(train) + len(test) == len(samples)

    def test_select_bool_mask(self):
        samples = self._sample_set()
        picked = samples.select(samples.y > 6)
        assert len(picked) == 3
        assert picked.games == ["g7", "g8", "g9"]

    def test_subsample(self):
        samples = self._sample_set()
        sub = samples.subsample(4, np.random.default_rng(0))
        assert len(sub) == 4

    def test_subsample_too_many(self):
        with pytest.raises(ValueError):
            self._sample_set().subsample(100, np.random.default_rng(0))

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(
                X=np.zeros((3, 2)),
                y=np.zeros(2),
                colocation_ids=np.zeros(3, dtype=int),
                sizes=np.zeros(3, dtype=int),
                games=["a", "b", "c"],
            )
