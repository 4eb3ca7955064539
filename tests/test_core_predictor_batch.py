"""Tests for the predictor's batched API and up-front profile validation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InterferencePredictor, MissingProfileError
from repro.core.features import cm_feature_vector, rm_feature_vector
from repro.core.training import ColocationSpec, generate_colocations
from repro.games.resolution import REFERENCE_RESOLUTION, Resolution


class CountingModel:
    """Wraps a CM/RM, counting ``predict_from_features`` invocations."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict_from_features(self, X):
        self.calls += 1
        return self.inner.predict_from_features(X)


@pytest.fixture()
def counting_predictor(minilab):
    classifier = CountingModel(minilab.cm_model)
    regressor = CountingModel(minilab.rm_model)
    return (
        InterferencePredictor(minilab.db, classifier=classifier, regressor=regressor),
        classifier,
        regressor,
    )


def _specs(minilab, n_pairs=6, n_triples=3, seed=13):
    specs = generate_colocations(
        minilab.names, sizes={2: n_pairs, 3: n_triples}, seed=seed
    )
    # Include a solo spec: the batch path must handle size-1 colocations.
    specs.append(ColocationSpec(((minilab.names[0], REFERENCE_RESOLUTION),)))
    return specs


class TestBatchParity:
    """Batched predictions equal single calls, with fewer model invocations."""

    def test_fps_batch_matches(self, minilab, counting_predictor):
        predictor, _, regressor = counting_predictor
        specs = _specs(minilab, seed=13)
        batched = predictor.predict_fps_batch(specs)
        assert regressor.calls == 1
        for spec, fps in zip(specs, batched):
            assert np.array_equal(fps, predictor.predict_fps(spec))
        # Each single-spec call with >= 2 entries costs one more.
        assert regressor.calls > 1 + len(specs) // 2

    def test_feasible_batch_matches(self, minilab, counting_predictor):
        predictor, classifier, _ = counting_predictor
        specs = _specs(minilab, seed=14)
        batched = predictor.predict_feasible_batch(specs, 60.0)
        assert classifier.calls == 1
        for spec, verdicts in zip(specs, batched):
            assert np.array_equal(verdicts, predictor.predict_feasible(spec, 60.0))

    def test_colocations_feasible_matches(self, minilab):
        specs = _specs(minilab, seed=15)
        whole = minilab.predictor.colocations_feasible(specs, 60.0)
        singles = [
            minilab.predictor.colocation_feasible(spec, 60.0) for spec in specs
        ]
        assert list(whole) == singles

    def test_degradations_batch_solo_is_ones(self, minilab):
        solo = ColocationSpec(((minilab.names[0], REFERENCE_RESOLUTION),))
        (out,) = minilab.predictor.predict_degradations_batch([solo])
        assert np.array_equal(out, np.ones(1))

    def test_unfitted_models_raise(self, minilab):
        cm_only = InterferencePredictor(minilab.db, classifier=minilab.cm_model)
        with pytest.raises(RuntimeError, match="regression"):
            cm_only.predict_degradations_batch(_specs(minilab))
        rm_only = InterferencePredictor(minilab.db, regressor=minilab.rm_model)
        with pytest.raises(RuntimeError, match="classification"):
            rm_only.predict_feasible_batch(_specs(minilab), 60.0)


class TestMissingProfileValidation:
    """Unknown games fail up front with one clear error naming them."""

    def test_single_call_raises_named_error(self, minilab):
        spec = ColocationSpec(
            (
                ("NoSuchGame", REFERENCE_RESOLUTION),
                (minilab.names[0], REFERENCE_RESOLUTION),
            )
        )
        with pytest.raises(MissingProfileError, match="NoSuchGame"):
            minilab.predictor.predict_fps(spec)
        with pytest.raises(MissingProfileError, match="NoSuchGame"):
            minilab.predictor.predict_feasible(spec, 60.0)

    def test_error_is_a_keyerror(self, minilab):
        spec = ColocationSpec((("NoSuchGame", REFERENCE_RESOLUTION),))
        with pytest.raises(KeyError):
            minilab.predictor.predict_fps(spec)

    def test_all_missing_games_named_once(self, minilab):
        spec = ColocationSpec(
            (
                ("GhostA", REFERENCE_RESOLUTION),
                ("GhostB", REFERENCE_RESOLUTION),
                ("GhostA", REFERENCE_RESOLUTION),
            )
        )
        with pytest.raises(MissingProfileError) as excinfo:
            minilab.predictor.predict_fps(spec)
        assert excinfo.value.missing == ("GhostA", "GhostB")
        assert "GhostA" in str(excinfo.value)
        assert "GhostB" in str(excinfo.value)

    def test_batch_raises_too(self, minilab):
        spec = ColocationSpec(
            (
                ("NoSuchGame", REFERENCE_RESOLUTION),
                (minilab.names[0], REFERENCE_RESOLUTION),
            )
        )
        with pytest.raises(MissingProfileError, match="NoSuchGame"):
            minilab.predictor.predict_feasible_batch([spec], 60.0)

    def test_validate_spec_passes_on_known_games(self, minilab):
        spec = ColocationSpec(((minilab.names[0], REFERENCE_RESOLUTION),))
        minilab.predictor.validate_spec(spec)


def _fresh(minilab):
    return InterferencePredictor(
        minilab.db, classifier=minilab.cm_model, regressor=minilab.rm_model
    )


def _scalar_rows(db, spec, qos):
    """One scalar-builder feature row per entry of ``spec``."""
    intensities = [db.get(name).intensity_at(res).values for name, res in spec.entries]
    rows = []
    for i, (name, res) in enumerate(spec.entries):
        profile = db.get(name)
        co = intensities[:i] + intensities[i + 1 :]
        sens = profile.sensitivity_vector()
        if qos is None:
            rows.append(rm_feature_vector(sens, co))
        else:
            rows.append(cm_feature_vector(qos, profile.solo_fps_at(res), sens, co))
    return rows


class TestEntryTable:
    """Featurization gathers from one (game, width, height) -> row table."""

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_grouped_matrix_rows_equal_scalar_builders(self, minilab, data):
        # One title at two resolutions, and entries the predictor has
        # never seen arriving in the middle of a batch: the table grows
        # while ids are being resolved.
        entries = [(minilab.names[0], Resolution(1280, 720))] + [
            (name, res)
            for name in minilab.names[:4]
            for res in (REFERENCE_RESOLUTION, Resolution(1600, 900))
        ]
        spec_of = st.lists(st.sampled_from(entries), min_size=2, max_size=5).map(
            lambda chosen: ColocationSpec(tuple(chosen))
        )
        specs = data.draw(st.lists(spec_of, min_size=1, max_size=8))
        qos = data.draw(st.sampled_from([None, 30.0, 60.0]))
        predictor = _fresh(minilab)
        predictor.predict_feasible(specs[0], 60.0)
        X, slots = predictor._grouped_matrix(specs, qos)
        assert sorted(si for si, _, _ in slots) == list(range(len(specs)))
        for si, row, size in slots:
            expected = _scalar_rows(minilab.db, specs[si], qos)
            assert size == len(expected)
            for got, want in zip(X[row : row + size], expected):
                assert np.array_equal(got, want)
        seen = {entry for spec in specs for entry in spec.entries}
        assert len(predictor._rows) == len(seen)

    def test_head_block_follows_qos_and_table_growth(self, minilab):
        # One predictor, the CM head block rebuilt as qos switches back
        # and forth and as new entries grow the table between calls.
        predictor = _fresh(minilab)
        resolutions = (REFERENCE_RESOLUTION, Resolution(1280, 720))
        for step, qos in enumerate([60.0, 30.0, 30.0, 60.0, 45.5, 60.0]):
            names = minilab.names[: 2 + step % 4]
            spec = ColocationSpec(
                tuple((name, resolutions[i % 2]) for i, name in enumerate(names))
            )
            X, _ = predictor._grouped_matrix([spec], qos)
            assert X.tobytes() == np.asarray(_scalar_rows(minilab.db, spec, qos)).tobytes()
            head = predictor._cm_head(qos)
            assert head.shape[0] == predictor._solo.shape[0]

    def test_bundle_bytes_do_not_change_when_serving(self, minilab, tmp_path):
        # The compiled models and the head block are derived caches: a
        # predictor that has served CM and RM rows saves the same bytes.
        predictor = _fresh(minilab)
        predictor.save(tmp_path / "before.json")
        loaded = InterferencePredictor.load(tmp_path / "before.json")
        specs = _specs(minilab)
        for served in (predictor, loaded):
            served.colocations_feasible(specs, 60.0)
            served.predict_fps_batch(specs)
        predictor.save(tmp_path / "after.json")
        loaded.save(tmp_path / "loaded.json")
        before = (tmp_path / "before.json").read_bytes()
        assert (tmp_path / "after.json").read_bytes() == before
        assert (tmp_path / "loaded.json").read_bytes() == before
        assert b"compiled" not in before and b"head" not in before
        assert np.array_equal(
            loaded.colocations_feasible(specs, 60.0),
            predictor.colocations_feasible(specs, 60.0),
        )

    def test_solo_fps_of_an_entry_first_seen_in_the_call(self, minilab):
        predictor = _fresh(minilab)
        name = minilab.names[1]
        first = ColocationSpec(((minilab.names[0], REFERENCE_RESOLUTION),))
        assert predictor.predict_feasible(first, 60.0).shape == (1,)
        spec = ColocationSpec(((name, Resolution(1600, 900)),))
        solo = minilab.db.get(name).solo_fps_at(Resolution(1600, 900))
        (verdict,) = predictor.predict_feasible_batch([spec], solo)
        assert np.array_equal(verdict, [True])
        assert np.array_equal(predictor.predict_fps(spec), [solo])

    def test_unknown_games_are_named_before_the_table_is_touched(self, minilab):
        predictor = _fresh(minilab)
        predictor.predict_fps(
            ColocationSpec(((minilab.names[0], REFERENCE_RESOLUTION),))
        )
        spec = ColocationSpec(
            (
                (minilab.names[1], REFERENCE_RESOLUTION),
                ("GhostA", REFERENCE_RESOLUTION),
                ("GhostB", REFERENCE_RESOLUTION),
            )
        )
        for call in (
            lambda: predictor.predict_fps_batch([spec]),
            lambda: predictor.colocations_feasible([spec], 60.0),
        ):
            with pytest.raises(MissingProfileError) as excinfo:
                call()
            assert excinfo.value.missing == ("GhostA", "GhostB")
            assert len(predictor._rows) == predictor._solo.shape[0] == 1

    def test_memory_is_bounded_by_entries_not_colocations(self, minilab):
        predictor = _fresh(minilab)
        entries = [
            (name, res)
            for name in minilab.names[:3]
            for res in (REFERENCE_RESOLUTION, Resolution(1280, 720))
        ]
        specs = [
            ColocationSpec(combo)
            for size in (2, 3, 4, 5)
            for combo in itertools.product(entries, repeat=size)
        ][:5000]
        assert len(set(specs)) == 5000

        def lengths():
            return {
                name: len(value)
                for name, value in vars(predictor).items()
                if hasattr(value, "__len__")
            }

        predictor._grouped_matrix(specs[:100], 60.0)
        predictor.colocations_feasible(specs[:100], 60.0)
        early = lengths()
        for start in range(100, 5000, 100):
            predictor._grouped_matrix(specs[start : start + 100], 60.0)
            predictor.colocations_feasible(specs[start : start + 100], 60.0)
        assert lengths() == early
        assert len(predictor._rows) == 6
        assert predictor._intensity.shape[0] == predictor._sens.shape[0] == 6
        assert predictor._solo.shape == (6,)


class RowModel:
    """A CM stand-in answering each row by itself, recording rows per call."""

    def __init__(self, verdict):
        self.verdict = verdict
        self.rows = []

    def predict_from_features(self, X):
        self.rows.append(X.shape[0])
        return self.verdict(X).astype(int)


def _parity(X):
    """Pass/fail from the row's own bytes: uncorrelated with who the pivot is."""
    octets = np.frombuffer(np.ascontiguousarray(X).tobytes(), dtype=np.uint8)
    return octets.reshape(X.shape[0], -1).sum(axis=1) % 3 != 0


def _judge_entries(minilab):
    """Two titles at two resolutions each plus two more: duplicates within a
    spec tie on solo FPS, and the pivot is often not the first member."""
    return [
        (name, res)
        for name in minilab.names[:2]
        for res in (REFERENCE_RESOLUTION, Resolution(1280, 720))
    ] + [(name, REFERENCE_RESOLUTION) for name in minilab.names[2:4]]


class TestStagedJudge:
    """``colocations_feasible`` is ``all(per-member verdicts)``, pivot first."""

    @pytest.mark.parametrize("model", ["trained", "parity"])
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_all_of_per_member_verdicts(self, minilab, model, data):
        classifier = minilab.cm_model if model == "trained" else RowModel(_parity)
        predictor = InterferencePredictor(minilab.db, classifier=classifier)
        spec_of = st.lists(
            st.sampled_from(_judge_entries(minilab)), min_size=1, max_size=5
        ).map(lambda chosen: ColocationSpec(tuple(chosen)))
        specs = data.draw(st.lists(spec_of, min_size=1, max_size=8))
        qos = data.draw(st.sampled_from([30.0, 60.0, 90.0]))
        whole = predictor.colocations_feasible(specs, qos)
        assert whole.dtype == bool and whole.shape == (len(specs),)
        members = predictor.predict_feasible_batch(specs, qos)
        expected = [bool(np.all(verdicts)) for verdicts in members]
        assert whole.tolist() == expected
        # Batch order and batch company change nothing, down to a batch of
        # one (whose second stage is often a single row).
        order = data.draw(st.permutations(range(len(specs))))
        shuffled = predictor.colocations_feasible([specs[i] for i in order], qos)
        assert shuffled.tolist() == [expected[i] for i in order]
        alone = [bool(predictor.colocations_feasible([spec], qos)[0]) for spec in specs]
        assert alone == expected

    def test_pivot_first_invocations_and_rows(self, minilab):
        entries = _judge_entries(minilab)
        specs = [
            ColocationSpec(combo)
            for size in (1, 2, 3, 4)
            for combo in itertools.islice(itertools.combinations(entries, size), 5)
        ]
        lowest = [
            min(minilab.db.get(name).solo_fps_at(res) for name, res in spec.entries)
            for spec in specs
        ]
        multi = [spec.size >= 2 for spec in specs]
        cut = float(np.median([fps for fps, many in zip(lowest, multi) if many]))
        for floor, stages in ((np.inf, 1), (cut, 2), (-np.inf, 2)):
            # Every member passes iff its solo FPS (CM column 1) reaches
            # the floor, so a spec survives stage 1 iff its pivot does.
            model = RowModel(lambda X, floor=floor: X[:, 1] >= floor)
            predictor = InterferencePredictor(minilab.db, classifier=model)
            verdicts = predictor.colocations_feasible(specs, 1.0)
            survivors = [
                spec for spec, fps, many in zip(specs, lowest, multi)
                if many and fps >= floor
            ]
            if floor == cut:
                assert 0 < len(survivors) < sum(multi)
            assert len(model.rows) == stages
            assert sum(model.rows) == sum(multi) + sum(s.size - 1 for s in survivors)
            assert verdicts.tolist() == [
                fps >= floor if many else True for fps, many in zip(lowest, multi)
            ]
        # An all-solo batch answers from the entry table alone.
        model = RowModel(lambda X: np.ones(X.shape[0]))
        predictor = InterferencePredictor(minilab.db, classifier=model)
        solos = [spec for spec in specs if spec.size == 1]
        assert predictor.colocations_feasible(solos, 1.0).all()
        assert model.rows == []

    def test_error_paths(self, minilab):
        first, second = minilab.names[:2]
        pair = ColocationSpec(
            ((first, REFERENCE_RESOLUTION), (second, REFERENCE_RESOLUTION))
        )
        rm_only = InterferencePredictor(minilab.db, regressor=minilab.rm_model)
        with pytest.raises(RuntimeError, match="classification"):
            rm_only.colocations_feasible([pair], 60.0)
        predictor = _fresh(minilab)
        assert predictor.colocations_feasible([], 60.0).shape == (0,)
        predictor.colocations_feasible([pair], 60.0)
        # A profile whose solo FPS is not positive cannot be asked for a
        # required ratio: the feature builder's error, not a wrong verdict.
        predictor._solo = np.where(np.arange(2) == 1, 0.0, predictor._solo)
        with pytest.raises(ValueError, match="solo_fps must be positive, got 0.0"):
            predictor.colocations_feasible([pair], 60.0)
