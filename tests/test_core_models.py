"""Tests for the GAugur CM/RM wrappers and online predictor."""

import itertools
import json

import numpy as np
import pytest

from repro.core import GAugurClassifier, GAugurRegressor, InterferencePredictor
from repro.core.training import ColocationSpec
from repro.games.resolution import Resolution
from repro.ml import SVR, DecisionTreeClassifier, DecisionTreeRegressor

R1080 = Resolution(1920, 1080)


@pytest.fixture(scope="module")
def split(minilab):
    return minilab.split(60.0)


@pytest.fixture(scope="module")
def rm(split):
    # A fast estimator keeps this module quick; accuracy is tested at the
    # lab level elsewhere.
    _, _, rm_tr, _ = split
    return GAugurRegressor(DecisionTreeRegressor(max_depth=8)).fit(rm_tr)


@pytest.fixture(scope="module")
def cm(split):
    cm_tr, _, _, _ = split
    return GAugurClassifier(DecisionTreeClassifier(max_depth=8)).fit(cm_tr)


@pytest.fixture(scope="module")
def predictor(minilab, cm, rm):
    return InterferencePredictor(minilab.db, classifier=cm, regressor=rm)


class TestGAugurRegressor:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GAugurRegressor().predict_from_features(np.zeros((1, 92)))

    def test_predictions_positive(self, rm, split):
        _, _, _, rm_te = split
        pred = rm.predict_from_features(rm_te.X)
        assert np.all(pred >= 0.01)

    def test_predicts_better_than_mean(self, rm, split):
        _, _, rm_tr, rm_te = split
        pred = rm.predict_from_features(rm_te.X)
        mse_model = np.mean((pred - rm_te.y) ** 2)
        mse_mean = np.mean((rm_tr.y.mean() - rm_te.y) ** 2)
        assert mse_model < mse_mean


class TestGAugurClassifier:
    def test_rejects_non_binary_labels(self, split):
        cm_tr, _, _, _ = split
        bad = cm_tr.select(np.arange(len(cm_tr)))
        bad.y = bad.y.copy()
        bad.y[0] = 3
        with pytest.raises(ValueError, match="binary"):
            GAugurClassifier(DecisionTreeClassifier()).fit(bad)

    def test_accuracy_above_majority(self, cm, split):
        _, cm_te, _, _ = split
        pred = cm.predict_from_features(cm_te.X)
        majority = max(np.mean(cm_te.y), 1 - np.mean(cm_te.y))
        assert np.mean(pred == cm_te.y) > majority


class TestInterferencePredictor:
    def test_requires_some_model(self, minilab):
        with pytest.raises(ValueError):
            InterferencePredictor(minilab.db)

    def test_predict_degradations_shape(self, minilab, predictor):
        spec = ColocationSpec(tuple((n, R1080) for n in minilab.names[:3]))
        degr = predictor.predict_degradations(spec)
        assert degr.shape == (3,)

    def test_singleton_no_degradation(self, minilab, predictor):
        spec = ColocationSpec(((minilab.names[0], R1080),))
        assert predictor.predict_degradations(spec)[0] == 1.0

    def test_singleton_feasibility_is_solo_check(self, minilab, predictor):
        name = minilab.names[0]
        solo = minilab.db.get(name).solo_fps_at(R1080)
        spec = ColocationSpec(((name, R1080),))
        assert predictor.predict_feasible(spec, solo - 1.0)[0]
        assert not predictor.predict_feasible(spec, solo + 10.0)[0]

    def test_predict_fps_composition(self, minilab, predictor):
        spec = ColocationSpec(tuple((n, R1080) for n in minilab.names[:2]))
        fps = predictor.predict_fps(spec)
        degr = predictor.predict_degradations(spec)
        solos = np.array(
            [minilab.db.get(n).solo_fps_at(R1080) for n in minilab.names[:2]]
        )
        assert np.allclose(fps, degr * solos)

    def test_trivial_qos_always_feasible(self, minilab):
        # The lab's CM is trained at a spread of floors, so QoS is a
        # learned input (this module's single-floor CM cannot learn it).
        pairs = [
            ColocationSpec(((a, R1080), (b, R1080)))
            for a, b in itertools.permutations(minilab.names, 2)
        ]
        verdicts = minilab.predictor.predict_feasible_batch(pairs, 0.5)
        assert all(v.all() for v in verdicts)

    def test_rm_feasibility_consistent(self, minilab, predictor):
        spec = ColocationSpec(tuple((n, R1080) for n in minilab.names[:2]))
        fps = predictor.predict_fps(spec)
        verdicts = predictor.predict_feasible_rm(spec, 60.0)
        assert np.array_equal(verdicts, fps >= 60.0)
        assert predictor.colocation_feasible_rm(spec, 60.0) == bool(np.all(verdicts))

    def test_missing_model_errors(self, minilab, cm, rm):
        spec = ColocationSpec(tuple((n, R1080) for n in minilab.names[:2]))
        only_cm = InterferencePredictor(minilab.db, classifier=cm)
        with pytest.raises(RuntimeError, match="regression"):
            only_cm.predict_degradations(spec)
        only_rm = InterferencePredictor(minilab.db, regressor=rm)
        with pytest.raises(RuntimeError, match="classification"):
            only_rm.predict_feasible(spec, 60.0)


def _wide(X):
    """``X`` with one extra column."""
    return np.hstack([X, np.zeros((X.shape[0], 1))])


class TestCompiledPredict:
    """The one compiled predict keeps every check of the standardize-then-
    predict path it replaced, follows re-fits, and never reaches a bundle."""

    @pytest.mark.parametrize("kind", ["cm", "rm"])
    def test_wrong_column_count_is_the_scalers_error(self, minilab, kind):
        model = minilab.cm_model if kind == "cm" else minilab.rm_model
        X = minilab.split(60.0)[0 if kind == "cm" else 2].X[:4]
        model.predict_from_features(X)  # compiled
        for bad in (X[:, :-1], _wide(X)):
            with pytest.raises(ValueError, match="features, scaler was fitted with"):
                model.predict_from_features(bad)

    @pytest.mark.parametrize("kind", ["cm", "rm"])
    def test_nan_and_inf_rows_raise(self, minilab, kind):
        model = minilab.cm_model if kind == "cm" else minilab.rm_model
        X = minilab.split(60.0)[0 if kind == "cm" else 2].X[:4].copy()
        for value in (np.nan, np.inf, -np.inf):
            bad = X.copy()
            bad[2, 5] = value
            with pytest.raises(ValueError, match="NaN or infinity"):
                model.predict_from_features(bad)
        # A finite value whose standardization overflows: the estimator's
        # check rejected the scaled row, and the compiled form does too.
        scale = model._scaler.scale_
        column = int(np.argmin(scale))
        assert scale[column] < 1.0
        X[0, column] = np.finfo(float).max
        with pytest.raises(ValueError, match="NaN or infinity"):
            model.predict_from_features(X)

    def test_non_tree_estimator_rejects_what_it_rejected(self, split):
        # A kernel machine compiles to predict(standardized rows); that
        # predict's own check is the one validation pass.
        rm_tr, rm_te = split[2], split[3]
        model = GAugurRegressor(SVR()).fit(rm_tr.select(np.arange(60)))
        X = rm_te.X[:3].copy()
        expected = SVR.predict(model.estimator, model._scaler.transform(X))
        assert np.array_equal(model.predict_from_features(X), np.clip(expected, 0.01, None))
        for value in (np.nan, np.inf):
            X[1, 0] = value
            with pytest.raises(ValueError, match="NaN or infinity"):
                model.predict_from_features(X)
        with pytest.raises(ValueError, match="features, scaler was fitted with"):
            model.predict_from_features(_wide(X[:1]))

    def test_refit_replaces_the_compiled_model(self, split):
        cm_tr, cm_te, rm_tr, rm_te = split
        for make, train, test, relabel in (
            (
                lambda: GAugurRegressor(DecisionTreeRegressor(max_depth=6)),
                rm_tr,
                rm_te,
                lambda y: 0.5 * y,
            ),
            (
                lambda: GAugurClassifier(DecisionTreeClassifier(max_depth=6)),
                cm_tr,
                cm_te,
                lambda y: 1 - y,
            ),
        ):
            model = make().fit(train)
            before = model.predict_from_features(test.X)
            other = train.select(np.arange(1, len(train), 2))
            other.y = relabel(other.y)
            after = model.fit(other).predict_from_features(test.X)
            assert not np.array_equal(after, before)
            assert np.array_equal(after, make().fit(other).predict_from_features(test.X))

    @pytest.mark.parametrize("kind", ["cm", "rm"])
    def test_serialization_is_untouched_by_compiling(self, minilab, kind):
        model = minilab.cm_model if kind == "cm" else minilab.rm_model
        X = minilab.split(60.0)[1 if kind == "cm" else 3].X
        cls = type(model)
        reloaded = cls.from_dict(json.loads(json.dumps(model.to_dict())))
        before = json.dumps(reloaded.to_dict())
        assert reloaded._compiled_ is None
        predictions = reloaded.predict_from_features(X)
        assert reloaded._compiled_ is not None
        assert json.dumps(reloaded.to_dict()) == before
        assert "compiled" not in before
        assert np.array_equal(predictions, model.predict_from_features(X))
        # A round trip of a compiled model serves the same answers.
        again = cls.from_dict(json.loads(before))
        assert np.array_equal(again.predict_from_features(X), predictions)
