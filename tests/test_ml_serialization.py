"""Tests for estimator serialization round-trips."""

import json

import numpy as np
import pytest

from repro.ml import (
    SVC,
    SVR,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
    StandardScaler,
)
from repro.ml.serialization import (
    estimator_from_dict,
    estimator_to_dict,
    load_model,
    save_model,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(120, 5))
    y_reg = np.sin(X[:, 0]) + X[:, 1]
    y_cls = (y_reg > 0).astype(int)
    Xte = rng.normal(size=(30, 5))
    return X, y_reg, y_cls, Xte


REGRESSORS = [
    DecisionTreeRegressor(max_depth=5),
    RandomForestRegressor(n_estimators=5, max_depth=5, seed=1),
    GradientBoostingRegressor(n_estimators=15),
    SVR(C=5.0),
]
CLASSIFIERS = [
    DecisionTreeClassifier(max_depth=5),
    RandomForestClassifier(n_estimators=5, max_depth=5, seed=1),
    GradientBoostingClassifier(n_estimators=15),
    SVC(C=5.0),
]


class TestRoundTrips:
    @pytest.mark.parametrize("estimator", REGRESSORS, ids=lambda e: type(e).__name__)
    def test_regressor_round_trip(self, estimator, data):
        X, y_reg, _, Xte = data
        model = estimator.clone().fit(X, y_reg)
        restored = estimator_from_dict(estimator_to_dict(model))
        assert np.allclose(restored.predict(Xte), model.predict(Xte))

    @pytest.mark.parametrize("estimator", CLASSIFIERS, ids=lambda e: type(e).__name__)
    def test_classifier_round_trip(self, estimator, data):
        X, _, y_cls, Xte = data
        model = estimator.clone().fit(X, y_cls)
        restored = estimator_from_dict(estimator_to_dict(model))
        assert np.array_equal(restored.predict(Xte), model.predict(Xte))

    def test_scaler_round_trip(self, data):
        X, *_ = data
        scaler = StandardScaler().fit(X)
        restored = estimator_from_dict(estimator_to_dict(scaler))
        assert np.allclose(restored.transform(X), scaler.transform(X))

    def test_string_labels_survive(self, data):
        X, _, y_cls, Xte = data
        labels = np.where(y_cls == 1, "yes", "no")
        model = DecisionTreeClassifier(max_depth=4).fit(X, labels)
        restored = estimator_from_dict(estimator_to_dict(model))
        assert np.array_equal(restored.predict(Xte), model.predict(Xte))
        assert restored.predict(Xte).dtype.kind == "U"

    def test_file_round_trip(self, data, tmp_path):
        X, y_reg, _, Xte = data
        model = GradientBoostingRegressor(n_estimators=10).fit(X, y_reg)
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert np.allclose(restored.predict(Xte), model.predict(Xte))

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            estimator_to_dict(DecisionTreeRegressor())

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            estimator_to_dict(object())
        with pytest.raises(TypeError):
            estimator_from_dict({"type": "MysteryModel", "params": {}, "state": {}})


class TestPredictorBundle:
    def test_save_load_predictor(self, minilab, tmp_path):
        path = tmp_path / "predictor.json"
        minilab.predictor.save(path)
        from repro.core import InterferencePredictor
        from repro.core.training import ColocationSpec
        from repro.games.resolution import Resolution

        restored = InterferencePredictor.load(path)
        spec = ColocationSpec(
            tuple((n, Resolution(1920, 1080)) for n in minilab.names[:3])
        )
        assert np.allclose(
            restored.predict_fps(spec), minilab.predictor.predict_fps(spec)
        )
        assert np.array_equal(
            restored.predict_feasible(spec, 60.0),
            minilab.predictor.predict_feasible(spec, 60.0),
        )

    def test_save_writes_canonical_compact_json(self, minilab, tmp_path):
        path = tmp_path / "predictor.json"
        minilab.predictor.save(path)
        text = path.read_text()
        canonical = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert text == canonical

    def test_indented_bundle_serves_bitwise_equal(self, minilab, tmp_path):
        # Bundles written before saves turned compact were indented.
        from repro.core import InterferencePredictor
        from repro.core.training import ColocationSpec
        from repro.games.resolution import PRESET_RESOLUTIONS

        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        minilab.predictor.save(compact)
        indented.write_text(json.dumps(json.loads(compact.read_text()), indent=2))
        entries = [(n, r) for n in minilab.names for r in PRESET_RESOLUTIONS[:2]]
        specs = [
            ColocationSpec(tuple(entries[j % len(entries)] for j in range(i, i + size)))
            for size in (1, 2, 3, 4)
            for i in range(0, len(entries), 3)
        ]
        new = InterferencePredictor.load(compact)
        old = InterferencePredictor.load(indented)
        for qos in (30.0, 60.0):
            assert (
                old.colocations_feasible(specs, qos).tobytes()
                == new.colocations_feasible(specs, qos).tobytes()
            )
        for a, b in zip(old.predict_fps_batch(specs), new.predict_fps_batch(specs)):
            assert a.tobytes() == b.tobytes()
