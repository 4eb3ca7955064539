"""Figure 8: classification (CM) prediction accuracy.

(a)/(b) accuracy vs number of training samples for DTC / GBDT / RF / SVC at
QoS floors of 60 and 50 FPS; (c) accuracy breakdown by colocation size for
GAugur(CM) vs GAugur(RM)-as-classifier vs Sigmoid vs SMiTe.

Shape criteria: CM accuracy ~95% with the full training set; direct
classification beats thresholding the RM; both beat the ~80% baselines.
"""

from __future__ import annotations

import numpy as np

from repro.core.classification import GAugurClassifier
from repro.core.predictor import InterferencePredictor
from repro.core.regression import GAugurRegressor
from repro.experiments.evalutils import (
    baseline_sample_predictions,
    breakdown_by_size,
)
from repro.experiments.lab import Lab
from repro.experiments.tables import format_series, format_table
from repro.ml import (
    SVC,
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)

__all__ = ["TRAINING_SIZES", "cm_estimators", "run", "render"]

TRAINING_SIZES = (400, 600, 800, 1000)


def cm_estimators() -> dict:
    """The four learners of Figures 8a/8b."""
    return {
        "DTC": DecisionTreeClassifier(max_depth=12, min_samples_leaf=3),
        "GBDT": GradientBoostingClassifier(n_estimators=300, learning_rate=0.06),
        "RF": RandomForestClassifier(n_estimators=80, max_depth=14, min_samples_leaf=2),
        "SVC": SVC(C=10.0),
    }


def _accuracy_curves(lab: Lab, qos: float) -> tuple[list[int], dict[str, list[float]]]:
    cm_tr, cm_te, _, _ = lab.split(qos)
    sizes = [n for n in TRAINING_SIZES if n <= len(cm_tr)]
    if not sizes or sizes[-1] < len(cm_tr):
        sizes.append(len(cm_tr))
    curves: dict[str, list[float]] = {}
    for label, estimator in cm_estimators().items():
        accs = []
        for n in sizes:
            subset = lab.training_subset(cm_tr, n, label=f"cm-{label}-{qos}")
            model = GAugurClassifier(estimator=estimator.clone()).fit(subset)
            pred = model.predict_from_features(cm_te.X)
            accs.append(float(np.mean(pred == cm_te.y)))
        curves[label] = accs
    return sizes, curves


def run(lab: Lab) -> dict:
    """Train/evaluate all Figure 8 models."""
    sizes60, curves60 = _accuracy_curves(lab, 60.0)
    sizes50, curves50 = _accuracy_curves(lab, 50.0)

    # (c) methodology breakdown at QoS 60, using the production (QoS-
    # augmented) CM.
    _, cm_te, rm_tr, rm_te = lab.split(60.0)
    qos = 60.0
    cm = lab.cm_model_at(qos)
    cm_correct = (cm.predict_from_features(cm_te.X) == cm_te.y).astype(float)

    # The RM-as-classifier path: predict degradation, convert to FPS via the
    # solo-FPS law, threshold at the floor (solo FPS is not an RM feature,
    # so evaluation goes through the test colocations).
    rm = GAugurRegressor().fit(lab.training_subset(rm_tr, sizes60[-1], label="rm-cls"))
    rm_samples = baseline_sample_predictions(
        lab, InterferencePredictor(lab.db, regressor=rm)
    )
    rm_actual, rm_pred = rm_samples.qos_labels(qos)
    rm_correct = (rm_actual == rm_pred).astype(float)

    sigmoid = baseline_sample_predictions(lab, lab.sigmoid)
    sg_actual, sg_pred = sigmoid.qos_labels(qos)
    smite = baseline_sample_predictions(lab, lab.smite)
    sm_actual, sm_pred = smite.qos_labels(qos)

    breakdown = {
        "GAugur(CM)": breakdown_by_size(cm_correct, cm_te.sizes),
        "GAugur(RM)": breakdown_by_size(rm_correct, rm_samples.sizes),
        "Sigmoid": breakdown_by_size(
            (sg_actual == sg_pred).astype(float), sigmoid.sizes
        ),
        "SMiTe": breakdown_by_size((sm_actual == sm_pred).astype(float), smite.sizes),
    }

    return {
        "training_sizes_60": sizes60,
        "accuracy_vs_samples_60": curves60,
        "training_sizes_50": sizes50,
        "accuracy_vs_samples_50": curves50,
        "breakdown": breakdown,
    }


def render(result: dict) -> str:
    """Figures 8a-8c as text tables."""
    part_a = format_series(
        "n_train",
        result["training_sizes_60"],
        result["accuracy_vs_samples_60"],
        title="Figure 8a — CM accuracy vs training samples (QoS 60 FPS)",
    )
    part_b = format_series(
        "n_train",
        result["training_sizes_50"],
        result["accuracy_vs_samples_50"],
        title="Figure 8b — CM accuracy vs training samples (QoS 50 FPS)",
    )
    groups = ["overall"] + sorted(
        k for k in next(iter(result["breakdown"].values())) if k != "overall"
    )
    rows = [
        [label] + [result["breakdown"][label].get(g, float("nan")) for g in groups]
        for label in result["breakdown"]
    ]
    part_c = format_table(
        ["methodology"] + [f"{g}-games" if g != "overall" else g for g in groups],
        rows,
        title="Figure 8c — classification accuracy by colocation size (QoS 60)",
    )
    return "\n\n".join([part_a, part_b, part_c])
