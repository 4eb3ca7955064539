"""Model input construction (paper Section 3.4).

The CM and RM take a target game's sensitivity curves plus the intensities
of its co-runners.  Because the number of co-runners varies, the paper
folds their intensities into a fixed-size block (Eq. 5):

``I_G = [|G|, (mean_1, var_1), ..., (mean_R, var_R)]``

where ``mean_r`` / ``var_r`` aggregate the co-runners' per-resource
intensities.  Note the paper's ``var`` is a scaled root-sum-of-squares,
``(1/|G|) * sqrt(sum (I - mean)^2)`` — we implement that formula verbatim.
Observation 5 forbids the naive alternative of summing intensities.

The scalar builders define the rows; :func:`feature_rows` builds many at
once — any mix of co-runner counts, padded into one block — bitwise equal
to them; the predictor goes through it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.hardware.resources import NUM_RESOURCES, Resource

__all__ = [
    "aggregate_intensity",
    "rm_feature_vector",
    "cm_feature_vector",
    "feature_rows",
    "cm_head_rows",
    "aggregate_rows",
    "rm_feature_names",
    "cm_feature_names",
    "AGGREGATE_DIM",
]

#: Dimension of the Eq. 5 aggregate block: |G| plus (mean, var) per resource.
AGGREGATE_DIM = 1 + 2 * NUM_RESOURCES


def aggregate_intensity(intensities: Sequence[np.ndarray]) -> np.ndarray:
    """Eq. 5 transform of co-runner intensity vectors.

    Parameters
    ----------
    intensities:
        One ``(7,)`` intensity vector per co-located game (>= 1).

    Returns
    -------
    ``(15,)`` vector ``[|G|, mean_1, var_1, ..., mean_7, var_7]``.
    """
    if len(intensities) == 0:
        raise ValueError("aggregate_intensity requires at least one co-runner")
    stack = np.vstack([np.asarray(v, dtype=float).reshape(-1) for v in intensities])
    if stack.shape[1] != NUM_RESOURCES:
        raise ValueError(
            f"intensity vectors must have {NUM_RESOURCES} entries, "
            f"got {stack.shape[1]}"
        )
    size = stack.shape[0]
    mean = stack.mean(axis=0)
    # The paper's variance term: (1/|G|) * sqrt(sum (I - mean)^2).
    var = np.sqrt(np.sum((stack - mean) ** 2, axis=0)) / size
    out = np.empty(AGGREGATE_DIM, dtype=float)
    out[0] = float(size)
    out[1::2] = mean
    out[2::2] = var
    return out


def rm_feature_vector(
    sensitivity: np.ndarray, co_intensities: Sequence[np.ndarray]
) -> np.ndarray:
    """RM input (Eq. 4): target sensitivity curves + aggregate intensity."""
    sensitivity = np.asarray(sensitivity, dtype=float).reshape(-1)
    return np.concatenate([sensitivity, aggregate_intensity(co_intensities)])


def cm_feature_vector(
    qos: float,
    solo_fps: float,
    sensitivity: np.ndarray,
    co_intensities: Sequence[np.ndarray],
) -> np.ndarray:
    """CM input (Eq. 3): QoS floor, solo FPS, sensitivity, aggregate intensity.

    The required degradation ratio ``qos / solo_fps`` is added as a derived
    third feature: the QoS question is exactly "is the degradation ratio
    above this threshold?", and giving tree learners the ratio directly
    (rather than asking them to approximate a division with axis-aligned
    splits) measurably improves CM accuracy.  It is a pure function of the
    two Eq. 3 inputs, so the model contract is unchanged.
    """
    sensitivity = np.asarray(sensitivity, dtype=float).reshape(-1)
    if solo_fps <= 0:
        raise ValueError(f"solo_fps must be positive, got {solo_fps}")
    required_ratio = float(qos) / float(solo_fps)
    return np.concatenate(
        [
            [float(qos), float(solo_fps), required_ratio],
            sensitivity,
            aggregate_intensity(co_intensities),
        ]
    )


# ----------------------------------------------------------------------
# Batched construction: ``m`` targets, each with its own number of
# co-runners stacked into one ``(m, k, 7)`` block padded to the widest,
# become ``m`` rows in a handful of numpy ops.  Every sum sees the same
# values in the same order as the scalar builders': co-runners are
# gathered explicitly, ascending (the ``(S - I_i)/(n-1)`` sum-minus-self
# identity adds in another order and drifts in the last ulp); sums run
# along a non-contiguous axis, which numpy adds sequentially; pads come
# last and hold the additive identity — ``x + -0.0`` is ``x`` for every
# ``x``, signed zeros included — and a pad's deviation is zeroed before
# it is squared (``s + 0.0`` is ``s`` for a sum of squares).


def feature_rows(
    sensitivities: np.ndarray,
    co_intensities: np.ndarray,
    counts: np.ndarray,
    qos: float | None = None,
    solo_fps: np.ndarray | None = None,
) -> np.ndarray:
    """One model input row per target: RM rows, or CM rows given ``qos``.

    ``sensitivities`` is ``(m, d)`` and ``solo_fps`` ``(m,)`` (CM rows
    only; all positive), one entry per target.  ``co_intensities`` is
    ``(m, k, 7)``: the first ``counts[r]`` vectors of row ``r`` — between
    1 and ``k`` — are target ``r``'s co-runners, and whatever sits in the
    remaining slots is ignored.  Row ``r`` is bitwise
    :func:`rm_feature_vector` / :func:`cm_feature_vector` of target ``r``
    next to those co-runners.
    """
    head = 0 if qos is None else 3
    tail = head + np.shape(sensitivities)[1]
    X = np.empty((np.shape(co_intensities)[0], tail + AGGREGATE_DIM), dtype=float)
    if head:
        cm_head_rows(qos, solo_fps, sensitivities, out=X[:, :tail])
    else:
        X[:, :tail] = sensitivities
    aggregate_rows(co_intensities, counts, out=X[:, tail:])
    return X


def cm_head_rows(
    qos: float, solo_fps: np.ndarray, sensitivities: np.ndarray, out=None
) -> np.ndarray:
    """The leading ``3 + d`` columns of :func:`feature_rows`' CM rows:
    ``[qos, solo, qos / solo, sensitivity...]`` per target, into ``out``
    when given.  They depend on the target and ``qos`` only."""
    solo_fps = np.asarray(solo_fps, dtype=float)
    if solo_fps.min() <= 0:
        bad = float(solo_fps[solo_fps <= 0][0])
        raise ValueError(f"solo_fps must be positive, got {bad}")
    if out is None:
        out = np.empty((solo_fps.shape[0], 3 + np.shape(sensitivities)[1]))
    out[:, 0] = qos
    out[:, 1] = solo_fps
    np.divide(float(qos), solo_fps, out=out[:, 2])
    out[:, 3:] = sensitivities
    return out


def aggregate_rows(co_intensities: np.ndarray, counts: np.ndarray, out) -> None:
    """Write the Eq. 5 block of :func:`feature_rows` (its trailing
    ``AGGREGATE_DIM`` columns) for each ``(co_intensities[r], counts[r])``
    into ``out``."""
    co, counts = np.asarray(co_intensities, dtype=float), np.asarray(counts)
    if co.ndim != 3 or co.shape[2] != NUM_RESOURCES:
        raise ValueError(
            f"co-runner stacks must be (m, k, {NUM_RESOURCES}), got {co.shape}"
        )
    real = (np.arange(co.shape[1]) < counts[:, None])[:, :, None]
    size = counts[:, None].astype(float)
    co = np.where(real, co, -0.0)
    mean = co.sum(axis=1) / size
    deviation = (co - mean[:, None, :]) * real
    out[:, 0] = counts
    out[:, 1::2] = mean
    # The paper's variance term: (1/|G|) * sqrt(sum (I - mean)^2).
    out[:, 2::2] = np.sqrt((deviation**2).sum(axis=1)) / size


def _sensitivity_names(samples_per_curve: int) -> list[str]:
    return [
        f"sens[{res.label}][{i}]"
        for res in Resource
        for i in range(samples_per_curve)
    ]


def _aggregate_names() -> list[str]:
    names = ["n_corunners"]
    for res in Resource:
        names.append(f"intensity_mean[{res.label}]")
        names.append(f"intensity_var[{res.label}]")
    return names


def rm_feature_names(samples_per_curve: int = 11) -> list[str]:
    """Column names matching :func:`rm_feature_vector`."""
    return _sensitivity_names(samples_per_curve) + _aggregate_names()


def cm_feature_names(samples_per_curve: int = 11) -> list[str]:
    """Column names matching :func:`cm_feature_vector`."""
    return (
        ["qos", "solo_fps", "required_ratio"]
        + _sensitivity_names(samples_per_curve)
        + _aggregate_names()
    )
