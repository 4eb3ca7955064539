"""Model input construction (paper Section 3.4).

The CM and RM take a target game's sensitivity curves plus the intensities
of its co-runners.  Because the number of co-runners varies, the paper
folds their intensities into a fixed-size block (Eq. 5):

``I_G = [|G|, (mean_1, var_1), ..., (mean_R, var_R)]``

where ``mean_r`` / ``var_r`` aggregate the co-runners' per-resource
intensities.  Note the paper's ``var`` is a scaled root-sum-of-squares,
``(1/|G|) * sqrt(sum (I - mean)^2)`` — we implement that formula verbatim.
Observation 5 forbids the naive alternative of summing intensities.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache

import numpy as np

from repro.hardware.resources import NUM_RESOURCES, Resource

__all__ = [
    "aggregate_intensity",
    "rm_feature_vector",
    "cm_feature_vector",
    "aggregate_intensity_matrix",
    "rm_feature_matrix",
    "cm_feature_matrix",
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
# Batched construction: whole-colocation feature matrices in a handful of
# numpy ops.  Each builder takes every same-size colocation of a batch at
# once — ``stacks[g, i]`` is the intensity vector of member ``i`` of
# colocation ``g`` — and produces one feature row per member, in
# colocation-major, member order.  Outputs are bitwise identical to the
# per-row builders above: the leave-one-out co-runner subsets are gathered
# explicitly (rather than derived via the ``(S - I_i)/(n-1)``
# sum-minus-self identity, whose different floating-point summation order
# would drift in the last ulp) so every reduction runs over the same
# values in the same order as the scalar path, just batched along
# leading axes.


@cache  # one small read-only matrix per colocation size ever seen
def _loo_indices(n: int) -> np.ndarray:
    """``(n, n-1)`` co-runner index matrix: row ``i`` lists ``j != i`` ascending."""
    base = np.arange(n - 1)
    indices = base[None, :] + (base[None, :] >= np.arange(n)[:, None])
    indices.setflags(write=False)
    return indices


def aggregate_intensity_matrix(stacks: np.ndarray) -> np.ndarray:
    """Eq. 5 leave-one-out aggregates for every member of every colocation.

    Parameters
    ----------
    stacks:
        ``(g, n, 7)`` intensity matrices of ``g`` colocations, all of the
        same size ``n >= 2``.

    Returns
    -------
    ``(g, n, 15)`` array whose ``[g, i]`` block equals
    ``aggregate_intensity`` of member ``i``'s co-runners (every member of
    colocation ``g`` except ``i``), bitwise.
    """
    stacks = np.asarray(stacks, dtype=float)
    if stacks.ndim != 3:
        raise ValueError(f"stacks must be (g, n, {NUM_RESOURCES}), got {stacks.shape}")
    g, n, width = stacks.shape
    if width != NUM_RESOURCES:
        raise ValueError(
            f"intensity vectors must have {NUM_RESOURCES} entries, got {width}"
        )
    if n < 2:
        raise ValueError("leave-one-out aggregation needs colocations of >= 2 games")
    co = stacks[:, _loo_indices(n), :]  # (g, n, n-1, 7)
    mean = co.mean(axis=2)
    var = np.sqrt(np.sum((co - mean[:, :, None, :]) ** 2, axis=2)) / (n - 1)
    out = np.empty((g, n, AGGREGATE_DIM), dtype=float)
    out[..., 0] = float(n - 1)
    out[..., 1::2] = mean
    out[..., 2::2] = var
    return out


def rm_feature_matrix(
    sensitivities: np.ndarray, stacks: np.ndarray
) -> np.ndarray:
    """Batched :func:`rm_feature_vector`: one row per colocation member.

    ``sensitivities`` is ``(g, n, d)`` (member sensitivity vectors) and
    ``stacks`` is ``(g, n, 7)`` (member intensities) for ``g``
    same-size colocations; returns ``(g * n, d + 15)`` rows in
    colocation-major, member order, each bitwise equal to the scalar
    builder applied to that member.
    """
    sensitivities = np.asarray(sensitivities, dtype=float)
    agg = aggregate_intensity_matrix(stacks)
    g, n, d = sensitivities.shape
    return np.concatenate([sensitivities, agg], axis=2).reshape(g * n, d + AGGREGATE_DIM)


def cm_feature_matrix(
    qos: float,
    solo_fps: np.ndarray,
    sensitivities: np.ndarray,
    stacks: np.ndarray,
) -> np.ndarray:
    """Batched :func:`cm_feature_vector`: one row per colocation member.

    ``solo_fps`` is ``(g, n)`` (member solo frame rates, all positive);
    the other arguments and the row order match
    :func:`rm_feature_matrix`.
    """
    solo_fps = np.asarray(solo_fps, dtype=float)
    if np.any(solo_fps <= 0):
        bad = float(solo_fps[solo_fps <= 0].flat[0])
        raise ValueError(f"solo_fps must be positive, got {bad}")
    sensitivities = np.asarray(sensitivities, dtype=float)
    agg = aggregate_intensity_matrix(stacks)
    g, n, d = sensitivities.shape
    head = np.empty((g, n, 3), dtype=float)
    head[..., 0] = float(qos)
    head[..., 1] = solo_fps
    head[..., 2] = float(qos) / solo_fps
    return np.concatenate([head, sensitivities, agg], axis=2).reshape(
        g * n, 3 + d + AGGREGATE_DIM
    )


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
