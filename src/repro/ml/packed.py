"""Packed tree-ensemble evaluation: all trees x all rows in one descent.

A :class:`PackedTrees` concatenates every tree's flat node arrays once,
with child pointers rebased to absolute node ids, so one loop advances
every (tree, row) cursor simultaneously.  The loop is *fixed-trip*: it
runs exactly ``depth`` levels (the longest root-to-leaf path in the
pack), with no liveness mask and no compaction, because a leaf is stored
as a self-loop — ``feature 0``, ``threshold +inf``, both children =
itself — so a cursor that arrives early just stays put.  Children sit
interleaved ``[right, left]`` in one array, so the next node is
``children[2 * node + (x <= threshold)]``: the same comparison on the
same operands as a per-row walk, hence the same leaf.  A single tree
(:meth:`repro.ml.tree._Tree.apply`) is a pack of one — there is one
descent in the repo.

Packing is a *derived cache*: it is built lazily from the fitted
per-tree arrays (after :meth:`fit` or deserialization) and never
serialized — bundles written by :mod:`repro.ml.serialization` are
unchanged.  The ensemble folds (forest mean, soft-vote sum, boosted
accumulation) reduce over the outer axis of a C-contiguous array, which
numpy evaluates in tree order exactly like a per-tree Python loop.

A model trained on standardized rows ``z = (x - mean) / scale`` can skip
the standardization at prediction time: :meth:`PackedTrees.folded` moves
each split into raw feature space (see :func:`raw_thresholds`), and
:class:`PackedModel` gives every tree estimator one ``compiled`` form —
its own fold over that folded pack.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence

import numpy as np

from repro.ml.base import BaseEstimator, check_array

__all__ = [
    "PackedModel",
    "PackedTrees",
    "pack_trees",
    "raw_thresholds",
    "standardized_domain",
]

_LEAF = -1
#: Bit pattern of the largest finite float64, as an int64.
_MAX_FINITE = np.int64(0x7FEFFFFFFFFFFFFF)
_SIGN = np.int64(-(2**63))


def _ordered_floats(keys: np.ndarray) -> np.ndarray:
    """Floats at int64 ``keys`` of the total order of floats: key ``k >= 0``
    is the float whose bits are ``k``, key ``-1 - k`` its negation, so
    ``-0.0`` (key -1) sits just below ``+0.0`` (key 0) and the finite
    floats are keys ``-_MAX_FINITE - 1 .. _MAX_FINITE``."""
    return np.where(keys >= 0, keys, (-1 - keys) | _SIGN).view(np.float64)


def raw_thresholds(
    feature: np.ndarray, threshold: np.ndarray, mean: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Split thresholds moved from standardized into raw feature space.

    Node ``i`` sends ``x`` left iff ``fl(fl(x - mu) / sigma) <= t`` with
    ``mu, sigma = mean[f], scale[f]`` of its column ``f``.  For
    ``sigma > 0`` that map is monotone non-decreasing (IEEE rounding is),
    so the finite ``x`` that go left form a down-set: every finite float
    up to its largest element ``t'``.  ``x <= t'`` is then the same test
    on raw ``x`` for every finite ``x`` (``-0.0`` and ``+0.0`` standardize
    alike, so ``t'`` is never ``-0.0`` with ``+0.0`` outside).  ``t'`` is
    ``-inf`` for an empty set and ``+inf`` when every finite float goes
    left (a self-looping leaf's ``+inf`` stays ``+inf``).  All nodes
    bisect the ordered bit patterns of the finite floats together: at
    most 64 rounds of array operations.
    """
    mu, sigma = mean[feature], scale[feature]
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all() and (sigma > 0).all()):
        raise ValueError("folding needs a finite mean and a finite positive scale")

    def left(keys):
        # The extreme floats standardize to +-inf: harmless, the same
        # overflow transform performs.
        with np.errstate(over="ignore"):
            return (_ordered_floats(keys) - mu) / sigma <= threshold

    lo = np.full(threshold.shape, -_MAX_FINITE - 1)
    hi = np.full(threshold.shape, _MAX_FINITE)
    out = np.where(left(hi), np.inf, -np.inf)
    # Bisect where the lowest float goes left and the highest does not.
    live = left(lo) & ~left(hi)
    lo, hi = lo[live], hi[live]
    mu, sigma, threshold = mu[live], sigma[live], threshold[live]
    while True:
        # floor((lo + hi) / 2) without overflowing int64; equals lo once
        # hi == lo + 1, and a settled node then keeps its bounds.
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
        if np.array_equal(mid, lo):
            break
        inside = left(mid)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    out[live] = _ordered_floats(lo)
    return out


def standardized_domain(
    mean: np.ndarray, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the interval ``[low, high]`` of finite raw floats whose
    standardization ``(x - mean) / scale`` is finite too.  Every other raw
    value — NaN, +-inf, or a finite ``x`` that standardizes to +-inf — is
    one an estimator's input check rejects after standardizing, so a
    folded model rejects exactly the rows with a cell outside it."""
    columns = np.arange(mean.shape[0])
    top = np.full(mean.shape, np.finfo(float).max)
    # +inf when every finite float standardizes finitely.
    high = np.minimum(raw_thresholds(columns, top, mean, scale), top)
    # The largest x standardizing to -inf sits just below low.
    below = raw_thresholds(columns, np.full(mean.shape, -np.inf), mean, scale)
    return np.nextafter(below, np.inf), high


def _stage_sum(terms: np.ndarray) -> np.ndarray:
    """Sum ``terms`` over axis 0 in stage order (bitwise-loop-equal).

    ``np.add.reduce`` over the outer axis of a C-contiguous array
    accumulates sequentially — except when the trailing axes have size
    1, where numpy merges them into one contiguous vector and switches
    to pairwise summation.  That (single-row) case takes the last prefix
    sum instead — ``accumulate`` is sequential by definition — so the
    result always matches a per-stage ``+=`` loop bitwise.
    """
    if terms[0].size == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


class PackedTrees:
    """An ensemble's trees concatenated into one set of flat node arrays.

    ``feature``/``threshold`` hold the self-looping-leaf form described
    in the module docstring; ``children[2 * i]`` / ``[2 * i + 1]`` are
    node ``i``'s right / left child; ``depth`` is the descent's trip
    count and ``width`` the number of columns the splits read.
    """

    __slots__ = ("feature", "threshold", "children", "value", "roots", "depth", "width")

    def __init__(self, feature, threshold, left, right, value, roots):
        leaf = feature == _LEAF
        self.width = int(feature.max()) + 1
        self.depth, frontier = 0, roots
        while True:
            frontier = frontier[~leaf[frontier]]
            if frontier.size == 0:
                break
            frontier = np.concatenate([left[frontier], right[frontier]])
            self.depth += 1
        ids = np.arange(feature.shape[0])
        self.children = np.empty(2 * ids.shape[0], dtype=np.int64)
        self.children[0::2] = np.where(leaf, ids, right)
        self.children[1::2] = np.where(leaf, ids, left)
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.where(leaf, np.inf, threshold)
        self.value = value
        self.roots = roots

    @property
    def n_trees(self) -> int:
        """Number of packed trees."""
        return self.roots.shape[0]

    def folded(self, mean: np.ndarray, scale: np.ndarray) -> "PackedTrees":
        """This pack for raw rows of a model fitted on ``(x - mean) / scale``:
        the same trees with :func:`raw_thresholds`, so every finite raw row
        reaches the leaf its standardized row reaches."""
        pack = copy.copy(self)
        pack.threshold = raw_thresholds(self.feature, self.threshold, mean, scale)
        return pack

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Absolute leaf id per (tree, row): shape ``(n_trees, n)``."""
        n, p = X.shape
        if p < self.width:
            # The flat offsets below would read the next row's cells
            # where a 2-D index raises.
            raise IndexError(
                f"X has {p} column(s) but the trees split on column {self.width - 1}"
            )
        flat = X.ravel()
        base = np.tile(np.arange(n) * p, self.n_trees)
        node = np.repeat(self.roots, n)
        for _ in range(self.depth):
            at = self.feature.take(node)
            at += base
            go_left = flat.take(at) <= self.threshold.take(node)
            node += node
            node += go_left
            node = self.children.take(node)
        return node.reshape(self.n_trees, n)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value block per (tree, row): shape ``(n_trees, n, d)``."""
        return self.value[self.apply(X)]

    # -- ensemble folds (each bitwise equal to the per-tree loop) -------

    def mean_predict(self, X: np.ndarray) -> np.ndarray:
        """Forest-regressor fold: mean over trees of the scalar leaf value."""
        return np.mean(self.leaf_values(X)[:, :, 0], axis=0)

    def sum_values(self, X: np.ndarray) -> np.ndarray:
        """Soft-vote fold: summed leaf value blocks, shape ``(n, d)``."""
        return _stage_sum(self.leaf_values(X))

    def boosted_predict(self, X: np.ndarray, init: float) -> np.ndarray:
        """Boosting fold: ``init + sum_t value_t``, accumulated in stage
        order (the first reduction step adds stage 0 to ``init``, exactly
        like the sequential per-tree loop).  Boosting packs its leaves as
        ``lr * value``, the loop's own multiply done once per leaf."""
        leaves = self.apply(X)
        terms = np.empty((leaves.shape[0] + 1, leaves.shape[1]), dtype=float)
        terms[0] = init
        np.take(self.value[:, 0], leaves, out=terms[1:])
        return _stage_sum(terms)


class PackedModel(BaseEstimator):
    """A tree estimator whose predictions fold one :class:`PackedTrees`.

    Subclasses provide ``_packed()`` (the fitted pack, a derived cache)
    and ``_fold(pack, X)`` (the prediction over validated rows);
    :meth:`predict` folds ``_packed()`` and :meth:`compiled` folds it with
    the standardization moved into its thresholds — one fold, two packs.
    """

    #: Set by ``fit``; predicting before it exists raises.
    _fitted_attr = "estimators_"

    def predict(self, X) -> np.ndarray:
        """Prediction per row of ``X``: the estimator's fold over its pack."""
        self._check_fitted(self._fitted_attr)
        return self._fold(self._packed(), check_array(X))

    def compiled(self, mean, scale):
        """``predict`` of standardized rows as one callable over raw rows
        of the right shape: the fold over :meth:`PackedTrees.folded`, after
        one range test that rejects the rows ``predict`` would reject.
        Most rows pass on the narrowest column's bounds alone (two
        reductions); the rest are tested column by column."""
        pack = self._packed().folded(mean, scale)
        low, high = standardized_domain(mean, scale)
        floor, ceiling = low.max(), high.min()

        def predict(X: np.ndarray) -> np.ndarray:
            # NaN fails every comparison, so it never passes either test.
            if not (floor <= X.min() and X.max() <= ceiling):
                if not ((low <= X) & (X <= high)).all():
                    raise ValueError("X contains NaN or infinity")
            return self._fold(pack, X)

        return predict


def pack_trees(
    trees: Sequence, values: Sequence[np.ndarray] | None = None
) -> PackedTrees:
    """Concatenate fitted :class:`repro.ml.tree._Tree` instances.

    ``values`` optionally overrides each tree's leaf value matrix — the
    forest classifier passes per-tree matrices projected into the global
    class order so heterogeneous ``classes_`` subsets (a bootstrap
    resample can miss a class) share one value array.  All value
    matrices must then agree on width.
    """
    if len(trees) == 0:
        raise ValueError("pack_trees needs at least one tree")
    sizes = np.asarray([t.feature.shape[0] for t in trees], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    # A leaf's rebased pointer is meaningless; the constructor replaces
    # it with a self-loop.
    return PackedTrees(
        feature=np.concatenate([t.feature for t in trees]),
        threshold=np.concatenate([t.threshold for t in trees]),
        left=np.concatenate([t.left + off for t, off in zip(trees, offsets)]),
        right=np.concatenate([t.right + off for t, off in zip(trees, offsets)]),
        value=np.vstack(list(values) if values is not None else [t.value for t in trees]),
        roots=offsets[:-1],
    )
