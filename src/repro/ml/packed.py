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
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["PackedTrees", "pack_trees"]

_LEAF = -1


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

    def boosted_predict(
        self, X: np.ndarray, init: float, learning_rate: float
    ) -> np.ndarray:
        """Boosting fold: ``init + sum_t lr * value_t``, accumulated in
        stage order (the first reduction step adds stage 0 to ``init``,
        exactly like the sequential per-tree loop)."""
        leaves = self.leaf_values(X)[:, :, 0]
        terms = np.empty((leaves.shape[0] + 1, leaves.shape[1]), dtype=float)
        terms[0] = init
        terms[1:] = learning_rate * leaves
        return _stage_sum(terms)


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
