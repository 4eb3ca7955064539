"""Bitwise-parity locks for the vectorized cold-path pipeline.

Properties pinning the fast paths to the scalar implementations they
replaced: batch feature matrices equal row-by-row feature vectors
(exactly — same bits, not just close), packed ensemble evaluation equals
the per-tree Python loop, incrementally maintained fleet signatures
equal a from-scratch recomputation after arbitrary mutation sequences,
the fleet's signature index equals a from-scratch grouping of them, and
a policy's scan over that index picks the server that a straight-line
per-server scan picks — with the same misses and stores, probing a
subset of its keys (the groups' verdict memo answers the rest).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import cm_feature_vector, feature_rows, rm_feature_vector
from repro.core.training import ColocationSpec
from repro.games.resolution import Resolution
from repro.hardware.resources import NUM_RESOURCES
from repro.ml import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from repro.ml.packed import pack_trees, raw_thresholds
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, _Tree
from repro.obs import QoSLedger, Telemetry
from repro.placement.cache import PredictionCache
from repro.placement.fleet import FleetState, Session
from repro.placement.policies import (
    CMFeasiblePolicy,
    MaxFPSPolicy,
    VBPFirstFitPolicy,
    WorstFitPolicy,
)
from repro.placement.signature import (
    colocation_key,
    entry_of,
    signature_add,
    signature_of,
)
from repro.serving import (
    DecisionEngine,
    FaultInjector,
    RequestBroker,
    TraceConfig,
    generate_trace,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)


def _array(data, shape, elements=finite):
    size = int(np.prod(shape))
    flat = data.draw(st.lists(elements, min_size=size, max_size=size))
    return np.asarray(flat, dtype=float).reshape(shape)


class TestBatchFeatureParity:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_padded_rows_match_scalar_rows_bitwise(self, data):
        # The batch row builder, fed what the predictor feeds it: every
        # member of colocations of *mixed* sizes 2-5 in one call, co-runners
        # in ascending member order, padded to the widest with values it
        # must ignore.  Bytes, not ``==``: a
        # co-runner sum of -0.0 has to stay -0.0.
        sizes = data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
        d = data.draw(st.integers(1, 4))
        qos = data.draw(positive)
        k = max(sizes) - 1
        junk = data.draw(finite)
        zeros = st.sampled_from([0.0, -0.0])
        sens, solo, co, counts, cm_rows, rm_rows = [], [], [], [], [], []
        for n in sizes:
            elements = data.draw(st.sampled_from([finite, zeros]))
            stack = _array(data, (n, NUM_RESOURCES), elements)
            for i in range(n):
                others = [stack[j] for j in range(n) if j != i]
                sens.append(_array(data, (d,)))
                solo.append(data.draw(positive))
                co.append(others + [np.full(NUM_RESOURCES, junk)] * (k - len(others)))
                counts.append(n - 1)
                cm_rows.append(cm_feature_vector(qos, solo[-1], sens[-1], others))
                rm_rows.append(rm_feature_vector(sens[-1], others))
        inputs = (np.asarray(sens), np.asarray(co), np.asarray(counts))
        built = (feature_rows(*inputs, qos, solo), feature_rows(*inputs))
        for X, rows in zip(built, (cm_rows, rm_rows)):
            assert X.shape == (sum(sizes), len(rows[0]))
            assert X.tobytes() == np.asarray(rows).tobytes()


def _fit_models():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(250, 6))
    y_reg = X[:, 0] - 2.0 * X[:, 1] + rng.normal(scale=0.2, size=250)
    y_bin = (X[:, 0] + X[:, 2] > 0).astype(int)
    # Three classes so bootstrap resamples can miss one, exercising the
    # classifier pack's class-order projection.
    y_multi = rng.integers(0, 3, size=250)
    return {
        "forest_reg": RandomForestRegressor(n_estimators=20, seed=1).fit(X, y_reg),
        "forest_clf": RandomForestClassifier(n_estimators=20, seed=2).fit(X, y_multi),
        "gbrt": GradientBoostingRegressor(n_estimators=30, seed=3).fit(X, y_reg),
        "gbdt": GradientBoostingClassifier(n_estimators=30, seed=4).fit(X, y_bin),
    }


MODELS = _fit_models()


class TestPackedEnsembleParity:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_forest_regressor_matches_tree_loop(self, data):
        n = data.draw(st.integers(1, 12))
        X = _array(data, (n, 6), elements=st.floats(-5, 5, allow_nan=False))
        model = MODELS["forest_reg"]
        expected = np.mean([t.predict(X) for t in model.estimators_], axis=0)
        assert np.array_equal(model.predict(X), expected)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_forest_classifier_matches_tree_loop(self, data):
        n = data.draw(st.integers(1, 12))
        X = _array(data, (n, 6), elements=st.floats(-5, 5, allow_nan=False))
        model = MODELS["forest_clf"]
        proba = np.zeros((n, model.classes_.shape[0]))
        for t in model.estimators_:
            cols = np.searchsorted(model.classes_, t.classes_)
            proba[:, cols] += t.predict_proba(X)
        proba /= model.n_estimators
        assert np.array_equal(model.predict_proba(X), proba)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_boosting_matches_stage_loop(self, data):
        n = data.draw(st.integers(1, 12))
        X = _array(data, (n, 6), elements=st.floats(-5, 5, allow_nan=False))
        for key, raw_of in (("gbrt", "predict"), ("gbdt", "decision_function")):
            model = MODELS[key]
            expected = np.full(n, model.init_)
            for t in model.estimators_:
                expected += model.learning_rate * t.predict(X)
            assert np.array_equal(getattr(model, raw_of)(X), expected)
            # One row on every run: the fold's single-row branch (a lone
            # surviving pair is a one-row batch) has a summation of its own.
            assert np.array_equal(getattr(model, raw_of)(X[:1]), expected[:1])


# After the fixed-trip kernel a single tree's ``predict`` *is* a pack of
# one, so the class above compares the kernel's folds with the kernel.
# The properties below pin the descent itself to a per-row, per-tree
# walk written here, over hand-built ragged ensembles.

#: Cell and threshold values share this grid so rows tie exactly on
#: thresholds; cells may also be non-finite.
GRID = [-2.0, -0.5, 0.0, 0.5, 2.0]
CELLS = st.sampled_from(GRID + [np.inf, -np.inf, np.nan])
WIDTH = 4


def _tree(feature, threshold, left, right, value):
    """A ``_Tree`` from plain node lists (``-1`` / NaN mark a leaf)."""
    return _Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=float),
        n_node_samples=np.ones(len(feature), dtype=np.int64),
    )


@st.composite
def _ragged_tree(draw, max_depth, d):
    """A random ``_Tree`` over ``WIDTH`` columns, at most ``max_depth`` deep."""
    feature, threshold, left, right = [], [], [], []

    def grow(depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        if depth < max_depth and draw(st.booleans()):
            feature[node] = draw(st.integers(0, WIDTH - 1))
            threshold[node] = draw(st.sampled_from(GRID))
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        return node

    grow(0)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return _tree(feature, threshold, left, right, rng.normal(size=(len(feature), d)))


@st.composite
def _ragged_ensemble(draw, d=1):
    """Mixed-depth trees plus, always, a stump (root is a leaf)."""
    depths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    trees = [draw(_ragged_tree(depth, d)) for depth in depths]
    trees.insert(draw(st.integers(0, len(trees))), draw(_ragged_tree(0, d)))
    return trees


def _walk(tree, row):
    """Reference descent: one row down one tree, one node at a time."""
    node = 0
    while tree.feature[node] != -1:
        if row[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return node


def _walked_leaves(trees, X):
    """Per-tree local leaf ids ``(n_trees, n)`` by the reference walk."""
    return np.asarray([[_walk(t, row) for row in X] for t in trees])


def _layouts(X):
    """``X`` as C-ordered, Fortran-ordered and a non-contiguous slice."""
    wide = np.full((2 * X.shape[0], X.shape[1] + 2), 777.0)
    wide[::2, 1:-1] = X
    return [X, np.asfortranarray(X), wide[::2, 1:-1]]


class TestFixedTripKernel:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_apply_matches_per_row_walk(self, data):
        trees = data.draw(_ragged_ensemble())
        n = data.draw(st.integers(1, 7))
        X = _array(data, (n, WIDTH), elements=CELLS)
        pack = pack_trees(trees)
        expected = _walked_leaves(trees, X) + pack.roots[:, None]
        assert pack.depth == max(t.packed().depth for t in trees)
        for layout in _layouts(X):
            leaves = pack.apply(layout)
            assert leaves.shape == (len(trees), n)
            assert np.array_equal(leaves, expected)
        for t, local in zip(trees, expected - pack.roots[:, None]):
            assert np.array_equal(t.apply(X), local)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_folds_match_per_tree_loops(self, data):
        d = data.draw(st.integers(1, 3))
        trees = data.draw(_ragged_ensemble(d))
        n = data.draw(st.integers(1, 5))
        X = _array(data, (n, WIDTH), elements=CELLS)
        per_tree = [t.value[leaf] for t, leaf in zip(trees, _walked_leaves(trees, X))]
        pack = pack_trees(trees)

        mean = np.mean([v[:, 0] for v in per_tree], axis=0)
        assert np.array_equal(pack.mean_predict(X), mean)

        total = np.zeros((n, d))
        for v in per_tree:
            total += v
        assert np.array_equal(pack.sum_values(X), total)

        boosted = np.full(n, 0.25)
        for v in per_tree:
            boosted += 0.1 * v[:, 0]
        # Boosting packs its leaves with the learning rate folded in.
        boosting = pack_trees(trees, [0.1 * t.value for t in trees])
        assert np.array_equal(boosting.boosted_predict(X, 0.25), boosted)
        # One row on every run (see test_boosting_matches_stage_loop).
        assert np.array_equal(pack.sum_values(X[:1]), total[:1])
        assert np.array_equal(boosting.boosted_predict(X[:1], 0.25), boosted[:1])

    def test_all_stump_pack_has_depth_zero_and_reads_no_column(self):
        stump = _tree([-1], [np.nan], [-1], [-1], [[3.0]])
        pack = pack_trees([stump, stump])
        assert (pack.depth, pack.width) == (0, 0)
        assert np.array_equal(pack.apply(np.empty((3, 0))), [[0, 0, 0], [1, 1, 1]])

    def test_too_narrow_X_raises_instead_of_reading_the_next_row(self):
        # Splits on column 2: a 2-column X's flat offset 0*2 + 2 is row
        # 1's first cell, which would send row 0 left instead of raising.
        tree = _tree(
            [2, -1, -1], [0.0, np.nan, np.nan], [1, -1, -1], [2, -1, -1],
            [[0.0], [1.0], [2.0]],
        )
        X = np.asarray([[5.0, 5.0, 5.0], [-5.0, -5.0, -5.0]])
        assert np.array_equal(tree.apply(X), [2, 1])
        for apply in (tree.apply, pack_trees([tree, tree]).apply):
            with pytest.raises(IndexError, match="column 2"):
                apply(X[:, :2])


# A model fitted on standardized rows serves raw ones through
# ``estimator.compiled(mean, scale)``: the fold over a pack whose
# thresholds were moved into raw feature space.  The properties below pin
# it, bitwise, to ``estimator.predict(scaler.transform(X))`` at the floats
# where a moved threshold could be off by one: either side of every
# folded threshold, signed zeros, subnormals and magnitudes whose
# standardization overflows (which both forms must reject).

#: Raw columns of very different location and spread, plus a constant
#: one (the scaler's sigma = 0 -> 1 case).
RAW_MEAN = np.array([0.0, 1e6, -5.0, 3e-7, 42.0, 0.0])
RAW_SCALE = np.array([1.0, 2.5e4, 1e-3, 1e-9, 0.0, 7.0])
EXTREMES = [0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308,
            -2.2250738585072014e-308, np.finfo(float).max, -np.finfo(float).max]


def _fit_scaled_models():
    rng = np.random.default_rng(11)
    raw = RAW_MEAN + RAW_SCALE * rng.normal(size=(200, RAW_MEAN.shape[0]))
    scaler = StandardScaler().fit(raw)
    Z = scaler.transform(raw)
    y_reg = Z[:, 0] - 2.0 * Z[:, 1] + Z[:, 3] + rng.normal(scale=0.2, size=200)
    y_bin = (Z[:, 0] + Z[:, 2] - Z[:, 5] > 0).astype(int)
    y_multi = rng.integers(0, 3, size=200)
    models = {
        "gbdt": GradientBoostingClassifier(n_estimators=20, seed=4).fit(Z, y_bin),
        "gbrt": GradientBoostingRegressor(n_estimators=20, seed=3).fit(Z, y_reg),
        "forest_reg": RandomForestRegressor(n_estimators=8, seed=1).fit(Z, y_reg),
        "forest_clf": RandomForestClassifier(n_estimators=8, seed=2).fit(Z, y_multi),
        "tree_reg": DecisionTreeRegressor(max_depth=6).fit(Z, y_reg),
        "tree_clf": DecisionTreeClassifier(max_depth=6).fit(Z, y_multi),
    }
    return scaler, raw, models


SCALER, RAW, SCALED_MODELS = _fit_scaled_models()


def _probe_rows(pack, base):
    """One row per (internal node, probe): ``base`` cycled, with the node's
    column at its folded threshold and at both neighbouring floats."""
    internal = np.isfinite(pack.threshold)  # leaves hold +inf
    columns, values = pack.feature[internal], pack.threshold[internal]
    probes = [values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)]
    columns, values = np.tile(columns, 3), np.concatenate(probes)
    rows = base[np.arange(values.shape[0]) % base.shape[0]].copy()
    rows[np.arange(values.shape[0]), columns] = values
    return rows


def _assert_compiled_exact(estimator, scaler, X):
    """``estimator.compiled`` on raw ``X`` is ``estimator.predict`` on the
    standardized ``X``, bitwise: row by row where that standardization
    overflows (both raise), as one batch over the other rows."""
    compiled = estimator.compiled(scaler.mean_, scaler.scale_)
    with np.errstate(over="ignore"):
        finite = np.isfinite((X - scaler.mean_) / scaler.scale_).all(axis=1)
    for row in X[~finite]:
        with pytest.raises(ValueError, match="NaN or infinity"), np.errstate(over="ignore"):
            estimator.predict(scaler.transform(row[None]))
        with pytest.raises(ValueError, match="NaN or infinity"):
            compiled(row[None])
    X = X[finite]
    if X.shape[0]:
        expected = estimator.predict(scaler.transform(X))
        assert compiled(X).tobytes() == expected.tobytes()
        if hasattr(estimator, "decision_function"):
            # GBDT raw scores: the lr-folded pack's sum is the stage loop's.
            raw = estimator._raw(estimator._packed().folded(
                scaler.mean_, scaler.scale_), X)
            assert raw.tobytes() == estimator.decision_function(
                scaler.transform(X)).tobytes()


class TestFoldedThresholds:
    @pytest.mark.parametrize("name", sorted(SCALED_MODELS))
    def test_every_folded_threshold_and_its_neighbours(self, name):
        estimator = SCALED_MODELS[name]
        folded = estimator._packed().folded(SCALER.mean_, SCALER.scale_)
        _assert_compiled_exact(estimator, SCALER, _probe_rows(folded, RAW[:40]))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_extremes_and_random_rows(self, data):
        name = data.draw(st.sampled_from(sorted(SCALED_MODELS)))
        estimator = SCALED_MODELS[name]
        folded = estimator._packed().folded(SCALER.mean_, SCALER.scale_)
        cuts = folded.threshold[np.isfinite(folded.threshold)]
        cut = st.sampled_from(cuts.tolist()).flatmap(
            lambda t: st.sampled_from(
                [t, float(np.nextafter(t, np.inf)), float(np.nextafter(t, -np.inf))]
            )
        )
        cell = st.one_of(
            st.sampled_from(EXTREMES),
            cut,
            st.floats(allow_nan=False, allow_infinity=False),
        )
        n = data.draw(st.integers(1, 6))
        X = RAW[data.draw(st.lists(st.integers(0, len(RAW) - 1), min_size=n,
                                   max_size=n))].copy()
        for r in range(n):
            for c in data.draw(st.sets(st.integers(0, X.shape[1] - 1), max_size=3)):
                X[r, c] = data.draw(cell)
        _assert_compiled_exact(estimator, SCALER, X)

    @pytest.mark.parametrize("kind", ["cm", "rm"])
    def test_bundle_models_fold_exactly(self, minilab, kind):
        model = minilab.cm_model if kind == "cm" else minilab.rm_model
        base = minilab.split(60.0)[1 if kind == "cm" else 3].X
        estimator, scaler = model.estimator, model._scaler
        folded = estimator._packed().folded(scaler.mean_, scaler.scale_)
        rows = [_probe_rows(folded, base)]
        for value in EXTREMES:
            extreme = base[:len(EXTREMES)].copy()
            extreme[np.arange(len(EXTREMES)), np.arange(len(EXTREMES))] = value
            rows.append(extreme)
        _assert_compiled_exact(estimator, scaler, np.vstack(rows))

    @pytest.mark.parametrize("name", sorted(SCALED_MODELS))
    def test_identity_scaler_keeps_every_threshold(self, name):
        pack = SCALED_MODELS[name]._packed()
        width = RAW_MEAN.shape[0]
        folded = pack.folded(np.zeros(width), np.ones(width))
        assert np.array_equal(folded.threshold, pack.threshold)
        assert folded.children is pack.children and folded.value is pack.value

    def test_unbounded_domain_still_rejects_non_finite_cells(self):
        # With mean 0 and scale 1 every finite float standardizes finitely;
        # the range test must still turn NaN and +-inf away.
        estimator = MODELS["gbdt"]
        compiled = estimator.compiled(np.zeros(6), np.ones(6))
        X = np.zeros((2, 6))
        assert np.array_equal(compiled(X), estimator.predict(X))
        for value in (np.nan, np.inf, -np.inf):
            X[1, 4] = value
            with pytest.raises(ValueError, match="NaN or infinity"):
                compiled(X)

    def test_empty_and_full_down_sets_fold_to_infinities(self):
        # With sigma = 1e300 every finite x standardizes into (-1.8e8,
        # 1.8e8): none reaches t = -1e10, all reach t = 1e10.
        mean, scale = np.array([0.0]), np.array([1e300])
        feature = np.zeros(3, dtype=np.int64)
        folded = raw_thresholds(feature, np.array([-1e10, 1e10, 0.5]), mean, scale)
        assert folded[0] == -np.inf and folded[1] == np.inf
        assert folded[2] / 1e300 <= 0.5 < np.nextafter(folded[2], np.inf) / 1e300
        with pytest.raises(ValueError, match="positive scale"):
            raw_thresholds(feature[:1], np.array([0.0]), mean, np.array([0.0]))


GAMES = ["dota2", "csgo", "hl2", "tf2"]
RESOLUTIONS = [Resolution(1920, 1080), Resolution(1280, 720)]

fleet_ops = st.lists(
    st.tuples(
        st.sampled_from(["place_new", "place_join", "depart", "crash"]),
        st.integers(0, 10 ** 6),
    ),
    min_size=1,
    max_size=40,
)


class TestIncrementalSignatureParity:
    @given(fleet_ops)
    @settings(max_examples=60, deadline=None)
    def test_signatures_match_recomputation(self, ops):
        fleet = FleetState()
        clock = 0.0
        for op, r in ops:
            if op == "place_new" or fleet.n_open == 0:
                session = Session(
                    GAMES[r % len(GAMES)],
                    RESOLUTIONS[r % len(RESOLUTIONS)],
                    arrival=clock,
                    duration=1.0 + (r % 7),
                )
                fleet.place(None, session)
            elif op == "place_join":
                session = Session(
                    GAMES[r % len(GAMES)],
                    RESOLUTIONS[(r // 2) % len(RESOLUTIONS)],
                    arrival=clock,
                    duration=1.0 + (r % 5),
                )
                fleet.place(r % fleet.n_open, session)
            elif op == "depart":
                clock += 1.0 + (r % 3)
                fleet.pop_departures(clock)
            else:
                fleet.crash(fleet.server_ids()[r % fleet.n_open])
            recomputed = [
                signature_of(fleet.members(sid)) for sid in fleet.server_ids()
            ]
            assert fleet.signatures() == recomputed


# ----------------------------------------------------------------------
# The signature index: the fleet's groups equal a from-scratch grouping,
# and a grouped policy scan equals a straight-line per-server scan.

ENTRIES = [(game, res) for game in GAMES[:3] for res in RESOLUTIONS]
QOS = 60.0


def _score(entries) -> int:
    """A pure, order-insensitive stand-in for "what the models think"."""
    return sum((GAMES.index(g) + 2) * (r.width // 640 + 1) for g, r in entries)


class _FakePredictor:
    """Deterministic CM/RM answers that are a function of the multiset only."""

    def colocations_feasible(self, specs, qos):
        return np.array([(_score(s.entries) + int(qos)) % 3 != 0 for s in specs])

    def predict_fps_batch(self, specs):
        return [
            [50.0 + (_score(s.entries) * (i + 3)) % 23 for i in range(s.size)]
            for s in specs
        ]


class _FakeVBP:
    """Pure fit/slack answers with plenty of ties."""

    def fits_after_adding(self, spec, game, resolution):
        base = _score(spec.entries) if spec is not None else 0
        return (base + _score(((game, resolution),))) % 4 != 0

    def remaining_capacity(self, spec):
        return 7.0 - (_score(spec.entries) % 3 if spec is not None else 0)


class _RecordingCache(PredictionCache):
    """A real LRU that also logs every probe and store, in order.

    ``stores`` logs the misses and puts alone: what a verdict memo, which
    may skip probes of cached keys, must leave unchanged.
    """

    def __init__(self, capacity=64):
        super().__init__(capacity)
        self.log = []
        self.stores = []

    def lookup(self, key, default=None):
        self.log.append(("lookup", key))
        if key not in self:
            self.stores.append(("miss", key))
        return super().lookup(key, default)

    def lookup_many(self, keys, default=None):
        keys = list(keys)
        self.log.extend(("lookup", key) for key in keys)
        self.stores.extend(("miss", key) for key in keys if key not in self)
        return super().lookup_many(keys, default)

    def put(self, key, value):
        self.log.append(("put", key))
        self.stores.append(("put", key))
        super().put(key, value)


def _probed(log):
    """The keys a cache log probed."""
    return {key for event, key in log if event == "lookup"}


def _linear_resolve(cache, candidates, floor, query, policy=None):
    """Cache-then-one-batch over per-server candidates, repeats skipped."""
    values, unknown = {}, []
    for candidate in candidates:
        if candidate in values or candidate in unknown:
            continue
        hit = cache.lookup(colocation_key(candidate, floor), None)
        if hit is not None:
            values[candidate] = hit
        else:
            unknown.append(candidate)
    if unknown:
        answers = query([ColocationSpec(c) for c in unknown])
        for candidate, value in zip(unknown, answers):
            values[candidate] = value
            cache.put(colocation_key(candidate, floor), value)
    elif getattr(policy, "telemetry", None) is not None:
        name = "predict_cache_shortcuts"
        policy.telemetry.counter(name, policy=policy.name).inc()
    return values


def _linear_candidates(pool, session, limit):
    entry = entry_of(session)
    return [
        (i, signature_add(sig, entry)) for i, sig in enumerate(pool) if len(sig) < limit
    ]


def _linear_verdicts(policy, signatures):
    floor = policy.qos * policy.margin

    def query(specs):
        return [bool(v) for v in policy.predictor.colocations_feasible(specs, floor)]

    return _linear_resolve(policy.cache, signatures, floor, query, policy)


def linear_cm(policy, pool, session):
    """Fullest feasible server, lowest pool index on ties — one server at a time."""
    candidates = _linear_candidates(pool, session, policy.max_colocation)
    verdicts = _linear_verdicts(policy, [c for _, c in candidates])
    best, best_size = None, -1
    for i, candidate in candidates:
        if verdicts[candidate] and len(pool[i]) > best_size:
            best, best_size = i, len(pool[i])
    return best


def linear_max_fps(policy, pool, session):
    """Feasible server with the highest predicted total FPS, first on ties."""

    def query(specs):
        out = policy.predictor.predict_fps_batch(specs)
        return [tuple(float(v) for v in values) for values in out]

    candidates = _linear_candidates(pool, session, policy.max_colocation)
    fps = _linear_resolve(policy.cache, [c for _, c in candidates], None, query)
    best, best_total = None, -np.inf
    for i, candidate in candidates:
        values = fps[candidate]
        if min(values) >= policy.qos and sum(values) > best_total:
            best, best_total = i, sum(values)
    return best


def _linear_fits(policy, pool, session):
    for i, sig in enumerate(pool):
        if len(sig) >= policy.max_colocation:
            continue
        spec = ColocationSpec(sig) if sig else None
        if policy.vbp.fits_after_adding(spec, session.game, session.resolution):
            yield i, spec


def linear_worst_fit(policy, pool, session):
    """Fitting server with the most slack, first on ties."""
    best, best_slack = None, -np.inf
    for i, spec in _linear_fits(policy, pool, session):
        slack = policy.vbp.remaining_capacity(spec)
        if slack > best_slack:
            best, best_slack = i, slack
    return best


def linear_first_fit(policy, pool, session):
    """First fitting server in pool order."""
    return next((i for i, _ in _linear_fits(policy, pool, session)), None)


def _make_policies():
    """Fresh ``(policy, straight-line reference)`` pairs for all four scans."""
    predictor, vbp = _FakePredictor(), _FakeVBP()
    return [
        (CMFeasiblePolicy(predictor, QOS, cache=_RecordingCache(), margin=1.1), linear_cm),
        (MaxFPSPolicy(predictor, QOS, cache=_RecordingCache()), linear_max_fps),
        (WorstFitPolicy(vbp), linear_worst_fit),
        (VBPFirstFitPolicy(vbp), linear_first_fit),
    ]


def _arrival(r: int) -> Session:
    game, resolution = ENTRIES[r % len(ENTRIES)]
    return Session(game, resolution, arrival=0.0, duration=1.0 + r % 5)


def _fleet_hosting(pool, decoys):
    """A fleet whose pool is exactly ``pool``, with id gaps where decoys crashed."""
    fleet = FleetState()
    doomed = []
    for position, sig in enumerate(pool):
        if position in decoys:
            doomed.append(fleet.place(None, _arrival(position)))
        for n, (game, resolution) in enumerate(sig):
            session = Session(game, resolution, arrival=0.0, duration=2.0 + n)
            fleet.place(None if n == 0 else fleet.n_open - 1, session)
    for server_id in doomed:
        fleet.crash(server_id)
    return fleet


signatures_st = st.lists(st.sampled_from(ENTRIES), min_size=0, max_size=4).map(
    lambda entries: tuple(sorted(entries))
)
pools_st = st.lists(signatures_st, min_size=0, max_size=14)
index_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["place_new", "place_join", "depart", "crash", "resolution", "probe"]
        ),
        st.integers(0, 10 ** 6),
    ),
    min_size=1,
    max_size=50,
)


class TestSignatureIndexParity:
    @given(index_ops)
    @settings(max_examples=80, deadline=None)
    def test_index_matches_regrouping_under_mutation(self, ops):
        fleet = FleetState()
        policy = CMFeasiblePolicy(_FakePredictor(), QOS, cache=PredictionCache(64))
        clock, highest, before = 0.0, -1, {}
        for op, r in ops:
            if op == "probe":
                pool = fleet.signature_view()
                assert policy.select(pool, _arrival(r)) == linear_cm(
                    policy, list(pool), _arrival(r)
                )
            elif op == "place_new" or fleet.n_open == 0:
                session = _arrival(r)
                server_id = fleet.place(None, Session(
                    session.game, session.resolution, clock, session.duration
                ))
                # Ids are monotonic: never reused, always the largest so far.
                assert server_id > highest
                highest = server_id
            elif op == "place_join":
                session = _arrival(r // 3)
                fleet.place(r % fleet.n_open, Session(
                    session.game, session.resolution, clock, session.duration
                ))
            elif op == "depart":
                clock += 1.0 + (r % 3)
                fleet.pop_departures(clock)
            elif op == "crash":
                fleet.crash(fleet.server_ids()[r % fleet.n_open])
            else:
                server_id = fleet.server_ids()[r % fleet.n_open]
                member_id, old = fleet._servers[server_id][0]
                fleet.update_resolution(server_id, member_id, Session(
                    old.game, RESOLUTIONS[r % 2], old.arrival, old.duration
                ))
            index = fleet._index
            # ... so pool order is ascending id, and a position is a bisect.
            assert fleet.server_ids() == sorted(fleet.server_ids()) == index.ids
            regrouped = {}
            for server_id, sig in zip(fleet.server_ids(), fleet.signatures()):
                regrouped.setdefault(sig, []).append(server_id)
            assert {s: g.ids for s, g in index.groups.items()} == regrouped
            assert all(g.signature == s for s, g in index.groups.items())
            for sig, group in index.groups.items():
                # A group that was not there a step ago starts without a
                # memo: entries live and die with their group.
                if op != "probe" and before.get(sig) is not group:
                    assert not group.memo
                for arrival, memo in group.memo.items():
                    candidate, key, generation, verdict = memo
                    ((game, width, height),), floor = arrival
                    entry = (game, Resolution(width, height))
                    assert candidate == signature_add(sig, entry)
                    assert key == colocation_key(candidate, floor)
                    if generation is None:
                        assert verdict is None
                        continue
                    # A stamped verdict is the CM's answer for the candidate
                    # and, while the cache is at its generation, the value
                    # a probe of its key would return.
                    assert verdict == policy._query([ColocationSpec(candidate)])[0]
                    if generation == policy.cache.generation:
                        assert policy.cache._store[key] == verdict
            before = dict(index.groups)

    @given(pools_st, st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4), st.data())
    @settings(max_examples=120, deadline=None)
    def test_grouped_select_matches_linear_scan(self, pool, arrivals, data):
        hosted = [sig for sig in pool if sig]
        decoys = data.draw(st.sets(st.integers(0, max(len(hosted) - 1, 0))))
        fleet = _fleet_hosting(hosted, decoys)
        assert fleet.signatures() == hosted
        # A plain list (lifted at the boundary) and a fleet's own pool.
        for present, straight in ((lambda: pool, pool), (fleet.signature_view, hosted)):
            for (policy, linear), (reference, _) in zip(
                _make_policies(), _make_policies()
            ):
                # Several arrivals through one cache: the group memo may
                # skip probes of keys the cache holds, never add a probe,
                # and never change a miss or a store.
                log = getattr(getattr(policy, "cache", None), "log", None)
                for r in arrivals:
                    session = _arrival(r)
                    if log is not None:
                        mark, reference_mark = len(log), len(reference.cache.log)
                    expected = linear(reference, straight, session)
                    assert policy.select(present(), session) == expected
                    if log is not None:
                        assert _probed(log[mark:]) <= _probed(
                            reference.cache.log[reference_mark:]
                        )
                if log is not None:
                    assert policy.cache.evictions == reference.cache.evictions == 0
                    assert policy.cache.stores == reference.cache.stores


class _CountingPredictor(_FakePredictor):
    """The fake models, counting the batched calls made to them."""

    calls = 0

    def colocations_feasible(self, specs, qos):
        self.calls += 1
        return super().colocations_feasible(specs, qos)

    def predict_fps_batch(self, specs):
        self.calls += 1
        return super().predict_fps_batch(specs)


memo_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["arrive", "arrive", "arrive", "depart", "crash", "resolution"]
        ),
        st.integers(0, 10 ** 6),
    ),
    min_size=1,
    max_size=60,
)


class TestVerdictMemoParity:
    """The fleet's groups keep verdicts across arrivals and mutations.

    A serving-shaped run — arrivals placed where the policy says, plus
    departures, crashes and resolution changes — through a plain
    ``PredictionCache``, next to the straight-line reference on a cache
    of its own with the same capacity.
    """

    @given(memo_ops, st.sampled_from([0, 3, 8, 64]), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_memo_path_matches_the_probing_scan(self, ops, capacity, use_rm):
        predictor = _CountingPredictor()
        kind, linear, knobs = (
            (MaxFPSPolicy, linear_max_fps, {})
            if use_rm
            else (CMFeasiblePolicy, linear_cm, {"margin": 1.1})
        )
        policy, reference = (
            kind(p, QOS, cache=_RecordingCache(capacity), **knobs)
            for p in (predictor, _FakePredictor())
        )
        log, reference_log = policy.cache.log, reference.cache.log
        fleet, clock = FleetState(), 0.0
        for op, r in ops:
            if op == "arrive" or fleet.n_open == 0:
                session = _arrival(r)
                pool = fleet.signature_view()
                mark, reference_mark = len(log), len(reference_log)
                calls = predictor.calls
                choice = policy.select(pool, session)
                assert choice == linear(reference, list(pool), session)
                # Every probe is one the reference makes at this arrival.
                assert _probed(log[mark:]) <= _probed(reference_log[reference_mark:])
                # While nothing was evicted, misses and stores are in lockstep.
                if policy.cache.evictions == reference.cache.evictions == 0:
                    assert policy.cache.stores == reference.cache.stores
                # Nothing is ever stamped without a cache: the models answer.
                limit = policy.max_colocation
                if capacity == 0 and any(len(sig) < limit for sig in pool):
                    assert predictor.calls == calls + 1
                # A verdict stamped at the cache's current generation is
                # still cached, with that value: it stands for a probe.
                cache = policy.cache
                for group in fleet._index.groups.values():
                    for _, key, generation, verdict in group.memo.values():
                        if generation == cache.generation:
                            assert key in cache and cache._store[key] == verdict
                fleet.place(choice, Session(
                    session.game, session.resolution, clock, session.duration
                ))
            elif op == "depart":
                clock += 1.0 + (r % 3)
                fleet.pop_departures(clock)
            elif op == "crash":
                fleet.crash(fleet.server_ids()[r % fleet.n_open])
            else:
                server_id = fleet.server_ids()[r % fleet.n_open]
                member_id, old = fleet._servers[server_id][0]
                fleet.update_resolution(server_id, member_id, Session(
                    old.game, RESOLUTIONS[r % 2], old.arrival, old.duration
                ))


class _LinearCMFeasible(CMFeasiblePolicy):
    """``cm-feasible`` deciding by the straight-line per-server scan."""

    def select(self, signatures, session):
        return linear_cm(self, list(signatures), session)

    def group_feasible(self, signature):
        if len(signature) > self.max_colocation:
            return False
        return _linear_verdicts(self, [signature])[signature]


class _LinearWorstFit(WorstFitPolicy):
    """``worst-fit`` deciding by the straight-line per-server scan."""

    def select(self, signatures, session):
        return linear_worst_fit(self, list(signatures), session)


class TestGroupedScanUnderChaos:
    """A ``ledger_churn``-shaped run decides, counts and draws identically.

    Crashes and readmissions, predictor errors, a downscale
    ladder with its restore loop, and the QoS ledger over an evicting
    cache: an extra or missing predictor call shifts the fault RNG stream,
    so equal reports mean the grouped scan asks the predictor the same
    questions in the same order as the per-server one, not just that it
    makes the same choices.  The group verdict memo stays on under faults,
    so the grouped scan probes the cache less: every probe it makes is one
    the reference makes, and only the cache's hits differ.
    """

    def _report(self, minilab, cm_policy, worst_fit):
        from tests.test_serving_degrade import LADDER, normalized

        telemetry = Telemetry()
        injector = FaultInjector(0.03, seed=13, telemetry=telemetry)
        controller = DecisionEngine(
            cm_policy(
                injector.wrap_predictor(minilab.predictor),
                45.0,
                cache=PredictionCache(96),
                margin=1.05,
            ),
            fallback=worst_fit(minilab.vbp),
            telemetry=telemetry,
            downscale_ladder=LADDER,
        )
        ledger = QoSLedger(
            minilab.catalog, minilab.predictor, slo_fps=45.0, server=minilab.server
        )
        broker = RequestBroker(
            controller, crash_rate=0.03, crash_seed=13, ledger=ledger,
            restore_interval=16,
        )
        trace = TraceConfig(n_requests=320, arrival_rate=9.0, mean_duration=25.0, seed=13)
        sessions = generate_trace(minilab.predictor.db.names(), trace)
        return normalized(broker.run(list(sessions)).to_dict())

    def test_same_report_as_the_per_server_scan(self, minilab):
        grouped = self._report(minilab, CMFeasiblePolicy, WorstFitPolicy)
        linear = self._report(minilab, _LinearCMFeasible, _LinearWorstFit)
        counters = grouped["telemetry"]["counters"]
        for exercised in (
            "server_crashes", "readmissions", "faults_error", "fallbacks",
            "restore_queries",
        ):
            assert counters.get(exercised, 0) > 0, exercised
        caches = grouped["telemetry"].pop("caches")
        reference = linear["telemetry"].pop("caches")
        memo, probed = caches["cm-feasible"], reference["cm-feasible"]
        assert memo["evictions"] > 0 and memo["hits"] <= probed["hits"]
        for stats in (memo, probed):
            del stats["hits"], stats["hit_rate"]
        assert caches == reference
        assert grouped["placements"] == linear["placements"]
        assert grouped == linear
