"""Property-based tests over the simulator on random colocations."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.suite import make_benchmark
from repro.games import build_catalog
from repro.games.game import StageInflationModel
from repro.games.resolution import NAMED_RESOLUTIONS
from repro.hardware.contention import ContentionModel
from repro.hardware.resources import NUM_RESOURCES, Resource
from repro.simulator import (
    BenchmarkInstance,
    ColocationEngine,
    GameInstance,
    run_colocation,
    run_colocations,
)
from tests import _reference_simulator as reference

CATALOG = build_catalog()
NAMES = CATALOG.names()

name_sets = st.lists(
    st.sampled_from(NAMES), min_size=1, max_size=4, unique=True
)


@st.composite
def colocations(draw):
    names = draw(name_sets)
    return [GameInstance(CATALOG.get(n)) for n in names]


class TestSteadyStateProperties:
    @given(colocations())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_fixed_point_invariants(self, workloads):
        state = ColocationEngine().steady_state(workloads)
        assert state.converged
        assert np.all(state.rate_factors > 0.0)
        assert np.all(state.rate_factors <= 1.0 + 1e-9)
        assert np.all(state.pressures >= 0.0)
        assert np.all(state.pressures <= 1.0 + 1e-9)
        assert np.all(state.stage_inflations >= 1.0 - 1e-12)

    @given(colocations())
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_order_invariance(self, workloads):
        """Contention physics cannot depend on workload list order."""
        state_fwd = ColocationEngine().steady_state(list(workloads))
        state_rev = ColocationEngine().steady_state(list(reversed(workloads)))
        assert np.allclose(
            np.sort(state_fwd.rate_factors), np.sort(state_rev.rate_factors),
            atol=1e-6,
        )

    @given(colocations())
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_measurement_deterministic(self, workloads):
        a = run_colocation(list(workloads))
        b = run_colocation(list(workloads))
        assert a.fps == b.fps

    @given(st.sampled_from(NAMES), name_sets)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_corunners_never_speed_a_game_up(self, target, others):
        target_instance = GameInstance(CATALOG.get(target))
        co = [GameInstance(CATALOG.get(n)) for n in others if n != target]
        solo = run_colocation([target_instance])
        coloc = run_colocation([target_instance] + co)
        # 6% slack: measurement noise of two independent runs.
        assert coloc.fps[0] <= solo.fps[0] * 1.06


# ----------------------------------------------------------------------
# The array-program solver against the straight-line loops it replaced.

RESOLUTIONS = sorted(set(NAMED_RESOLUTIONS.values()), key=lambda r: r.pixels)
STATE_ARRAYS = (
    "pressures", "rate_factors", "stage_inflations", "frame_times_ms", "slowdowns",
)

game_instances = st.builds(
    lambda name, res: GameInstance(CATALOG.get(name), res),
    st.sampled_from(NAMES),
    st.sampled_from(RESOLUTIONS),
)
bench_instances = st.builds(
    lambda res, dial: BenchmarkInstance(make_benchmark(res, dial)),
    st.sampled_from(list(Resource)),
    # Dial 1.0 saturates the target column (the np.delete fallback).
    st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
)
engines = st.builds(
    lambda damping, feedback: (
        ColocationEngine(damping=damping, rate_feedback=feedback),
        reference.ReferenceEngine(damping=damping, rate_feedback=feedback),
    ),
    st.sampled_from([0.3, 0.5, 1.0]),
    st.sampled_from([0.0, 0.5, 1.0]),
)


def assert_states_equal(got, want):
    """Every SteadyState field equal to the last bit (NaNs included)."""
    for name in STATE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert (got.converged, got.iterations) == (want.converged, want.iterations)
    assert got.thrash == want.thrash


def assert_same_state(workloads, engine=None, oracle=None):
    got = (engine or ColocationEngine()).steady_state(workloads)
    assert_states_equal(
        got, (oracle or reference.ReferenceEngine()).steady_state(workloads)
    )
    return got


class TestArrayFixedPoint:
    # n up to 12 puts columns on both sides of numpy's 8-element switch
    # from a sequential to a pairwise sum.
    @given(
        st.lists(st.one_of(game_instances, bench_instances), min_size=1, max_size=12),
        engines,
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mixed_colocations_bitwise(self, workloads, pair):
        assert_same_state(workloads, *pair)

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 8, 9, 12])
    def test_games_only_bitwise(self, n):
        workloads = [
            GameInstance(CATALOG.get(NAMES[(5 * i) % len(NAMES)]), RESOLUTIONS[i % len(RESOLUTIONS)])
            for i in range(n)
        ]
        state = assert_same_state(workloads)
        assert not np.isnan(state.frame_times_ms).any()

    @pytest.mark.parametrize("n", [1, 3, 8, 11])
    def test_benchmarks_only_bitwise_and_silent(self, n):
        workloads = [
            BenchmarkInstance(make_benchmark(Resource(i % 7), 0.1 + 0.05 * i))
            for i in range(n)
        ]
        # No game rows: the solver must not evaluate 0/0 (or anything
        # else that raises a floating-point flag) on their behalf.
        with np.errstate(all="raise"):
            state = assert_same_state(workloads)
        assert state.converged and state.iterations == 1
        assert np.array_equal(state.stage_inflations, np.ones((n, 3)))
        assert np.isnan(state.frame_times_ms).all()
        assert np.array_equal(state.rate_factors, np.ones(n))

    def test_one_title_twice_at_two_resolutions(self):
        spec = CATALOG.get(NAMES[3])
        workloads = [
            GameInstance(spec, RESOLUTIONS[0]),
            GameInstance(CATALOG.get(NAMES[8])),
            GameInstance(spec, RESOLUTIONS[3]),
        ]
        state = assert_same_state(workloads)
        assert state.frame_times_ms[0] != state.frame_times_ms[2]

    @pytest.mark.parametrize("resource", [Resource.CPU_CE, Resource.GPU_CE])
    def test_saturated_compute_column(self, resource):
        workloads = [
            GameInstance(CATALOG.get(NAMES[0])),
            BenchmarkInstance(make_benchmark(resource, 1.0)),
            GameInstance(CATALOG.get(NAMES[1])),
            BenchmarkInstance(make_benchmark(resource, 0.4)),
        ]
        state = assert_same_state(workloads)
        assert state.pressures[0, int(resource)] == 1.0

    def test_measured_fps_unchanged(self):
        workloads = [GameInstance(CATALOG.get(n)) for n in NAMES[:3]]
        got = run_colocation(workloads)
        want = run_colocation(workloads, engine=reference.ReferenceEngine())
        assert got.fps == want.fps

    @given(
        st.integers(0, 16),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["C", "F", "sliced"]),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_leave_one_out_bitwise(self, n, seed, layout, saturate):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-0.1, 1.1, size=(n, NUM_RESOURCES))
        if saturate and n:
            u[rng.integers(n), rng.choice([0, 3])] = 1.0
        if layout == "F":
            u = np.asfortranarray(u)
        elif layout == "sliced":
            u = np.repeat(u, 2, axis=0)[::2]
        model = ContentionModel()
        got = model.pressures_leave_one_out(u)
        want = reference.leave_one_out(model, u)
        assert got.shape == want.shape == (n, NUM_RESOURCES)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "shape", [(3, 8), (3, 6), (7,), (2, 7, 1), (0, 6)], ids=str
    )
    def test_leave_one_out_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError, match=r"expected shape \(n, 7\)"):
            ContentionModel().pressures_leave_one_out(np.zeros(shape))

    @given(st.lists(st.sampled_from(NAMES), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_one_row_is_a_row_of_the_batch(self, names, seed):
        specs = [CATALOG.get(name) for name in names]
        pressures = np.random.default_rng(seed).uniform(-0.1, 1.1, (len(specs), 7))
        batch = StageInflationModel(specs)(pressures)
        for i, spec in enumerate(specs):
            row = spec.stage_inflations(pressures[i])
            assert row == tuple(batch[i])
            assert row == reference.stage_inflations(spec, pressures[i])

    def test_batch_rejects_misshapen_pressures(self):
        model = StageInflationModel([CATALOG.get(NAMES[0]), CATALOG.get(NAMES[1])])
        for bad in (np.zeros((2, 6)), np.zeros((3, 7)), np.zeros(7)):
            with pytest.raises(IndexError, match="expected pressures of shape"):
                model(bad)


# ----------------------------------------------------------------------
# The batch solver against the same loops, one colocation at a time.

batch_engines = st.builds(
    lambda damping, feedback, budget: (
        ColocationEngine(
            damping=damping, rate_feedback=feedback, max_iterations=budget
        ),
        reference.ReferenceEngine(
            damping=damping, rate_feedback=feedback, max_iterations=budget
        ),
    ),
    st.sampled_from([0.3, 0.5, 1.0]),
    st.sampled_from([0.0, 0.5, 1.0]),
    # 3 stops most colocations unconverged, at the same iteration count.
    st.sampled_from([3, 60]),
)


def colocation_lists(max_size):
    return st.lists(
        st.one_of(game_instances, bench_instances), min_size=1, max_size=max_size
    )


class TestBatchFixedPoint:
    """``steady_states`` gives each colocation what solving it alone gives.

    The ledger hands it whatever compositions happen to be pending and the
    profiler a whole sweep; neither may see a digit depend on the company
    a colocation kept.  Sizes 1-4 share one zero-padded state; the wider
    strangers land on both sides of numpy's 8-addend switch to pairwise
    summation, where padding would re-pair a sum.
    """

    @given(
        st.lists(colocation_lists(4), min_size=1, max_size=7),
        st.lists(colocation_lists(12), max_size=3),
        batch_engines,
        st.data(),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_each_colocation_as_if_alone(self, batch, strangers, pair, data):
        engine, oracle = pair
        # The same colocation twice in one batch, as two servers with one
        # composition are in one flush.
        batch = batch + [list(batch[data.draw(st.integers(0, len(batch) - 1))])]
        want = [oracle.steady_state(workloads) for workloads in batch]
        for got, expected in zip(engine.steady_states(batch), want, strict=True):
            assert_states_equal(got, expected)

        order = data.draw(st.permutations(range(len(batch))))
        permuted = engine.steady_states([batch[i] for i in order])
        for got, i in zip(permuted, order, strict=True):
            assert_states_equal(got, want[i])

        grown = engine.steady_states(strangers + batch)
        for got, expected in zip(grown[len(strangers):], want, strict=True):
            assert_states_equal(got, expected)

    def test_saturated_corunner_stays_in_its_own_colocation(self):
        saturating = make_benchmark(Resource.GPU_CE, 1.0)
        assert 1.0 - saturating.utilization().values[int(Resource.GPU_CE)] <= 1e-12
        games = [GameInstance(CATALOG.get(name)) for name in NAMES[:4]]
        batch = [
            [games[0], BenchmarkInstance(saturating), games[1]],
            [games[0]],
            [games[0], games[1], games[2], games[3]],
            [BenchmarkInstance(saturating), games[2]],
        ]
        oracle = reference.ReferenceEngine()
        states = ColocationEngine().steady_states(batch)
        for got, workloads in zip(states, batch, strict=True):
            assert_states_equal(got, oracle.steady_state(workloads))
        assert states[0].pressures[0, int(Resource.GPU_CE)] == 1.0
        assert states[2].pressures[0, int(Resource.GPU_CE)] < 1.0

    def test_one_colocation_is_a_batch_of_one(self):
        workloads = [GameInstance(CATALOG.get(name)) for name in NAMES[:3]]
        engine = ColocationEngine()
        assert_states_equal(
            engine.steady_state(workloads), engine.steady_states([workloads])[0]
        )
        assert engine.steady_states([]) == []

    def test_an_empty_colocation_is_rejected(self):
        game = GameInstance(CATALOG.get(NAMES[0]))
        with pytest.raises(ValueError, match="at least one workload"):
            ColocationEngine().steady_states([[game], []])
        with pytest.raises(ValueError, match="at least one workload"):
            ColocationEngine().steady_state([])

    @given(
        st.lists(colocation_lists(5), min_size=1, max_size=6),
        st.lists(colocation_lists(9), max_size=2),
        st.data(),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_measurement_ignores_its_batch(self, batch, peers, data):
        """``run_colocations(batch)[i]`` reads ``run_colocation(batch[i])``.

        The solver is pinned above; this pins the read too, whose per-slot
        noise streams are keyed by the composition alone.  The ledger's
        flush rides each pending server's next composition along with
        whatever else is pending, which is exact only because of this.
        """
        alone = [run_colocation(list(workloads)) for workloads in batch]
        order = data.draw(st.permutations(range(len(batch))))
        engine = ColocationEngine()
        # One engine across calls, as the ledger keeps one across flushes.
        run_colocations(peers, engine=engine)
        got = run_colocations(peers + [batch[i] for i in order], engine=engine)
        for result, i in zip(got[len(peers):], order, strict=True):
            for name in ("fps", "slowdowns"):
                a, b = getattr(result, name), getattr(alone[i], name)
                assert np.array(a).tobytes() == np.array(b).tobytes(), name

    @given(
        st.lists(st.integers(0, 7), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_leave_one_out_over_a_zero_padded_stack(self, sizes, seed, saturate):
        rng = np.random.default_rng(seed)
        width = max(sizes)
        stack = np.zeros((len(sizes), width, NUM_RESOURCES))
        for b, n in enumerate(sizes):
            stack[b, :n] = rng.uniform(-0.1, 1.1, size=(n, NUM_RESOURCES))
            if saturate and n:
                stack[b, rng.integers(n), rng.choice([0, 3])] = 1.0
        model = ContentionModel()
        got = model.pressures_leave_one_out(stack)
        assert got.shape == stack.shape
        for b, n in enumerate(sizes):
            want = reference.leave_one_out(model, stack[b, :n])
            assert got[b, :n].tobytes() == want.tobytes()
