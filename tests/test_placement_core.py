"""Tests for the shared placement core (:mod:`repro.placement`).

Covers the fleet bookkeeping verbs, the strict engine mode the offline
frontend runs with, the canonical signature helpers, and the
same-seed determinism contract: a chaos serving run (faults + crashes) replayed under a fixed seed produces byte-identical telemetry
once wall-clock histograms are stripped.
"""

import copy
import json
import pickle
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.games.resolution import Resolution
from repro.obs import QoSLedger
from repro.placement import (
    CMFeasiblePolicy,
    DecisionEngine,
    DedicatedPolicy,
    FleetState,
    MaxFPSPolicy,
    Session,
    VBPFirstFitPolicy,
    build_policy,
    colocation_key,
    degraded_to,
    entry_of,
    promoted_to,
    signature_add,
    signature_of,
)
from repro.placement.signature import PoolView, index_of
from repro.scheduling.dynamic import generate_sessions, simulate_sessions
from repro.serving import (
    FaultInjector,
    PredictionCache,
    RequestBroker,
)

R1080 = Resolution(1920, 1080)
R720 = Resolution(1280, 720)


def _session(game="a", resolution=R1080, arrival=0.0, duration=10.0):
    return Session(game=game, resolution=resolution, arrival=arrival, duration=duration)


class TestSignatureHelpers:
    def test_entry_of(self):
        assert entry_of(_session("x", R720)) == ("x", R720)

    def test_signature_of_sorts(self):
        sessions = [_session("b"), _session("a", R720), _session("a")]
        assert signature_of(sessions) == (("a", R720), ("a", R1080), ("b", R1080))

    def test_signature_add_keeps_canonical_order(self):
        sig = signature_of([_session("c")])
        grown = signature_add(sig, ("a", R1080))
        assert grown == (("a", R1080), ("c", R1080))
        assert signature_add(grown, ("b", R720)) == tuple(
            sorted(grown + (("b", R720),))
        )


class TestSlottedSession:
    def test_no_instance_dict(self):
        session = _session()
        assert not hasattr(session, "__dict__")
        # FrozenInstanceError is an AttributeError; Python 3.11's frozen
        # __setattr__ on a slotted class raises TypeError for a new name.
        with pytest.raises((AttributeError, TypeError)):
            session.note = "ad hoc"
        with pytest.raises(FrozenInstanceError):
            session.game = "b"

    def test_copies_preserve_equality(self):
        session = _session("x", R1080, arrival=2.0, duration=5.0)
        low = degraded_to(session, R720)
        assert low == Session("x", R720, 2.0, 5.0, requested=R1080)
        assert promoted_to(low, R1080) == replace(session, requested=R1080)
        assert replace(session, arrival=3.0) == _session("x", R1080, 3.0, 5.0)
        for s in (session, low):
            assert copy.copy(s) == s
            assert pickle.loads(pickle.dumps(s)) == s
            assert hash(pickle.loads(pickle.dumps(s))) == hash(s)


class TestFleetState:
    def test_place_on_fresh_and_existing(self):
        fleet = FleetState()
        s0 = fleet.place(None, _session("a"))
        s1 = fleet.place(None, _session("b"))
        assert (s0, s1) == (0, 1)
        assert fleet.place(0, _session("c")) == 0
        assert fleet.n_open == 2
        assert fleet.servers_opened == 2
        assert fleet.peak == 2
        assert fleet.signatures() == [
            (("a", R1080), ("c", R1080)),
            (("b", R1080),),
        ]

    def test_members_departure_ordered(self):
        fleet = FleetState()
        fleet.place(None, _session("a", duration=30.0))
        fleet.place(0, _session("b", duration=10.0))
        fleet.place(0, _session("c", duration=20.0))
        assert [s.game for s in fleet.members(0)] == ["b", "c", "a"]

    def test_pop_departures_retires_and_closes(self):
        fleet = FleetState()
        fleet.place(None, _session("a", duration=5.0))
        fleet.place(0, _session("b", duration=15.0))
        fleet.place(None, _session("c", duration=8.0))
        removed = fleet.pop_departures(10.0)
        assert removed == 2
        assert fleet.server_ids() == [0]
        assert fleet.members(0)[0].game == "b"
        assert fleet.pop_departures(20.0) == 1
        assert fleet.n_open == 0
        assert fleet.peak == 2  # peak survives the drain

    def test_crash_returns_admission_order(self):
        # Host in an order where departure order differs from admission
        # order; crash eviction must follow admission order (member id).
        fleet = FleetState()
        fleet.place(None, _session("first", duration=30.0))
        fleet.place(0, _session("second", duration=5.0))
        fleet.place(0, _session("third", duration=15.0))
        assert [s.game for s in fleet.members(0)] == ["second", "third", "first"]
        evicted = fleet.crash(0)
        assert [s.game for s in evicted] == ["first", "second", "third"]
        assert fleet.n_open == 0
        # Stale heap entries for the crashed server are skipped silently.
        assert fleet.pop_departures(100.0) == 0

    def test_choice_indexes_current_pool(self):
        fleet = FleetState()
        fleet.place(None, _session("a", duration=1.0))
        fleet.place(None, _session("b", duration=50.0))
        fleet.pop_departures(2.0)
        # Index 0 now refers to server id 1 (the only open server).
        assert fleet.place(0, _session("c", arrival=2.0)) == 1

    def test_ids_are_monotonic_so_pool_order_is_ascending_id(self):
        # The invariant the signature index leans on: ids are never
        # reused and only grow, so a pool position is a bisect on ids.
        fleet = FleetState()
        for n in range(6):
            fleet.place(None, _session(f"g{n}", duration=1.0 + n))
        fleet.crash(2)
        fleet.pop_departures(1.5)  # closes server 0
        assert fleet.place(None, _session("late", arrival=2.0)) == 6
        ids = fleet.server_ids()
        assert ids == sorted(ids) == [1, 3, 4, 5, 6]
        for position, server_id in enumerate(ids):
            assert fleet.place(position, _session("x", arrival=2.0)) == server_id

    def test_equal_departures_keep_admission_order(self):
        fleet = FleetState()
        for game in ("first", "second", "third"):
            fleet.place(None if game == "first" else 0, _session(game, duration=5.0))
        fleet.place(0, _session("early", duration=1.0))
        assert [s.game for s in fleet.members(0)] == [
            "early", "first", "second", "third",
        ]


class TestSignaturePool:
    def _fleet(self):
        fleet = FleetState()
        fleet.place(None, _session("a"))
        fleet.place(None, _session("b"))
        fleet.place(None, _session("a"))
        return fleet

    def test_pool_is_a_plain_list_to_callers(self):
        pool = self._fleet().signatures()
        a, b = (("a", R1080),), (("b", R1080),)
        assert pool == [a, b, a] and len(pool) == 3
        assert pool[1] == b and list(pool) == [a, b, a]
        assert pool.index(b) == 1 and pool.count(a) == 2

    def test_groups_follow_first_occurrence_order(self):
        fleet = self._fleet()
        index = index_of(fleet.signature_view())
        groups = index.open_groups(4)
        assert [g.ids for g in groups] == [[0, 2], [1]]
        assert [index.position(g) for g in groups] == [0, 1]
        assert index.open_groups(1) == [] and index.position(None) is None
        fleet.crash(0)
        groups = index_of(fleet.signature_view()).open_groups(4)
        assert [g.ids for g in groups] == [[1], [2]]

    def test_outdated_pool_is_regrouped_from_its_snapshot(self):
        fleet = self._fleet()
        stale = fleet.signatures()
        fleet.crash(0)
        # The fleet moved on; the old list still means what it says.
        assert index_of(stale) is not index_of(fleet.signature_view())
        assert [g.ids for g in index_of(stale).open_groups(4)] == [[0, 2], [1]]
        policy = VBPFirstFitPolicy(_FitsOnly("b"))
        assert policy.select(stale, _session("z")) == 1
        assert policy.select(fleet.signature_view(), _session("z")) == 0

    def test_memo_dies_with_its_group(self):
        fleet = self._fleet()
        policy = MaxFPSPolicy(_ConstantFPS(), 60.0)
        assert policy.select(fleet.signature_view(), _session("c")) == 0
        index = index_of(fleet.signature_view())
        assert all(len(g.memo) == 1 for g in index.groups.values())
        fleet.crash(1)
        assert set(index.groups) == {(("a", R1080),)}
        fleet.place(None, _session("b"))
        assert not index.groups[(("b", R1080),)].memo


class TestPoolView:
    """``DecisionEngine.admit`` decides against a view, not a copy."""

    class _Recorder:
        """A policy that checks the pool it is handed against a snapshot."""

        name = "recorder"

        def __init__(self, fleet):
            self.fleet = fleet
            self.pools = 0

        def select(self, signatures, session):
            snapshot = self.fleet.signatures()
            assert isinstance(signatures, PoolView)
            assert len(signatures) == len(snapshot)
            assert [signatures[i] for i in range(len(snapshot))] == snapshot
            assert list(signatures) == snapshot
            if snapshot:
                assert signatures[-1] == snapshot[-1]
            with pytest.raises(IndexError):
                signatures[len(snapshot)]
            index = index_of(signatures)
            assert index is self.fleet._index
            rebuilt = index_of(list(snapshot))
            assert [
                (g.signature, index.position(g), len(g.ids))
                for g in index.open_groups(4)
            ] == [
                (g.signature, rebuilt.position(g), len(g.ids))
                for g in rebuilt.open_groups(4)
            ]
            self.pools += 1
            # Join the last server while it has room, else open one.
            last = len(snapshot) - 1
            return last if snapshot and len(snapshot[last]) < 3 else None

    def test_engine_hands_policies_the_live_pool(self):
        fleet = FleetState()
        recorder = self._Recorder(fleet)
        engine = DecisionEngine(recorder, strict=True)
        games = "abcab"
        for i in range(30):
            session = _session(games[i % 5], arrival=float(i), duration=4.0 + i % 7)
            fleet.pop_departures(session.arrival)
            engine.admit(fleet, session)
            if i == 17:
                fleet.crash(fleet.server_ids()[0])
        assert recorder.pools == 30

    def test_view_reads_the_index_until_the_next_mutation(self):
        fleet = FleetState()
        fleet.place(None, _session("a"))
        fleet.place(None, _session("b"))
        view = fleet.signature_view()
        assert view.grouped is fleet._index and view.epoch == fleet._index.epoch
        fleet.place(0, _session("c"))
        assert view.epoch != view.grouped.epoch
        # index_of then regroups what the view reads: the live pool.
        assert index_of(view) is not fleet._index
        assert list(view) == fleet.signatures()

    def test_view_is_a_read_only_sequence(self):
        fleet = TestSignaturePool()._fleet()
        view, snapshot = fleet.signature_view(), fleet.signatures()
        a, b = snapshot[0], snapshot[1]
        assert isinstance(view, Sequence) and not isinstance(view, list)
        assert view.index(b) == 1 and view.count(a) == 2 and b in view
        assert list(reversed(view)) == snapshot[::-1]
        assert view[1:] == snapshot[1:] and view[::-1] == snapshot[::-1]
        with pytest.raises(TypeError):
            view[0] = a


class _FitsOnly:
    """A VBP judge that lets a session join only servers hosting ``game``."""

    def __init__(self, game):
        self.game = game

    def fits_after_adding(self, spec, _game, _resolution):
        return spec is not None and self.game in spec.names


class _ConstantFPS:
    """An RM whose every prediction clears the floor."""

    def predict_fps_batch(self, specs):
        return [[90.0] * spec.size for spec in specs]


class TestOneProbePerDistinctCandidate:
    """Regression: max-fps used to re-probe every duplicate uncached candidate."""

    @pytest.mark.parametrize("as_fleet", [False, True])
    def test_cold_duplicates_cost_one_lookup_and_one_put(self, as_fleet):
        fleet = FleetState()
        fleet.place(None, _session("a"))
        fleet.place(None, _session("a"))
        pool = fleet.signature_view() if as_fleet else list(fleet.signatures())
        from tests.test_vectorized_parity import _RecordingCache

        cache = _RecordingCache()
        policy = MaxFPSPolicy(_ConstantFPS(), 60.0, cache=cache)
        assert policy.select(pool, _session("b")) == 0
        key = colocation_key((("a", R1080), ("b", R1080)))
        assert cache.log == [("lookup", key), ("put", key)]
        assert (cache.hits, cache.misses) == (0, 1)
        assert policy.select(pool, _session("b")) == 0
        assert cache.log[2:] == [("lookup", key)]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_short_answer_raises_keyerror_after_the_predict_span(self):
        # A predictor answering fewer rows than asked (a stale replayed
        # batch): the answered prefix is cached, then the first unanswered
        # candidate raises KeyError once the predict span has closed clean.
        from repro.obs.tracing import Tracer

        class _FirstRowOnly(_ConstantFPS):
            def predict_fps_batch(self, specs):
                return super().predict_fps_batch(specs[:1])

        a, b, z = ("a", R1080), ("b", R1080), ("z", R1080)
        tracer = Tracer()
        policy = MaxFPSPolicy(_FirstRowOnly(), 60.0)
        policy.instrument(tracer=tracer)
        with pytest.raises(KeyError) as raised:
            policy.select([(a,), (b,)], _session("z"))
        assert raised.value.args == ((b, z),)
        assert policy.cache.lookup(colocation_key((a, z)), None) == (90.0, 90.0)
        assert len(policy.cache) == 1
        assert [s.name for s in tracer.spans] == ["cache", "predict"]
        assert all("error" not in s.attributes for s in tracer.spans)


class TestVerdictMemo:
    """A live group answers a repeated arrival from the verdict it has read."""

    def _run(self, cache, predictor=None):
        from repro.obs import Telemetry
        from repro.obs.tracing import Tracer

        fleet = FleetState()
        fleet.place(None, _session("a"))
        fleet.place(None, _session("b"))
        policy = MaxFPSPolicy(predictor or _ConstantFPS(), 60.0, cache=cache)
        telemetry, tracer = Telemetry(), Tracer()
        policy.instrument(telemetry=telemetry, tracer=tracer)
        return fleet, policy, telemetry, tracer

    def test_second_hit_is_not_probed(self):
        from tests.test_vectorized_parity import _RecordingCache

        cache = _RecordingCache()
        fleet, policy, telemetry, tracer = self._run(cache)
        keys = [colocation_key((("a", R1080), ("c", R1080)))]
        keys.append(colocation_key((("b", R1080), ("c", R1080))))
        for _ in range(3):
            assert policy.select(fleet.signature_view(), _session("c")) == 0
        # Missed and stored, then hit (and stamped), then answered by the memo.
        assert cache.log == [
            *(("lookup", k) for k in keys), *(("put", k) for k in keys),
            *(("lookup", k) for k in keys),
        ]
        assert (cache.hits, cache.misses) == (2, 2)
        cached = [s.attributes for s in tracer.spans if s.name == "cache"]
        assert [(a["hits"], a["misses"], a["memo"]) for a in cached] == [
            (0, 2, 0), (2, 0, 0), (0, 0, 2),
        ]
        shortcuts = telemetry.counter("predict_cache_shortcuts", policy="max-fps")
        assert shortcuts.value == 2
        # A forgotten key voids every stamp: the next arrival probes again.
        cache.clear()
        assert policy.select(fleet.signature_view(), _session("c")) == 0
        assert cache.log[-4:] == [
            *(("lookup", k) for k in keys), *(("put", k) for k in keys),
        ]

    def test_fault_injected_policy_keeps_the_memo(self, minilab):
        # The injector wraps the predictor, not the cache: a cache-hot pool
        # asked twice is answered from the groups' memo the second time,
        # without a probe and without a predictor call that could fault.
        from tests.test_vectorized_parity import _RecordingCache

        a, b, c = minilab.names[:3]
        fleet = FleetState()
        fleet.place(None, _session(a))
        fleet.place(None, _session(b))
        cache, injector = _RecordingCache(), FaultInjector(0.0, seed=5)
        policy, _ = build_policy(
            "cm-feasible",
            predictor=minilab.predictor,
            qos=45.0,
            cache=cache,
            injector=injector,
        )
        assert policy.cache is cache
        policy.select(fleet.signature_view(), _session(c))  # misses, stores
        injector.error_rate = 1.0  # any predictor call from here raises
        choice = policy.select(fleet.signature_view(), _session(c))  # hits
        probed = len(cache.log)
        assert policy.select(fleet.signature_view(), _session(c)) == choice
        assert len(cache.log) == probed
        assert (cache.hits, cache.misses) == (2, 2)
        assert "faults_injected" not in injector.telemetry.snapshot()["counters"]

    def test_zero_capacity_asks_the_model_every_time(self):
        class _Counting(_ConstantFPS):
            calls = 0

            def predict_fps_batch(self, specs):
                self.calls += 1
                return super().predict_fps_batch(specs)

        predictor = _Counting()
        fleet, policy, _, _ = self._run(PredictionCache(0), predictor)
        for _ in range(3):
            assert policy.select(fleet.signature_view(), _session("c")) == 0
        assert predictor.calls == 3
        assert all(
            memo[2] is None for g in index_of(fleet.signature_view()).groups.values()
            for memo in g.memo.values()
        )


class _AllFeasible:
    """A CM (and RM) under which every colocation is feasible, every game
    at 90 FPS."""

    classifier = object()

    def __init__(self):
        self.judged = []

    def colocations_feasible(self, specs, _qos):
        self.judged.extend(spec.entries for spec in specs)
        return [True] * len(specs)

    def predict_fps_batch(self, specs):
        self.judged.extend(spec.entries for spec in specs)
        return [[90.0] * spec.size for spec in specs]


class TestCMTieAcrossMemo:
    """Equal-size feasible groups: the lower pool position wins, whether
    its verdict came from the group's memo or from a fresh probe (and
    for max-fps, whose equal totals tie the same way)."""

    @pytest.fixture(autouse=True, params=[CMFeasiblePolicy, MaxFPSPolicy])
    def _kind(self, request):
        self.kind = request.param

    def _stamped(self, first, second):
        """A fleet of ``first`` and ``second`` whose groups hold stamped
        verdicts for arrival ``z``, and the policy that stamped them."""
        fleet = FleetState()
        fleet.place(None, _session(first))
        fleet.place(None, _session(second))
        predictor = _AllFeasible()
        policy = self.kind(predictor, 60.0, cache=PredictionCache())
        for _ in range(2):  # miss and store, then hit and stamp
            assert policy.select(fleet.signature_view(), _session("z")) == 0
        return fleet, policy, predictor

    def _probes(self, policy):
        return policy.cache.hits + policy.cache.misses

    def test_memo_group_first(self):
        fleet, policy, predictor = self._stamped("a", "x")
        # Server 1 moves to a signature of the same size that no arrival
        # has met: a fresh group behind the memo-answered one.
        member_id, old = fleet._servers[1][0]
        fleet.update_resolution(1, member_id, replace(old, resolution=R720))
        probes, judged = self._probes(policy), len(predictor.judged)
        assert policy.select(fleet.signature_view(), _session("z")) == 0
        assert self._probes(policy) == probes + 1  # only the fresh group
        assert len(predictor.judged) == judged + 1

    def test_fresh_group_first(self):
        fleet, policy, predictor = self._stamped("x", "a")
        member_id, old = fleet._servers[0][0]
        fleet.update_resolution(0, member_id, replace(old, resolution=R720))
        probes, judged = self._probes(policy), len(predictor.judged)
        assert policy.select(fleet.signature_view(), _session("z")) == 0
        assert self._probes(policy) == probes + 1
        assert predictor.judged[judged:] == [(("x", R720), ("z", R1080))]

    def test_fuller_memo_group_beats_a_lower_fresh_one(self):
        fleet, policy, _ = self._stamped("x", "a")
        fleet.place(1, _session("b"))  # server 1: a fresh size-2 group
        for _ in range(2):
            assert policy.select(fleet.signature_view(), _session("z")) == 1
        member_id, old = fleet._servers[0][0]
        fleet.update_resolution(0, member_id, replace(old, resolution=R720))
        probes = self._probes(policy)
        assert policy.select(fleet.signature_view(), _session("z")) == 1
        assert self._probes(policy) == probes + 1


class TestStrictEngine:
    class _Raises:
        name = "boom"

        def select(self, signatures, session):
            raise RuntimeError("broken policy")

    class _OutOfRange:
        name = "liar"

        def select(self, signatures, session):
            return len(signatures) + 3

    def test_strict_propagates_policy_errors(self):
        engine = DecisionEngine(self._Raises(), strict=True)
        with pytest.raises(RuntimeError, match="broken policy"):
            engine.decide([], _session())

    def test_strict_raises_on_invalid_index(self):
        engine = DecisionEngine(self._OutOfRange(), strict=True)
        with pytest.raises(IndexError, match="liar"):
            engine.decide([()], _session())

    def test_non_strict_absorbs_both(self):
        for policy in (self._Raises(), self._OutOfRange()):
            engine = DecisionEngine(policy)
            decision = engine.decide([()], _session())
            assert decision.server is None
            assert decision.fallback

    def test_admit_applies_decision_to_fleet(self):
        engine = DecisionEngine(DedicatedPolicy())
        fleet = FleetState()
        a = engine.admit(fleet, _session("a"))
        b = engine.admit(fleet, _session("b"))
        assert (a.choice, b.choice) == (None, None)
        assert (a.server_id, b.server_id) == (0, 1)
        assert a.policy == "dedicated" and not a.fallback
        assert fleet.n_open == 2


class TestOfflineFrontend:
    def test_broken_policy_fails_loudly(self, minilab):
        sessions = generate_sessions(minilab.names[:2], 5, seed=12)
        ledger = QoSLedger(minilab.catalog, minilab.predictor, slo_fps=60.0)
        with pytest.raises(RuntimeError, match="broken policy"):
            simulate_sessions(sessions, TestStrictEngine._Raises(), ledger)


def _strip_wall_clock(snapshot: dict) -> dict:
    """Drop the wall-clock histogram sections from a telemetry snapshot."""
    out = dict(snapshot)
    out.pop("histograms", None)
    if isinstance(out.get("labeled"), dict):
        labeled = dict(out["labeled"])
        labeled.pop("histograms", None)
        out["labeled"] = labeled
    return out


class TestSameSeedDeterminism:
    """Satellite: crash -> evict -> readmission is a pure function of the seed."""

    def _chaos_run(self, minilab):
        sessions = generate_sessions(minilab.names, 150, arrival_rate=4.0, seed=77)
        injector = FaultInjector(0.25, seed=77)
        policy, fallback = build_policy(
            "cm-feasible",
            predictor=minilab.predictor,
            qos=60.0,
            cache=PredictionCache(512),
            injector=injector,
        )
        controller = DecisionEngine(
            policy,
            fallback=fallback,
            telemetry=injector.telemetry,
        )
        broker = RequestBroker(controller, crash_rate=0.1, crash_seed=77)
        return broker.run(sessions)

    def test_telemetry_byte_identical_across_runs(self, minilab):
        first, second = self._chaos_run(minilab), self._chaos_run(minilab)
        assert first.telemetry["counters"].get("server_crashes", 0) > 0
        assert first.telemetry["counters"].get("readmissions", 0) > 0
        for a, b in ((first, second),):
            assert a.to_dict()["placements"] == b.to_dict()["placements"]
            assert a.to_dict()["readmissions"] == b.to_dict()["readmissions"]
            assert a.resilience == b.resilience
        blob_a = json.dumps(_strip_wall_clock(first.telemetry), sort_keys=True)
        blob_b = json.dumps(_strip_wall_clock(second.telemetry), sort_keys=True)
        assert blob_a == blob_b
