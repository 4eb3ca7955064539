"""Invariants of the admission hot path's incremental bookkeeping.

Each structure here keeps, as it changes, a value the code used to
recompute from scratch: the signature index's pool order, the
histogram's bucket (a bisect, not a loop),
the cache's batched probe, the VBP judge's demand vectors and the
engine's bound instruments, and the interned entries of the cache keys.
Every property pins the kept value to the recomputation it replaced.
"""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import VBPJudge
from repro.core.training import ColocationSpec
from repro.games.resolution import PRESET_RESOLUTIONS
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, LatencyHistogram, Telemetry
from repro.placement.cache import PredictionCache
from repro.placement.engine import DecisionEngine
from repro.placement.fleet import Session
from repro.placement.policies import DedicatedPolicy
from repro.placement.signature import SignatureIndex, colocation_key
from repro.profiling.database import ProfileDatabase

# ----------------------------------------------------------------------
# SignatureIndex: pool order kept across move().

#: Few distinct signatures of every size 0..4, so groups die and are
#: reborn and servers often join a group below its first id.
SIGNATURES = [(), ("a",), ("b",), ("a", "b"), ("a", "a", "b"), ("a", "b", "b", "b")]

moves = st.lists(
    st.tuples(
        st.sampled_from(["open", "open", "change", "change", "close"]),
        st.integers(0, 10**6),
        st.sampled_from(SIGNATURES),
    ),
    min_size=1,
    max_size=60,
)


def _reference_open_groups(index, limit):
    """The order open_groups used to compute: filter, then sort by first id."""
    groups = (g for g in index.groups.values() if len(g.signature) < limit)
    return sorted(groups, key=lambda g: g.ids[0])


class TestSignatureIndexOrder:
    @given(moves)
    @settings(max_examples=200, deadline=None)
    @example([("open", 0, ("a",)), ("open", 0, ("a",)), ("change", 0, ("b",)),
              ("change", 0, ("a",)), ("close", 0, ("a",)), ("open", 0, ("a",))])
    def test_open_groups_match_sorted_reference(self, ops):
        index, next_id, live = SignatureIndex(), 0, []
        for op, r, signature in ops:
            if op == "open" or not live:
                index.move(next_id, signature)
                live.append(next_id)
                next_id += 1
            elif op == "change":
                index.move(live[r % len(live)], signature)
            else:
                index.move(live.pop(r % len(live)), None)
            rebuilt = SignatureIndex(list(index.signatures.values()))
            for limit in range(6):
                kept = index.open_groups(limit)
                assert kept == _reference_open_groups(index, limit)
                # A plain list of the same pool groups in the same order.
                assert [g.signature for g in rebuilt.open_groups(limit)] == [
                    g.signature for g in kept
                ]

    def test_first_id_leaving_reseats_the_group(self):
        index = SignatureIndex([("a",), ("b",), ("a",)])
        assert [g.ids for g in index.open_groups(5)] == [[0, 2], [1]]
        index.move(0, ("c",))  # a's first id leaves: a now starts at 2
        assert [g.ids for g in index.open_groups(5)] == [[0], [1], [2]]
        assert [g.signature for g in index.open_groups(5)] == [("c",), ("b",), ("a",)]
        index.move(1, ("a",))  # joins a below its first id: a starts at 1
        assert [g.ids for g in index.open_groups(5)] == [[0], [1, 2]]


# ----------------------------------------------------------------------
# LatencyHistogram: bisect parity with the linear scan.


def _loop_bucket(buckets, seconds):
    for i, edge in enumerate(buckets):
        if seconds <= edge:
            return i
    return len(buckets)


def _bucket_of(buckets, seconds):
    hist = LatencyHistogram("h", buckets)
    hist.observe(seconds)
    (where,) = [i for i, n in enumerate(hist._counts) if n]
    return where


def _probes(buckets):
    points = [0.0, -0.0, math.inf, math.nan]
    for edge in buckets:
        points += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    return [p for p in points if not p < 0]


edges = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1, max_size=8
).map(lambda xs: tuple(sorted(xs)))


class TestHistogramBisect:
    def test_default_edges_neighbours_zero_inf_nan(self):
        for seconds in _probes(DEFAULT_LATENCY_BUCKETS):
            assert _bucket_of(DEFAULT_LATENCY_BUCKETS, seconds) == _loop_bucket(
                DEFAULT_LATENCY_BUCKETS, seconds
            ), seconds

    @given(edges, st.floats(min_value=0.0) | st.just(math.nan))
    @settings(max_examples=200, deadline=None)
    def test_any_edges_any_value(self, buckets, seconds):
        for value in [seconds, *_probes(buckets)]:
            assert _bucket_of(buckets, value) == _loop_bucket(buckets, value)

    def test_nan_overflows_and_negative_raises(self):
        hist = LatencyHistogram("h")
        hist.observe(math.nan)
        hist.observe(math.inf)
        assert hist.overflow_count == 2
        with pytest.raises(ValueError):
            hist.observe(-1e-300)


# ----------------------------------------------------------------------
# PredictionCache.lookup_many: lookup, key by key.

cache_ops = st.lists(
    st.tuples(st.sampled_from(["put", "probe"]), st.lists(st.integers(0, 7), max_size=6)),
    max_size=30,
)


class TestLookupMany:
    @given(cache_ops)
    @settings(max_examples=150, deadline=None)
    def test_same_values_stats_and_recency_as_lookups(self, ops):
        one, many = PredictionCache(4), PredictionCache(4)
        for op, keys in ops:
            if op == "put":
                for key in keys:
                    one.put((key,), key)
                    many.put((key,), key)
            else:
                expected = [one.lookup((key,), "miss") for key in keys]
                assert many.lookup_many([(key,) for key in keys], "miss") == expected
            assert one.stats() == many.stats()
            assert list(one._store) == list(many._store)


# ----------------------------------------------------------------------
# colocation_key: interned entries, same value and hash as a fresh build.


def _fresh_key(entries, qos=None):
    """The key colocation_key built before entries were interned."""
    signature = tuple(sorted((name, res.width, res.height) for name, res in entries))
    return (signature, None if qos is None else float(qos))


key_entries = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "Dota2", "H1Z1"]), st.sampled_from(PRESET_RESOLUTIONS)
    ),
    max_size=6,
)
floors = st.none() | st.integers(0, 120) | st.floats(0.0, 240.0, allow_nan=False)


class TestInternedKeys:
    @given(key_entries, key_entries, floors)
    @settings(max_examples=200, deadline=None)
    def test_equal_to_the_fresh_key_and_entries_shared(self, entries, other, qos):
        key = colocation_key(entries, qos)
        assert key == _fresh_key(entries, qos)
        assert hash(key) == hash(_fresh_key(entries, qos))
        assert colocation_key(reversed(entries), qos) == key
        # The same entry is the same tuple object in every key holding it.
        shared = {entry: entry for entry in key[0]}
        for entry in colocation_key(other + entries)[0]:
            if entry in shared:
                assert entry is shared[entry]

    def test_keys_built_concurrently_are_equal(self):
        # Names no other test uses, so the threads race to intern them.
        entries = [
            (f"concurrent-{i}", res) for i in range(6) for res in PRESET_RESOLUTIONS
        ]
        barrier = threading.Barrier(4, timeout=30)
        keys = [[] for _ in range(4)]

        def build(out):
            barrier.wait()
            for start in range(len(entries)):
                out.append(colocation_key(entries[start:] + entries[:start], 60.0))

        threads = [threading.Thread(target=build, args=(out,)) for out in keys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = _fresh_key(entries, 60.0)
        canonical = keys[0][0][0]
        for built in keys:
            assert len(built) == len(entries)
            for key in built:
                assert key == expected
                assert all(a is b for a, b in zip(key[0], canonical))


# ----------------------------------------------------------------------
# VBPJudge: memoized demand vectors are bitwise the computed ones.


class TestVBPDemandMemo:
    def test_memo_is_bitwise_over_the_catalog(self, minilab):
        memo = VBPJudge(minilab.db)
        entries = [(name, res) for name in minilab.names for res in PRESET_RESOLUTIONS]
        specs = [None] + [
            ColocationSpec(tuple(entries[j % len(entries)] for j in range(i, i + size)))
            for size in (1, 2, 3)
            for i in range(0, len(entries), 5)
        ]
        for spec in specs:
            fresh = VBPJudge(minilab.db).remaining_capacity(spec)
            assert memo.remaining_capacity(spec).hex() == fresh.hex()
            for name, res in entries:
                cold = VBPJudge(minilab.db)
                assert memo.fits_after_adding(spec, name, res) == cold.fits_after_adding(
                    spec, name, res
                )
        for name, res in entries:
            np.testing.assert_array_equal(
                memo.demand_vector(name, res), VBPJudge(minilab.db).demand_vector(name, res)
            )

    def test_vector_is_read_only_and_follows_a_replaced_profile(self, minilab):
        db = ProfileDatabase()
        for profile in minilab.db:
            db.add(profile)
        judge = VBPJudge(db)
        name, res = minilab.names[0], PRESET_RESOLUTIONS[0]
        before = judge.demand_vector(name, res)
        assert judge.demand_vector(name, res) is before
        with pytest.raises(ValueError):
            before[0] = 0.0
        db.add(replace(minilab.db.get(minilab.names[1]), name=name))
        after = judge.demand_vector(name, res)
        assert after is not before
        np.testing.assert_array_equal(
            after, judge.demand_vector(minilab.names[1], res)
        )


# ----------------------------------------------------------------------
# DecisionEngine: instruments follow a swapped registry.


class TestBoundInstruments:
    def test_swapped_registry_is_rebound(self):
        engine = DecisionEngine(DedicatedPolicy())
        session = Session("a", PRESET_RESOLUTIONS[0], 0.0, 1.0)
        first = engine.telemetry
        engine.decide([], session)
        engine.telemetry = second = Telemetry()
        engine.decide([], session)
        engine.decide([], session)
        for telemetry, n in ((first, 1), (second, 2)):
            snapshot = telemetry.snapshot()
            # Created at first use: no "admissions" counter, never admitted.
            assert snapshot["counters"] == {"requests": n, "servers_opened": n}
            assert snapshot["histograms"]["decision_latency_s"]["count"] == n
            assert snapshot["labeled"]["counters"]["decisions"] == [
                {"labels": {"policy": "dedicated"}, "value": n}
            ]
