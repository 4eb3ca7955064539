"""Unit tests for the decision chain: structure, the downscale step, the
restore loop, and the fleet's degraded-session bookkeeping."""

from itertools import cycle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.games.resolution import DegradeLadder, Resolution
from repro.obs.tracing import Tracer
from repro.placement.engine import DecisionEngine, PolicyActuator
from repro.placement.fleet import FleetState, Session, degraded_to, promoted_to
from repro.placement.signature import entry_of
from tests import _reference_engine as frozen

R1080 = Resolution(1920, 1080)
R900 = Resolution(1600, 900)
R720 = Resolution(1280, 720)
LADDER = DegradeLadder.from_str("1080p,900p,720p")


class StubPolicy:
    """Scripted policy: ``fn(signatures, session) -> index | None``."""

    name = "stub"

    def __init__(self, fn, group_feasible=None):
        self._fn = fn
        self._group_feasible = group_feasible

    def select(self, signatures, session):
        return self._fn(signatures, session)

    def __getattr__(self, attr):
        if attr == "group_feasible" and self._group_feasible is not None:
            return self._group_feasible
        raise AttributeError(attr)


def fits_only_at(resolution):
    """A policy that colocates (server 0) only sessions at ``resolution``."""

    def fn(signatures, session):
        if signatures and session.resolution == resolution:
            return 0
        return None

    return fn


def session(game="g", resolution=R1080, arrival=0.0, duration=10.0, **kw):
    return Session(game, resolution, arrival, duration, **kw)


class TestPipelineStructure:
    def test_default_chain_shape(self):
        engine = DecisionEngine(
            StubPolicy(lambda s, x: None), fallback=StubPolicy(lambda s, x: None)
        )
        assert len(engine.pipeline) == 2
        assert all(isinstance(step, PolicyActuator) for step in engine.pipeline)
        assert [step.error_counter for step in engine.pipeline] == [
            "policy_errors",
            "fallback_errors",
        ]
        assert engine.ladder is None

    def test_ladder_appends_transform_step(self):
        # The ladder arms the chain's downscale step; the policy steps
        # stay as they were.
        engine = DecisionEngine(
            StubPolicy(lambda s, x: None), downscale_ladder=LADDER
        )
        assert len(engine.pipeline) == 1
        assert engine.ladder is LADDER

    def test_historical_accessors(self):
        primary = StubPolicy(lambda s, x: None)
        fb = StubPolicy(lambda s, x: None)
        engine = DecisionEngine(primary, fallback=fb)
        assert engine.pipeline[0].policy is primary
        assert engine.pipeline[1].policy is fb


#: A scripted answer that raises instead of returning.
RAISE = "raise"
N_SERVERS = 3
#: Every kind of answer a policy can give: a raise, "open a new server",
#: a valid index, an out-of-range index, and a value that is no index.
ANSWERS = st.one_of(
    st.just(RAISE),
    st.none(),
    st.integers(0, N_SERVERS - 1),
    st.integers(N_SERVERS, N_SERVERS + 2) | st.integers(-2, -1),
    st.sampled_from(["0", 1.5, 2.0]),
)
SCRIPTS = st.lists(ANSWERS, min_size=1, max_size=30)


class ScriptedPolicy:
    """Answers each ``select`` with the next entry of a cycled script."""

    def __init__(self, name, script):
        self.name = name
        self._answers = cycle(script)

    def select(self, signatures, session):
        answer = next(self._answers)
        if answer == RAISE:
            raise RuntimeError("scripted failure")
        return answer


def _timeless(span):
    record = span.to_dict()
    for key in ("start_s", "end_s", "duration_s"):
        del record[key]
    return record


def _wall_clock_free(snapshot):
    snapshot.pop("histograms")
    snapshot["labeled"].pop("histograms")
    return snapshot


class TestReferenceParity:
    """The one-loop chain decides exactly as the frozen two-policy engine.

    Both engines get identical scripted policies; every decision, the
    spans, the counters and the events must agree, apart from the health
    mode the frozen engine labels its decisions with
    (:func:`~tests._reference_engine.drop_mode`).
    """

    @settings(max_examples=150, deadline=None)
    @given(
        primary=SCRIPTS,
        fallback=st.none() | SCRIPTS,
        n_decisions=st.integers(1, 60),
    )
    @example(primary=[RAISE], fallback=[RAISE, 0, None], n_decisions=60)
    @example(primary=[0, 7], fallback=[None, "0"], n_decisions=60)
    def test_decisions_match_reference_engine(self, primary, fallback, n_decisions):
        engines = []
        for cls in (DecisionEngine, frozen.DecisionEngine):
            engines.append(
                cls(
                    ScriptedPolicy("primary-stub", primary),
                    fallback=(
                        None
                        if fallback is None
                        else ScriptedPolicy("fallback-stub", fallback)
                    ),
                    tracer=Tracer(clock=lambda: 0.0),
                )
            )
        new, old = engines
        signatures = [()] * N_SERVERS
        for i in range(n_decisions):
            x = session(arrival=float(i))
            got, want = new.decide(signatures, x), old.decide(signatures, x)
            assert (got.server, got.policy, got.fallback, got.session) == (
                want.server,
                want.policy,
                want.fallback,
                None,
            )
        assert [_timeless(s) for s in new.tracer.spans] == frozen.drop_mode(
            [_timeless(s) for s in old.tracer.spans]
        )
        assert _wall_clock_free(new.telemetry.snapshot()) == frozen.drop_mode(
            _wall_clock_free(old.telemetry.snapshot())
        )


class TestDownscaleDecision:
    def test_downscale_hit_places_degraded_session(self):
        engine = DecisionEngine(
            StubPolicy(fits_only_at(R720)), downscale_ladder=LADDER
        )
        fleet = FleetState()
        fleet.place(None, session("a"))  # one open server to colocate onto
        outcome = engine.admit(fleet, session("b"))
        assert outcome.choice == 0
        assert outcome.session.resolution == R720
        assert outcome.session.requested == R1080
        assert outcome.session.degraded
        assert fleet.n_degraded == 1
        counters = engine.telemetry.snapshot()["labeled"]["counters"]
        downs = {
            e["labels"]["resolution"]: e["value"] for e in counters["downscales"]
        }
        assert downs == {"1280x720": 1}
        queries = {
            e["labels"]["resolution"]: e["value"]
            for e in counters["downscale_queries"]
        }
        # 900p was tried (and refused) before 720p hit.
        assert queries == {"1600x900": 1, "1280x720": 1}

    def test_best_rung_wins(self):
        engine = DecisionEngine(
            StubPolicy(lambda s, x: 0 if s and x.resolution != R1080 else None),
            downscale_ladder=LADDER,
        )
        fleet = FleetState()
        fleet.place(None, session("a"))
        outcome = engine.admit(fleet, session("b"))
        assert outcome.session.resolution == R900  # first rung below 1080p

    def test_miss_opens_dedicated_server(self):
        engine = DecisionEngine(
            StubPolicy(lambda s, x: None), downscale_ladder=LADDER
        )
        fleet = FleetState()
        fleet.place(None, session("a"))
        outcome = engine.admit(fleet, session("b"))
        assert outcome.choice is None
        assert outcome.session.resolution == R1080
        assert not outcome.session.degraded
        assert fleet.n_degraded == 0

    def test_no_ladder_means_no_transform(self):
        engine = DecisionEngine(StubPolicy(lambda s, x: None))
        decision = engine.decide([], session())
        assert decision.session is None
        snapshot = engine.telemetry.snapshot()
        assert "downscale_queries" not in snapshot.get("labeled", {}).get(
            "counters", {}
        )

    def test_session_already_at_bottom_rung(self):
        engine = DecisionEngine(
            StubPolicy(lambda s, x: None), downscale_ladder=LADDER
        )
        decision = engine.decide([(("a", R1080),)], session(resolution=R720))
        assert decision.server is None
        assert decision.session is None

    def test_downscale_skipped_when_chain_fully_failed(self):
        def boom(signatures, x):
            raise RuntimeError("policy down")

        engine = DecisionEngine(StubPolicy(boom), downscale_ladder=LADDER)
        decision = engine.decide([(("a", R720),)], session())
        # No deciding policy survived, so the quality lever is never
        # pulled — the arrival opens a dedicated server at full quality.
        assert decision.server is None
        assert decision.session is None
        snapshot = engine.telemetry.snapshot()
        assert "downscale_queries" not in snapshot.get("labeled", {}).get(
            "counters", {}
        )

    def test_strict_raises_on_invalid_downscale_index(self):
        engine = DecisionEngine(
            StubPolicy(lambda s, x: 99 if x.resolution != R1080 else None),
            strict=True,
            downscale_ladder=LADDER,
        )
        with pytest.raises(IndexError):
            engine.decide([(("a", R720),)], session())

    def test_nonstrict_absorbs_invalid_downscale_index(self):
        engine = DecisionEngine(
            StubPolicy(lambda s, x: 99 if x.resolution != R1080 else None),
            downscale_ladder=LADDER,
        )
        decision = engine.decide([(("a", R720),)], session())
        assert decision.server is None
        counters = engine.telemetry.snapshot()["counters"]
        assert counters["downscale_errors"] == 1
        assert counters["invalid_choices"] == 1


class TestRestore:
    def make_degraded_fleet(self):
        fleet = FleetState()
        fleet.place(None, session("a"))
        degraded = degraded_to(session("b", duration=20.0), R720)
        fleet.place(0, degraded)
        return fleet

    def test_can_restore_requires_ladder_and_group_feasible(self):
        no_ladder = DecisionEngine(StubPolicy(lambda s, x: None, lambda sig: True))
        assert not no_ladder.can_restore
        no_cm = DecisionEngine(
            StubPolicy(lambda s, x: None), downscale_ladder=LADDER
        )
        assert not no_cm.can_restore
        both = DecisionEngine(
            StubPolicy(lambda s, x: None, lambda sig: True),
            downscale_ladder=LADDER,
        )
        assert both.can_restore

    def test_restore_promotes_to_request(self):
        engine = DecisionEngine(
            StubPolicy(lambda s, x: None, lambda sig: True),
            downscale_ladder=LADDER,
        )
        fleet = self.make_degraded_fleet()
        assert engine.restore(fleet) == 1
        assert fleet.n_degraded == 0
        promoted = [s for s in fleet.members(0) if s.game == "b"][0]
        assert promoted.resolution == R1080
        assert promoted.requested == R1080  # kept for QoS accounting
        counters = engine.telemetry.snapshot()["labeled"]["counters"]
        assert counters["restores"][0]["labels"]["resolution"] == "1920x1080"

    def test_restore_settles_on_intermediate_rung(self):
        def feasible(sig):
            # Full promotion (any 1080p entry for game b) is refused.
            return ("b", R1080) not in sig

        engine = DecisionEngine(
            StubPolicy(lambda s, x: None, feasible), downscale_ladder=LADDER
        )
        fleet = self.make_degraded_fleet()
        assert engine.restore(fleet) == 1
        still = [s for s in fleet.members(0) if s.game == "b"][0]
        assert still.resolution == R900
        assert still.degraded  # partially restored, still below request
        assert fleet.n_degraded == 1

    def test_restore_noop_when_nothing_feasible(self):
        engine = DecisionEngine(
            StubPolicy(lambda s, x: None, lambda sig: False),
            downscale_ladder=LADDER,
        )
        fleet = self.make_degraded_fleet()
        assert engine.restore(fleet) == 0
        assert fleet.n_degraded == 1

    def test_restore_without_capability_returns_zero(self):
        engine = DecisionEngine(StubPolicy(lambda s, x: None))
        fleet = self.make_degraded_fleet()
        assert engine.restore(fleet) == 0


class TestFleetDegradedBookkeeping:
    def test_degraded_to_pins_original_request(self):
        s = session()
        once = degraded_to(s, R900)
        twice = degraded_to(once, R720)
        assert twice.requested == R1080
        assert promoted_to(twice, R1080).degraded is False

    def test_degraded_to_rejects_promotion_disguise(self):
        with pytest.raises(ValueError):
            Session("g", R1080, 0.0, 1.0, requested=R720)

    def test_counts_follow_departures_and_crashes(self):
        fleet = FleetState()
        fleet.place(None, degraded_to(session("a", duration=5.0), R720))
        fleet.place(None, degraded_to(session("b", duration=50.0), R720))
        assert fleet.n_degraded == 2
        fleet.pop_departures(10.0)
        assert fleet.n_degraded == 1
        server_id = fleet.server_ids()[0]
        evicted = fleet.crash(server_id)
        assert [s.game for s in evicted] == ["b"]
        assert fleet.n_degraded == 0

    def test_degraded_members_sorted_by_member_id(self):
        fleet = FleetState()
        fleet.place(None, degraded_to(session("b"), R720))
        fleet.place(None, degraded_to(session("a"), R900))
        members = fleet.degraded_members()
        assert [s.game for _, _, s in members] == ["b", "a"]

    def test_update_resolution_rewrites_signature(self):
        fleet = FleetState()
        degraded = degraded_to(session("a"), R720)
        fleet.place(None, degraded)
        (server_id, member_id, live) = fleet.degraded_members()[0]
        fleet.update_resolution(server_id, member_id, promoted_to(live, R1080))
        assert fleet.server_signature(server_id) == (("a", R1080),)
        assert fleet.n_degraded == 0

    def test_update_resolution_rejects_unknown_member(self):
        fleet = FleetState()
        fleet.place(None, session("a"))
        with pytest.raises(KeyError):
            fleet.update_resolution(0, 999, session("a"))

    def test_update_resolution_rejects_identity_change(self):
        fleet = FleetState()
        fleet.place(None, session("a"))
        (server_id, member_id) = 0, 0
        with pytest.raises(ValueError):
            fleet.update_resolution(server_id, member_id, session("other"))

    def test_observer_sees_resolution_change(self):
        seen = []

        class Observer:
            def fleet_placed(self, *a):
                pass

            def fleet_departed(self, *a):
                pass

            def fleet_evicted(self, *a):
                pass

            def fleet_resolution_changed(self, server_id, member_id, old, new):
                seen.append((server_id, member_id, old.resolution, new.resolution))

        fleet = FleetState(observer=Observer())
        fleet.place(None, degraded_to(session("a"), R720))
        server_id, member_id, live = fleet.degraded_members()[0]
        fleet.update_resolution(server_id, member_id, promoted_to(live, R1080))
        assert seen == [(server_id, member_id, R720, R1080)]

    def test_entry_of_uses_served_resolution(self):
        degraded = degraded_to(session("a"), R720)
        assert entry_of(degraded) == ("a", R720)
