"""The decision engine: an actuator pipeline between policies and the fleet.

The event-loop broker (:class:`repro.serving.RequestBroker`) — and so
the offline simulator, a strict run of it
(:func:`repro.scheduling.dynamic.simulate_sessions`) — answers every
arrival through :class:`DecisionEngine`.  Since the actuator refactor the
engine no longer hardwires a ``primary → fallback → dedicated`` chain:
it walks an ordered pipeline of **actuators**, where each step is one
lever the admission path can pull when the previous step could not place
the session.  Three kinds of lever exist, in escalation order:

1. **degrade placement** — consult the next (more conservative) policy
   in the chain.  Each :class:`PolicyActuator` wraps one
   :class:`~repro.placement.policies.AdmissionPolicy` together with its
   own circuit breaker, skip counter, and error counter.
2. **degrade quality** — transform the *session* instead of the
   placement: :class:`ResolutionDownscaleActuator` re-queries the
   deciding policy at a ladder of lower resolutions (the Eq. 2 pixel
   scaling of GPU intensity and solo FPS) before giving up on
   colocation.
3. **add capacity** — the implicit terminal actuator: open a dedicated
   server.  It cannot fail, so the pipeline always terminates.

The default construction (a primary policy, an optional fallback, no
ladder) builds the exact pre-refactor chain, and the decision path is
byte-identical to it: same counters in the same order, same spans, same
breaker consultations — pinned by the chaos/parity suites.

A production dispatcher must never crash on one bad request, so in the
default (serving) configuration *any* exception during placement
evaluation — a game missing from the profile database
(:class:`repro.core.MissingProfileError`), an unfitted model raising
``RuntimeError``, a numerical failure, an injected chaos fault — is
counted and absorbed: the decision falls through the pipeline, and in
the worst case to opening a dedicated server.  A policy returning an
out-of-range server index is treated exactly like a policy that raised
(``invalid_choices`` counter), so a buggy return value can never corrupt
the fleet bookkeeping downstream.  The offline frontend instead runs
with ``strict=True``, where a policy error propagates to the caller — a
simulation with a broken policy should fail loudly, not consolidate
conservatively.

Beyond per-decision fallthrough, the engine runs an explicit
degraded-mode state machine when given a :class:`BreakerConfig`:

- **NORMAL** — the first policy actuator answers (its circuit breaker
  is CLOSED).
- **DEGRADED** — sustained primary failures (error rate or decision
  deadline overruns over a sliding window) tripped the first breaker;
  arrivals are served by a later policy actuator without consulting the
  primary.  After a cooldown the breaker half-opens and probes the
  primary; enough successful probes recover to NORMAL.
- **CONSERVATIVE** — every later policy actuator's breaker tripped too
  (or there is none); every arrival opens a dedicated server until a
  probe window recovers a policy.

Every decision is timed into a fixed-bucket latency histogram; when a
``decision_deadline_s`` budget is set, overruns are counted and fed to
the breaker as failures — a policy that answers correctly but too slowly
is still a policy you stop asking.  Downscale re-queries run inside the
same budget: a ladder walk that blows the deadline charges the deciding
policy's breaker like any other slow answer.

The quality lever is reversible.  :meth:`DecisionEngine.restore` walks
the fleet's degraded sessions (oldest first) and re-promotes each to the
best resolution — its original request, or an intermediate ladder rung —
that the first policy actuator still deems feasible for the session's
current server group.  One frontend calls it, on departure-freed
capacity: the serving broker, every ``restore_interval`` of its own
arrivals — sharded or not.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from enum import Enum

from repro.games.resolution import DegradeLadder
from repro.obs.metrics import BoundInstruments, Telemetry
from repro.obs.tracing import NOOP_TRACER, Tracer
from repro.placement.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.placement.fleet import FleetState, Session, degraded_to, promoted_to
from repro.placement.policies import AdmissionPolicy, Signature
from repro.placement.signature import entry_of, signature_add

__all__ = [
    "AdmissionDecision",
    "PlacementOutcome",
    "DecisionEngine",
    "Mode",
    "PolicyActuator",
    "ResolutionDownscaleActuator",
]


class Mode(Enum):
    """Health modes of the admission path (see module docstring)."""

    NORMAL = "normal"
    DEGRADED = "degraded"
    CONSERVATIVE = "conservative"


#: The ``mode_level`` gauge's value in each mode.
_MODE_LEVEL = {Mode.NORMAL: 0, Mode.DEGRADED: 1, Mode.CONSERVATIVE: 2}


class PolicyActuator:
    """A placement policy as a pipeline step, with its breaker and counters.

    ``skip_counter`` is incremented when the breaker rejects the step
    without consulting the policy (``degraded_decisions`` for the first
    step, ``conservative_decisions`` for later steps — the historical
    names of the mode machine), and ``error_counter`` when the policy
    raises or answers out of range (``policy_errors`` /
    ``fallback_errors``).
    """

    def __init__(
        self,
        policy: AdmissionPolicy,
        *,
        breaker: CircuitBreaker | None = None,
        skip_counter: str,
        error_counter: str,
        is_fallback: bool,
    ):
        self.policy = policy
        self.breaker = breaker
        self.skip_counter = skip_counter
        self.error_counter = error_counter
        self.is_fallback = bool(is_fallback)

    @property
    def name(self) -> str:
        return self.policy.name

    @property
    def available(self) -> bool:
        """Whether the step would currently be consulted (breaker not OPEN)."""
        return self.breaker is None or self.breaker.state in (
            BreakerState.CLOSED,
            BreakerState.HALF_OPEN,
        )


class ResolutionDownscaleActuator:
    """Degrade quality before adding capacity (ROADMAP item 3, Stimpack-style).

    When the deciding policy answers "open a new server" for a session,
    this actuator re-queries the *same* policy with the session rewritten
    to each ladder rung strictly below its current resolution, best rung
    first.  Eq. 2 makes the re-query trustworthy: solo FPS and GPU
    intensity scale linearly with pixel count while CPU intensity and
    sensitivity are resolution-invariant, so a lower rung strictly
    shrinks the candidate's footprint.  The first rung the policy accepts
    wins; the session is placed at that rung with its original request
    remembered (``Session.requested``) so the restore loop can promote
    it back when capacity frees.
    """

    name = "resolution-downscale"

    def __init__(self, ladder: DegradeLadder):
        self.ladder = ladder

    def actuate(
        self,
        engine: "DecisionEngine",
        policy: AdmissionPolicy,
        signatures: list[Signature],
        session,
    ) -> tuple[int, Session] | None:
        """Try the ladder; returns ``(choice, degraded_session)`` or ``None``."""
        rungs = self.ladder.rungs_below(session.resolution)
        if not rungs:
            return None
        t = engine.telemetry
        span = engine.tracer.span(
            "downscale",
            policy=policy.name,
            game=getattr(session, "game", None),
            rungs=len(rungs),
        )
        with span:
            for rung in rungs:
                t.counter("downscale_queries", resolution=str(rung)).inc()
                candidate = degraded_to(session, rung)
                try:
                    choice = policy.select(signatures, candidate)
                except Exception:
                    if engine.strict:
                        raise
                    t.counter("downscale_errors").inc()
                    span.set(outcome="error")
                    return None
                if choice is None:
                    continue
                index = engine._valid_index(
                    policy, choice, len(signatures), "downscale_errors",
                    " during downscale",
                )
                if index is None:
                    span.set(outcome="error")
                    return None
                t.counter("downscales", resolution=str(rung)).inc()
                span.set(outcome="hit", choice=index, resolution=str(rung))
                return index, candidate
            span.set(outcome="miss")
        return None


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one placement evaluation.

    ``server`` is the index into the candidate-signature list (``None``
    opens a new server), ``policy`` names the policy whose answer was
    used, and ``fallback`` flags that the primary policy's answer was not
    (the primary failed, answered out of range, or was skipped by the
    breaker).  ``session`` is set when a transform actuator rewrote the
    session (resolution downscale): the rewritten session is the one to
    place; ``None`` means place the session as requested.
    """

    server: int | None
    policy: str
    fallback: bool
    session: Session | None = None


@dataclass(frozen=True)
class PlacementOutcome:
    """Outcome of one decision *applied* to a fleet.

    ``choice`` is the policy's index into the open-server list presented
    at decision time (``None`` = new server) — directly comparable
    across frontends; ``server_id`` is the stable id of the server that
    ended up hosting the session.  ``session`` is the session as placed
    — it differs from the session submitted only when a quality actuator
    degraded its resolution.
    """

    choice: int | None
    server_id: int
    policy: str
    fallback: bool
    session: Session


class DecisionEngine:
    """Evaluates placements through the actuator pipeline and mutates the fleet.

    ``strict=True`` (the offline frontend) disables the absorb-and-
    degrade machinery: a policy exception propagates and an out-of-range
    index raises ``IndexError`` instead of being converted into a
    fallback decision.  The downscale actuator still runs under
    ``strict`` (the offline experiments measure it); only its error
    absorption is disabled.
    """

    def __init__(
        self,
        policy: AdmissionPolicy,
        *,
        fallback: AdmissionPolicy | None = None,
        telemetry: Telemetry | None = None,
        breaker: BreakerConfig | None = None,
        decision_deadline_s: float | None = None,
        tracer: Tracer | None = None,
        strict: bool = False,
        downscale_ladder: DegradeLadder | None = None,
    ):
        if decision_deadline_s is not None and decision_deadline_s <= 0:
            raise ValueError("decision_deadline_s must be positive")
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.decision_deadline_s = decision_deadline_s
        self.strict = bool(strict)
        self.mode = Mode.NORMAL
        self.mode_transitions: list[dict] = []
        self._bound_to: Telemetry | None = None  # see _bind
        # The policy chain: step 0 is the primary, later steps are the
        # conservative fallbacks, each with its own breaker.  Breaker
        # names keep their historical labels ("primary"/"fallback") so
        # resilience snapshots and breaker events stay byte-compatible.
        primary_breaker = fallback_breaker = None
        if breaker is not None:
            primary_breaker = CircuitBreaker(
                breaker, name="primary", on_transition=self._breaker_event("primary")
            )
            if fallback is not None:
                fallback_breaker = CircuitBreaker(
                    breaker,
                    name="fallback",
                    on_transition=self._breaker_event("fallback"),
                )
        self.pipeline: list[PolicyActuator] = [
            PolicyActuator(
                policy,
                breaker=primary_breaker,
                skip_counter="degraded_decisions",
                error_counter="policy_errors",
                is_fallback=False,
            )
        ]
        if fallback is not None:
            self.pipeline.append(
                PolicyActuator(
                    fallback,
                    breaker=fallback_breaker,
                    skip_counter="conservative_decisions",
                    error_counter="fallback_errors",
                    is_fallback=True,
                )
            )
        self.downscale: ResolutionDownscaleActuator | None = (
            ResolutionDownscaleActuator(downscale_ladder)
            if downscale_ladder is not None
            else None
        )
        self._instrument_members()

    def _instrument_members(self) -> None:
        # Flow the shared telemetry/tracer into the policies (and through
        # them into the predictor) so one request yields one trace.
        for step in self.pipeline:
            instrument = getattr(step.policy, "instrument", None)
            if callable(instrument):
                instrument(telemetry=self.telemetry, tracer=self.tracer)

    def set_tracer(self, tracer: Tracer) -> None:
        """Swap the tracer, re-instrumenting policies and predictor."""
        self.tracer = tracer
        self._instrument_members()

    def _bind(self, telemetry: Telemetry) -> None:
        """Resolve the decision path's instruments through ``telemetry``, lazily."""
        self._bound_to = telemetry
        self._counters = BoundInstruments(telemetry.counter)
        self._decisions = BoundInstruments(
            lambda key: telemetry.counter("decisions", policy=key[0], mode=key[1])
        )
        self._histograms = BoundInstruments(telemetry.histogram)
        self._gauges = BoundInstruments(telemetry.gauge)

    def _breaker_event(self, which: str):
        def emit(change: dict) -> None:
            self.telemetry.event("breaker_transition", breaker=which, **change)
            self.tracer.instant("breaker_transition", breaker=which, **change)

        return emit

    # ------------------------------------------------------------------

    def _valid_index(
        self, policy: AdmissionPolicy, choice, n_servers: int, error_counter: str,
        context: str = "",
    ) -> int | None:
        """``choice`` as an index into the pool, or ``None`` for a bad answer.

        A buggy policy return value is a policy error, not a crash in the
        fleet bookkeeping downstream: counted (``invalid_choices``, then
        ``error_counter``) and absorbed, or raised under ``strict``.
        """
        try:
            index = operator.index(choice)
        except TypeError:
            index = -1
        if 0 <= index < n_servers:
            return index
        if self.strict:
            raise IndexError(
                f"policy {policy.name!r} returned server index {choice!r} "
                f"for a pool of {n_servers} servers{context}"
            )
        self.telemetry.counter("invalid_choices").inc()
        self.telemetry.counter(error_counter).inc()
        return None

    def _attempt(
        self, step: PolicyActuator, signatures: list[Signature], session
    ) -> tuple[bool, int | None]:
        """Run one step's policy, validating its answer.  Returns (ok, choice)."""
        policy = step.policy
        span = self.tracer.span(
            "policy", policy=policy.name, fallback=step.is_fallback
        )
        try:
            with span:
                choice = policy.select(signatures, session)
        except Exception:
            if self.strict:
                raise
            self.telemetry.counter(step.error_counter).inc()
            return False, None
        if choice is None:
            return True, None
        index = self._valid_index(
            policy, choice, len(signatures), step.error_counter
        )
        return index is not None, index

    def decide(self, signatures: list[Signature], session) -> AdmissionDecision:
        """Place ``session`` against the open-server ``signatures``.

        Never raises (unless ``strict``): policy failures (exceptions,
        invalid indices, deadline overruns) are absorbed into the
        actuator pipeline (policy chain -> downscale -> dedicated) and
        surfaced as the ``policy_errors`` / ``fallbacks`` /
        ``fallback_errors`` / ``invalid_choices`` / ``deadline_overruns``
        counters.
        """
        if self.telemetry is not self._bound_to:
            self._bind(self.telemetry)
        counters = self._counters
        counters["requests"].inc()
        span = self.tracer.span(
            "admission",
            game=getattr(session, "game", None),
            candidates=len(signatures),
        )
        with span:
            start = time.perf_counter()
            choice: int | None = None
            policy_used = "dedicated"
            used_fallback = False
            placed_session: Session | None = None
            deciding: PolicyActuator | None = None
            # (step, ok) for every step whose policy was actually
            # consulted, in consultation order — the breaker feed.
            attempted: list[tuple[PolicyActuator, bool]] = []

            first = self.pipeline[0]
            first_ok: bool | None = None
            first_allowed = first.breaker.allow() if first.breaker else True
            if first_allowed:
                first_ok, choice = self._attempt(first, signatures, session)
                attempted.append((first, first_ok))
                if first_ok:
                    policy_used = first.name
                    deciding = first
            else:
                counters[first.skip_counter].inc()

            if not (first_allowed and first_ok):
                used_fallback = True
                counters["fallbacks"].inc()
                choice = None
                for step in self.pipeline[1:]:
                    if not (step.breaker.allow() if step.breaker else True):
                        counters[step.skip_counter].inc()
                        continue
                    ok, choice = self._attempt(step, signatures, session)
                    attempted.append((step, ok))
                    if ok:
                        policy_used = step.name
                        deciding = step
                        break
                    choice = None

            if (
                self.downscale is not None
                and choice is None
                and deciding is not None
            ):
                # The deciding policy said "open a new server" — pull the
                # quality lever before the capacity one.
                found = self.downscale.actuate(
                    self, deciding.policy, signatures, session
                )
                if found is not None:
                    choice, placed_session = found

            elapsed = time.perf_counter() - start
            overrun = (
                self.decision_deadline_s is not None
                and elapsed > self.decision_deadline_s
            )
            if overrun:
                counters["deadline_overruns"].inc()
            for step, ok in attempted:
                if step.breaker is not None:
                    step.breaker.record(ok and not overrun)
            self._histograms["decision_latency_s"].observe(elapsed)
            counters["admissions" if choice is not None else "servers_opened"].inc()
            self._update_mode()
            mode = self.mode.value
            self._decisions[policy_used, mode].inc()
            span.set(
                policy=policy_used,
                fallback=used_fallback,
                choice=choice,
                mode=mode,
            )
            if placed_session is not None:
                span.set(resolution=str(placed_session.resolution))
        return AdmissionDecision(
            server=choice,
            policy=policy_used,
            fallback=used_fallback,
            session=placed_session,
        )

    def admit(self, fleet: FleetState, session) -> PlacementOutcome:
        """Decide against ``fleet``'s current pool and apply the placement.

        The one mutation path shared by every frontend: the decision is
        evaluated against :meth:`FleetState.signatures` and immediately
        applied with :meth:`FleetState.place`, so the index a policy
        returned can never be re-interpreted against a stale pool.
        The fleet maintains those signatures, and their grouping by
        distinct signature, incrementally under mutation: the pool
        presented here is a list copy carrying that index, and policies
        scan its groups rather than its servers.
        When a quality actuator rewrote the session, the rewritten
        session is the one placed.
        """
        decision = self.decide(fleet.signatures(), session)
        placed = decision.session if decision.session is not None else session
        server_id = fleet.place(decision.server, placed)
        return PlacementOutcome(
            choice=decision.server,
            server_id=server_id,
            policy=decision.policy,
            fallback=decision.fallback,
            session=placed,
        )

    # -- restore (the quality lever, reversed) --------------------------

    @property
    def can_restore(self) -> bool:
        """Whether the restore loop is operable.

        Requires a downscale ladder and a first policy that can answer
        group-level feasibility (``group_feasible``); model-free chains
        without it simply never promote.
        """
        return self.downscale is not None and callable(
            getattr(self.pipeline[0].policy, "group_feasible", None)
        )

    def restore(self, fleet: FleetState) -> int:
        """Re-promote degraded sessions that departure-freed capacity allows.

        Walks the fleet's degraded sessions oldest-first and, for each,
        asks the first policy whether the session's current server group
        stays feasible with the session promoted — to its originally
        requested resolution first, then to intermediate ladder rungs.
        The best feasible target wins and the fleet is updated in place
        (same server, same departure; only the resolution entry of the
        signature changes).  Returns the number of sessions promoted.

        Skipped entirely while the first policy's breaker is OPEN — a
        tripped primary is not consulted for promotions any more than
        for admissions.
        """
        if not self.can_restore or fleet.n_degraded == 0:
            return 0
        first = self.pipeline[0]
        if first.breaker is not None and first.breaker.state is BreakerState.OPEN:
            return 0
        t = self.telemetry
        ladder = self.downscale.ladder
        promoted = 0
        span = self.tracer.span("restore", degraded=fleet.n_degraded)
        with span:
            # Materialize first: promotions mutate the degraded set.
            for server_id, member_id, session in fleet.degraded_members():
                requested = session.requested
                sig = fleet.server_signature(server_id)
                i = sig.index(entry_of(session))
                without = sig[:i] + sig[i + 1 :]
                targets = (requested,) + ladder.rungs_between(
                    session.resolution, requested
                )
                for target in targets:
                    t.counter("restore_queries").inc()
                    candidate = signature_add(without, (session.game, target))
                    try:
                        feasible = first.policy.group_feasible(candidate)
                    except Exception:
                        if self.strict:
                            raise
                        t.counter("restore_errors").inc()
                        span.set(outcome="error", promoted=promoted)
                        return promoted
                    if feasible:
                        fleet.update_resolution(
                            server_id, member_id, promoted_to(session, target)
                        )
                        t.counter("restores", resolution=str(target)).inc()
                        promoted += 1
                        break
            span.set(promoted=promoted)
        return promoted

    # ------------------------------------------------------------------

    def _update_mode(self) -> None:
        """Re-derive the health mode from the breaker states, logging changes."""
        first = self.pipeline[0]
        if first.breaker is None:
            return
        if first.breaker.state is BreakerState.CLOSED:
            mode = Mode.NORMAL
        elif any(step.available for step in self.pipeline[1:]):
            mode = Mode.DEGRADED
        else:
            mode = Mode.CONSERVATIVE
        if mode is not self.mode:
            change = {
                "decision": self.telemetry.counter("requests").value,
                "from": self.mode.value,
                "to": mode.value,
            }
            self.mode_transitions.append(change)
            self.telemetry.counter("mode_transitions").inc()
            self.telemetry.event("mode_transition", **change)
            self.tracer.instant("mode_transition", **change)
            self.mode = mode
        self._gauges["mode_level"].set(_MODE_LEVEL[mode])

    def resilience_snapshot(self) -> dict:
        """JSON-able resilience state: mode, transitions, breakers, budget."""
        breakers = {}
        trips = recoveries = 0
        for step in self.pipeline:
            if step.breaker is not None:
                breakers[step.breaker.name] = step.breaker.to_dict()
                trips += step.breaker.trips
                recoveries += step.breaker.recoveries
        return {
            "enabled": self.pipeline[0].breaker is not None,
            "mode": self.mode.value,
            "mode_transitions": list(self.mode_transitions),
            "decision_deadline_s": self.decision_deadline_s,
            "trips": trips,
            "recoveries": recoveries,
            "breakers": breakers,
        }

    def caches(self) -> dict[str, object]:
        """Prediction caches attached to the policies, keyed by policy name.

        Duck-typed on ``stats()`` so fault-injection cache wrappers
        (:class:`repro.serving.faults.FaultyCache`) are reported too.
        """
        out: dict[str, object] = {}
        for step in self.pipeline:
            cache = getattr(step.policy, "cache", None)
            if cache is not None and callable(getattr(cache, "stats", None)):
                out[step.policy.name] = cache
        return out
