"""The decision engine: one decision chain between policies and the fleet.

The event-loop broker (:class:`repro.serving.RequestBroker`) — and so
the offline simulator, a strict run of it
(:func:`repro.scheduling.dynamic.simulate_sessions`) — answers every
arrival through :class:`DecisionEngine`.  Each arrival walks one chain,
pulling the next lever only when the previous one could not place the
session:

1. **primary** — the configured policy.
2. **fallback** — an optional more conservative policy.  Both policy
   steps live in ``engine.pipeline``: each :class:`PolicyActuator`
   record holds one :class:`~repro.placement.policies.AdmissionPolicy`
   with its error counter.
3. **downscale** — the quality lever, when ``engine.ladder`` is set:
   the deciding policy said "open a new server", so it is re-asked at
   the ladder's lower resolutions (the Eq. 2 pixel scaling of GPU
   intensity and solo FPS) before giving up on colocation.
4. **dedicated** — open a new server.  It cannot fail, so the chain
   always terminates.

A production dispatcher must never crash on one bad request, so in the
default (serving) configuration *any* exception during placement
evaluation — a game missing from the profile database
(:class:`repro.core.MissingProfileError`), an unfitted model raising
``RuntimeError``, a numerical failure, an injected chaos fault — is
counted and absorbed: the decision falls through the chain, and in the
worst case to opening a dedicated server.  A policy returning an
out-of-range server index is treated exactly like a policy that raised
(``invalid_choices`` counter), so a buggy return value can never corrupt
the fleet bookkeeping downstream.  The offline frontend instead runs
with ``strict=True``, where a policy error propagates to the caller — a
simulation with a broken policy should fail loudly, not consolidate
conservatively.

Failure handling is per decision only: a policy that failed is asked
again on the very next arrival, so a recovered model serves at once.
Every decision is timed into a fixed-bucket latency histogram
(``decision_latency_s``).

The quality lever is reversible.  :meth:`DecisionEngine.restore` walks
the fleet's degraded sessions (oldest first) and re-promotes each to the
best resolution — its original request, or an intermediate ladder rung —
that the primary still deems feasible for the session's current server
group.  One frontend calls it, on departure-freed capacity: the serving
broker, every ``restore_interval`` of its own arrivals — sharded or not.
"""

from __future__ import annotations

import operator
import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.games.resolution import DegradeLadder
from repro.obs.metrics import BoundInstruments, Telemetry
from repro.obs.tracing import NOOP_TRACER, Tracer
from repro.placement.fleet import FleetState, Session, degraded_to, promoted_to
from repro.placement.policies import AdmissionPolicy, Signature
from repro.placement.signature import entry_of, signature_add

__all__ = [
    "AdmissionDecision",
    "PlacementOutcome",
    "DecisionEngine",
    "PolicyActuator",
]


#: The shared do-nothing span: a downscale re-query opens no span of its
#: own (the ``downscale`` span covers the whole ladder walk).
_NO_SPAN = NOOP_TRACER.span("query")


@dataclass(slots=True)
class PolicyActuator:
    """One policy step of the decision chain.

    ``error_counter`` counts the policy's raises and out-of-range answers
    (``policy_errors`` / ``fallback_errors``).  Every step after the
    first is a fallback.
    """

    policy: AdmissionPolicy
    error_counter: str


@dataclass(slots=True)
class AdmissionDecision:
    """Outcome of one placement evaluation.

    ``server`` is the index into the candidate-signature list (``None``
    opens a new server), ``policy`` names the policy whose answer was
    used, and ``fallback`` flags that the primary policy's answer was not
    (the primary failed or answered out of range).  ``session`` is set
    when the downscale step rewrote the session: the rewritten session is
    the one to place; ``None`` means place the session as requested.
    """

    server: int | None
    policy: str
    fallback: bool
    session: Session | None = None


@dataclass(slots=True)
class PlacementOutcome:
    """Outcome of one decision *applied* to a fleet.

    ``choice`` is the policy's index into the open-server list presented
    at decision time (``None`` = new server) — directly comparable
    across frontends; ``server_id`` is the stable id of the server that
    ended up hosting the session.  ``session`` is the session as placed
    — it differs from the session submitted only when the downscale step
    degraded its resolution.
    """

    choice: int | None
    server_id: int
    policy: str
    fallback: bool
    session: Session


class DecisionEngine:
    """Evaluates placements through the decision chain and mutates the fleet.

    ``strict=True`` (the offline frontend) disables the absorb-and-
    degrade machinery: a policy exception propagates and an out-of-range
    index raises ``IndexError`` instead of being converted into a
    fallback decision.  The downscale step still runs under ``strict``
    (the offline experiments measure it); only its error absorption is
    disabled.
    """

    def __init__(
        self,
        policy: AdmissionPolicy,
        *,
        fallback: AdmissionPolicy | None = None,
        telemetry: Telemetry | None = None,
        tracer: Tracer | None = None,
        strict: bool = False,
        downscale_ladder: DegradeLadder | None = None,
    ):
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.strict = bool(strict)
        self._bound_to: Telemetry | None = None  # see _bind
        self.pipeline = [PolicyActuator(policy, "policy_errors")]
        if fallback is not None:
            self.pipeline.append(PolicyActuator(fallback, "fallback_errors"))
        self.ladder = downscale_ladder
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
            lambda policy: telemetry.counter("decisions", policy=policy)
        )
        self._histograms = BoundInstruments(telemetry.histogram)

    # ------------------------------------------------------------------

    def _ask(
        self, policy: AdmissionPolicy, signatures: Sequence[Signature], session,
        error_counter: str, span,
    ) -> tuple[bool, int | None]:
        """Ask ``policy`` to place ``session``: ``(ok, index or None)``.

        A raise, or an answer that is not an index into ``signatures``, is
        a policy error rather than a crash in the fleet bookkeeping
        downstream: counted (``invalid_choices`` for a bad answer, then
        ``error_counter``) and returned as ``(False, None)`` — or raised
        under ``strict``.  ``span`` wraps the policy call.
        """
        counters = self._counters
        try:
            with span:
                choice = policy.select(signatures, session)
        except Exception:
            if self.strict:
                raise
            counters[error_counter].inc()
            return False, None
        if choice is None:
            return True, None
        try:
            index = operator.index(choice)
        except TypeError:
            index = -1
        if 0 <= index < len(signatures):
            return True, index
        if self.strict:
            raise IndexError(
                f"policy {policy.name!r} returned server index {choice!r} "
                f"for a pool of {len(signatures)} servers"
            )
        counters["invalid_choices"].inc()
        counters[error_counter].inc()
        return False, None

    def _downscale(
        self, policy: AdmissionPolicy, signatures: Sequence[Signature], session
    ) -> tuple[int, Session] | None:
        """Degrade quality before adding capacity (Stimpack-style).

        ``policy`` answered "open a new server" for ``session``: re-ask it
        with the session rewritten to each ladder rung below its
        resolution, best rung first.  Eq. 2 makes the re-query
        trustworthy: solo FPS and GPU intensity scale linearly with pixel
        count while CPU intensity and sensitivity are resolution-
        invariant, so a lower rung strictly shrinks the footprint.  The
        first accepted rung wins: ``(index, degraded session)``, the
        original request kept in ``Session.requested`` for
        :meth:`restore`.  ``None`` on a miss or a policy error.
        """
        rungs = self.ladder.rungs_below(session.resolution)
        if not rungs:
            return None
        counter = self.telemetry.counter
        span = self.tracer.span(
            "downscale",
            policy=policy.name,
            game=getattr(session, "game", None),
            rungs=len(rungs),
        )
        with span:
            for rung in rungs:
                counter("downscale_queries", resolution=str(rung)).inc()
                candidate = degraded_to(session, rung)
                ok, index = self._ask(
                    policy, signatures, candidate, "downscale_errors", _NO_SPAN
                )
                if not ok:
                    span.set(outcome="error")
                    return None
                if index is not None:
                    counter("downscales", resolution=str(rung)).inc()
                    span.set(outcome="hit", choice=index, resolution=str(rung))
                    return index, candidate
            span.set(outcome="miss")
        return None

    def decide(self, signatures: Sequence[Signature], session) -> AdmissionDecision:
        """Place ``session`` against the open-server ``signatures``.

        Never raises (unless ``strict``): policy failures (exceptions,
        invalid indices) are absorbed into the decision chain (primary ->
        fallback -> downscale -> dedicated) and surfaced as the
        ``policy_errors`` / ``fallbacks`` / ``fallback_errors`` /
        ``invalid_choices`` counters.
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
            deciding: PolicyActuator | None = None
            used_fallback = False
            for step in self.pipeline:
                ok, choice = self._ask(
                    step.policy, signatures, session, step.error_counter,
                    self.tracer.span(
                        "policy", policy=step.policy.name, fallback=used_fallback
                    ),
                )
                if ok:
                    deciding = step
                    break
                if not used_fallback:
                    used_fallback = True
                    counters["fallbacks"].inc()

            placed_session: Session | None = None
            if choice is None and deciding is not None and self.ladder is not None:
                # The deciding policy said "open a new server" — pull the
                # quality lever before the capacity one.
                found = self._downscale(deciding.policy, signatures, session)
                if found is not None:
                    choice, placed_session = found
            policy_used = "dedicated" if deciding is None else deciding.policy.name

            self._histograms["decision_latency_s"].observe(
                time.perf_counter() - start
            )
            counters["admissions" if choice is not None else "servers_opened"].inc()
            self._decisions[policy_used].inc()
            span.set(policy=policy_used, fallback=used_fallback, choice=choice)
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
        evaluated against the fleet's pool and immediately applied with
        :meth:`FleetState.place`, so the index a policy returned can
        never be re-interpreted against a stale pool.
        The fleet maintains those signatures, and their grouping by
        distinct signature, incrementally under mutation: the pool
        presented here is a read-only view of that index
        (:meth:`FleetState.signature_view`, equal to
        :meth:`FleetState.signatures` item for item, without the copy),
        and policies scan its groups rather than its servers.
        When the downscale step rewrote the session, the rewritten
        session is the one placed.
        """
        decision = self.decide(fleet.signature_view(), session)
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
        return self.ladder is not None and callable(
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
        """
        if not self.can_restore or fleet.n_degraded == 0:
            return 0
        first = self.pipeline[0]
        t = self.telemetry
        promoted = 0
        span = self.tracer.span("restore", degraded=fleet.n_degraded)
        with span:
            # Materialize first: promotions mutate the degraded set.
            for server_id, member_id, session in fleet.degraded_members():
                requested = session.requested
                sig = fleet.server_signature(server_id)
                i = sig.index(entry_of(session))
                without = sig[:i] + sig[i + 1 :]
                targets = (requested,) + self.ladder.rungs_between(
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

    def caches(self) -> dict[str, object]:
        """Prediction caches attached to the policies, keyed by policy name.

        Duck-typed on ``stats()``.  Fault injection wraps the predictor,
        never the cache, so under ``--fault-rate`` too these are the
        policies' own caches, and their ``hits`` count probes only: a
        group verdict memo answer is not one.
        """
        out: dict[str, object] = {}
        for step in self.pipeline:
            cache = getattr(step.policy, "cache", None)
            if cache is not None and callable(getattr(cache, "stats", None)):
                out[step.policy.name] = cache
        return out
