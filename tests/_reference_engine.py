"""The decision engine: the one place policies meet the fleet.

Both frontends — the offline batch-clocked simulator
(:func:`repro.scheduling.dynamic.simulate_sessions`) and the online
event-loop broker (:class:`repro.serving.RequestBroker`) — answer every
arrival through :class:`DecisionEngine`: it dispatches the configured
policy (with counted fallback), validates the returned index, times the
decision against an optional deadline budget, emits tracing spans and
telemetry, and applies the decision to a
:class:`~repro.placement.fleet.FleetState`.  Offline/online placement
parity is therefore structural: there is no second copy of the dispatch
or mutation logic to drift.

A production dispatcher must never crash on one bad request, so in the
default (serving) configuration *any* exception during placement
evaluation — a game missing from the profile database
(:class:`repro.core.MissingProfileError`), an unfitted model raising
``RuntimeError``, a numerical failure, an injected chaos fault — is
counted and absorbed: the decision falls back to the conservative policy
(VBP worst-fit by default), and if that also fails, to opening a
dedicated server.  A policy returning an out-of-range server index is
treated exactly like a policy that raised (``invalid_choices`` counter),
so a buggy return value can never corrupt the fleet bookkeeping
downstream.  The offline frontend instead runs with ``strict=True``,
where a policy error propagates to the caller — a simulation with a
broken policy should fail loudly, not consolidate conservatively.

This frozen copy is kept for the parity tests as the engine ran without
a circuit breaker, its only configuration they compare against: every
decision is labeled with the health mode, which is always ``normal``
here.  Every decision is timed into a fixed-bucket latency histogram;
when a ``decision_deadline_s`` budget is set, overruns are counted.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from enum import Enum

from repro.obs.metrics import Telemetry
from repro.obs.tracing import NOOP_TRACER, Tracer
from repro.placement.fleet import FleetState
from repro.placement.policies import AdmissionPolicy, Signature

__all__ = ["AdmissionDecision", "PlacementOutcome", "DecisionEngine", "Mode"]


class Mode(Enum):
    """Health modes of the admission path; only ``NORMAL`` is reached here."""

    NORMAL = "normal"
    DEGRADED = "degraded"
    CONSERVATIVE = "conservative"


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one placement evaluation.

    ``server`` is the index into the candidate-signature list (``None``
    opens a new server), ``policy`` names the policy whose answer was
    used, and ``fallback`` flags that the primary policy's answer was not
    (the primary failed or answered out of range).
    """

    server: int | None
    policy: str
    fallback: bool


@dataclass(frozen=True)
class PlacementOutcome:
    """Outcome of one decision *applied* to a fleet.

    ``choice`` is the policy's index into the open-server list presented
    at decision time (``None`` = new server) — directly comparable
    across frontends; ``server_id`` is the stable id of the server that
    ended up hosting the session.
    """

    choice: int | None
    server_id: int
    policy: str
    fallback: bool


class DecisionEngine:
    """Evaluates placements through a primary policy and mutates the fleet.

    ``strict=True`` (the offline frontend) disables the absorb-and-
    degrade machinery: a policy exception propagates and an out-of-range
    index raises ``IndexError`` instead of being converted into a
    fallback decision.
    """

    def __init__(
        self,
        policy: AdmissionPolicy,
        *,
        fallback: AdmissionPolicy | None = None,
        telemetry: Telemetry | None = None,
        decision_deadline_s: float | None = None,
        tracer: Tracer | None = None,
        strict: bool = False,
    ):
        if decision_deadline_s is not None and decision_deadline_s <= 0:
            raise ValueError("decision_deadline_s must be positive")
        self.policy = policy
        self.fallback = fallback
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.decision_deadline_s = decision_deadline_s
        self.strict = bool(strict)
        self.mode = Mode.NORMAL
        self._instrument_members()

    def _instrument_members(self) -> None:
        # Flow the shared telemetry/tracer into the policies (and through
        # them into the predictor) so one request yields one trace.
        for member in (self.policy, self.fallback):
            instrument = getattr(member, "instrument", None)
            if callable(instrument):
                instrument(telemetry=self.telemetry, tracer=self.tracer)

    def set_tracer(self, tracer: Tracer) -> None:
        """Swap the tracer, re-instrumenting policies and predictor."""
        self.tracer = tracer
        self._instrument_members()

    # ------------------------------------------------------------------

    def _attempt(
        self, policy: AdmissionPolicy, signatures: list[Signature], session, *,
        is_fallback: bool,
    ) -> tuple[bool, int | None]:
        """Run one policy, validating its answer.  Returns (ok, choice)."""
        error_counter = "fallback_errors" if is_fallback else "policy_errors"
        span = self.tracer.span(
            "policy", policy=policy.name, fallback=is_fallback
        )
        try:
            with span:
                choice = policy.select(signatures, session)
        except Exception:
            if self.strict:
                raise
            self.telemetry.counter(error_counter).inc()
            return False, None
        if choice is None:
            return True, None
        try:
            index = operator.index(choice)
        except TypeError:
            index = -1
        if not 0 <= index < len(signatures):
            # A buggy policy return value is a policy error, not a crash
            # in the fleet bookkeeping downstream.
            if self.strict:
                raise IndexError(
                    f"policy {policy.name!r} returned server index {choice!r} "
                    f"for a pool of {len(signatures)} servers"
                )
            self.telemetry.counter("invalid_choices").inc()
            self.telemetry.counter(error_counter).inc()
            return False, None
        return True, index

    def decide(self, signatures: list[Signature], session) -> AdmissionDecision:
        """Place ``session`` against the open-server ``signatures``.

        Never raises (unless ``strict``): policy failures (exceptions,
        invalid indices, deadline overruns) are absorbed into the
        fallback chain (primary -> fallback -> dedicated) and surfaced as
        the ``policy_errors`` / ``fallbacks`` / ``fallback_errors`` /
        ``invalid_choices`` / ``deadline_overruns`` counters.
        """
        t = self.telemetry
        t.counter("requests").inc()
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

            primary_ok, choice = self._attempt(
                self.policy, signatures, session, is_fallback=False
            )
            if primary_ok:
                policy_used = self.policy.name
            else:
                used_fallback = True
                t.counter("fallbacks").inc()
                choice = None
                if self.fallback is not None:
                    fallback_ok, choice = self._attempt(
                        self.fallback, signatures, session, is_fallback=True
                    )
                    if fallback_ok:
                        policy_used = self.fallback.name
                    else:
                        choice = None

            elapsed = time.perf_counter() - start
            overrun = (
                self.decision_deadline_s is not None
                and elapsed > self.decision_deadline_s
            )
            if overrun:
                t.counter("deadline_overruns").inc()
            t.histogram("decision_latency_s").observe(elapsed)
            t.counter("admissions" if choice is not None else "servers_opened").inc()
            t.counter("decisions", policy=policy_used, mode=self.mode.value).inc()
            span.set(
                policy=policy_used,
                fallback=used_fallback,
                choice=choice,
                mode=self.mode.value,
            )
        return AdmissionDecision(
            server=choice, policy=policy_used, fallback=used_fallback
        )

    def admit(self, fleet: FleetState, session) -> PlacementOutcome:
        """Decide against ``fleet``'s current pool and apply the placement.

        The one mutation path shared by every frontend: the decision is
        evaluated against :meth:`FleetState.signature_view` and immediately
        applied with :meth:`FleetState.place`, so the index a policy
        returned can never be re-interpreted against a stale pool.
        The fleet maintains those signatures incrementally under
        mutation, so presenting the pool here is a view of its index
        rather than a per-server canonicalization on every arrival.
        """
        decision = self.decide(fleet.signature_view(), session)
        server_id = fleet.place(decision.server, session)
        return PlacementOutcome(
            choice=decision.server,
            server_id=server_id,
            policy=decision.policy,
            fallback=decision.fallback,
        )

    # ------------------------------------------------------------------

    def caches(self) -> dict[str, object]:
        """Prediction caches attached to the policies, keyed by policy name.

        Duck-typed on ``stats()``.
        """
        out: dict[str, object] = {}
        for policy in (self.policy, self.fallback):
            cache = getattr(policy, "cache", None)
            if cache is not None and callable(getattr(cache, "stats", None)):
                out[policy.name] = cache
        return out


def drop_mode(node):
    """``node`` (a span record, snapshot or report) without ``mode`` keys.

    This engine labels every ``decisions`` count and ``admission`` span
    with its health mode; the current engine has no modes.  Stripping the
    label is the one normalization the parity tests apply to this side.
    """
    if isinstance(node, dict):
        return {key: drop_mode(value) for key, value in node.items() if key != "mode"}
    if isinstance(node, list):
        return [drop_mode(value) for value in node]
    return node
