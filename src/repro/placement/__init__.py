"""The placement core behind the online broker and the offline simulator.

This package is the single implementation of "where does this session
go": canonical signatures and cache keys (:mod:`.signature`), the fleet
bookkeeping (:mod:`.fleet`), the prediction cache (:mod:`.cache`), the
placement policies (:mod:`.policies`), and the :class:`DecisionEngine`
(:mod:`.engine`) that walks one decision chain — primary and fallback
policies, the resolution downscale, a dedicated server — under tracing
spans and telemetry, and applies decisions to the fleet.

One frontend drives it: the event-loop broker
(:class:`repro.serving.RequestBroker`); the offline simulator
(:func:`repro.scheduling.dynamic.simulate_sessions`) is a strict broker
run scored by the QoS ledger.  Layering is
strict: ``repro.obs`` (tracing + metrics) sits below this package, and
this package never imports ``repro.serving`` or ``repro.scheduling`` —
both depend on it, not the other way around.
"""

from repro.placement.assignment import (
    AssignmentResult,
    assign_max_fps,
    assign_worst_fit,
    evaluate_assignment,
)
from repro.placement.cache import PredictionCache
from repro.placement.engine import (
    AdmissionDecision,
    DecisionEngine,
    PlacementOutcome,
    PolicyActuator,
)
from repro.placement.fleet import FleetState, Session, degraded_to, promoted_to
from repro.placement.policies import (
    POLICY_NAMES,
    AdmissionPolicy,
    CMFeasiblePolicy,
    DedicatedPolicy,
    MaxFPSPolicy,
    VBPFirstFitPolicy,
    WorstFitPolicy,
    build_policy,
)
from repro.placement.signature import (
    Signature,
    colocation_key,
    entry_of,
    signature_add,
    signature_of,
)

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "AssignmentResult",
    "CMFeasiblePolicy",
    "DecisionEngine",
    "DedicatedPolicy",
    "FleetState",
    "MaxFPSPolicy",
    "POLICY_NAMES",
    "PlacementOutcome",
    "PolicyActuator",
    "PredictionCache",
    "Session",
    "Signature",
    "VBPFirstFitPolicy",
    "WorstFitPolicy",
    "assign_max_fps",
    "assign_worst_fit",
    "build_policy",
    "colocation_key",
    "degraded_to",
    "entry_of",
    "evaluate_assignment",
    "promoted_to",
    "signature_add",
    "signature_of",
]
