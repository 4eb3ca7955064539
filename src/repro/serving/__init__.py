"""Online serving subsystem: the dispatcher in front of GAugur's models.

The paper's predictions are cheap enough to run at request-arrival time
(Section 5); this package supplies the component that actually does so in
a fleet — a discrete-event :class:`RequestBroker` consuming a session
trace and driving the shared placement core (:mod:`repro.placement`):
the :class:`DecisionEngine` evaluates candidate servers through
pluggable policies with graceful fallback, a canonical-key LRU
:class:`PredictionCache` over the predictor's batched API, and
:class:`Telemetry` (counters + latency histograms + event log) exposed as
one JSON snapshot.  The engine, policy and cache names
re-exported here live in :mod:`repro.placement`; the telemetry names are
imported from :mod:`repro.obs` only.

There is one stack constructor,
:func:`repro.sharding.build_shard_brokers`: it wires telemetry, fault
injector, cache, policies, engine, ledger and broker for every shard,
and ``python -m repro serve`` without ``--shards`` drives shard 0 of a
one-shard stack through :meth:`RequestBroker.run`.

The fault-tolerance layer keeps the dispatcher up when components fail:
a seeded :class:`FaultInjector` wraps the predictor in a proxy that
raises deterministic errors (``--fault-rate``), each failed decision
falls through the engine's chain to the next policy (and at worst to a
dedicated server), and the broker survives server crashes by
re-admitting evicted sessions — surfaced in the report's resilience
section and the ``policy_errors`` / ``fallbacks`` counters.
"""

from repro.placement.cache import PredictionCache, colocation_key
from repro.placement.engine import AdmissionDecision, DecisionEngine
from repro.placement.policies import (
    POLICY_NAMES,
    AdmissionPolicy,
    CMFeasiblePolicy,
    DedicatedPolicy,
    MaxFPSPolicy,
    WorstFitPolicy,
    build_policy,
)
from repro.serving.broker import PlacementRecord, RequestBroker, ServingReport
from repro.serving.faults import FaultInjector, FaultyPredictor, InjectedFault
from repro.serving.loadgen import TraceConfig, generate_trace

__all__ = [
    "DecisionEngine",
    "AdmissionDecision",
    "FaultInjector",
    "FaultyPredictor",
    "InjectedFault",
    "RequestBroker",
    "ServingReport",
    "PlacementRecord",
    "PredictionCache",
    "colocation_key",
    "TraceConfig",
    "generate_trace",
    "AdmissionPolicy",
    "CMFeasiblePolicy",
    "MaxFPSPolicy",
    "WorstFitPolicy",
    "DedicatedPolicy",
    "build_policy",
    "POLICY_NAMES",
]
