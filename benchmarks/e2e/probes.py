"""Harness-side measurement shims and the span self-time attribution.

Nothing here edits the program: every shim is an instance attribute
shadowing a bound method on an object the harness holds (a broker, its
fleet, controller, policy, ledger, the rebalancer), so the program's own
calls — ``broker.submit`` from ``ShardedBroker._drain``,
``fleet.place`` from ``DecisionEngine.admit``, ``observer.fleet_placed``
from ``FleetState.place`` — go through it.  Untraced runs carry only
:func:`watch_submits`; the traced run adds :func:`add_layer_spans`,
which records one span per call into the program's own ``Tracer`` so
harness and program spans form one tree and one rule computes every
layer's self time.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

from repro.placement.signature import colocation_key, entry_of, signature_add

from benchmarks.e2e.workloads import MAX_COLOCATION, QOS

#: Every this-many-th decision is sampled (pool snapshot, CM audit).
SAMPLE_EVERY = 64


@dataclass
class Outcomes:
    """What the submit shims saw, across all brokers of one run."""

    latencies: list = field(default_factory=list)
    placements: list = field(default_factory=list)
    audit: list = field(default_factory=list)
    colocated: int = 0
    raised: int = 0

    def digest(self) -> str:
        """sha256 over every arrival's ``(index, shard, server_id, policy)``."""
        lines = "\n".join(
            f"{index} {shard} {server_id} {policy}"
            for index, shard, server_id, policy in sorted(self.placements)
        )
        return hashlib.sha256(lines.encode()).hexdigest()


def watch_submits(brokers, outcomes: Outcomes) -> None:
    """Time every ``submit`` from outside and log what it decided.

    A ``submit`` that raises is the one failure the serving loop is built
    never to produce; it is counted (and its traceback printed once)
    rather than allowed to abort the drain, so ``failed`` reports it.
    """
    clock = time.perf_counter

    def shadow(shard, broker):
        inner = broker.submit

        def submit(session, index):
            began = clock()
            try:
                record = inner(session, index)
            except Exception:
                if not outcomes.raised:
                    traceback.print_exc(file=sys.stderr)
                outcomes.raised += 1
                return None
            outcomes.latencies.append(clock() - began)
            outcomes.placements.append(
                (index, shard, record.server_id, record.policy)
            )
            if record.choice is not None and record.policy == "cm-feasible":
                if outcomes.colocated % SAMPLE_EVERY == 0:
                    outcomes.audit.append(
                        broker.fleet.server_signature(record.server_id)
                    )
                outcomes.colocated += 1
            return record

        broker.submit = submit

    for shard, broker in enumerate(brokers):
        shadow(shard, broker)


# ----------------------------------------------------------------------
# Traced run: layer-boundary spans, pool samples, self-time attribution.


@dataclass
class LayerTallies:
    """Counts the layer shims keep next to their spans."""

    departures: int = 0
    migrated: int = 0
    decisions: int = 0
    #: ``(pool signatures, arriving entry, open servers, live sessions)``
    #: at every ``SAMPLE_EVERY``-th decision of each controller.
    samples: list = field(default_factory=list)

    def reset(self) -> None:
        """Start counting afresh (at the warm-up boundary)."""
        self.__init__()


def _spanned(obj, attr: str, tracer, name: str, tally=None) -> None:
    """Shadow ``obj.attr`` with a version that runs inside a span."""
    inner = getattr(obj, attr)

    def shim(*args, **kwargs):
        with tracer.span(name):
            out = inner(*args, **kwargs)
        if tally is not None:
            tally(out)
        return out

    setattr(obj, attr, shim)


def add_layer_spans(stack, tracer, tallies: LayerTallies) -> None:
    """Put a span at each layer boundary the program has none at.

    Must run after ``broker.start()`` (which replaces ``broker.fleet``)
    and before :func:`watch_submits`, so the outside timing wraps the
    ``h.submit`` span.  Program spans (``request``, ``admission``,
    ``policy``, ``cache``, ``predict`` ...) nest under these unchanged.
    """

    def departed(count):
        tallies.departures += count

    def migrated(count):
        tallies.migrated += count

    for broker in stack.brokers:
        _spanned(broker, "submit", tracer, "h.submit")
        fleet = broker.fleet
        _spanned(fleet, "pop_departures", tracer, "h.fleet.pop_departures", departed)
        for verb in ("signatures", "place", "crash", "update_resolution"):
            _spanned(fleet, verb, tracer, f"h.fleet.{verb}")
        primary, *fallbacks = (step.policy for step in broker.controller.pipeline)
        for query in ("select", "group_feasible"):
            _spanned(primary, query, tracer, f"h.policy.{query}")
        for policy in fallbacks:
            _spanned(policy, "select", tracer, "h.policy.fallback")
        if broker.ledger is not None:
            for hook in (
                "fleet_placed",
                "fleet_departed",
                "fleet_evicted",
                "fleet_resolution_changed",
            ):
                _spanned(broker.ledger, hook, tracer, "h.ledger")
        _sample_decisions(broker.controller, tallies)
    if stack.sharded is not None and stack.sharded.rebalancer is not None:
        _spanned(
            stack.sharded.rebalancer, "rebalance", tracer, "h.rebalance", migrated
        )


def _sample_decisions(controller, tallies: LayerTallies) -> None:
    """Snapshot the pool a decision is made against, every 64th decision."""
    inner = controller.admit

    def admit(fleet, session):
        if tallies.decisions % SAMPLE_EVERY == 0:
            tallies.samples.append(
                (fleet.signatures(), entry_of(session), fleet.n_open, fleet.n_live)
            )
        tallies.decisions += 1
        return inner(fleet, session)

    controller.admit = admit


#: Span name -> the per-layer metric its *self* time is booked to.  A
#: name missing here (a span a later change adds) lands in
#: ``attribution.unattributed_s`` and so lowers ``attribution.coverage``.
LAYER_OF = {
    "route": "sharding.router.route_self_s",
    "h.rebalance": "sharding.rebalance.self_s",
    "migrate": "sharding.rebalance.self_s",
    "h.submit": "serving.broker.submit_self_s",
    "request": "serving.broker.submit_self_s",
    "h.fleet.pop_departures": "placement.fleet.pop_departures_s",
    "h.fleet.signatures": "placement.fleet.signatures_s",
    "h.fleet.place": "placement.fleet.place_s",
    "h.fleet.crash": "placement.fleet.churn_s",
    "h.fleet.update_resolution": "placement.fleet.churn_s",
    "admission": "placement.engine.decide_self_s",
    "policy": "placement.engine.decide_self_s",
    "downscale": "placement.engine.decide_self_s",
    "restore": "placement.engine.restore_self_s",
    "h.policy.select": "placement.policies.select_self_s",
    "h.policy.group_feasible": "placement.policies.select_self_s",
    "predict": "placement.policies.select_self_s",
    "h.policy.fallback": "placement.policies.fallback_self_s",
    "cache": "placement.cache.span_self_s",
    "predict_batch": "core.predictor.batch_self_s",
    "featurize": "core.predictor.featurize_self_s",
    "model_eval": "ml.packed.eval_self_s",
    "qos": "obs.qos.self_s",
    "h.ledger": "obs.qos.self_s",
    "h.window": "attribution.unattributed_s",
}


def self_times(spans) -> tuple[dict, Counter]:
    """Per-layer self seconds and per-name span counts.

    Self time = a span's duration minus the time its child spans cover.
    The drain is single-threaded, so children never overlap and the sum
    of their durations is that cover.  ``spans`` is completion-ordered
    (children before parents), which is what ``Tracer.spans`` returns.
    """
    covered: dict[int, float] = {}
    layers = dict.fromkeys(LAYER_OF.values(), 0.0)
    counts: Counter = Counter()
    for span in spans:
        duration = span.end_s - span.start_s
        counts[span.name] += 1
        if span.parent_id is not None:
            covered[span.parent_id] = covered.get(span.parent_id, 0.0) + duration
        layer = LAYER_OF.get(span.name, "attribution.unattributed_s")
        layers[layer] += duration - covered.pop(span.span_id, 0.0)
    return layers, counts


def scan_work(samples) -> dict:
    """Candidate-scan metrics ``{name: (value, unit)}`` over the sampled pools.

    Replays what ``CMFeasiblePolicy`` does to key one arrival's
    candidates — ``signature_add`` per non-full server, a set probe to
    drop repeats, ``colocation_key`` per distinct signature — in
    isolation, so the keying layer has a cost of its own although the
    program puts no span around it.  The counts are seeded-exact; only
    the time is measured.
    """
    candidates = distinct = 0
    keying_s = 0.0
    for pool, entry, _, _ in samples:
        began = time.perf_counter()
        seen = set()
        keys = []
        for sig in pool:
            if len(sig) < MAX_COLOCATION:
                candidates += 1
                candidate = signature_add(sig, entry)
                if candidate not in seen:
                    seen.add(candidate)
                    keys.append(colocation_key(candidate, QOS))
        keying_s += time.perf_counter() - began
        distinct += len(keys)
    n = max(len(samples), 1)
    return {
        "placement.policies.candidates_per_arrival": (candidates / n, "count"),
        "placement.policies.distinct_signatures_per_arrival": (distinct / n, "count"),
        "placement.policies.distinct_ratio": (distinct / max(candidates, 1), "ratio"),
        "placement.signature.key_us_per_candidate": (
            keying_s / max(candidates, 1) * 1e6,
            "us",
        ),
        "placement.fleet.open_servers_mean": (sum(s[2] for s in samples) / n, "count"),
        "placement.fleet.live_sessions_mean": (sum(s[3] for s in samples) / n, "count"),
    }


def span_cost_us(tracer_cls, batches: int = 5, n: int = 5000) -> float:
    """Median cost of one empty span on a fresh tracer, in microseconds."""
    costs = []
    for _ in range(batches):
        tracer = tracer_cls()
        began = time.perf_counter()
        for i in range(n):
            with tracer.span("probe", index=i):
                pass
        costs.append((time.perf_counter() - began) / n * 1e6)
    return statistics.median(costs)
