"""The canonical placement policies behind one interface.

Every policy answers the same question in both the offline scheduling
simulator and the online serving broker — given the signatures of the
currently open servers and an arriving session, which server takes it
(``None`` opens a fresh one)?  These are the *only* implementations:
the offline simulator and the serving stack dispatch the same objects
through :class:`repro.placement.DecisionEngine`, so offline/online
decision parity holds by construction rather than by duplicated code.

A decision depends only on the multiset of signatures, so every policy
walks the pool's :class:`~repro.placement.signature.SignatureIndex` — one
group per distinct signature, in first-occurrence pool order — not its
servers.  The prediction-guided ones keep each group's cache hits in its
memo while the shared :class:`PredictionCache` forgets nothing, probe
the cache once per other candidate and score all misses with one
batched predictor call.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.baselines.vbp import VBPJudge
from repro.core.training import ColocationSpec
from repro.hardware.server import DEFAULT_SERVER, ServerSpec
from repro.obs.tracing import NOOP_TRACER
from repro.placement.cache import PredictionCache
from repro.placement.signature import (
    Signature,
    colocation_key,
    entry_of,
    index_of,
    signature_add,
)

__all__ = [
    "Signature",
    "AdmissionPolicy",
    "CMFeasiblePolicy",
    "MaxFPSPolicy",
    "WorstFitPolicy",
    "VBPFirstFitPolicy",
    "DedicatedPolicy",
    "POLICY_NAMES",
    "build_policy",
]

#: CLI-facing policy names accepted by :func:`build_policy`.
POLICY_NAMES: tuple[str, ...] = ("cm-feasible", "max-fps", "worst-fit", "dedicated")


class AdmissionPolicy(Protocol):
    """The policy interface: pick a server index for a session, or ``None``.

    ``session`` is anything with ``game`` and ``resolution`` attributes
    (:class:`repro.placement.fleet.Session`,
    :class:`repro.scheduling.requests.GameRequest`, ...).  ``signatures``
    is a read-only sequence: a list, or the engine's
    :class:`~repro.placement.signature.PoolView`.
    """

    name: str

    def select(self, signatures: Sequence[Signature], session) -> int | None:
        """Index into ``signatures`` to join, or ``None`` to open a server."""
        ...


class _InstrumentedPolicy:
    """Shared observability plumbing for the prediction-guided policies.

    The admission controller calls :meth:`instrument` once at
    construction; the tracer/telemetry sinks then flow down into the
    wrapped predictor so cache lookups, feature assembly and model
    evaluation all land in the same per-request trace.
    """

    telemetry = None
    tracer = NOOP_TRACER
    #: ``(telemetry, its predict_cache_shortcuts{policy} counter)``, bound
    #: at the first shortcut under that registry.
    _shortcuts = (None, None)

    def __init__(self, predictor, qos: float, *, cache=None, max_colocation: int = 4):
        self.predictor = predictor
        self.qos = float(qos)
        self.max_colocation = int(max_colocation)
        self.cache = cache if cache is not None else PredictionCache()
        self._arrivals: dict[tuple, tuple] = {}  # (entry, floor) -> arrival key

    def instrument(self, telemetry=None, tracer=None) -> None:
        """Attach telemetry/tracer sinks, forwarding to the predictor."""
        if telemetry is not None:
            self.telemetry = telemetry
        if tracer is not None:
            self.tracer = tracer
        forward = getattr(self.predictor, "instrument", None)
        if callable(forward):
            forward(telemetry=telemetry, tracer=tracer)

    def _resolve(self, pairs, query, memo: int = 0) -> tuple[list, list[int]]:
        """Values for distinct ``(signature, cache key, ...)`` pairs, in order.

        The one cache-then-single-batch path: every key is probed exactly
        once and all misses are scored by one ``query(specs)`` call, whose
        answers fill the cache in the same order.  Also returns the
        positions that missed; ``memo`` is how many more candidates the
        caller answered from its verdict memo (a span attribute).
        """
        with self.tracer.span("cache", policy=self.name) as span:
            values = self.cache.lookup_many([pair[1] for pair in pairs])
            unknown = [i for i, value in enumerate(values) if value is None]
            span.set(hits=len(pairs) - len(unknown), misses=len(unknown), memo=memo)
        with self.tracer.span(
            "predict", policy=self.name, batched=len(unknown), cached=not unknown
        ):
            if not unknown:
                telemetry = self.telemetry
                if telemetry is not None:
                    bound, shortcuts = self._shortcuts
                    if bound is not telemetry:
                        shortcuts = telemetry.counter(
                            "predict_cache_shortcuts", policy=self.name
                        )
                        self._shortcuts = (telemetry, shortcuts)
                    shortcuts.inc()
                return values, unknown
            answers = query([ColocationSpec(pairs[i][0]) for i in unknown])
            for i, value in zip(unknown, answers):
                values[i] = value
                self.cache.put(pairs[i][1], value)
        # Fewer answers than asked breaks the predictor's contract: raise
        # rather than leave a ``None`` verdict (the answered prefix is cached).
        if len(answers) < len(unknown):
            raise KeyError(pairs[unknown[len(answers)]][0])
        return values, unknown

    def _scan(self, signatures, session, floor: float | None, query):
        """``(index, open groups, value of each once session joins it)``.

        Groups whose memo answers come first, then the ones sent to
        :meth:`_resolve`, each part in first-occurrence pool order: a tie
        goes to the lower pool position, so to the lower first server id.
        A memo answer that is falsy (an infeasible CM verdict, which no
        policy picks) is left out, so the caller's walk is short on a
        cache-hot pool.  One entry added to distinct signatures gives
        distinct candidates, so :meth:`_resolve` never sees a repeat.

        A group's memoized verdict answers for it while the cache is still
        at the generation the verdict was read at (the key is then still
        cached with that value); every other group goes to
        :meth:`_resolve`, and its hits are stamped only if no key was
        forgotten or overwritten during that call.
        """
        index = index_of(signatures)
        entry = entry_of(session)
        arrival = self._arrivals.get((entry, floor))
        if arrival is None:
            arrival = self._arrivals[entry, floor] = colocation_key((entry,), floor)
        cache = self.cache
        now = cache.generation
        answered, values, asked, pairs = [], [], [], []
        for group in index.open_groups(self.max_colocation):
            known = group.memo.get(arrival)
            if known is None:
                candidate = signature_add(group.signature, entry)
                known = (candidate, colocation_key(candidate, floor), None, None)
                group.memo[arrival] = known
            elif known[2] == now:
                if known[3]:
                    answered.append(group)
                    values.append(known[3])
                continue
            asked.append(group)
            pairs.append(known)
        resolved, missed = self._resolve(pairs, query, len(answered))
        if len(missed) < len(pairs) and cache.generation == now:
            missed = set(missed)
            for i, group in enumerate(asked):
                if i not in missed:
                    candidate, key = pairs[i][:2]
                    group.memo[arrival] = (candidate, key, now, resolved[i])
        if not answered:
            return index, asked, resolved
        return index, answered + asked, values + resolved


class CMFeasiblePolicy(_InstrumentedPolicy):
    """CM-guided packing: fullest feasible server wins (paper Section 5.1).

    The one canonical implementation behind both the offline simulator
    and the serving broker's ``cm-feasible`` policy: whole-colocation CM
    verdicts resolve through the LRU cache and all uncached candidates
    are judged by a single ``colocations_feasible`` call, which stops
    paying for a candidate at its first infeasible member.  ``margin``
    scales the floor the CM is queried with: a value of 1.1 demands 10%
    headroom above the player-facing QoS, trading some consolidation for
    fewer violations when the CM's boundary is noisy — the knob the
    Section 7 discussion implies for production deployments.
    """

    name = "cm-feasible"

    def __init__(
        self,
        predictor,
        qos: float,
        *,
        cache: PredictionCache | None = None,
        max_colocation: int = 4,
        margin: float = 1.0,
    ):
        if margin < 1.0:
            raise ValueError("margin must be >= 1.0")
        super().__init__(predictor, qos, cache=cache, max_colocation=max_colocation)
        self.margin = float(margin)

    def _query(self, specs: list[ColocationSpec]) -> list[bool]:
        # One call judges every miss (an array, or a plain list from a stub).
        answers = self.predictor.colocations_feasible(specs, self.qos * self.margin)
        return [bool(verdict) for verdict in answers]

    def select(self, signatures: Sequence[Signature], session) -> int | None:
        """Fullest server the CM predicts stays feasible; ``None`` otherwise."""
        floor = self.qos * self.margin
        index, groups, verdicts = self._scan(signatures, session, floor, self._query)
        # Fullest wins; a tie goes to the lower first server id.
        best, best_size = None, -1
        for group, feasible in zip(groups, verdicts):
            if feasible:
                size = len(group.signature)
                if size > best_size or size == best_size and group.ids[0] < best.ids[0]:
                    best, best_size = group, size
        return index.position(best)

    def group_feasible(self, signature: Signature) -> bool:
        """CM verdict for one whole colocation (the restore-loop query).

        Answers through the same cache and batched path as
        :meth:`select`, so promotion probes share verdicts with
        admission scans of the same group.
        """
        if len(signature) > self.max_colocation:
            return False
        key = colocation_key(signature, self.qos * self.margin)
        return self._resolve([(signature, key)], self._query)[0][0]


class MaxFPSPolicy(_InstrumentedPolicy):
    """RM-guided placement: best predicted post-placement FPS (Section 5.2).

    Among servers where the RM predicts every hosted game (including the
    newcomer) still meets the QoS floor, picks the one with the highest
    predicted total FPS; opens a new server when none qualifies.  Per-
    candidate FPS vectors are cached and uncached candidates are evaluated
    with one batched RM invocation.
    """

    name = "max-fps"

    def _query(self, specs: list[ColocationSpec]) -> list[tuple]:
        batched = self.predictor.predict_fps_batch(specs)
        return [tuple(float(v) for v in values) for values in batched]

    def select(self, signatures: Sequence[Signature], session) -> int | None:
        """Feasible server maximizing predicted total FPS; ``None`` otherwise."""
        index, groups, fps = self._scan(signatures, session, None, self._query)
        best, best_total = None, -np.inf
        for group, values in zip(groups, fps):
            total = sum(values)
            if min(values) >= self.qos and (
                total > best_total or total == best_total and group.ids[0] < best.ids[0]
            ):
                best, best_total = group, total
        return index.position(best)

    def group_feasible(self, signature: Signature) -> bool:
        """RM verdict for one whole colocation: every member meets the floor."""
        if len(signature) > self.max_colocation:
            return False
        pair = (signature, colocation_key(signature))
        values = self._resolve([pair], self._query)[0][0]
        return min(values) >= self.qos


class _VBPPolicy:
    """Shared scan of the model-free VBP baselines (demand vectors only)."""

    def __init__(self, vbp: VBPJudge, *, max_colocation: int = 4):
        self.vbp = vbp
        self.max_colocation = int(max_colocation)

    def _fitting(self, signatures, session):
        """``(pool index, spec)`` of each open group the session still fits."""
        index = index_of(signatures)
        for group in index.open_groups(self.max_colocation):
            spec = ColocationSpec(group.signature) if group.signature else None
            if self.vbp.fits_after_adding(spec, session.game, session.resolution):
                yield index.position(group), spec


class WorstFitPolicy(_VBPPolicy):
    """VBP worst-fit: the fitting server with the most remaining capacity.

    The model-free conservative baseline — also the default fallback when
    a prediction-guided policy cannot answer (missing profile, model
    error).  Requires only demand vectors, no trained models.
    """

    name = "worst-fit"

    def select(self, signatures: Sequence[Signature], session) -> int | None:
        """Fitting server with maximal slack; ``None`` when nothing fits."""
        best, best_slack = None, -np.inf
        for position, spec in self._fitting(signatures, session):
            slack = self.vbp.remaining_capacity(spec)
            if slack > best_slack:
                best, best_slack = position, slack
        return best


class VBPFirstFitPolicy(_VBPPolicy):
    """VBP first fit: the first server whose summed demand still fits.

    The offline baseline from Section 2.2: scan the open servers in
    order and join the first one where the demand-vector sum stays within
    capacity on every dimension.
    """

    name = "vbp-first-fit"

    def select(self, signatures: Sequence[Signature], session) -> int | None:
        """First fitting server in pool order; ``None`` when nothing fits."""
        return next((p for p, _ in self._fitting(signatures, session)), None)


class DedicatedPolicy:
    """No colocation: every session gets a fresh server."""

    name = "dedicated"

    def select(self, _signatures: Sequence[Signature], _session) -> int | None:
        """Always ``None``."""
        return None


def build_policy(
    name: str,
    *,
    predictor=None,
    qos: float = 60.0,
    cache: PredictionCache | None = None,
    max_colocation: int = 4,
    margin: float = 1.0,
    server: ServerSpec = DEFAULT_SERVER,
    injector=None,
) -> tuple[AdmissionPolicy, AdmissionPolicy | None]:
    """Build the named ``(policy, fallback)`` pair for the serving loop.

    Prediction-guided policies (``cm-feasible``, ``max-fps``) fall back to
    VBP worst-fit over the predictor's profile database; the model-free
    policies need no fallback (the controller degrades to opening a new
    server if they raise).

    ``injector`` (a :class:`repro.serving.faults.FaultInjector`) wraps the
    predictor on the *primary* path so chaos runs inject errors there (the
    cache stays unwrapped, so the group verdict memo stays on); the
    fallback path stays un-injected — it is the component the degraded
    modes rely on, and it queries only the profile database.
    """
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    if name == "dedicated":
        return DedicatedPolicy(), None
    if predictor is None:
        raise ValueError(f"policy {name!r} requires a predictor")
    if injector is not None:
        predictor = injector.wrap_predictor(predictor)
    worst_fit = WorstFitPolicy(
        VBPJudge(predictor.db, server=server), max_colocation=max_colocation
    )
    if name == "worst-fit":
        return worst_fit, None
    if name == "cm-feasible":
        if predictor.classifier is None:
            raise ValueError("policy 'cm-feasible' needs a classification model")
        policy = CMFeasiblePolicy(
            predictor,
            qos,
            cache=cache,
            max_colocation=max_colocation,
            margin=margin,
        )
        return policy, worst_fit
    if predictor.regressor is None:
        raise ValueError("policy 'max-fps' needs a regression model")
    return (
        MaxFPSPolicy(predictor, qos, cache=cache, max_colocation=max_colocation),
        worst_fit,
    )
