"""Online request assignment onto a fixed fleet (Section 5.2).

Prediction-guided policies place each arriving request on the server whose
predicted total frame rate gains most; VBP places worst-fit by remaining
capacity.  Both are one greedy over the placement core's
:class:`~repro.placement.signature.SignatureIndex`: a server's score
depends only on its *signature* (the multiset of hosted (game, resolution)
entries), so each distinct signature is scored once per request and each
(signature, entry) score once per call — with 10 games the signature space
is tiny, making the greedy exact yet fast for thousands of requests.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from repro.baselines.vbp import VBPJudge
from repro.core.training import ColocationSpec
from repro.games.catalog import GameCatalog
from repro.hardware.server import DEFAULT_SERVER, ServerSpec
from repro.placement.signature import Signature, SignatureIndex, entry_of, signature_add
from repro.simulator.measurement import MeasurementConfig, run_colocations

__all__ = ["AssignmentResult", "assign_max_fps", "assign_worst_fit", "evaluate_assignment"]


@dataclass
class AssignmentResult:
    """Final placement: one entry tuple per server (possibly empty)."""

    servers: list[Signature]

    @property
    def n_servers(self) -> int:
        """Fleet size."""
        return len(self.servers)

    @property
    def n_requests(self) -> int:
        """Total requests placed."""
        return sum(len(s) for s in self.servers)

    def occupied(self) -> list[Signature]:
        """Signatures of servers hosting at least one game."""
        return [s for s in self.servers if s]


def _assign(
    requests: Sequence,
    n_servers: int,
    max_colocation: int,
    score: Callable[[Signature, tuple], object],
) -> AssignmentResult:
    """Place each request on the open server with the highest ``score``.

    ``score(signature, entry)`` rates a server holding ``signature`` for a
    request contributing ``entry``; it is called once per distinct pair.
    Groups come in first-occurrence pool order and the first maximum wins,
    so an exact tie goes to the lowest server id — the serving policies'
    tie rule.
    """
    if n_servers < 1:
        raise ValueError("n_servers must be >= 1")
    if len(requests) > n_servers * max_colocation:
        raise ValueError(
            f"{len(requests)} requests cannot fit on {n_servers} servers "
            f"of capacity {max_colocation}"
        )
    index = SignatureIndex([()] * n_servers)
    memo = cache(score)
    for request in requests:
        entry = entry_of(request)
        groups = index.open_groups(max_colocation)
        scores = [memo(group.signature, entry) for group in groups]
        best = groups[scores.index(max(scores))]
        index.move(best.ids[0], signature_add(best.signature, entry))
    return AssignmentResult(servers=list(index.signatures.values()))


def assign_max_fps(
    requests: Sequence,
    predictor,
    n_servers: int,
    *,
    max_colocation: int = 4,
) -> AssignmentResult:
    """Greedy best-predicted-server assignment.

    ``predictor`` must expose ``predict_fps(ColocationSpec) -> array``
    (GAugur's RM, Sigmoid or SMiTe all qualify).  Each request goes to the
    server whose predicted total FPS grows most once it joins; servers at
    ``max_colocation`` games are excluded.
    """

    @cache
    def predicted_sum(signature: Signature) -> float:
        if not signature:
            return 0.0
        return float(np.sum(predictor.predict_fps(ColocationSpec(signature))))

    def gain(signature: Signature, entry: tuple) -> float:
        return predicted_sum(signature_add(signature, entry)) - predicted_sum(signature)

    return _assign(requests, n_servers, max_colocation, gain)


def assign_worst_fit(
    requests: Sequence,
    vbp: VBPJudge,
    n_servers: int,
    *,
    max_colocation: int = 4,
) -> AssignmentResult:
    """VBP worst-fit: place on the fitting server with most remaining capacity.

    If no server fits the request under the demand-vector constraint, the
    emptiest server (by slack) takes it anyway — the fleet size is fixed and
    every request must be served.
    """

    def fit_then_slack(signature: Signature, entry: tuple) -> tuple[bool, float]:
        spec = ColocationSpec(signature) if signature else None
        return vbp.fits_after_adding(spec, *entry), vbp.remaining_capacity(spec)

    return _assign(requests, n_servers, max_colocation, fit_then_slack)


def evaluate_assignment(
    catalog: GameCatalog,
    result: AssignmentResult,
    *,
    server: ServerSpec = DEFAULT_SERVER,
    config: MeasurementConfig | None = None,
) -> np.ndarray:
    """Actual per-request FPS of a placement, measured on the simulator.

    Identical signatures are measured once, all in one batch (a batched
    measurement equals measuring each colocation alone, so this is exact).
    """
    occupied = result.occupied()
    distinct = list(dict.fromkeys(occupied))
    runs = run_colocations(
        [ColocationSpec(sig).instances(catalog) for sig in distinct],
        server=server,
        config=config,
    )
    fps = {sig: run.fps for sig, run in zip(distinct, runs)}
    return np.asarray([f for sig in occupied for f in fps[sig]], dtype=float)
