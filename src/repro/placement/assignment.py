"""Online request assignment onto a fixed fleet (Section 5.2).

Prediction-guided policies place each arriving request on the server whose
predicted post-assignment frame rates are best; VBP places worst-fit by
remaining capacity.  Because a server's predicted value depends only on its
*signature* (the multiset of hosted (game, resolution) entries), deltas are
memoized per (signature, request) pair — with 10 games the signature space
is tiny, making the greedy exact yet fast for thousands of requests.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.vbp import VBPJudge
from repro.core.training import ColocationSpec
from repro.games.catalog import GameCatalog
from repro.hardware.server import DEFAULT_SERVER, ServerSpec
from repro.placement.signature import Signature, entry_of, signature_add
from repro.simulator.measurement import MeasurementConfig, run_colocations

if TYPE_CHECKING:
    from repro.scheduling.requests import GameRequest

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


def assign_max_fps(
    requests: Sequence[GameRequest],
    predictor,
    n_servers: int,
    *,
    max_colocation: int = 4,
) -> AssignmentResult:
    """Greedy best-predicted-server assignment.

    ``predictor`` must expose ``predict_fps(ColocationSpec) -> array``
    (GAugur's RM, Sigmoid or SMiTe all qualify).  Each request goes to the
    server maximizing the predicted total FPS after placement; servers at
    ``max_colocation`` games are excluded.
    """
    if n_servers < 1:
        raise ValueError("n_servers must be >= 1")
    if len(requests) > n_servers * max_colocation:
        raise ValueError(
            f"{len(requests)} requests cannot fit on {n_servers} servers "
            f"of capacity {max_colocation}"
        )

    servers: list[Signature] = [() for _ in range(n_servers)]
    by_signature: dict[Signature, set[int]] = defaultdict(set)
    for i in range(n_servers):
        by_signature[()].add(i)

    sum_cache: dict[Signature, float] = {(): 0.0}

    def predicted_sum(sig: Signature) -> float:
        if sig not in sum_cache:
            spec = ColocationSpec(sig)
            sum_cache[sig] = float(np.sum(predictor.predict_fps(spec)))
        return sum_cache[sig]

    delta_cache: dict[tuple[Signature, tuple], float] = {}

    for request in requests:
        key_entry = entry_of(request)
        best_sig, best_delta = None, -np.inf
        for sig, members in by_signature.items():
            if not members or len(sig) >= max_colocation:
                continue
            cache_key = (sig, key_entry)
            if cache_key not in delta_cache:
                delta_cache[cache_key] = predicted_sum(
                    signature_add(sig, key_entry)
                ) - predicted_sum(sig)
            delta = delta_cache[cache_key]
            if delta > best_delta:
                best_delta, best_sig = delta, sig
        if best_sig is None:
            raise RuntimeError("no server has remaining capacity")
        server_id = next(iter(by_signature[best_sig]))
        by_signature[best_sig].discard(server_id)
        new_sig = signature_add(best_sig, key_entry)
        servers[server_id] = new_sig
        by_signature[new_sig].add(server_id)

    return AssignmentResult(servers=servers)


def assign_worst_fit(
    requests: Sequence[GameRequest],
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
    if n_servers < 1:
        raise ValueError("n_servers must be >= 1")
    if len(requests) > n_servers * max_colocation:
        raise ValueError(
            f"{len(requests)} requests cannot fit on {n_servers} servers "
            f"of capacity {max_colocation}"
        )

    dims = len(vbp.demand_vector(requests[0].game, requests[0].resolution))
    usage = np.zeros((n_servers, dims), dtype=float)
    counts = np.zeros(n_servers, dtype=int)
    servers: list[list[tuple]] = [[] for _ in range(n_servers)]

    for request in requests:
        key = entry_of(request)
        demand = vbp.demand_vector(request.game, request.resolution)
        slack = dims - usage.sum(axis=1)
        open_mask = counts < max_colocation
        fits = open_mask & np.all(usage + demand <= 1.0 + 1e-9, axis=1)
        pool = np.where(fits)[0] if fits.any() else np.where(open_mask)[0]
        target = int(pool[np.argmax(slack[pool])])
        usage[target] += demand
        counts[target] += 1
        servers[target].append(key)

    return AssignmentResult(servers=[tuple(sorted(s)) for s in servers])


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
