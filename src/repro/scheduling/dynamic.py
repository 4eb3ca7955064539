"""Dynamic session scheduling: arrivals and departures over time.

The paper's predictor exists to serve an *online* dispatcher: requests
arrive continuously, sessions end, and migration is off the table once a
game is placed (Section 1, challenge 1).  This module is the offline
frontend over the shared placement core (:mod:`repro.placement`): it
generates Poisson arrival traces and exposes the batch-clocked simulator
(:func:`repro.placement.offline.simulate_sessions`), which takes the
canonical policy objects of :mod:`repro.placement.policies` directly.
The online serving broker (:mod:`repro.serving`) drives the *same* core,
so offline/online placement parity holds by construction.

Metrics separate the two costs the paper trades off — server-hours
(utilization) and QoS-violation session-time (experience).  Ground truth
for violations comes from the simulator: every distinct server
composition is measured once (memoized by signature).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.games.resolution import REFERENCE_RESOLUTION, Resolution
from repro.placement.fleet import Session
from repro.placement.offline import DynamicMetrics, simulate_sessions
from repro.placement.signature import Signature
from repro.utils.rng import spawn_rng

__all__ = [
    "Session",
    "generate_sessions",
    "DynamicMetrics",
    "simulate_sessions",
    "recording_policy",
]

#: Offline policy style: (current server signatures, session) -> server index
#: or None to open a fresh server.  A "signature" is the sorted entry tuple.
Policy = Callable[[list[Signature], Session], int | None]


def generate_sessions(
    names: Sequence[str],
    n_sessions: int,
    *,
    arrival_rate: float = 2.0,
    mean_duration: float = 30.0,
    resolutions: Sequence[Resolution] | None = None,
    seed: int = 0,
) -> list[Session]:
    """Poisson arrivals (rate per minute) with exponential durations (minutes)."""
    if n_sessions < 1:
        raise ValueError("n_sessions must be >= 1")
    if arrival_rate <= 0 or mean_duration <= 0:
        raise ValueError("arrival_rate and mean_duration must be positive")
    names = list(names)
    pool = list(resolutions) if resolutions else [REFERENCE_RESOLUTION]
    rng = spawn_rng(seed, "sessions")
    t = 0.0
    sessions = []
    for _ in range(n_sessions):
        t += float(rng.exponential(1.0 / arrival_rate))
        sessions.append(
            Session(
                game=names[int(rng.integers(len(names)))],
                resolution=pool[int(rng.integers(len(pool)))],
                arrival=t,
                duration=float(rng.exponential(mean_duration)),
            )
        )
    return sessions


def recording_policy(policy: Policy) -> tuple[Policy, list[int | None]]:
    """Wrap ``policy``, logging every decision it makes.

    Returns ``(wrapped, record)``: the wrapped policy behaves identically
    while appending each returned server index (or ``None``) to
    ``record``.  Used to compare placement trajectories between this
    offline simulator and the online serving broker
    (:mod:`repro.serving`), which drive the same placement core.
    """
    record: list[int | None] = []

    def place(servers: list[Signature], session: Session) -> int | None:
        choice = policy(servers, session)
        record.append(choice)
        return choice

    return place, record
