"""Dynamic session scheduling: arrivals and departures over time.

The paper's predictor exists to serve an *online* dispatcher: requests
arrive continuously, sessions end, and migration is off the table once a
game is placed (Section 1, challenge 1).  This module generates Poisson
arrival traces and scores a placement policy over one:
:func:`simulate_sessions` is a strict :class:`repro.serving.RequestBroker`
run over the shared placement core (:mod:`repro.placement`), so
offline/online placement parity holds by construction.

Metrics separate the two costs the paper trades off — server-hours
(utilization) and QoS-violation session-time (experience).  Ground truth
for violations comes from the :class:`repro.obs.qos.QoSLedger` riding the
run, which measures every distinct server composition on the simulator.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.games.resolution import REFERENCE_RESOLUTION, Resolution
from repro.placement.engine import DecisionEngine
from repro.placement.fleet import Session
from repro.placement.policies import AdmissionPolicy
from repro.utils.rng import spawn_rng

__all__ = [
    "Session",
    "generate_sessions",
    "DynamicMetrics",
    "simulate_sessions",
]


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


@dataclass
class DynamicMetrics:
    """Outcome of a dynamic simulation."""

    n_sessions: int
    server_minutes: float
    dedicated_server_minutes: float
    peak_servers: int
    violation_minutes: float
    session_minutes: float
    #: Total servers ever opened (stable ids; default 0 keeps older
    #: call sites that construct metrics positionally working).
    servers_opened: int = 0

    @property
    def utilization_gain(self) -> float:
        """Server-time saved vs dedicated provisioning."""
        if self.dedicated_server_minutes == 0:
            return 0.0
        return 1.0 - self.server_minutes / self.dedicated_server_minutes

    @property
    def violation_fraction(self) -> float:
        """Fraction of total session-time spent below the QoS floor."""
        return (
            self.violation_minutes / self.session_minutes
            if self.session_minutes
            else 0.0
        )


def simulate_sessions(
    sessions: Sequence[Session], policy: AdmissionPolicy, ledger
) -> DynamicMetrics:
    """Replay ``sessions`` through ``policy`` and score the outcome.

    The run is a :class:`~repro.serving.RequestBroker` over a
    ``strict=True`` engine — a broken policy crashes the experiment
    instead of silently consolidating onto dedicated servers — with
    ``ledger`` (a :class:`repro.obs.qos.QoSLedger`, whose ``slo_fps``,
    ``server`` and ``config`` set the QoS floor and the ground truth) as
    the only scorer: violation-minutes are its ``slo`` section's.

    Server-minutes are each server's latest departure minus its earliest
    arrival: a server id is never reused, so a server's occupancy is one
    contiguous interval.
    """
    # Function-local: repro.serving's trace generator imports this module.
    from repro.serving.broker import RequestBroker

    ordered = sorted(sessions, key=lambda s: s.arrival)
    report = RequestBroker(DecisionEngine(policy, strict=True), ledger=ledger).run(
        ordered
    )
    spans: dict[int, tuple[float, float]] = {}
    for session, server_id in zip(ordered, report.server_ids()):
        start, end = spans.get(server_id, (session.arrival, session.departure))
        spans[server_id] = (start, max(end, session.departure))
    session_minutes = sum(s.duration for s in ordered)
    return DynamicMetrics(
        n_sessions=report.n_sessions,
        server_minutes=sum(end - start for start, end in spans.values()),
        dedicated_server_minutes=session_minutes,
        peak_servers=report.peak_servers,
        violation_minutes=report.qos["slo"]["violation_minutes"],
        session_minutes=session_minutes,
        servers_opened=report.servers_opened,
    )
