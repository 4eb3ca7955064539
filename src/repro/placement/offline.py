"""Offline frontend: batch-clocked simulation over the placement core.

This is the driver behind
:func:`repro.scheduling.dynamic.simulate_sessions`: it sorts a session
trace by arrival, advances a virtual clock through arrivals and
departures on a shared :class:`~repro.placement.fleet.FleetState`, and
routes every placement decision through a strict
:class:`~repro.placement.engine.DecisionEngine` — the same dispatch path
the online serving broker uses, which is what makes offline/online
placement parity structural rather than test-enforced.

Ground truth for QoS violations comes from the simulator: every distinct
server composition is measured once (memoized by canonical signature)
and violation time is charged per session for every interval its
server's *measured* frame rate sits below the floor.  The engine runs
``strict=True`` here: a broken policy should crash the experiment, not
silently consolidate onto dedicated servers.
"""

from __future__ import annotations

import time as _time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.training import ColocationSpec
from repro.games.catalog import GameCatalog
from repro.hardware.server import DEFAULT_SERVER, ServerSpec
from repro.placement.engine import DecisionEngine
from repro.placement.fleet import FleetState, Session
from repro.placement.policies import AdmissionPolicy, OfflinePolicyAdapter
from repro.placement.signature import Signature
from repro.simulator.measurement import MeasurementConfig, run_colocation

__all__ = ["DynamicMetrics", "simulate_sessions"]


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
    catalog: GameCatalog,
    sessions: Sequence[Session],
    policy,
    *,
    qos: float = 60.0,
    server: ServerSpec = DEFAULT_SERVER,
    config: MeasurementConfig | None = None,
    telemetry=None,
    ledger=None,
) -> DynamicMetrics:
    """Event-driven simulation of a placement policy over a session trace.

    ``policy`` is either an :class:`~repro.placement.policies.AdmissionPolicy`
    object or a bare ``(signatures, session) -> index | None`` callable
    (the offline style), which is adapted on the fly.

    Violation time is charged per session for every interval during which
    the *measured* frame rate of its server's composition is below ``qos``.

    ``telemetry`` (a :class:`repro.obs.Telemetry`, duck-typed) makes
    the simulator self-profiling: each arrival's full round is timed into
    the ``sim_round_s`` histogram and the placement decision alone into
    ``sim_decision_s``, with ``sim_arrivals``/``sim_measurements``
    counters — the same instruments the online broker records, so offline
    and serving runs are comparable in ``repro metrics diff``.

    ``ledger`` (a :class:`repro.obs.qos.QoSLedger`) rides the fleet as a
    mutation observer and books per-session calibration and SLO samples
    against the same ground-truth oracle this driver scores with — a
    ledger built with the same ``server``/``config``/target reproduces
    this function's violation-minutes accounting, which the qos test
    suite cross-checks.
    """
    member: AdmissionPolicy = (
        policy if callable(getattr(policy, "select", None))
        else OfflinePolicyAdapter(policy)
    )
    # The engine keeps its own private telemetry: the caller-visible
    # snapshot carries exactly the sim_* instruments documented above.
    engine = DecisionEngine(member, strict=True)
    fleet = FleetState(observer=ledger)

    sessions = sorted(sessions, key=lambda s: s.arrival)
    fps_cache: dict[Signature, tuple[float, ...]] = {}

    def measured_fps(sig: Signature) -> tuple[float, ...]:
        if sig not in fps_cache:
            result = run_colocation(
                ColocationSpec(sig).instances(catalog), server=server, config=config
            )
            fps_cache[sig] = result.fps
            if telemetry is not None:
                telemetry.counter("sim_measurements").inc()
        return fps_cache[sig]

    server_minutes = 0.0
    violation_minutes = 0.0
    last_time = 0.0

    def accrue(until: float) -> None:
        nonlocal server_minutes, violation_minutes, last_time
        dt = until - last_time
        if dt > 0:
            server_minutes += dt * fleet.n_open
            for sig in fleet.signatures():
                fps = measured_fps(sig)
                violation_minutes += dt * sum(1 for f in fps if f < qos)
        last_time = until

    for session in sessions:
        round_start = _time.perf_counter()
        if ledger is not None:
            ledger.advance(session.arrival)
        fleet.pop_departures(session.arrival, before_each=accrue)
        accrue(session.arrival)
        if telemetry is not None:
            decision_start = _time.perf_counter()
            engine.admit(fleet, session)
            telemetry.histogram("sim_decision_s").observe(
                _time.perf_counter() - decision_start
            )
            telemetry.counter("sim_arrivals").inc()
            telemetry.histogram("sim_round_s").observe(
                _time.perf_counter() - round_start
            )
        else:
            engine.admit(fleet, session)

    end = max(s.departure for s in sessions)
    if ledger is not None:
        ledger.advance(end)
    fleet.pop_departures(end, before_each=accrue)
    accrue(end)
    if ledger is not None:
        ledger.finalize()

    return DynamicMetrics(
        n_sessions=len(sessions),
        server_minutes=server_minutes,
        dedicated_server_minutes=sum(s.duration for s in sessions),
        peak_servers=fleet.peak,
        violation_minutes=violation_minutes,
        session_minutes=sum(s.duration for s in sessions),
        servers_opened=fleet.servers_opened,
    )
