"""Extension: resolution downscaling as a QoS actuator (fig. 10 style).

Replays one high-load fixed-1080p serving trace through the online
broker under three configurations — the plain admission chain, the
resolution-downscale actuator armed on a ``1080p > 900p > 720p`` ladder
plus the periodic restore loop, and the actuator combined with a 10% CM
margin — and compares capacity cost against QoS cost.  Per the paper's
Eq. 2 laws a game's GPU load scales with pixel count while its CPU load
and sensitivity do not, so serving a session one rung lower is a
strictly cheaper colocation candidate: the actuator converts
would-be-dedicated placements into degraded colocations and cuts
``servers_opened`` sharply.

The densified fleet exercises the CM closer to its feasibility boundary,
where its rare false-feasible verdicts live — so the plain actuator buys
capacity at the price of some extra SLO breaches.  The margin variant
(the Section 7 headroom knob) compensates exactly that: demanding 10%
FPS headroom from every CM verdict, it lands *below* the baseline on
both axes — fewer servers opened *and* fewer breaches — which is the
configuration the experiment recommends.
"""

from __future__ import annotations

from repro.experiments.lab import Lab
from repro.experiments.tables import format_table
from repro.games import DegradeLadder
from repro.obs import QoSLedger, Telemetry
from repro.placement import CMFeasiblePolicy, DecisionEngine
from repro.serving import RequestBroker, TraceConfig, generate_trace

__all__ = ["run", "render"]

#: Rungs tried in order before the chain opens a new server.
LADDER = DegradeLadder.from_str("1080p,900p,720p")


def _serve(lab: Lab, sessions, *, qos: float, ladder, restore_interval, margin=1.0):
    telemetry = Telemetry()
    controller = DecisionEngine(
        CMFeasiblePolicy(lab.predictor, qos, margin=margin),
        telemetry=telemetry,
        downscale_ladder=ladder,
    )
    ledger = QoSLedger(
        lab.catalog,
        lab.predictor,
        slo_fps=qos,
        server=lab.server,
    )
    broker = RequestBroker(
        controller,
        ledger=ledger,
        restore_interval=restore_interval,
    )
    report = broker.run(list(sessions))
    # downscales/restores are per-resolution labeled counters; sum the rungs.
    labeled = report.telemetry.get("labeled", {}).get("counters", {})

    def total(name: str) -> int:
        return int(sum(entry["value"] for entry in labeled.get(name, ())))

    qos_section = report.qos
    degraded = qos_section.get("degraded", {})
    return {
        "servers_opened": report.servers_opened,
        "peak_servers": report.peak_servers,
        "downscales": total("downscales"),
        "restores": total("restores"),
        "degraded_sessions": int(degraded.get("sessions", 0)),
        "degraded_minutes": float(degraded.get("minutes", 0.0)),
        "slo_breaches": int(qos_section.get("slo", {}).get("breaches", 0)),
    }


def run(
    lab: Lab,
    *,
    n_requests: int = 600,
    arrival_rate: float = 8.0,
    qos: float = 50.0,
    restore_interval: int = 64,
) -> dict:
    """Serve the same trace with and without the downscale actuator.

    ``qos`` must be one of the lab's trained CM thresholds (the CM takes
    the floor as a feature; querying outside the trained set
    extrapolates and its boundary goes soft).
    """
    trace = TraceConfig(
        n_requests=n_requests,
        arrival_rate=arrival_rate,
        mean_duration=25.0,
        seed=lab.config.seed,
    )
    sessions = generate_trace(lab.predictor.db.names(), trace)
    variants = {
        "baseline (1080p only)": _serve(
            lab, sessions, qos=qos, ladder=None, restore_interval=None
        ),
        "downscale + restore": _serve(
            lab, sessions, qos=qos, ladder=LADDER, restore_interval=restore_interval
        ),
        "downscale + 10% margin": _serve(
            lab,
            sessions,
            qos=qos,
            ladder=LADDER,
            restore_interval=restore_interval,
            margin=1.1,
        ),
    }
    base = variants["baseline (1080p only)"]
    best = variants["downscale + 10% margin"]
    return {
        "qos": qos,
        "n_requests": n_requests,
        "arrival_rate": arrival_rate,
        "ladder": LADDER.to_list(),
        "restore_interval": restore_interval,
        "variants": variants,
        "servers_saved": base["servers_opened"] - best["servers_opened"],
        "breaches_saved": base["slo_breaches"] - best["slo_breaches"],
    }


def render(result: dict) -> str:
    """Capacity-vs-quality comparison table."""
    rows = []
    for label, m in result["variants"].items():
        rows.append(
            [
                label,
                m["servers_opened"],
                m["peak_servers"],
                m["downscales"],
                m["restores"],
                m["degraded_sessions"],
                f"{m['degraded_minutes']:.0f}",
                m["slo_breaches"],
            ]
        )
    return format_table(
        [
            "variant",
            "servers opened",
            "peak",
            "downscales",
            "restores",
            "degraded sessions",
            "degraded minutes",
            "SLO breaches",
        ],
        rows,
        title=(
            "Extension — resolution-downscale actuator "
            f"({result['n_requests']} sessions @ {result['arrival_rate']:.0f}/min, "
            f"QoS {result['qos']:.0f} FPS, "
            f"ladder {' > '.join(result['ladder'])}; margin variant saves "
            f"{result['servers_saved']} servers and "
            f"{result['breaches_saved']} breaches vs baseline)"
        ),
    )
