"""Extension: dynamic session scheduling (arrivals + departures).

Compares placement policies under the online regime the paper targets —
requests must be placed at arrival and never migrate — measuring both
server-time saved and QoS-violation session-time.  GAugur's CM enables
aggressive consolidation with few violations; VBP consolidates blindly;
dedicated servers never violate but waste the most capacity.
"""

from __future__ import annotations

from repro.experiments.fig09_feasibility import select_games
from repro.experiments.lab import Lab
from repro.experiments.tables import format_table
from repro.obs import QoSLedger
from repro.placement import CMFeasiblePolicy, DedicatedPolicy, VBPFirstFitPolicy
from repro.scheduling.dynamic import generate_sessions, simulate_sessions

__all__ = ["run", "render"]


def run(lab: Lab, *, n_sessions: int = 800, qos: float = 60.0) -> dict:
    """Simulate all three policies over one session trace."""
    games = select_games(lab)
    sessions = generate_sessions(
        games,
        n_sessions,
        arrival_rate=3.0,
        mean_duration=25.0,
        seed=lab.config.seed,
    )
    # Policy objects from the shared placement core, passed straight to
    # the simulator (a strict RequestBroker run over its DecisionEngine).
    policies = {
        "GAugur(CM)": CMFeasiblePolicy(lab.predictor, qos),
        "GAugur(CM) +10% margin": CMFeasiblePolicy(lab.predictor, qos, margin=1.1),
        "VBP": VBPFirstFitPolicy(lab.vbp),
        "Dedicated": DedicatedPolicy(),
    }
    # One ledger scores every run: each run resets it, and the
    # ground-truth measurements it memoizes are shared across policies.
    ledger = QoSLedger(lab.catalog, lab.predictor, slo_fps=qos, server=lab.server)
    metrics = {
        label: simulate_sessions(sessions, policy, ledger)
        for label, policy in policies.items()
    }
    return {"qos": qos, "n_sessions": n_sessions, "metrics": metrics}


def render(result: dict) -> str:
    """Dynamic-scheduling comparison table."""
    rows = []
    for label, m in result["metrics"].items():
        rows.append(
            [
                label,
                f"{m.server_minutes:.0f}",
                f"{m.utilization_gain:.1%}",
                m.peak_servers,
                f"{m.violation_fraction:.1%}",
            ]
        )
    return format_table(
        [
            "policy",
            "server-minutes",
            "saved vs dedicated",
            "peak servers",
            "QoS-violation time",
        ],
        rows,
        title=(
            f"Extension — dynamic sessions ({result['n_sessions']} sessions, "
            f"QoS {result['qos']:.0f} FPS)"
        ),
    )
