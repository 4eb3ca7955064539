"""Interference-aware request scheduling (paper Section 5).

Two problems are solved with GAugur's predictions:

* **Minimize servers under QoS** (Section 5.1): identify feasible
  colocations with the CM, then pack requests with the greedy set-cover
  Algorithm 1 (ln(k)-approximate).
* **Maximize average FPS on a fixed fleet** (Section 5.2): assign each
  arriving request to the server whose predicted post-assignment frame
  rates are best (RM), or worst-fit by remaining capacity for VBP.

Evaluation utilities measure the *actual* outcome of every placement by
running the resulting colocations on the simulator.
"""

from repro.placement.assignment import (
    AssignmentResult,
    assign_max_fps,
    assign_worst_fit,
    evaluate_assignment,
)
from repro.scheduling.dynamic import (
    DynamicMetrics,
    Session,
    generate_sessions,
    simulate_sessions,
)
from repro.scheduling.feasible import (
    FeasibilityReport,
    actual_feasibility,
    enumerate_colocations,
    judge_feasibility,
    score_judgements,
)
from repro.scheduling.packing import PackingResult, pack_requests
from repro.scheduling.requests import GameRequest, generate_requests

__all__ = [
    "GameRequest",
    "generate_requests",
    "enumerate_colocations",
    "actual_feasibility",
    "judge_feasibility",
    "score_judgements",
    "FeasibilityReport",
    "pack_requests",
    "PackingResult",
    "assign_max_fps",
    "assign_worst_fit",
    "evaluate_assignment",
    "AssignmentResult",
    "Session",
    "generate_sessions",
    "simulate_sessions",
    "DynamicMetrics",
]
