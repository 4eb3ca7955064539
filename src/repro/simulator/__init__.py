"""Frame-loop colocation simulator — the reproduction's ground-truth oracle.

Everywhere the paper runs a real colocation on its testbed and reads frame
rates off the screen, this reproduction calls :func:`run_colocation`.  The
simulator resolves shared-resource contention among workloads to a steady
state (rate-scaled utilizations, non-additive pressure aggregation,
per-stage time inflation), then simulates a run of frames with AR(1) scene
complexity and measurement noise to produce the FPS numbers that profiling,
model training and every evaluation consume.
"""

from repro.simulator.encoder import EncoderModel, processing_delays
from repro.simulator.engine import ColocationEngine, SteadyState
from repro.simulator.frames import scene_complexity, simulate_frame_times
from repro.simulator.measurement import (
    ColocationResult,
    MeasurementConfig,
    measure_solo_fps,
    run_colocation,
    run_colocations,
)
from repro.simulator.workload import BenchmarkInstance, GameInstance, Workload

__all__ = [
    "EncoderModel",
    "processing_delays",
    "Workload",
    "GameInstance",
    "BenchmarkInstance",
    "ColocationEngine",
    "SteadyState",
    "scene_complexity",
    "simulate_frame_times",
    "MeasurementConfig",
    "ColocationResult",
    "run_colocations",
    "run_colocation",
    "measure_solo_fps",
]
