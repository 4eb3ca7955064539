"""GAugur reproduction: interference prediction for colocated cloud games.

Reproduces Li et al., *GAugur: Quantifying Performance Interference of
Colocated Games for Improving Resource Utilization in Cloud Gaming*
(HPDC 2019), on a simulated testbed.  See README.md for a tour, DESIGN.md
for the system inventory, EXPERIMENTS.md for paper-vs-measured results.

Most users want:

* :func:`repro.games.build_catalog` — the simulated game population;
* :class:`repro.profiling.ContentionProfiler` — the offline profiling pass;
* :mod:`repro.core` — training-sample generation, the CM/RM models, and
  the online :class:`~repro.core.InterferencePredictor`;
* :mod:`repro.scheduling` — the Section 5 request schedulers;
* :mod:`repro.serving` — the online dispatcher (broker, admission
  controller, prediction cache, telemetry) behind ``python -m repro serve``;
* :mod:`repro.experiments` — one module per paper figure.
"""

from repro.core import (
    ColocationSpec,
    GAugurClassifier,
    GAugurRegressor,
    InterferencePredictor,
)
from repro.games import REFERENCE_RESOLUTION, Resolution, build_catalog
from repro.hardware import DEFAULT_SERVER, Resource, ServerSpec
from repro.profiling import ContentionProfiler, ProfileDatabase
from repro.simulator import (
    GameInstance,
    MeasurementConfig,
    run_colocation,
    run_colocations,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "build_catalog",
    "Resolution",
    "REFERENCE_RESOLUTION",
    "Resource",
    "ServerSpec",
    "DEFAULT_SERVER",
    "ContentionProfiler",
    "ProfileDatabase",
    "GameInstance",
    "MeasurementConfig",
    "run_colocation",
    "run_colocations",
    "ColocationSpec",
    "GAugurClassifier",
    "GAugurRegressor",
    "InterferencePredictor",
]
