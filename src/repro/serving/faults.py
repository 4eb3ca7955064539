"""Deterministic predictor fault injection for the serving stack.

Chaos testing a dispatcher means answering "what happens when the
predictor throws?" *before* production does.  :class:`FaultInjector`
hands out a :class:`FaultyPredictor` proxy whose prediction entry points
raise :class:`InjectedFault` at a configurable ``error_rate`` (a crashed
model server, a poisoned request); the decision engine's fallback chain
must absorb every one.  ``repro serve --fault-rate``
sets the rate (:attr:`repro.sharding.ShardConfig.fault_rate`).

Every draw comes from one seeded substream
(:func:`repro.utils.rng.spawn_rng`), so a chaos run is exactly
reproducible, and a rate of ``0.0`` short-circuits before touching the
RNG — a zero-rate injector is a perfect pass-through, which is how the
parity tests prove the fault layer cannot perturb healthy serving.

The proxy wraps the predictor only, never the prediction cache: the
policies' group verdict memo stays on under faults, so a memo answer
replaces a cache probe exactly as in a fault-free run.  A memo answer
does not refresh the cache's LRU order, so with an evicting cache it can
change which entry is evicted later, and with that which later
predictor call draws a fault.
"""

from __future__ import annotations

from repro.obs.metrics import Telemetry
from repro.utils.rng import spawn_rng

__all__ = ["InjectedFault", "FaultInjector", "FaultyPredictor"]


class InjectedFault(RuntimeError):
    """An artificial failure raised by the :class:`FaultInjector`."""


class FaultInjector:
    """Seeded source of predictor errors shared by the proxies it hands out."""

    def __init__(
        self, error_rate: float, *, seed: int = 0, telemetry: Telemetry | None = None
    ):
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
        self.error_rate = error_rate
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._rng = spawn_rng(seed, "fault-injector")

    def fire(self) -> bool:
        """Draw whether an error fires now (counted in telemetry).

        A zero rate returns ``False`` without consuming randomness, so a
        disabled injector's wrapped predictor is untouched.
        """
        rate = self.error_rate
        if rate <= 0.0 or self._rng.random() >= rate:
            return False
        self.telemetry.counter("faults_injected").inc()
        self.telemetry.counter("faults_error").inc()
        return True

    def wrap_predictor(self, predictor) -> "FaultyPredictor":
        """A predictor whose prediction calls error at ``error_rate``."""
        return FaultyPredictor(predictor, self)


class FaultyPredictor:
    """Predictor proxy: every prediction entry point can raise.

    Non-prediction attributes (``db``, ``classifier``, ``regressor``,
    ``validate_spec``, ...) delegate untouched, so the proxy drops into
    any place an :class:`repro.core.InterferencePredictor` fits —
    including :func:`repro.placement.policies.build_policy`.
    """

    _WRAPPED = (
        "predict_fps",
        "predict_degradations",
        "predict_feasible",
        "colocation_feasible",
        "predict_fps_batch",
        "predict_degradations_batch",
        "predict_feasible_batch",
        "colocations_feasible",
    )

    def __init__(self, predictor, injector: FaultInjector):
        self._predictor = predictor
        self._injector = injector

    def __getattr__(self, attr):
        inner = getattr(self._predictor, attr)
        if attr not in self._WRAPPED:
            return inner
        injector = self._injector

        def call(*args, **kwargs):
            if injector.fire():
                raise InjectedFault(f"predictor.{attr}: injected error")
            return inner(*args, **kwargs)

        return call
