"""Deterministic fault injection for the serving stack.

Chaos testing a dispatcher means answering "what happens when the
predictor throws, stalls, or lies?" *before* production does.  This
module wraps the three components on the serving hot path — admission
policies, the interference predictor, and the prediction cache — in
proxies that inject failures at configurable rates:

- **errors** — the wrapped call raises :class:`InjectedFault` instead of
  answering (a crashed model server, a poisoned request);
- **latency** — the call is delayed by a configurable spike, exercising
  the admission controller's decision deadline;
- **corruption** — the call answers, but wrongly: policies return
  out-of-range server indices, predictors flip CM verdicts and negate
  FPS vectors, caches store mangled values;
- **staleness** — the call returns a previously computed answer (a
  replica serving an old profile snapshot) or the cache forgets entries.

Every draw comes from one seeded substream
(:func:`repro.utils.rng.spawn_rng`), so a chaos run is exactly
reproducible, and a rate of ``0.0`` short-circuits before touching the
RNG — a fully zero-rate injector is a perfect pass-through, which is how
the parity tests prove the fault layer cannot perturb healthy serving.

:class:`InjectionWindow` generalizes the flat rates into time-varying
failure bursts (start/duration/intensity); the shard-level chaos layer
(:mod:`repro.sharding.chaos`) builds whole-shard outage schedules out of
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs.metrics import Telemetry
from repro.utils.rng import spawn_rng

__all__ = [
    "InjectedFault",
    "InjectionWindow",
    "windowed_rate",
    "FaultConfig",
    "FaultInjector",
    "FaultyPolicy",
    "FaultyPredictor",
    "FaultyCache",
]


class InjectedFault(RuntimeError):
    """An artificial failure raised by the :class:`FaultInjector`."""


@dataclass(frozen=True)
class InjectionWindow:
    """A time-varying injection window: extra fault probability while open.

    The anomaly-injector shape — a failure burst with a start, a
    duration, and an intensity — as a reusable primitive.  ``rate`` is
    added to the base injection rate while ``start <= now < start +
    duration``; ``target`` optionally narrows the window to one
    component (the shard-level chaos layer uses shard ids).  Windows are
    pure functions of the logical clock, so enabling one never perturbs
    draws outside its span.
    """

    start: float
    duration: float
    rate: float
    target: int | str | None = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"window start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ValueError(f"window duration must be > 0, got {self.duration}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"window rate must be in [0, 1], got {self.rate}")

    def open_at(self, now: float) -> bool:
        """Whether the window covers logical time ``now``."""
        return self.start <= now < self.start + self.duration

    def rate_at(self, now: float, target=None) -> float:
        """The extra rate this window contributes for ``target`` at ``now``."""
        if not self.open_at(now):
            return 0.0
        if self.target is not None and target != self.target:
            return 0.0
        return self.rate

    def to_dict(self) -> dict:
        """JSON-able form (embedded in serving reports)."""
        return {
            "start": self.start,
            "duration": self.duration,
            "rate": self.rate,
            "target": self.target,
        }


def windowed_rate(
    base: float, windows, now: float, target=None, *, cap: float = 1.0
) -> float:
    """``base`` plus every open window's contribution, clamped to ``cap``."""
    rate = base + sum(w.rate_at(now, target) for w in windows)
    return min(rate, cap)


@dataclass(frozen=True)
class FaultConfig:
    """Per-kind injection rates (probability per wrapped call) and seed.

    ``latency_s`` is the spike applied when a latency fault fires; keep
    it tiny in tests (the broker's decision deadline is the thing under
    test, not the wall clock).
    """

    error_rate: float = 0.0
    latency_rate: float = 0.0
    latency_s: float = 0.002
    corrupt_rate: float = 0.0
    stale_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for field in ("error_rate", "latency_rate", "corrupt_rate", "stale_rate"):
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{field} must be in [0, 1], got {rate}")
        if self.latency_s < 0:
            raise ValueError("latency_s must be >= 0")

    @property
    def active(self) -> bool:
        """True when any rate is nonzero."""
        return any(
            (self.error_rate, self.latency_rate, self.corrupt_rate, self.stale_rate)
        )

    def to_dict(self) -> dict:
        """JSON-able form (embedded in serving reports)."""
        return {
            "error_rate": self.error_rate,
            "latency_rate": self.latency_rate,
            "latency_s": self.latency_s,
            "corrupt_rate": self.corrupt_rate,
            "stale_rate": self.stale_rate,
            "seed": self.seed,
        }


class FaultInjector:
    """Seeded fault source shared by all the wrappers it hands out."""

    def __init__(self, config: FaultConfig, *, telemetry: Telemetry | None = None):
        self.config = config
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._rng = spawn_rng(config.seed, "fault-injector")

    def fire(self, kind: str) -> bool:
        """Draw whether a ``kind`` fault fires now (counted in telemetry).

        A zero rate returns ``False`` without consuming randomness, so
        disabled fault kinds leave the injection sequence of the enabled
        ones — and a fully disabled injector's wrapped components —
        untouched.
        """
        rate = getattr(self.config, f"{kind}_rate")
        if rate <= 0.0 or self._rng.random() >= rate:
            return False
        self.telemetry.counter("faults_injected").inc()
        self.telemetry.counter(f"faults_{kind}").inc()
        return True

    def maybe_delay(self) -> None:
        """Sleep through a latency spike when one fires."""
        if self.fire("latency"):
            time.sleep(self.config.latency_s)

    # ------------------------------------------------------------------

    def wrap_policy(self, policy) -> "FaultyPolicy":
        """An admission policy that errors, stalls, or answers nonsense."""
        return FaultyPolicy(policy, self)

    def wrap_predictor(self, predictor) -> "FaultyPredictor":
        """A predictor that errors, stalls, lies, or serves stale answers."""
        return FaultyPredictor(predictor, self)

    def wrap_cache(self, cache) -> "FaultyCache":
        """A prediction cache that forgets entries and corrupts values."""
        return FaultyCache(cache, self)


def _corrupt(value):
    """A plausibly-typed but wrong version of a prediction result."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return -abs(value) - 1.0
    if isinstance(value, (tuple, list)):
        return type(value)(_corrupt(v) for v in value)
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return _corrupt(value.tolist())
    return value


class FaultyPolicy:
    """Admission-policy proxy injecting errors, latency, and bad indices."""

    def __init__(self, policy, injector: FaultInjector):
        self._policy = policy
        self._injector = injector
        self.name = policy.name

    def __getattr__(self, attr):
        return getattr(self._policy, attr)

    def select(self, signatures, session):
        """Delegate to the wrapped policy, unless a fault fires first."""
        self._injector.maybe_delay()
        if self._injector.fire("error"):
            raise InjectedFault(f"policy {self.name!r}: injected error")
        choice = self._policy.select(signatures, session)
        if self._injector.fire("corrupt"):
            return len(signatures) + 1  # out of range: must be caught upstream
        return choice


class FaultyPredictor:
    """Predictor proxy: every prediction entry point can fail or lie.

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
        self._last: dict[str, object] = {}  # per-method stale answers

    def __getattr__(self, attr):
        if attr in self._WRAPPED:
            inner = getattr(self._predictor, attr)

            def call(*args, _attr=attr, _inner=inner, **kwargs):
                return self._call(_attr, _inner, args, kwargs)

            return call
        return getattr(self._predictor, attr)

    def _call(self, attr: str, inner, args, kwargs):
        injector = self._injector
        injector.maybe_delay()
        if injector.fire("error"):
            raise InjectedFault(f"predictor.{attr}: injected error")
        if injector.fire("stale") and attr in self._last:
            return self._last[attr]
        result = inner(*args, **kwargs)
        self._last[attr] = result
        if injector.fire("corrupt"):
            return _corrupt(result)
        return result


class FaultyCache:
    """Prediction-cache proxy: lookups forget, stores corrupt.

    A stale fault turns a hit into a miss (the entry was "lost" by a
    restarted replica); a corrupt fault mangles the value being stored,
    modelling a poisoned cache line the policies must survive.

    ``generation`` is ``None`` (not forwarded): a lost entry or a stale
    draw must be met by a real probe every time, so the policies keep no
    verdict memo over this cache and the fault stream stays the same.
    """

    generation = None

    def __init__(self, cache, injector: FaultInjector):
        self._cache = cache
        self._injector = injector

    def __getattr__(self, attr):
        return getattr(self._cache, attr)

    def lookup(self, key, default=None):
        """Cache lookup that occasionally loses the entry for real."""
        if self._injector.fire("stale"):
            invalidate = getattr(self._cache, "invalidate", None)
            if invalidate is not None:
                invalidate(key)
            return default
        return self._cache.lookup(key, default)

    def lookup_many(self, keys, default=None) -> list:
        """One faulty :meth:`lookup` (one ``stale`` draw) per key, in order.

        At a zero stale rate no draw is made, so the wrapped cache's own
        batch probe gives the same values, stats and fault stream.
        """
        if self._injector.config.stale_rate <= 0.0:
            return self._cache.lookup_many(keys, default)
        return [self.lookup(key, default) for key in keys]

    def put(self, key, value) -> None:
        """Cache store that occasionally writes a corrupted value."""
        if self._injector.fire("corrupt"):
            value = _corrupt(value)
        self._cache.put(key, value)
