"""Circuit breaker over admission-policy health.

A production dispatcher cannot afford to keep asking a failing predictor
for placements: every errored decision burns the fallback path's latency
budget and, worse, a *slow* policy (one blowing its decision deadline)
degrades every arrival behind it.  The classic remedy is a circuit
breaker (Nygard's "Release It!" pattern): track recent outcomes in a
sliding window, trip OPEN when the failure fraction is sustained, stop
calling the protected component, and probe it again after a cooldown
(HALF_OPEN) before trusting it (CLOSED).

Everything here is counted in *decisions*, not wall-clock time, so
breaker behaviour is deterministic for a deterministic trace — the same
property the placement-parity tests rely on everywhere else in
:mod:`repro.serving`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

__all__ = ["BreakerState", "BreakerConfig", "CircuitBreaker"]


class BreakerState(Enum):
    """The three classic breaker states."""

    CLOSED = "closed"  # healthy: calls flow through
    OPEN = "open"  # tripped: calls are skipped until the cooldown elapses
    HALF_OPEN = "half_open"  # probing: a few trial calls decide recovery


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs for a :class:`CircuitBreaker`.

    ``failure_threshold`` is the failure fraction over the sliding
    ``window`` that trips the breaker (only once ``min_requests`` outcomes
    have been seen, so one early error cannot trip it); ``cooldown`` is
    how many skipped decisions OPEN lasts before probing; ``probe_window``
    is how many consecutive successful probes close the breaker again.
    """

    failure_threshold: float = 0.5
    window: int = 20
    min_requests: int = 5
    cooldown: int = 25
    probe_window: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if self.window < 1 or self.min_requests < 1:
            raise ValueError("window and min_requests must be >= 1")
        if self.min_requests > self.window:
            raise ValueError("min_requests cannot exceed window")
        if self.cooldown < 1 or self.probe_window < 1:
            raise ValueError("cooldown and probe_window must be >= 1")

    def to_dict(self) -> dict:
        """JSON-able form (embedded in serving reports)."""
        return {
            "failure_threshold": self.failure_threshold,
            "window": self.window,
            "min_requests": self.min_requests,
            "cooldown": self.cooldown,
            "probe_window": self.probe_window,
        }


class CircuitBreaker:
    """Sliding-window circuit breaker, clocked by decisions.

    Usage per decision: call :meth:`allow` first — ``False`` means skip
    the protected component this decision — then, if the component was
    called, report the outcome with :meth:`record`.  Trips, recoveries
    and every state change are appended to :attr:`transitions` so the
    serving report can show the full resilience timeline.
    """

    def __init__(
        self,
        config: BreakerConfig | None = None,
        *,
        name: str = "breaker",
        on_transition=None,
    ):
        self.config = config if config is not None else BreakerConfig()
        self.name = name
        self.on_transition = on_transition  # callable(transition_dict) | None
        self.state = BreakerState.CLOSED
        self.trips = 0
        self.recoveries = 0
        self.transitions: list[dict] = []
        self._outcomes: deque[bool] = deque(maxlen=self.config.window)
        self._failures = 0  # failures in _outcomes, kept as it changes
        self._skipped = 0  # decisions skipped while OPEN
        self._probe_successes = 0
        self._decision = 0  # monotonic decision clock (allow() calls)

    # ------------------------------------------------------------------

    def _transition(self, state: BreakerState, reason: str) -> None:
        change = {
            "decision": self._decision,
            "from": self.state.value,
            "to": state.value,
            "reason": reason,
        }
        self.transitions.append(change)
        self.state = state
        if self.on_transition is not None:
            self.on_transition(change)

    def allow(self) -> bool:
        """Whether the protected component may be called this decision."""
        self._decision += 1
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            self._skipped += 1
            if self._skipped >= self.config.cooldown:
                self._probe_successes = 0
                self._transition(BreakerState.HALF_OPEN, "cooldown elapsed")
                return True
            return False
        return True  # HALF_OPEN: probes flow through

    def record(self, success: bool) -> None:
        """Report the outcome of a call that :meth:`allow` let through."""
        if self.state is BreakerState.HALF_OPEN:
            if not success:
                self._reopen("probe failed")
                return
            self._probe_successes += 1
            if self._probe_successes >= self.config.probe_window:
                self._outcomes.clear()
                self._failures = 0
                self.recoveries += 1
                self._transition(BreakerState.CLOSED, "probe window succeeded")
            return
        outcomes = self._outcomes
        if len(outcomes) == outcomes.maxlen and not outcomes[0]:
            self._failures -= 1  # the append below evicts a failure
        outcomes.append(success)
        if not success:
            self._failures += 1
        if (
            self.state is BreakerState.CLOSED
            and len(outcomes) >= self.config.min_requests
            and self._failures / len(outcomes) >= self.config.failure_threshold
        ):
            self.trips += 1
            self._reopen("failure threshold exceeded")

    def _reopen(self, reason: str) -> None:
        self._skipped = 0
        self._outcomes.clear()
        self._failures = 0
        self._transition(BreakerState.OPEN, reason)

    # ------------------------------------------------------------------

    @property
    def failure_rate(self) -> float:
        """Failure fraction over the current sliding window (0.0 if empty)."""
        if not self._outcomes:
            return 0.0
        return self._failures / len(self._outcomes)

    def to_dict(self) -> dict:
        """JSON-able snapshot: state, trips/recoveries, transition log."""
        return {
            "name": self.name,
            "state": self.state.value,
            "trips": self.trips,
            "recoveries": self.recoveries,
            "failure_rate": self.failure_rate,
            "config": self.config.to_dict(),
            "transitions": list(self.transitions),
        }
