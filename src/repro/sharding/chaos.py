"""Shard-level chaos: seeded whole-shard outages and transient flakes.

The serving fault model (:mod:`repro.serving.faults`, the broker's
server crashes) stops at the component layer — an erroring predictor, a
crashing server inside one fleet; this module models the failure domain
above it — an entire broker shard dropping out of the serving tier, the
way a rack loses power or a worker process is OOM-killed.  It is the
*generative* half of shard supervision: :class:`ShardChaos` decides,
deterministically, which shards are down when, and the
:class:`~repro.sharding.ShardSupervisor` only ever observes that world
through :meth:`ShardChaos.probe` — exactly the information a real health
checker would have.

Failures come in two severities:

- **outages** — the shard stops responding for ``outage_chunks``
  consecutive chunk barriers (probe retries cannot save it; the
  supervisor must eject it from the ring and fail its sessions over);
- **flakes** — one probe fails and the next succeeds (a dropped health
  check, a GC pause); the supervisor's bounded retry loop absorbs these
  without touching the ring.

Rates are per shard per chunk barrier.  The base ``outage_rate`` can be
shaped in time by :class:`InjectionWindow` outage windows
(start/duration/intensity, optionally targeting one shard), so a test
can script "kill shard 2 a third of the way into the trace" as data.
Every draw comes from the shard's own substream
(``derive_seed(seed, "shard-chaos", shard_id)``), so adding a shard
never perturbs another shard's schedule, a zero-rate configuration never
touches an RNG, and the same seed replays the same outages byte for
byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import derive_seed, spawn_rng

__all__ = [
    "InjectionWindow",
    "windowed_rate",
    "parse_outage_window",
    "ShardChaosConfig",
    "ShardChaos",
]


@dataclass(frozen=True)
class InjectionWindow:
    """A time-varying injection window: extra fault probability while open.

    The anomaly-injector shape — a failure burst with a start, a
    duration, and an intensity — as a reusable primitive.  ``rate`` is
    added to the base injection rate while ``start <= now < start +
    duration``; ``target`` optionally narrows the window to one
    component (here, a shard id).  Windows are pure functions of the
    logical clock, so enabling one never perturbs draws outside its span.
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


def parse_outage_window(text: str) -> InjectionWindow:
    """Parse ``START:DURATION:RATE[@SHARD]`` into an outage window.

    Times are in the trace's logical units (arrival minutes); ``RATE``
    is the per-barrier outage probability while the window is open;
    ``@SHARD`` restricts the window to one shard id (all shards when
    omitted).  Raises ``ValueError`` with the offending text on any
    malformed input — the CLI surfaces that as a one-line error.
    """
    body, at, shard_text = text.partition("@")
    parts = body.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"bad outage window {text!r} (expected START:DURATION:RATE[@SHARD])"
        )
    try:
        start, duration, rate = (float(p) for p in parts)
        target = int(shard_text) if at else None
    except ValueError as exc:
        raise ValueError(
            f"bad outage window {text!r} (expected START:DURATION:RATE[@SHARD])"
        ) from exc
    return InjectionWindow(start=start, duration=duration, rate=rate, target=target)


@dataclass(frozen=True)
class ShardChaosConfig:
    """Shard-outage schedule knobs and seed.

    ``outage_rate`` and ``flake_rate`` are per shard per chunk barrier;
    ``outage_chunks`` is how many barriers a shard stays down once an
    outage fires (its recovery is deterministic, so the supervisor's
    cooldown/probe loop — not luck — decides when it rejoins the ring).
    ``windows`` add time-varying outage probability on top of the base
    rate.
    """

    outage_rate: float = 0.0
    flake_rate: float = 0.0
    outage_chunks: int = 4
    windows: tuple[InjectionWindow, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for field in ("outage_rate", "flake_rate"):
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{field} must be in [0, 1], got {rate}")
        if self.outage_chunks < 1:
            raise ValueError(
                f"outage_chunks must be >= 1, got {self.outage_chunks}"
            )

    @property
    def active(self) -> bool:
        """True when any outage source is configured."""
        return bool(self.outage_rate or self.flake_rate or self.windows)

    def to_dict(self) -> dict:
        """JSON-able form (embedded in the supervision report)."""
        return {
            "outage_rate": self.outage_rate,
            "flake_rate": self.flake_rate,
            "outage_chunks": self.outage_chunks,
            "windows": [w.to_dict() for w in self.windows],
            "seed": self.seed,
        }


class ShardChaos:
    """The ground truth of shard availability, advanced barrier by barrier.

    The sharded broker's coordinator calls :meth:`begin_barrier` once
    per chunk barrier (with the barrier's logical time, for the outage
    windows); the supervisor then issues :meth:`probe` calls against
    individual shards.  Event draws happen at most once per shard per
    barrier — on the first probe — so retry probes and half-open
    recovery probes observe a stable world instead of rerolling it.
    """

    def __init__(self, config: ShardChaosConfig, n_shards: int):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.config = config
        self.n_shards = int(n_shards)
        self._rngs = [
            spawn_rng(derive_seed(config.seed, "shard-chaos", shard_id))
            for shard_id in range(self.n_shards)
        ]
        self._down_until = [0] * self.n_shards  # exclusive barrier index
        self._flaky = [0] * self.n_shards  # failed probes left this barrier
        self._drawn = [False] * self.n_shards
        self._barrier = 0
        self._now = 0.0

    def begin_barrier(self, now: float) -> None:
        """Advance the barrier clock; flakes from the last barrier clear."""
        self._barrier += 1
        self._now = float(now)
        self._drawn = [False] * self.n_shards
        self._flaky = [0] * self.n_shards

    def is_down(self, shard_id: int) -> bool:
        """Whether ``shard_id`` is inside an outage at the current barrier."""
        return self._barrier < self._down_until[shard_id]

    def probe(self, shard_id: int) -> bool:
        """One health probe against ``shard_id``; ``False`` = no response.

        The first probe of a barrier draws the shard's events for that
        barrier (outage first, then flake; an already-down shard draws
        nothing, so its recovery date never depends on how often it was
        probed).  A flake fails exactly one probe, so a supervisor with
        at least one retry sees through it.
        """
        self._maybe_draw(shard_id)
        if self.is_down(shard_id):
            return False
        if self._flaky[shard_id] > 0:
            self._flaky[shard_id] -= 1
            return False
        return True

    def _maybe_draw(self, shard_id: int) -> None:
        if self._drawn[shard_id] or self.is_down(shard_id):
            return
        self._drawn[shard_id] = True
        rng = self._rngs[shard_id]
        outage = windowed_rate(
            self.config.outage_rate, self.config.windows, self._now, shard_id
        )
        # Zero rates short-circuit before the RNG, as FaultInjector.fire
        # does: a fully inactive config never draws.
        if outage > 0.0 and rng.random() < outage:
            self._down_until[shard_id] = self._barrier + self.config.outage_chunks
            return
        if self.config.flake_rate > 0.0 and rng.random() < self.config.flake_rate:
            self._flaky[shard_id] = 1
