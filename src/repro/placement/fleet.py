"""Fleet state: the server-pool bookkeeping every broker drives.

Before this core existed, the offline simulator
(:func:`repro.scheduling.dynamic.simulate_sessions`) and the online
broker (:class:`repro.serving.RequestBroker`) each carried their own
copy of the same bookkeeping — a dict of server compositions, a
departure heap, peak tracking — proven equivalent only by parity tests.
:class:`FleetState` is the single implementation: servers are stable
integer ids hosting lists of live sessions, members are kept in
departure order (earliest-ending first), and every admitted session gets
a monotonically increasing *member id* so crash evictions can be
re-ordered deterministically regardless of any container iteration
order.

Mutation goes through three verbs — :meth:`place` (admit a session, on
an existing server or a fresh one), :meth:`pop_departures` (retire
sessions whose time has come), and :meth:`crash` (evict a whole server)
— which is what lets :class:`repro.placement.DecisionEngine` be the only
place placement decisions turn into fleet changes.

A fourth verb, :meth:`update_resolution`, supports the resolution
actuator: it swaps one member's session for a same-game, same-departure
copy at a different resolution, adjusting the server signature in place
— the restore loop's promotion primitive (and, symmetrically, how an
in-place downscale would land).

An *observer* (``fleet_placed`` / ``fleet_departed`` / ``fleet_evicted``
/ ``fleet_resolution_changed``) is notified synchronously after each
mutation with the stable member ids involved — the hook the QoS ledger
(:class:`repro.obs.qos.QoSLedger`) uses to mirror group composition
without the fleet knowing anything about QoS.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, replace

from repro.games.resolution import Resolution
from repro.placement.signature import (
    PoolView,
    Signature,
    SignatureIndex,
    entry_of,
    signature_add,
)

__all__ = ["Session", "FleetState", "degraded_to", "promoted_to"]


@dataclass(frozen=True, slots=True)
class Session:
    """One play session: a game at a resolution over [arrival, arrival+duration).

    ``resolution`` is the resolution the session is currently served at;
    ``requested`` remembers the player's original request when the
    downscale actuator placed (or re-placed) the session below it.  A
    session with ``requested`` unset was never degraded.  Because the
    whole :class:`Session` object travels through crash eviction,
    readmission, shard migration, and failover, degraded state survives
    all of them without any side-channel bookkeeping.
    """

    game: str
    resolution: Resolution
    arrival: float
    duration: float
    requested: Resolution | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.arrival < 0:
            raise ValueError("arrival must be >= 0")
        if (
            self.requested is not None
            and self.requested.pixels < self.resolution.pixels
        ):
            raise ValueError(
                "requested resolution must not be below the served one"
            )

    @property
    def departure(self) -> float:
        """The instant the session ends."""
        return self.arrival + self.duration

    @property
    def degraded(self) -> bool:
        """Whether the session is currently served below its request."""
        return self.requested is not None and self.resolution != self.requested


def degraded_to(session: Session, resolution: Resolution) -> Session:
    """Copy of ``session`` served at a lower ``resolution``.

    The original request is remembered (first degradation pins it;
    further degradations keep the original, not the intermediate rung).
    """
    requested = session.requested if session.requested is not None else session.resolution
    return replace(session, resolution=resolution, requested=requested)


def promoted_to(session: Session, resolution: Resolution) -> Session:
    """Copy of ``session`` promoted towards its request.

    ``requested`` is kept even on a full restore — `degraded` turns
    False by equality, and the QoS ledger still knows the session spent
    time below its request.
    """
    return replace(session, resolution=resolution)


class FleetState:
    """Servers, member signatures, and arrival/departure bookkeeping.

    The pool grows on demand (:meth:`place` with ``choice=None``) and
    shrinks when servers empty; ``peak`` records the largest
    simultaneous pool observed after any placement.  Server ids are
    monotonic — never reused, each larger than every id before it — so
    pool order (insertion order) *is* ascending id, and the index a
    policy returns is interpreted against exactly the :meth:`signatures`
    list of the same instant.

    The verbs keep a :class:`~repro.placement.signature.SignatureIndex`
    (one group per distinct live signature) current, one server per
    mutation; scanning it makes a decision cost O(distinct signatures).
    """

    def __init__(self, observer=None) -> None:
        # Mutation observer (fleet_placed / fleet_departed / fleet_evicted /
        # fleet_resolution_changed), or None for zero-overhead operation.
        self.observer = observer
        # server id -> members as (member_id, session), departure-ordered.
        self._servers: dict[int, list[tuple[int, Session]]] = {}
        # Per-server signatures (same order as _servers), pool-order ids
        # and signature -> servers groups; a verb moves just its server.
        self._index = SignatureIndex()
        self._departures: list[tuple[float, int, int]] = []  # (time, seq, server)
        self._next_server_id = 0
        self._next_member_id = 0
        self._seq = 0
        self._n_live = 0
        self._n_degraded = 0
        self.peak = 0

    # -- read side ------------------------------------------------------

    @property
    def n_open(self) -> int:
        """Number of currently open (non-empty) servers."""
        return len(self._servers)

    @property
    def n_live(self) -> int:
        """Live (placed, not yet departed or evicted) sessions fleet-wide.

        Maintained incrementally so occupancy checks — the sharded
        tier's rebalancer compares this across shards on every cycle —
        stay O(1) regardless of pool size.
        """
        return self._n_live

    @property
    def n_degraded(self) -> int:
        """Live sessions currently served below their requested resolution.

        Maintained incrementally so the restore loop's fast path — "is
        there anything to promote at all?" — is O(1) per barrier.
        """
        return self._n_degraded

    def degraded_members(self) -> list[tuple[int, int, Session]]:
        """Degraded live sessions as ``(server_id, member_id, session)``.

        Ordered by member id (admission order) so restore trajectories
        are deterministic: the longest-degraded session gets first claim
        on freed capacity, and no container iteration order leaks in.
        """
        out = [
            (server_id, member_id, session)
            for server_id, members in self._servers.items()
            for member_id, session in members
            if session.degraded
        ]
        out.sort(key=lambda m: m[1])
        return out

    def server_signature(self, server_id: int) -> Signature:
        """Canonical signature of one open server."""
        return self._index.signatures[server_id]

    def loads(self) -> dict[int, int]:
        """Member count per open server, in pool (decision-index) order."""
        return {sid: len(members) for sid, members in self._servers.items()}

    @property
    def servers_opened(self) -> int:
        """Total servers ever opened (stable ids are never reused)."""
        return self._next_server_id

    def server_ids(self) -> list[int]:
        """Stable ids of the open servers, in pool (decision-index) order."""
        return list(self._index.ids)

    def signatures(self) -> list[Signature]:
        """Canonical signatures of the open servers, in pool order.

        A snapshot list (one C-level copy); the index a policy returns is
        a position in it.  Decisions use :meth:`signature_view`, the same
        pool uncopied, whose live grouping policies scan instead.
        """
        return list(self._index.signatures.values())

    def signature_view(self) -> PoolView:
        """:meth:`signatures` without the copy: a read-only view of the
        live index, valid until the next mutation — what every decision
        is made against."""
        return PoolView(self._index)

    def members(self, server_id: int) -> list[Session]:
        """Live sessions hosted on ``server_id``, departure-ordered."""
        return [s for _, s in self._servers[server_id]]

    # -- mutation -------------------------------------------------------

    def place(self, choice: int | None, session: Session) -> int:
        """Apply a placement decision; returns the hosting server's id.

        ``choice`` is a policy's index into the current :meth:`signatures`
        list, or ``None`` to open a fresh server.  The session's
        departure is scheduled and the member inserted so the
        earliest-ending session leaves first.
        """
        member = (self._next_member_id, session)
        self._next_member_id += 1
        if choice is None:
            server_id = self._next_server_id
            self._next_server_id += 1
            self._servers[server_id] = [member]
            self._index.move(server_id, (entry_of(session),))
        else:
            server_id = self._index.ids[choice]
            # Keep departure order: earliest-ending session leaves first
            # (right-biased, so equal departures stay in admission order).
            insort(self._servers[server_id], member, key=lambda m: m[1].departure)
            sig = self._index.signatures[server_id]
            self._index.move(server_id, signature_add(sig, entry_of(session)))
        heapq.heappush(self._departures, (session.departure, self._seq, server_id))
        self._seq += 1
        self._n_live += 1
        if session.degraded:
            self._n_degraded += 1
        self.peak = max(self.peak, len(self._servers))
        if self.observer is not None:
            self.observer.fleet_placed(server_id, member[0], session)
        return server_id

    def pop_departures(self, until: float) -> int:
        """Retire every session departing at or before ``until``.

        Servers that empty leave the pool.  Departure entries whose
        server already vanished (crashed) are skipped silently: a
        crashed server's sessions were re-admitted under new entries.
        Returns the number of sessions actually retired.
        """
        removed = 0
        while self._departures and self._departures[0][0] <= until:
            t, _, server_id = heapq.heappop(self._departures)
            members = self._servers.get(server_id)
            if members is None:
                continue
            member_id, session = members.pop(0)
            if not members:
                del self._servers[server_id]
                self._index.move(server_id, None)
            else:
                # Drop one occurrence of the departing entry; removal
                # from a sorted tuple keeps it canonical.
                sig = self._index.signatures[server_id]
                i = sig.index(entry_of(session))
                self._index.move(server_id, sig[:i] + sig[i + 1 :])
            removed += 1
            if session.degraded:
                self._n_degraded -= 1
            if self.observer is not None:
                self.observer.fleet_departed(server_id, member_id, session, t)
        self._n_live -= removed
        return removed

    def update_resolution(
        self, server_id: int, member_id: int, session: Session
    ) -> None:
        """Swap member ``member_id``'s session for a resolution-changed copy.

        The replacement must be the same session at a different
        resolution (same game, same interval) — this verb changes *how*
        a session is served, never *what* is served or *when* it leaves,
        so departure bookkeeping and member ids stay untouched.  The
        server's signature is re-canonicalized for the one changed
        entry.
        """
        members = self._servers[server_id]
        for pos, (mid, old) in enumerate(members):
            if mid == member_id:
                break
        else:
            raise KeyError(f"member {member_id} not on server {server_id}")
        if (
            session.game != old.game
            or session.arrival != old.arrival
            or session.duration != old.duration
        ):
            raise ValueError(
                "update_resolution may only change the resolution of a session"
            )
        members[pos] = (member_id, session)
        sig = self._index.signatures[server_id]
        i = sig.index(entry_of(old))
        self._index.move(
            server_id, signature_add(sig[:i] + sig[i + 1 :], entry_of(session))
        )
        self._n_degraded += int(session.degraded) - int(old.degraded)
        if self.observer is not None:
            self.observer.fleet_resolution_changed(server_id, member_id, old, session)

    def crash(self, server_id: int) -> list[Session]:
        """Evict ``server_id`` wholesale, returning its live sessions.

        The evicted sessions are ordered by *member id* (admission
        order), making crash → evict → readmission trajectories a pure
        function of the crash RNG: no dict or member-list iteration
        order can leak into who re-enters admission first.  Stale
        departure entries for the crashed server remain in the heap and
        are skipped by :meth:`pop_departures`.
        """
        members = self._servers.pop(server_id)
        self._index.move(server_id, None)
        self._n_live -= len(members)
        self._n_degraded -= sum(1 for _, s in members if s.degraded)
        ordered = sorted(members, key=lambda m: m[0])
        if self.observer is not None:
            self.observer.fleet_evicted(server_id, ordered)
        return [s for _, s in ordered]
