"""Canonical server signatures and colocation cache keys.

One module owns the canonicalization contract that the whole placement
stack relies on: a server's *signature* is the sorted tuple of its
hosted ``(game, resolution)`` entries, so two servers hosting the same
multiset of games compare equal regardless of arrival order, and a
colocation's *cache key* folds that signature (resolution expanded to
``(width, height)`` for plain-tuple hashing) together with the optional
QoS floor.  Interference predictions are pure functions of the
colocation multiset — the Eq. 5 aggregate is symmetric in the
co-runners — so any permutation of the same entries must map to the same
signature and the same cache line.

Everything placement-shaped builds on these helpers: the
:class:`~repro.placement.fleet.FleetState` bookkeeping, the admission
policies' candidate construction, and the
:class:`~repro.placement.cache.PredictionCache` key schema.

Placement depends only on the *multiset* of signatures in the pool, so
the module also owns the grouping every policy scans: a
:class:`SignatureIndex` of one :class:`SignatureGroup` per distinct
signature, carried by the :class:`PoolView` policies receive from the
decision engine (:func:`index_of` groups a plain list on the spot).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable, Sequence

from repro.games.resolution import Resolution

__all__ = [
    "Signature",
    "entry_of",
    "signature_of",
    "signature_add",
    "colocation_key",
    "SignatureGroup",
    "SignatureIndex",
    "PoolView",
    "index_of",
]

#: A server signature: sorted tuple of (game, resolution) entries.
Signature = tuple[tuple[str, Resolution], ...]

#: One shared ``(game, width, height)`` tuple per distinct key entry, so
#: cached keys hold references instead of copies (bounded by games x
#: resolutions; ``setdefault`` of equal tuples is safe across threads).
_KEY_ENTRIES: dict[tuple[str, int, int], tuple[str, int, int]] = {}


def entry_of(session) -> tuple[str, Resolution]:
    """The ``(game, resolution)`` entry a session contributes to a server.

    ``session`` is anything with ``game`` and ``resolution`` attributes
    (:class:`repro.placement.fleet.Session`,
    :class:`repro.scheduling.requests.GameRequest`, ...).
    """
    return (session.game, session.resolution)


def signature_of(sessions: Iterable) -> Signature:
    """Canonical signature of the sessions hosted on one server."""
    return tuple(sorted(entry_of(s) for s in sessions))


def signature_add(signature: Signature, entry: tuple[str, Resolution]) -> Signature:
    """The canonical signature after adding one ``(game, resolution)`` entry."""
    return tuple(sorted(signature + (entry,)))


def colocation_key(
    entries: Iterable[tuple[str, Resolution]], qos: float | None = None
) -> tuple:
    """Canonical, order-insensitive cache key for a colocation.

    ``entries`` is any iterable of ``(game, resolution)`` pairs (a
    signature, or :attr:`ColocationSpec.entries`); ``qos`` folds the CM
    floor into the key so verdicts at different floors never collide.
    Permutations of the same multiset map to the same key, and every key
    shares one interned tuple object per distinct entry.
    """
    intern = _KEY_ENTRIES.setdefault
    signature = tuple(
        sorted(intern(e := (name, res.width, res.height), e) for name, res in entries)
    )
    return (signature, None if qos is None else float(qos))


class SignatureGroup:
    """One distinct signature: the ascending ids of the servers holding it.

    ``memo`` maps an arrival (``colocation_key((entry,), floor)``) to the
    ``(candidate signature, cache key, generation, verdict)`` this group
    yields when that entry joins it — filled lazily by the policies, gone
    with the group, so bounded by the live pool.  ``verdict`` is a cache
    hit read while the cache was at ``generation`` (``None`` for both
    until one is read); it stands for a probe only while the cache is
    still at that generation.
    """

    __slots__ = ("signature", "ids", "memo")

    def __init__(self, signature: Signature):
        self.signature = signature
        self.ids: list[int] = []
        self.memo: dict[tuple, tuple[Signature, tuple, int | None, object]] = {}


class SignatureIndex:
    """Per-server signatures of a pool, grouped by distinct signature.

    Ids only ever grow (a plain list's positions serve as its ids), so
    ``signatures`` (insertion-ordered), ``ids`` and each group's ``ids``
    stay ascending: pool order *is* ascending id and a pool position is a
    ``bisect``.  Once built, :meth:`move` is the only mutation; it bumps
    ``epoch`` and never leaves an empty group behind.

    Groups are also kept in first-occurrence pool order (sorted by first
    id, re-seated only when it changes), so :meth:`open_groups` filters.
    """

    def __init__(self, signatures: Iterable[Signature] = ()) -> None:
        self.signatures: dict[int, Signature] = dict(enumerate(signatures))
        self.ids: list[int] = list(self.signatures)
        self.groups: dict[Signature, SignatureGroup] = {}
        self.epoch = 0
        for position, signature in self.signatures.items():
            self._group(signature).ids.append(position)
        # Positions were visited ascending: creation order is pool order.
        self._order: list[SignatureGroup] = list(self.groups.values())
        self._firsts: list[int] = [group.ids[0] for group in self._order]

    def _group(self, signature: Signature) -> SignatureGroup:
        group = self.groups.get(signature)
        return group or self.groups.setdefault(signature, SignatureGroup(signature))

    def _reseat(self, group: SignatureGroup, old_first: int | None) -> None:
        """Move ``group`` from ``old_first``'s place to its current first id's."""
        firsts, order = self._firsts, self._order
        if old_first is not None:
            at = bisect_left(firsts, old_first)
            del firsts[at], order[at]
        if group.ids:
            first = group.ids[0]
            at = bisect_left(firsts, first)
            firsts.insert(at, first)
            order.insert(at, group)

    def move(self, server_id: int, new: Signature | None) -> None:
        """Set ``server_id``'s signature: its first opens it, ``None`` closes it."""
        self.epoch += 1
        old = self.signatures.get(server_id)
        if old is None:
            self.ids.append(server_id)
        else:
            group = self.groups[old]
            at = bisect_left(group.ids, server_id)
            del group.ids[at]
            if at == 0:
                self._reseat(group, server_id)
            if not group.ids:
                del self.groups[old]
        if new is None:
            del self.signatures[server_id]
            del self.ids[bisect_left(self.ids, server_id)]
        else:
            self.signatures[server_id] = new
            group = self._group(new)
            old_first = group.ids[0] if group.ids else None
            insort(group.ids, server_id)
            if group.ids[0] == server_id:
                self._reseat(group, old_first)

    def open_groups(self, limit: int) -> list[SignatureGroup]:
        """Groups of fewer than ``limit`` members, in first-occurrence pool order."""
        return [g for g in self._order if len(g.signature) < limit]

    def position(self, group: SignatureGroup | None) -> int | None:
        """Pool index of ``group``'s first server (``None`` for no group)."""
        return None if group is None else bisect_left(self.ids, group.ids[0])


class PoolView(Sequence):
    """Pool-order signatures read off a live :class:`SignatureIndex`, no copy.

    A read-only :class:`~collections.abc.Sequence` of the pool, not a list
    (a slice is a list copy): it describes the pool while
    ``epoch == grouped.epoch`` (:func:`index_of`); ``list(view)`` keeps a
    snapshot.
    """

    __slots__ = ("grouped", "epoch")

    def __init__(self, index: SignatureIndex):
        self.grouped = index
        self.epoch = index.epoch

    def __len__(self) -> int:
        return len(self.grouped.ids)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return list(self)[position]
        return self.grouped.signatures[self.grouped.ids[position]]

    def __iter__(self):
        return iter(self.grouped.signatures.values())


def index_of(signatures) -> SignatureIndex:
    """The current index of ``signatures``, grouping a plain (or outdated) list."""
    index = signatures.grouped if isinstance(signatures, PoolView) else None
    if index is None or index.epoch != signatures.epoch:
        index = SignatureIndex(signatures)
    return index
