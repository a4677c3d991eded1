"""Journaled allocation: O(moves) undo for the incremental quoting engine.

The online host prices a proposal by *repairing the live plan in place* and
then deciding whether to keep the repair.  A rejected quote must leave the
host byte-identical to before the quote — without copying the allocation.
:class:`JournaledAllocation` makes that cheap: every ``assign``/``release``
(the primitives all repair moves decompose into) appends one delta record to
an in-memory journal, and :meth:`rollback_to` replays the records in reverse
with the exact inverse operations.  Both directions use the same integer
counter arithmetic, so a rollback restores the counts matrix, the gain/loss
vectors, influence vector, owner vector, and sets bit-for-bit (see
DESIGN.md §15).

An accepted quote is the dual operation: the journal slice recorded while
pricing is handed out as replay material (:meth:`journal_entries`) and
applied later via :meth:`replay` — the repair is committed without being
recomputed.

The class also keeps a per-advertiser **regret cache** warm across quotes:
``regret(i)`` is a pure function of advertiser ``i``'s influence and its
(immutable) contract, so the cached value stays valid until one of ``i``'s
billboards moves — which is exactly when the journal records a delta for it.
``total_regret()`` (inherited) sums the cached values in the identical id
order as the uncached base class, so the float result is bit-identical.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro import obs
from repro.core.allocation import Allocation
from repro.core.problem import MROAMInstance


class JournaledAllocation(Allocation):
    """An :class:`Allocation` with a delta journal, undo, and a regret cache.

    Recording is off until :meth:`journal_enable`; the quoting workspace
    turns it on once and leaves it on, so every repair move lands in the
    journal.  :meth:`rollback_to` and :meth:`replay` suspend recording
    internally — undo and commit traffic never re-enters the journal.
    """

    def __init__(self, instance: MROAMInstance) -> None:
        super().__init__(instance)
        self._entries: list[tuple[str, int, int]] = []
        self._recording = False
        self._regret_cache = np.zeros(instance.num_advertisers, dtype=np.float64)
        self._regret_valid = np.zeros(instance.num_advertisers, dtype=bool)

    # ---------------------------------------------------------- journal API

    @property
    def journaling(self) -> bool:
        """Whether moves are currently being recorded (the repair engines
        switch to in-place top-ups when this is set, keeping object
        identity)."""
        return self._recording

    def journal_enable(self) -> None:
        """Start recording every assign/release delta."""
        self._recording = True

    def journal_mark(self) -> int:
        """The current journal position (pass to :meth:`rollback_to`)."""
        return len(self._entries)

    def journal_entries(self, mark: int = 0) -> tuple[tuple[str, int, int], ...]:
        """A copy of the records appended since ``mark`` (replay material)."""
        return tuple(self._entries[mark:])

    def journal_commit(self, mark: int = 0) -> None:
        """Drop the records since ``mark``, keeping the state they built."""
        del self._entries[mark:]

    def rollback_to(self, mark: int = 0) -> int:
        """Undo every move recorded after ``mark``; returns the undo count.

        O(moves touched): each record is inverted with the same counter
        arithmetic the forward move used (``release`` exactly inverts
        ``assign`` on the multiplicity counters), so the restored state is
        byte-identical — no copies are made.
        """
        undone = len(self._entries) - mark
        recording = self._recording
        self._recording = False
        try:
            while len(self._entries) > mark:
                kind, billboard_id, advertiser_id = self._entries.pop()
                if kind == "assign":
                    self.release(billboard_id)
                else:
                    self.assign(billboard_id, advertiser_id)
        finally:
            self._recording = recording
        obs.counter_add("journal.rollback")
        return undone

    def replay(self, entries: Iterable[tuple[str, int, int]]) -> None:
        """Apply previously recorded deltas forward (recording suspended)."""
        recording = self._recording
        self._recording = False
        try:
            for kind, billboard_id, advertiser_id in entries:
                if kind == "assign":
                    self.assign(billboard_id, advertiser_id)
                else:
                    self.release(billboard_id)
        finally:
            self._recording = recording

    # ------------------------------------------------------- recorded moves

    def assign(self, billboard_id: int, advertiser_id: int) -> None:
        super().assign(billboard_id, advertiser_id)
        self._regret_valid[advertiser_id] = False
        if self._recording:
            self._entries.append(("assign", billboard_id, advertiser_id))

    def release(self, billboard_id: int) -> int:
        advertiser_id = super().release(billboard_id)
        self._regret_valid[advertiser_id] = False
        if self._recording:
            self._entries.append(("release", billboard_id, advertiser_id))
        return advertiser_id

    def exchange_sets(self, advertiser_a: int, advertiser_b: int) -> None:
        if self._recording:
            # A whole-set swap has no assign/release decomposition, so the
            # journal cannot undo it; the billboard-driven repair paths never
            # use it (it is the ALS move).
            raise RuntimeError(
                "exchange_sets is not journaled; disable recording first"
            )
        super().exchange_sets(advertiser_a, advertiser_b)
        self._regret_valid[advertiser_a] = False
        self._regret_valid[advertiser_b] = False

    def copy_assignments_from(self, other: Allocation) -> None:
        if self._entries:
            raise RuntimeError(
                "cannot bulk-copy assignments over uncommitted journal entries"
            )
        super().copy_assignments_from(other)
        self._regret_valid[:] = False

    # ----------------------------------------------------------- regret cache

    def regret(self, advertiser_id: int) -> float:
        """Cached Eq. 1 regret, invalidated by this advertiser's moves.

        The cached value is the exact float the base class would recompute:
        regret is a pure function of (payment, demand, γ, influence), and
        every influence change funnels through :meth:`assign`/:meth:`release`
        which drop the cache entry.  Callers that mutate the *contract* of a
        slot (the quoting workspace's newcomer slot) must call
        :meth:`invalidate_regret` for it.
        """
        if self._regret_valid[advertiser_id]:
            obs.counter_add("quote.cache.hit")
            return float(self._regret_cache[advertiser_id])
        value = self.instance.regret_of(advertiser_id, self.influence(advertiser_id))
        self._regret_cache[advertiser_id] = value
        self._regret_valid[advertiser_id] = True
        obs.counter_add("quote.cache.miss")
        return value

    def invalidate_regret(self, advertiser_id: int | None = None) -> None:
        """Drop cached regret values (one advertiser, or all with ``None``)."""
        if advertiser_id is None:
            self._regret_valid[:] = False
        else:
            self._regret_valid[advertiser_id] = False

    # ------------------------------------------------------------------ grow

    def grow(self, instance: MROAMInstance) -> None:
        """Adopt an instance extending this one with appended advertisers.

        Used when an accepted proposal promotes the workspace's newcomer slot
        into the book and a fresh spare slot is appended: the existing rows
        (sets, counters, influences, gain/loss vectors, cached regrets) carry
        over untouched — the caller guarantees the first ``num_advertisers``
        contracts are unchanged — and the new rows start empty: gains equal
        the individual influences, losses are zero.
        """
        added = instance.num_advertisers - self.instance.num_advertisers
        if added < 0 or instance.coverage is not self.instance.coverage:
            raise ValueError(
                "grow() needs an instance extending the current one over the "
                "same coverage index"
            )
        self.instance = instance
        if added:
            num_trajectories = self._counts.shape[1]
            self._sets.extend(set() for _ in range(added))
            self._counts = np.vstack(
                [self._counts, np.zeros((added, num_trajectories), dtype=np.int32)]
            )
            self._influences = np.concatenate(
                [self._influences, np.zeros(added, dtype=np.int64)]
            )
            self._gains = np.vstack(
                [self._gains, np.tile(instance.coverage.individual_influences, (added, 1))]
            )
            self._losses = np.vstack(
                [self._losses, np.zeros((added, instance.num_billboards), dtype=np.int64)]
            )
            self._regret_cache = np.concatenate(
                [self._regret_cache, np.zeros(added, dtype=np.float64)]
            )
            self._regret_valid = np.concatenate(
                [self._regret_valid, np.zeros(added, dtype=bool)]
            )
