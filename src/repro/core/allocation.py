"""Incremental deployment-plan state.

An :class:`Allocation` is a partial assignment of billboards to advertisers
(the paper's ``S = {S_1, …, S_|A|}`` with ``S_i ∩ S_j = ∅``).  It maintains,
per advertiser, a multiplicity counter over trajectory ids so that assigning
or releasing a billboard updates the advertiser's influence in
``O(|cov(o)|)`` vectorized work, and candidate moves can be priced without
mutation (see :mod:`repro.core.moves`).

Counter invariant: for advertiser ``a`` and trajectory ``t``,
``counts[a][t]`` equals the number of billboards in ``S_a`` covering ``t``;
the advertiser's influence is the number of nonzero entries of its row.

Vector invariant: for advertiser ``a`` and billboard ``b``,
``gain[a, b] = |cov(b) ∩ {t : counts[a][t] = 0}|`` (the influence assigning
``b`` would add) and ``loss[a, b] = |cov(b) ∩ {t : counts[a][t] = 1}|`` (the
influence releasing ``b`` would remove, when ``b ∈ S_a``).  A move changes
these only through the trajectories whose count goes 0↔1 or 1↔2, so
:meth:`Allocation.assign` and :meth:`Allocation.release` keep both A × B
vectors exact with one gather of those trajectories' covering billboards
(the index's transposed lists) and one ``bincount``.  Every other write —
rollback, replay, top-up — decomposes into those two primitives; the
whole-row operations (:meth:`~Allocation.exchange_sets`,
:meth:`~Allocation.clone`, :meth:`~Allocation.copy_assignments_from`,
:meth:`~Allocation.grow`) move the vector rows with the counter rows.  The
greedies and BLS price from the vectors instead of gathering CSR rows per
candidate (DESIGN.md §10, §16).

Journal: once recording is on, every ``assign``/``release`` appends one
``(kind, billboard_id, advertiser_id)`` record, and :meth:`rollback_to`
undoes the records above a mark with the exact inverse primitives, so the
counters, vectors, influences, owners and sets come back bit for bit with
no copy (DESIGN.md §15).  The quoting workspace records every repair and
replays an accepted one (:meth:`replay`); BLS runs its greedy top-up in
place inside :meth:`journal_scope` and rolls a rejected one back.
Recording is off by default, so an unrecorded move pays one flag test.

Regret cache: ``regret(i)`` is a pure function of ``i``'s influence and
contract, so its value is cached until one of ``i``'s moves (or
:meth:`invalidate_regret`, for a changed contract) drops it.
``total_regret()`` sums the cached floats in id order, the identical sum
a recomputation gives.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np

from repro import obs
from repro.core.problem import MROAMInstance
from repro.core.regret import RegretBreakdown

UNASSIGNED = -1


class Allocation:
    """A mutable deployment plan over a fixed :class:`MROAMInstance`."""

    def __init__(self, instance: MROAMInstance) -> None:
        self.instance = instance
        num_billboards = instance.num_billboards
        num_advertisers = instance.num_advertisers
        num_trajectories = instance.coverage.num_trajectories

        self._owner = np.full(num_billboards, UNASSIGNED, dtype=np.int32)
        self._sets: list[set[int]] = [set() for _ in range(num_advertisers)]
        self._counts = np.zeros((num_advertisers, num_trajectories), dtype=np.int32)
        self._influences = np.zeros(num_advertisers, dtype=np.int64)
        self._gains = np.tile(instance.coverage.individual_influences, (num_advertisers, 1))
        self._losses = np.zeros((num_advertisers, num_billboards), dtype=np.int64)
        self._unassigned: set[int] = set(range(num_billboards))
        self._entries: list[tuple[str, int, int]] = []
        self._recording = False
        self._regret_cache = np.zeros(num_advertisers, dtype=np.float64)
        self._regret_valid = np.zeros(num_advertisers, dtype=bool)

    # ------------------------------------------------------------------ state

    def owner_of(self, billboard_id: int) -> int:
        """Owning advertiser id, or :data:`UNASSIGNED`."""
        return int(self._owner[billboard_id])

    def billboards_of(self, advertiser_id: int) -> frozenset[int]:
        """The (frozen view of the) billboard set ``S_i``."""
        return frozenset(self._sets[advertiser_id])

    @property
    def unassigned(self) -> frozenset[int]:
        """Billboards currently owned by no advertiser."""
        return frozenset(self._unassigned)

    @property
    def owners(self) -> np.ndarray:
        """Read-only owner vector (``UNASSIGNED`` for free billboards)."""
        view = self._owner.view()
        view.flags.writeable = False
        return view

    def influence(self, advertiser_id: int) -> int:
        """``I(S_i)`` — maintained incrementally."""
        return int(self._influences[advertiser_id])

    @property
    def influences(self) -> np.ndarray:
        """Read-only vector of all advertiser influences."""
        view = self._influences.view()
        view.flags.writeable = False
        return view

    @property
    def gains(self) -> np.ndarray:
        """Read-only A × B matrix: ``gains[a, b]`` is the influence assigning
        billboard ``b`` to advertiser ``a`` would add."""
        view = self._gains.view()
        view.flags.writeable = False
        return view

    @property
    def losses(self) -> np.ndarray:
        """Read-only A × B matrix: ``losses[a, b]`` counts the trajectories of
        ``cov(b)`` that advertiser ``a`` covers exactly once (the influence
        releasing ``b ∈ S_a`` would remove)."""
        view = self._losses.view()
        view.flags.writeable = False
        return view

    def is_satisfied(self, advertiser_id: int) -> bool:
        return self.influence(advertiser_id) >= self.instance.advertisers[advertiser_id].demand

    def unsatisfied_advertisers(self) -> list[int]:
        """Ids of advertisers whose demand is not met, in id order."""
        demands = self.instance.demands
        return [i for i in range(len(demands)) if self._influences[i] < demands[i]]

    # ----------------------------------------------------------------- regret

    def regret(self, advertiser_id: int) -> float:
        """Eq. 1 regret of one advertiser under the current plan, cached.

        The cached value is the float :meth:`MROAMInstance.regret_of` returns
        for the current influence: every influence change goes through
        :meth:`assign`/:meth:`release`, which drop the entry.  A caller that
        changes a slot's *contract* (the quoting workspace's newcomer slot)
        must call :meth:`invalidate_regret` for it.
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

    def total_regret(self) -> float:
        """``R(S) = Σ_i R(S_i)`` — the MROAM objective."""
        return sum(self.regret(i) for i in range(self.instance.num_advertisers))

    def breakdown(self) -> RegretBreakdown:
        """Total regret decomposed into unsatisfied vs excessive components."""
        total = RegretBreakdown.zero()
        for advertiser_id in range(self.instance.num_advertisers):
            total = total + self.instance.breakdown_of(
                advertiser_id, self.influence(advertiser_id)
            )
        return total

    def total_dual(self) -> float:
        """``R'(S) = Σ_i R'(S_i)`` — the dual (maximization) objective."""
        return sum(
            self.instance.dual_of(i, self.influence(i))
            for i in range(self.instance.num_advertisers)
        )

    # ------------------------------------------------------------------ moves

    def assign(self, billboard_id: int, advertiser_id: int) -> None:
        """Assign an unassigned billboard to an advertiser."""
        if self._owner[billboard_id] != UNASSIGNED:
            raise ValueError(
                f"billboard {billboard_id} is already owned by advertiser "
                f"{self._owner[billboard_id]}"
            )
        covered = self.instance.coverage.covered_by(billboard_id)
        row = self._counts[advertiser_id]
        before = row[covered]
        row[covered] = before + 1
        self._influences[advertiser_id] += int(np.count_nonzero(before == 0))
        self._shift_vectors(advertiser_id, covered, before, 1)
        self._owner[billboard_id] = advertiser_id
        self._sets[advertiser_id].add(billboard_id)
        self._unassigned.discard(billboard_id)
        self._regret_valid[advertiser_id] = False
        if self._recording:
            self._entries.append(("assign", billboard_id, advertiser_id))

    def release(self, billboard_id: int) -> int:
        """Return a billboard to the unassigned pool; returns the old owner."""
        advertiser_id = int(self._owner[billboard_id])
        if advertiser_id == UNASSIGNED:
            raise ValueError(f"billboard {billboard_id} is not assigned")
        covered = self.instance.coverage.covered_by(billboard_id)
        row = self._counts[advertiser_id]
        after = row[covered] - 1
        row[covered] = after
        self._influences[advertiser_id] -= int(np.count_nonzero(after == 0))
        self._shift_vectors(advertiser_id, covered, after, -1)
        self._owner[billboard_id] = UNASSIGNED
        self._sets[advertiser_id].discard(billboard_id)
        self._unassigned.add(billboard_id)
        self._regret_valid[advertiser_id] = False
        if self._recording:
            self._entries.append(("release", billboard_id, advertiser_id))
        return advertiser_id

    def _shift_vectors(
        self, advertiser_id: int, covered: np.ndarray, lower: np.ndarray, sign: int
    ) -> None:
        """Apply one move's count changes to the advertiser's gain/loss rows.

        ``lower[i]`` is the smaller of trajectory ``covered[i]``'s counts
        before and after the move (``sign`` +1 for an assign, −1 for a
        release).  A 0↔1 change moves each covering billboard's trajectory
        between its gain and its loss; a 1↔2 change moves it in or out of the
        loss; larger counts change neither.  The assign and release updates
        are each other's exact inverse.
        """
        touched = lower < 2
        split = self.instance.coverage.covering_counts(
            covered[touched], lower[touched], num_labels=2
        )
        split *= sign
        self._gains[advertiser_id] -= split[:, 0]
        self._losses[advertiser_id] += split[:, 0] - split[:, 1]

    def release_all(self, advertiser_id: int) -> list[int]:
        """Release every billboard of one advertiser (G-Global line 2.10)."""
        released = sorted(self._sets[advertiser_id])
        for billboard_id in released:
            self.release(billboard_id)
        return released

    def move(self, billboard_id: int, advertiser_id: int) -> None:
        """Reassign a billboard from its current owner to another advertiser."""
        self.release(billboard_id)
        self.assign(billboard_id, advertiser_id)

    def exchange_billboards(self, billboard_a: int, billboard_b: int) -> None:
        """Swap the owners of two billboards (BLS move family 1/2).

        Either billboard may be unassigned; swapping two unassigned billboards
        is a no-op.
        """
        owner_a = int(self._owner[billboard_a])
        owner_b = int(self._owner[billboard_b])
        if owner_a == owner_b:
            return
        if owner_a != UNASSIGNED:
            self.release(billboard_a)
        if owner_b != UNASSIGNED:
            self.release(billboard_b)
        if owner_b != UNASSIGNED:
            self.assign(billboard_a, owner_b)
        if owner_a != UNASSIGNED:
            self.assign(billboard_b, owner_a)

    def exchange_sets(self, advertiser_a: int, advertiser_b: int) -> None:
        """Swap the whole billboard sets of two advertisers (ALS move).

        Influence depends only on the billboard set, so this swaps the
        counter rows, gain/loss rows and influence scalars in O(1)-ish work.
        A whole-set swap has no assign/release decomposition the journal
        could undo, so it refuses to run while recording (the billboard-driven
        repair never uses it).
        """
        if self._recording:
            raise RuntimeError("exchange_sets is not journaled; disable recording first")
        if advertiser_a == advertiser_b:
            return
        set_a, set_b = self._sets[advertiser_a], self._sets[advertiser_b]
        for billboard_id in set_a:
            self._owner[billboard_id] = advertiser_b
        for billboard_id in set_b:
            self._owner[billboard_id] = advertiser_a
        self._sets[advertiser_a], self._sets[advertiser_b] = set_b, set_a
        pair, swapped = [advertiser_a, advertiser_b], [advertiser_b, advertiser_a]
        self._counts[pair] = self._counts[swapped]
        self._gains[pair] = self._gains[swapped]
        self._losses[pair] = self._losses[swapped]
        self._influences[pair] = self._influences[swapped]
        self._regret_valid[pair] = False

    def assign_many(self, assignments: Iterable[tuple[int, int]]) -> None:
        """Bulk-assign ``(billboard_id, advertiser_id)`` pairs."""
        for billboard_id, advertiser_id in assignments:
            self.assign(billboard_id, advertiser_id)

    # ----------------------------------------------------------------- deltas

    def influence_delta_add(self, advertiser_id: int, billboard_id: int) -> int:
        """Influence gained by assigning ``billboard_id`` (no mutation)."""
        return int(self._gains[advertiser_id, billboard_id])

    def influence_delta_remove(self, advertiser_id: int, billboard_id: int) -> int:
        """Influence lost by releasing ``billboard_id`` from its owner.

        The caller is responsible for ``billboard_id`` actually belonging to
        ``advertiser_id``; the returned value is non-negative.
        """
        return int(self._losses[advertiser_id, billboard_id])

    def gains_without(self, advertiser_id: int, billboard_id: int) -> np.ndarray:
        """Every billboard's gain for the advertiser as if ``billboard_id``
        (one of its billboards) had been released — without mutating.

        Releasing ``o_m`` frees exactly ``sole(o_m) = cov(o_m) ∩ {c = 1}``,
        so the released gains are the maintained gains plus one
        :meth:`~repro.billboard.influence.CoverageIndex.covering_counts` of
        ``sole(o_m)``.  Equals ``CoverageIndex.batch_add_gains_without``'s
        full pass on the counter row.
        """
        coverage = self.instance.coverage
        covered = coverage.covered_by(billboard_id)
        sole = covered[self._counts[advertiser_id][covered] == 1]
        return self._gains[advertiser_id] + coverage.covering_counts(sole)

    def exchange_deltas(
        self,
        billboard_ids: np.ndarray,
        cell_rows: np.ndarray,
        cell_candidates: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact influence change of both sides of a batch of exchanges,
        without mutating.

        Cell ``i`` swaps ``o_m = billboard_ids[cell_rows[i]]`` (owned by
        ``a``) with ``o_n = cell_candidates[i]`` (owned by ``j``, or free):
        ``a`` gives ``o_m`` and takes ``o_n``; ``j`` gives ``o_n`` and takes
        ``o_m``.  Returns ``(own, partner)``::

            own[i]     = gain[a, o_n] − loss[a, o_m] + |cov(o_n) ∩ sole_a(o_m)|
            partner[i] = gain[j, o_m] − loss[j, o_n] + |cov(o_m) ∩ cov(o_n) ∩ {c_j = 1}|

        with ``sole_a(o_m) = cov(o_m) ∩ {c_a = 1}``.  Both overlaps pair a
        trajectory of ``cov(o_m)`` with a billboard covering it, so one
        :meth:`~repro.billboard.influence.CoverageIndex.covering_pairs`
        gather over the rows' concatenated ``cov(o_m)`` lists prices every
        cell, and one ``bincount`` per side over the (row, candidate) keys
        sums them.  ``own`` is 0 where ``o_m`` is free and ``partner`` is 0
        where ``o_n`` is free.  The own side is an exchange only when ``o_n``
        is neither ``o_m`` nor one of ``a``'s billboards.
        """
        coverage = self.instance.coverage
        billboard_ids = np.asarray(billboard_ids, dtype=np.int64)
        cell_rows = np.asarray(cell_rows, dtype=np.int64)
        cell_candidates = np.asarray(cell_candidates, dtype=np.int64)
        lists = [coverage.covered_by(int(b)) for b in billboard_ids]
        trajectories = np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)
        rows = np.repeat(np.arange(len(lists)), [len(ids) for ids in lists])
        # Count per (row, candidate column), the columns being the distinct
        # candidates: a pair outside every cell lands in no column.
        wanted = np.zeros(self.instance.num_billboards, dtype=bool)
        wanted[cell_candidates] = True
        columns = np.cumsum(wanted) - 1
        width = int(columns[-1]) + 1 if len(columns) else 0
        columns[~wanted] = -1
        billboards, positions = coverage.covering_pairs(
            trajectories, labels=np.arange(len(trajectories))
        )
        pair_columns = columns[billboards]
        keep = pair_columns >= 0
        billboards, positions = billboards[keep], positions[keep]
        pair_rows = rows[positions]
        keys = pair_rows * width + pair_columns[keep]
        pair_trajectories = trajectories[positions]
        row_owners = self._owner[billboard_ids]
        pair_partners = self._owner[billboards]
        own_hit = self._counts[row_owners[pair_rows], pair_trajectories] == 1
        partner_hit = (pair_partners != UNASSIGNED) & (
            self._counts[pair_partners, pair_trajectories] == 1
        )
        size = len(lists) * width
        cells = cell_rows * width + columns[cell_candidates]
        outgoing = billboard_ids[cell_rows]
        owners = row_owners[cell_rows]
        own = np.where(
            owners != UNASSIGNED,
            self._gains[owners, cell_candidates]
            - self._losses[owners, outgoing]
            + np.bincount(keys[own_hit], minlength=size)[cells],
            0,
        )
        partners = self._owner[cell_candidates]
        partner = np.where(
            partners != UNASSIGNED,
            self._gains[partners, outgoing]
            - self._losses[partners, cell_candidates]
            + np.bincount(keys[partner_hit], minlength=size)[cells],
            0,
        )
        return own, partner

    def partner_swap_deltas(
        self, added_billboard: int, removed_billboards: np.ndarray
    ) -> np.ndarray:
        """Exact influence change of each ``removed_billboards[i]``'s owner
        ``j`` when ``j`` loses that billboard and gains ``added_billboard``:
        the partner side of a one-row :meth:`exchange_deltas`.

        Every ``removed_billboards`` entry must be assigned and not
        ``added_billboard``; entry ``i`` equals
        ``CoverageIndex.swap_delta(o_n, o_m, counts_row(j))``.
        """
        removed_billboards = np.asarray(removed_billboards, dtype=np.int64)
        _, partner = self.exchange_deltas(
            np.array([added_billboard]),
            np.zeros(len(removed_billboards), dtype=np.int64),
            removed_billboards,
        )
        return partner

    def counts_row(self, advertiser_id: int) -> np.ndarray:
        """Read-only view of one advertiser's multiplicity counters."""
        view = self._counts[advertiser_id].view()
        view.flags.writeable = False
        return view

    def copy_assignments_from(self, other: "Allocation") -> None:
        """Adopt another allocation's plan wholesale (bulk vectorized copy).

        ``other`` may live on an instance with fewer advertisers (the online
        host extends the book instance with a newcomer slot): its rows are
        copied over (gain/loss rows with them), and any extra rows of
        ``self`` are cleared.  Both sides must share the same coverage
        index — the counter rows are only meaningful against one trajectory
        universe — and ``self`` must hold no uncommitted journal records,
        which the copy would make impossible to undo.
        """
        if self._entries:
            raise RuntimeError(
                "cannot bulk-copy assignments over uncommitted journal entries"
            )
        if other.instance.coverage is not self.instance.coverage:
            raise ValueError("copy_assignments_from requires a shared coverage index")
        carried = other.instance.num_advertisers
        if carried > self.instance.num_advertisers:
            raise ValueError(
                "source allocation has more advertisers than the destination"
            )
        self._owner[:] = other._owner
        for advertiser_id in range(carried):
            self._sets[advertiser_id] = set(other._sets[advertiser_id])
        for advertiser_id in range(carried, self.instance.num_advertisers):
            self._sets[advertiser_id] = set()
        self._counts[:carried] = other._counts
        self._counts[carried:] = 0
        self._influences[:carried] = other._influences
        self._influences[carried:] = 0
        self._gains[:carried] = other._gains
        self._gains[carried:] = self.instance.coverage.individual_influences
        self._losses[:carried] = other._losses
        self._losses[carried:] = 0
        self._unassigned = set(other._unassigned)
        self._regret_valid[:] = False

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
        num_billboards = instance.num_billboards
        self._sets += [set() for _ in range(added)]
        self._counts = np.vstack(
            [self._counts, np.zeros((added, self._counts.shape[1]), dtype=np.int32)]
        )
        self._influences = np.append(self._influences, np.zeros(added, dtype=np.int64))
        self._gains = np.vstack(
            [self._gains, np.tile(instance.coverage.individual_influences, (added, 1))]
        )
        self._losses = np.vstack(
            [self._losses, np.zeros((added, num_billboards), dtype=np.int64)]
        )
        self._regret_cache = np.append(self._regret_cache, np.zeros(added))
        self._regret_valid = np.append(self._regret_valid, np.zeros(added, dtype=bool))

    # ---------------------------------------------------------------- journal

    @property
    def journaling(self) -> bool:
        """Whether moves are currently being recorded."""
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

    @contextmanager
    def journal_scope(self) -> Iterator[int]:
        """Record the block's moves above a fresh mark, which it yields.

        An exception rolls the block's moves back before it propagates.  A
        block that ends with none of its records left (rolled back, or no
        moves) also gets its entry regret cache back, so the whole state is
        byte-identical to before the block.  On exit recording returns to its
        previous setting; a caller that was not recording keeps no records,
        while one that was keeps the block's records in its own slice.
        """
        recording = self._recording
        mark = len(self._entries)
        cache = (self._regret_cache.copy(), self._regret_valid.copy())
        self._recording = True
        try:
            yield mark
        except BaseException:
            self.rollback_to(mark)
            raise
        finally:
            self._recording = recording
            if len(self._entries) == mark:
                self._regret_cache, self._regret_valid = cache
            if not recording:
                del self._entries[mark:]

    def rollback_to(self, mark: int = 0) -> int:
        """Undo every move recorded after ``mark``; returns the undo count.

        O(moves touched): each record is inverted with the same counter
        arithmetic the forward move used (``release`` exactly inverts
        ``assign`` on the counters and the gain/loss vectors), so the restored
        state is byte-identical — no copies are made.
        """
        undone = self._entries[mark:]
        del self._entries[mark:]
        self._apply(reversed(undone), undo=True)
        obs.counter_add("journal.rollback")
        return len(undone)

    def replay(self, entries: Iterable[tuple[str, int, int]]) -> None:
        """Apply previously recorded deltas forward (recording suspended)."""
        self._apply(entries, undo=False)

    def _apply(self, entries: Iterable[tuple[str, int, int]], undo: bool) -> None:
        """Apply records forward, or their inverses with ``undo``, without
        recording them."""
        recording, self._recording = self._recording, False
        try:
            for kind, billboard_id, advertiser_id in entries:
                if (kind == "assign") != undo:
                    self.assign(billboard_id, advertiser_id)
                else:
                    self.release(billboard_id)
        finally:
            self._recording = recording

    # ------------------------------------------------------------------- misc

    def clone(self) -> "Allocation":
        """Deep copy sharing the (immutable) instance, with an empty journal
        and recording off."""
        copy = Allocation.__new__(Allocation)
        copy.instance = self.instance
        copy._owner = self._owner.copy()
        copy._sets = [set(s) for s in self._sets]
        copy._counts = self._counts.copy()
        copy._influences = self._influences.copy()
        copy._gains = self._gains.copy()
        copy._losses = self._losses.copy()
        copy._unassigned = set(self._unassigned)
        copy._entries = []
        copy._recording = False
        copy._regret_cache = self._regret_cache.copy()
        copy._regret_valid = self._regret_valid.copy()
        return copy

    def assignment_map(self) -> dict[int, frozenset[int]]:
        """``{advertiser_id: S_i}`` snapshot of the plan."""
        return {i: frozenset(s) for i, s in enumerate(self._sets)}

    def __repr__(self) -> str:
        assigned = self.instance.num_billboards - len(self._unassigned)
        return (
            f"Allocation(assigned={assigned}/{self.instance.num_billboards}, "
            f"regret={self.total_regret():.2f})"
        )
