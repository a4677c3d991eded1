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
:meth:`~Allocation.clone`, :meth:`~Allocation.copy_assignments_from`) move
the vector rows with the counter rows.  The greedies and BLS price from the
vectors instead of gathering CSR rows per candidate (DESIGN.md §10, §16).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

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
        """Eq. 1 regret of one advertiser under the current plan."""
        return self.instance.regret_of(advertiser_id, self.influence(advertiser_id))

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
        """
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

    def partner_swap_deltas(
        self, added_billboard: int, removed_billboards: np.ndarray
    ) -> np.ndarray:
        """Exact influence change of each ``removed_billboards[i]``'s owner
        ``j`` when ``j`` loses that billboard and gains ``added_billboard``.

        ``gain[j, o_m] − loss[j, o_n] + |cov(o_m) ∩ cov(o_n) ∩ {c_j = 1}|``:
        the last term, for every ``o_n`` at once, is one ``bincount`` over
        the covered (billboard, trajectory) pairs of ``cov(o_m)``.  Every
        ``removed_billboards`` entry must be assigned and must not be
        ``added_billboard``; entry ``i`` equals
        ``CoverageIndex.swap_delta(o_n, o_m, counts_row(j))``.
        """
        coverage = self.instance.coverage
        removed_billboards = np.asarray(removed_billboards, dtype=np.int64)
        wanted = np.zeros(self.instance.num_billboards, dtype=bool)
        wanted[removed_billboards] = True
        billboards, trajectories = coverage.covering_pairs(
            coverage.covered_by(added_billboard)
        )
        keep = wanted[billboards]
        billboards, trajectories = billboards[keep], trajectories[keep]
        sole = self._counts[self._owner[billboards], trajectories] == 1
        overlap = np.bincount(billboards[sole], minlength=self.instance.num_billboards)
        partners = self._owner[removed_billboards]
        return (
            self._gains[partners, added_billboard]
            - self._losses[partners, removed_billboards]
            + overlap[removed_billboards]
        )

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
        universe.
        """
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

    # ------------------------------------------------------------------- misc

    def clone(self) -> "Allocation":
        """Deep copy sharing the (immutable) instance."""
        copy = Allocation.__new__(Allocation)
        copy.instance = self.instance
        copy._owner = self._owner.copy()
        copy._sets = [set(s) for s in self._sets]
        copy._counts = self._counts.copy()
        copy._influences = self._influences.copy()
        copy._gains = self._gains.copy()
        copy._losses = self._losses.copy()
        copy._unassigned = set(self._unassigned)
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
