"""Structural invariant checks for deployment plans.

Used by tests and (optionally) by the harness after each solver run to catch
any drift between the incremental counters and the ground truth.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import UNASSIGNED, Allocation


class AllocationInvariantError(AssertionError):
    """Raised when an allocation violates a structural invariant."""


def validate_allocation(allocation: Allocation) -> None:
    """Check every invariant of an :class:`Allocation`; raise on violation.

    Invariants checked:

    1. Billboard sets are pairwise disjoint and consistent with the owner map.
    2. The unassigned pool is exactly the complement of all assigned billboards.
    3. Each advertiser's multiplicity counters equal a from-scratch recount of
       its billboard set's coverage.
    4. Each cached influence scalar equals the number of nonzero counters.
    5. Each advertiser's gain/loss vectors equal a full coverage-kernel pass
       over its counters.
    6. Each regret-cache entry marked valid equals Eq. 1 recomputed at the
       advertiser's influence.
    """
    instance = allocation.instance
    seen: set[int] = set()
    for advertiser_id in range(instance.num_advertisers):
        billboard_set = allocation.billboards_of(advertiser_id)
        overlap = seen & billboard_set
        if overlap:
            raise AllocationInvariantError(
                f"billboards {sorted(overlap)} appear in multiple advertiser sets"
            )
        seen |= billboard_set
        for billboard_id in billboard_set:
            if allocation.owner_of(billboard_id) != advertiser_id:
                raise AllocationInvariantError(
                    f"billboard {billboard_id} is in S_{advertiser_id} but the owner "
                    f"map says {allocation.owner_of(billboard_id)}"
                )

    expected_unassigned = set(range(instance.num_billboards)) - seen
    if set(allocation.unassigned) != expected_unassigned:
        raise AllocationInvariantError(
            "unassigned pool does not match the complement of assigned billboards"
        )
    for billboard_id in expected_unassigned:
        if allocation.owner_of(billboard_id) != UNASSIGNED:
            raise AllocationInvariantError(
                f"billboard {billboard_id} is in no set but has owner "
                f"{allocation.owner_of(billboard_id)}"
            )

    coverage = instance.coverage
    for advertiser_id in range(instance.num_advertisers):
        recount = np.zeros(coverage.num_trajectories, dtype=np.int32)
        for billboard_id in allocation.billboards_of(advertiser_id):
            recount[coverage.covered_by(billboard_id)] += 1
        if not np.array_equal(recount, allocation.counts_row(advertiser_id)):
            raise AllocationInvariantError(
                f"multiplicity counters of advertiser {advertiser_id} drifted from "
                "a from-scratch recount"
            )
        true_influence = int(np.count_nonzero(recount))
        if true_influence != allocation.influence(advertiser_id):
            raise AllocationInvariantError(
                f"cached influence {allocation.influence(advertiser_id)} of advertiser "
                f"{advertiser_id} != recomputed {true_influence}"
            )
        if not (
            np.array_equal(allocation.gains[advertiser_id], coverage.batch_add_gains(recount))
            and np.array_equal(
                allocation.losses[advertiser_id], coverage.batch_remove_losses(recount)
            )
        ):
            raise AllocationInvariantError(
                f"gain/loss vectors of advertiser {advertiser_id} drifted from a "
                "full coverage pass"
            )
        if allocation._regret_valid[advertiser_id]:
            cached = float(allocation._regret_cache[advertiser_id])
            expected = instance.regret_of(advertiser_id, true_influence)
            if cached != expected:
                raise AllocationInvariantError(
                    f"cached regret {cached} of advertiser {advertiser_id} != "
                    f"recomputed {expected}"
                )
