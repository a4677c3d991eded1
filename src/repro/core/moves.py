"""Side-effect-free pricing of local-search moves.

The local search methods (Sections 6.1–6.2) scan many candidate moves per
accepted move, so pricing must not mutate the allocation.  Every function
here returns the *change in total regret* ``ΔR = R(after) − R(before)``; a
negative delta means the move improves the plan.

All deltas are exact: they account for coverage overlap via the allocation's
multiplicity counters and the sorted covered-trajectory arrays.
"""

from __future__ import annotations

from repro.core.allocation import UNASSIGNED, Allocation


def _regret_at(allocation: Allocation, advertiser_id: int, influence: int) -> float:
    return allocation.instance.regret_of(advertiser_id, influence)


def delta_assign(allocation: Allocation, billboard_id: int, advertiser_id: int) -> float:
    """ΔR of assigning an unassigned billboard to an advertiser."""
    if allocation.owner_of(billboard_id) != UNASSIGNED:
        raise ValueError(f"billboard {billboard_id} is not unassigned")
    before = allocation.influence(advertiser_id)
    after = before + allocation.influence_delta_add(advertiser_id, billboard_id)
    return _regret_at(allocation, advertiser_id, after) - _regret_at(
        allocation, advertiser_id, before
    )


def delta_release(allocation: Allocation, billboard_id: int) -> float:
    """ΔR of releasing an assigned billboard back to the pool."""
    advertiser_id = allocation.owner_of(billboard_id)
    if advertiser_id == UNASSIGNED:
        raise ValueError(f"billboard {billboard_id} is not assigned")
    before = allocation.influence(advertiser_id)
    after = before - allocation.influence_delta_remove(advertiser_id, billboard_id)
    return _regret_at(allocation, advertiser_id, after) - _regret_at(
        allocation, advertiser_id, before
    )


def delta_exchange_billboards(
    allocation: Allocation, billboard_a: int, billboard_b: int
) -> float:
    """ΔR of swapping the owners of two billboards.

    Covers both BLS exchange families: owner↔owner (move 1) and
    owner↔unassigned (move 2).  Swapping two billboards of the same owner, or
    two unassigned billboards, is a zero-delta no-op.
    """
    owner_a = allocation.owner_of(billboard_a)
    owner_b = allocation.owner_of(billboard_b)
    if owner_a == owner_b:
        return 0.0

    # Each swap's influence change is CoverageIndex.swap_delta's exact
    # loss/gain count against the advertiser's counter row.
    coverage = allocation.instance.coverage
    delta = 0.0
    if owner_a != UNASSIGNED and owner_b != UNASSIGNED:
        for advertiser_id, removed, added in (
            (owner_a, billboard_a, billboard_b),
            (owner_b, billboard_b, billboard_a),
        ):
            before = allocation.influence(advertiser_id)
            after = before + coverage.swap_delta(
                removed, added, allocation.counts_row(advertiser_id)
            )
            delta += _regret_at(allocation, advertiser_id, after) - _regret_at(
                allocation, advertiser_id, before
            )
        return delta

    # Exactly one side is assigned: the move replaces that advertiser's
    # billboard with the free one.
    if owner_a != UNASSIGNED:
        advertiser_id, removed, added = owner_a, billboard_a, billboard_b
    else:
        advertiser_id, removed, added = owner_b, billboard_b, billboard_a
    before = allocation.influence(advertiser_id)
    after = before + coverage.swap_delta(
        removed, added, allocation.counts_row(advertiser_id)
    )
    return _regret_at(allocation, advertiser_id, after) - _regret_at(
        allocation, advertiser_id, before
    )


def delta_exchange_sets(
    allocation: Allocation, advertiser_a: int, advertiser_b: int
) -> float:
    """ΔR of exchanging the whole billboard sets of two advertisers (ALS).

    Influence depends only on the set, so the delta needs nothing beyond the
    two influence scalars — this is what makes the advertiser-driven search
    cheap per candidate.
    """
    if advertiser_a == advertiser_b:
        return 0.0
    influence_a = allocation.influence(advertiser_a)
    influence_b = allocation.influence(advertiser_b)
    before = _regret_at(allocation, advertiser_a, influence_a) + _regret_at(
        allocation, advertiser_b, influence_b
    )
    after = _regret_at(allocation, advertiser_a, influence_b) + _regret_at(
        allocation, advertiser_b, influence_a
    )
    return after - before


def delta_move(allocation: Allocation, billboard_id: int, advertiser_id: int) -> float:
    """ΔR of reassigning a billboard from its current owner to another advertiser."""
    owner = allocation.owner_of(billboard_id)
    if owner == advertiser_id:
        return 0.0
    delta = 0.0
    if owner != UNASSIGNED:
        before = allocation.influence(owner)
        after = before - allocation.influence_delta_remove(owner, billboard_id)
        delta += _regret_at(allocation, owner, after) - _regret_at(allocation, owner, before)
    before = allocation.influence(advertiser_id)
    after = before + allocation.influence_delta_add(advertiser_id, billboard_id)
    delta += _regret_at(allocation, advertiser_id, after) - _regret_at(
        allocation, advertiser_id, before
    )
    return delta
