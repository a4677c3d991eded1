"""Reference implementations the production paths are tested against.

Each function here is a literal, unoptimized form of something the library
computes faster: the rescan-everything BLS and ALS loops of Algorithms 5 and
4, the scalar per-billboard exchange screen and candidate helpers that the
round-fused screen (``repro.algorithms.screen``) replaced, and the eager
full-pass greedy pricing that lazy-bound pricing (``repro.algorithms._marginal``)
replaced.  None of them is imported by ``src/``; they exist so the
equivalence tests compare the production paths against code that skips
nothing.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._marginal import _regret_values_unchecked
from repro.algorithms.bls import _emit_stats, _select_partner
from repro.algorithms.greedy_global import synchronous_greedy
from repro.algorithms.screen import _optimistic_regret
from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.moves import delta_exchange_sets, delta_release

# ----------------------------------------------------- candidate sets (BLS)


def all_exchange_candidates(
    owners: np.ndarray, advertiser_id: int, billboard_id: int
) -> np.ndarray:
    """Every legal exchange partner of ``billboard_id`` (the full scan's mask)."""
    mask = owners != advertiser_id
    mask[billboard_id] = False
    return np.nonzero(mask)[0]


def own_side_stale(state, advertiser_id: int, billboard_id: int) -> bool:
    """True when ``billboard_id``'s own advertiser changed since its last
    certified scan (or it was never certified) — the whole candidate set
    must then be rescanned, not just the changed candidates."""
    certified = state.scan_version[billboard_id]
    return bool(certified == 0 or state.advertiser_version[advertiser_id] > certified)


def changed_candidates(
    state, billboard_id: int, owners: np.ndarray, advertiser_id: int
) -> np.ndarray:
    """Exchange partners whose pairing with ``billboard_id`` may price
    differently than at its last certified scan.

    Assigned candidates are stale when their owner moved since the
    certificate; free candidates when they were freed since.  The billboard
    itself and its own advertiser's billboards are excluded, mirroring the
    full scan's candidate mask.
    """
    certified = state.scan_version[billboard_id]
    assigned = owners != UNASSIGNED
    changed = np.empty(len(owners), dtype=bool)
    changed[assigned] = state.advertiser_version[owners[assigned]] > certified
    changed[~assigned] = state.freed_version[~assigned] > certified
    changed[billboard_id] = False
    changed[owners == advertiser_id] = False
    return np.nonzero(changed)[0]


def pair_clean(state, advertiser_a: int, advertiser_b: int) -> bool:
    """Whether ALS pair ``(a, b)`` is certified: neither advertiser moved
    since the pair was last priced non-improving."""
    certified = state.pair_version[advertiser_a, advertiser_b]
    return bool(
        state.advertiser_version[advertiser_a] <= certified
        and state.advertiser_version[advertiser_b] <= certified
    )


# ------------------------------------------------------------ BLS screens


def exchange_screen(
    allocation: Allocation,
    advertiser_id: int,
    billboard_id: int,
    candidate_ids: np.ndarray,
    min_improvement: float,
) -> bool:
    """Optimistic gate over a candidate set: ``False`` proves that exchanging
    ``billboard_id`` with *any* of ``candidate_ids`` improves total regret by
    at most ``min_improvement`` — the exact scan would return ``None``.

    The own side lands in ``[v_i − I(o_m), v_i + I(o_n)]`` and an assigned
    partner in ``[v_j − I(o_n), v_j + I(o_m)]``, so the summed best-case
    regret drop upper-bounds the true improvement.
    """
    if len(candidate_ids) == 0:
        return False
    instance = allocation.instance
    individual = instance.coverage.individual_influences_f64
    advertiser = instance.advertisers[advertiser_id]
    own_influence = float(allocation.influence(advertiser_id))
    own_regret = instance.regret_of(advertiser_id, own_influence)

    own_best = _optimistic_regret(
        advertiser.payment,
        float(advertiser.demand),
        instance.gamma,
        own_influence - float(individual[billboard_id]),
        own_influence + individual[candidate_ids],
    )
    potential = own_regret - own_best

    candidate_owners = allocation.owners[candidate_ids]
    assigned = candidate_owners != UNASSIGNED
    if assigned.any():
        partner_ids = candidate_owners[assigned]
        all_influences = allocation.influences.astype(np.float64)
        partner_influence = all_influences[partner_ids]
        partner_payments = instance.payments[partner_ids]
        partner_demands = instance.demands[partner_ids]
        partner_regret = _regret_values_unchecked(
            partner_payments,
            partner_demands,
            instance.gamma,
            partner_influence,
        )
        partner_best = _optimistic_regret(
            partner_payments,
            partner_demands,
            instance.gamma,
            partner_influence - individual[candidate_ids[assigned]],
            partner_influence + float(individual[billboard_id]),
        )
        potential[assigned] += partner_regret - partner_best
    return bool(np.any(potential > min_improvement))


# ------------------------------------------------------- rescan loops


def rescan_exchange(
    allocation: Allocation,
    advertiser_id: int,
    billboard_id: int,
    min_improvement: float,
    counters: dict | None = None,
) -> int | None:
    """Improving exchange partner of ``billboard_id`` over *every* legal
    candidate, or ``None``.

    Temporarily releases ``billboard_id`` so one batch coverage pass over the
    resulting counters prices ``S_i − o_m + o_n`` for every ``o_n``; restored
    before return.  The partner choice is the shared ``_select_partner``.
    """
    instance = allocation.instance
    own_regret = instance.regret_of(
        advertiser_id, float(allocation.influence(advertiser_id))
    )
    allocation.release(billboard_id)
    try:
        released_influence = float(allocation.influence(advertiser_id))
        candidates = all_exchange_candidates(
            allocation.owners, advertiser_id, billboard_id
        )
        masks = allocation.packed_masks(advertiser_id)
        gains = instance.coverage.batch_add_gains(
            allocation.counts_row(advertiser_id),
            free_bits=masks[0] if masks is not None else None,
        )
        return _select_partner(
            allocation,
            advertiser_id,
            billboard_id,
            own_regret,
            released_influence,
            candidates,
            gains[candidates],
            min_improvement,
            counters,
        )
    finally:
        allocation.assign(billboard_id, advertiser_id)


def rescan_bls(
    allocation: Allocation,
    min_improvement: float = 1e-9,
    max_sweeps: int | None = None,
    stats: dict | None = None,
) -> Allocation:
    """Algorithm 5 as written: every sweep rescans every assigned billboard."""
    instance = allocation.instance
    sweeps = 0
    exchanges = 0
    releases = 0
    topups = 0
    counters: dict = {}

    while True:
        sweeps += 1
        improved = False

        # Move families 1 & 2: pairwise and assigned↔free exchanges.
        for advertiser_id in range(instance.num_advertisers):
            for billboard_id in sorted(allocation.billboards_of(advertiser_id)):
                if allocation.owner_of(billboard_id) != advertiser_id:
                    continue  # already moved earlier in this sweep
                partner = rescan_exchange(
                    allocation, advertiser_id, billboard_id, min_improvement, counters
                )
                if partner is not None:
                    allocation.exchange_billboards(billboard_id, partner)
                    exchanges += 1
                    improved = True

        # Move family 3: releases.
        for advertiser_id in range(instance.num_advertisers):
            for billboard_id in sorted(allocation.billboards_of(advertiser_id)):
                counters["release_evaluated"] = counters.get("release_evaluated", 0) + 1
                if delta_release(allocation, billboard_id) < -min_improvement:
                    allocation.release(billboard_id)
                    releases += 1
                    improved = True

        # Move family 4: greedy top-up of the unassigned pool (line 5.11),
        # adopted only if it strictly improves (lines 5.12-5.13).
        if allocation.unassigned:
            candidate = allocation.clone()
            synchronous_greedy(candidate)
            if candidate.total_regret() < allocation.total_regret() - min_improvement:
                allocation = candidate
                topups += 1
                improved = True

        if not improved or (max_sweeps is not None and sweeps >= max_sweeps):
            break

    if stats is not None:
        _emit_stats(stats, sweeps, exchanges, releases, topups, counters)
    return allocation


def rescan_als(
    allocation: Allocation, min_improvement: float = 1e-9, stats: dict | None = None
) -> Allocation:
    """Algorithm 4 as written: every sweep prices every advertiser pair."""
    num_advertisers = allocation.instance.num_advertisers
    sweeps = 0
    exchanges = 0
    evaluated = 0
    improved = True
    while improved:
        improved = False
        sweeps += 1
        for advertiser_a in range(num_advertisers):
            for advertiser_b in range(advertiser_a + 1, num_advertisers):
                delta = delta_exchange_sets(allocation, advertiser_a, advertiser_b)
                evaluated += 1
                if delta < -min_improvement:
                    allocation.exchange_sets(advertiser_a, advertiser_b)
                    exchanges += 1
                    improved = True
    if stats is not None:
        stats["als_sweeps"] = stats.get("als_sweeps", 0) + sweeps
        stats["als_exchanges"] = stats.get("als_exchanges", 0) + exchanges
        stats["als_moves_evaluated"] = stats.get("als_moves_evaluated", 0) + evaluated
    return allocation


# ------------------------------------------------------- greedy pricing


def eager_best_marginal_billboard(allocation, advertiser_id, candidate_ids, stale=None):
    """The full pass: price every usable candidate, take the first maximum."""
    if len(candidate_ids) == 0:
        return None
    instance = allocation.instance
    advertiser = instance.advertisers[advertiser_id]
    coverage = instance.coverage
    individual = coverage.individual_influences[candidate_ids]
    usable = individual > 0
    if not usable.any():
        return None
    candidate_ids = candidate_ids[usable]
    individual = individual[usable]
    influence = allocation.influence(advertiser_id)
    if influence == 0:
        gains = individual
    else:
        masks = allocation.packed_masks(advertiser_id)
        gains = coverage.batch_add_gains(
            allocation.counts_row(advertiser_id),
            free_bits=masks[0] if masks is not None else None,
            candidate_ids=candidate_ids,
        )
    regret = instance.regret_of(advertiser_id, influence)
    new_regrets = _regret_values_unchecked(
        advertiser.payment, advertiser.demand, instance.gamma, influence + gains
    )
    return int(candidate_ids[np.argmax((regret - new_regrets) / individual)])


def literal_pick(allocation, advertiser_id, candidate_ids):
    """Brute force with scalar Eq. 1: the smallest id among the best ratios."""
    instance = allocation.instance
    influence = allocation.influence(advertiser_id)
    before = instance.regret_of(advertiser_id, influence)
    best = None
    for billboard_id in (int(b) for b in candidate_ids):
        size = instance.coverage.influence_of(billboard_id)
        if size == 0:
            continue
        gain = allocation.influence_delta_add(advertiser_id, billboard_id)
        ratio = (before - instance.regret_of(advertiser_id, influence + gain)) / size
        if best is None or ratio > best[0]:
            best = (ratio, billboard_id)
    return None if best is None else best[1]
