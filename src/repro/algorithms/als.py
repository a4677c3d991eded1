"""Advertiser-driven local search (paper Algorithm 4).

The neighbourhood of a plan is every plan reachable by exchanging the *whole*
billboard sets of two advertisers.  Because influence depends only on the
set, each candidate exchange is priced from the two influence scalars alone,
making this the cheap-but-coarse member of the framework: it can rescue a
plan where one advertiser hogs a large set, but cannot rebalance individual
billboards.

The sweep skips pairs where neither advertiser's set changed since the pair
was last priced non-improving (the delta depends only on the two influence
scalars, so it is provably unchanged), and finishes with one unrestricted
sweep.  It accepts the identical exchange sequence as the literal
rescan-every-pair loop, which ``tests/oracles.py`` keeps as the oracle.
"""

from __future__ import annotations

from repro import obs
from repro.algorithms.sweep import PairSweepState
from repro.core.allocation import Allocation
from repro.core.moves import delta_exchange_sets


def _emit_stats(stats: dict, sweeps: int, exchanges: int, evaluated: int) -> None:
    stats["als_sweeps"] = stats.get("als_sweeps", 0) + sweeps
    stats["als_exchanges"] = stats.get("als_exchanges", 0) + exchanges
    stats["als_moves_evaluated"] = stats.get("als_moves_evaluated", 0) + evaluated


def _search(
    allocation: Allocation, min_improvement: float, stats: dict | None
) -> Allocation:
    num_advertisers = allocation.instance.num_advertisers
    state = PairSweepState(num_advertisers)
    sweeps = 0
    exchanges = 0
    evaluated = 0
    verifying = False
    while True:
        improved = False
        sweeps += 1
        for advertiser_a in range(num_advertisers):
            # One vectorized row filter picks the dirty pairs.  An accepted
            # exchange dirties every later pair in the row (it bumps
            # advertiser_a's version), so the remaining suffix is re-queried
            # after each acceptance — cleanliness is thereby evaluated at
            # visit time, exactly like a per-pair check.
            start = advertiser_a + 1
            while start < num_advertisers:
                if verifying:
                    partners = range(start, num_advertisers)
                else:
                    partners = state.dirty_partners(advertiser_a, start)
                start = num_advertisers
                for advertiser_b in partners:
                    advertiser_b = int(advertiser_b)
                    delta = delta_exchange_sets(allocation, advertiser_a, advertiser_b)
                    evaluated += 1
                    if delta < -min_improvement:
                        allocation.exchange_sets(advertiser_a, advertiser_b)
                        state.mark_exchange(advertiser_a, advertiser_b)
                        exchanges += 1
                        improved = True
                        start = advertiser_b + 1
                        break
                    state.certify_pair(advertiser_a, advertiser_b)
        if improved:
            verifying = False
            continue
        if verifying:
            break  # the unrestricted sweep found nothing: local optimum
        verifying = True
    if stats is not None:
        _emit_stats(stats, sweeps, exchanges, evaluated)
    return allocation


def advertiser_driven_local_search(
    allocation: Allocation,
    min_improvement: float = 1e-9,
    stats: dict | None = None,
) -> Allocation:
    """Run Algorithm 4 in place; returns the same (improved) allocation.

    Sweeps all ordered advertiser pairs, applying any set exchange that
    strictly reduces total regret, until a full sweep finds no improving
    exchange.  ``min_improvement`` guards against float-noise cycling.
    """
    with obs.span("als.search"):
        return _search(allocation, min_improvement, stats)
