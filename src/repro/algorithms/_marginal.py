"""Shared vectorized marginal-gain selection for the greedy solvers.

Both greedies pick, for an advertiser ``a_i``, the unassigned billboard
maximizing the *regret-effectiveness* ratio

    (R(S_i) − R(S_i ∪ {o})) / I({o})

(Algorithm 1 line 1.5 and Algorithm 2 line 2.6).  Every candidate's exact
coverage gain is read from the allocation's maintained gain vector
(DESIGN.md §16), so each pick prices every candidate with no coverage
gather and takes the first maximum.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import UNASSIGNED, Allocation


def _regret_values_unchecked(
    payment: float, demand: float, gamma: float, achieved: np.ndarray
) -> np.ndarray:
    """Vectorized Eq. 1 with no demand validation — the per-move hot path.

    Demand positivity is enforced once, at :class:`~repro.core.problem.
    MROAMInstance` construction, so the solver internals (exchange screens,
    partner selection, greedy pricing) call this variant; the public
    :func:`regret_values` keeps the guard for direct callers.
    """
    achieved = np.asarray(achieved, dtype=np.float64)
    unsatisfied = payment * (1.0 - gamma * achieved / demand)
    excessive = payment * (achieved - demand) / demand
    return np.where(achieved < demand, unsatisfied, excessive)


def regret_values(
    payment: float, demand: float, gamma: float, achieved: np.ndarray
) -> np.ndarray:
    """Vectorized Eq. 1 over an array of achieved influences."""
    if np.any(np.asarray(demand) <= 0):
        raise ValueError("advertiser demand must be positive (Eq. 1 divides by demand)")
    return _regret_values_unchecked(payment, demand, gamma, achieved)


def sorted_unassigned(allocation: Allocation) -> np.ndarray:
    """The free billboard ids, ascending — the greedies' candidate pool."""
    return np.flatnonzero(allocation.owners == UNASSIGNED)


def _gain_ratios(
    advertiser, gamma: float, influence: int, regret: float,
    gains: np.ndarray, sizes: np.ndarray,
) -> np.ndarray:
    """``(R(I) − R(I + gain)) / I({o})`` elementwise, ``regret = R(I)``."""
    new_regrets = _regret_values_unchecked(
        advertiser.payment, advertiser.demand, gamma, influence + gains
    )
    return (regret - new_regrets) / sizes


def best_marginal_billboard(
    allocation: Allocation, advertiser_id: int, candidate_ids: np.ndarray
) -> int | None:
    """The candidate maximizing the regret-effectiveness ratio, or ``None``.

    Candidates whose individual influence ``I({o})`` is zero are skipped —
    they can never change any advertiser's influence, so assigning them only
    burns inventory (and the paper's ratio is undefined for them).  Ties are
    broken by the first maximum in ``candidate_ids`` order (the smallest id
    for the sorted pools the greedies pass).
    """
    if len(candidate_ids) == 0:
        return None
    instance = allocation.instance
    individual = instance.coverage.individual_influences[candidate_ids]
    usable = individual > 0
    if not usable.any():
        return None
    candidate_ids = candidate_ids[usable]
    influence = allocation.influence(advertiser_id)
    ratios = _gain_ratios(
        instance.advertisers[advertiser_id],
        instance.gamma,
        influence,
        instance.regret_of(advertiser_id, influence),
        allocation.gains[advertiser_id, candidate_ids],
        individual[usable],
    )
    return int(candidate_ids[np.argmax(ratios)])
