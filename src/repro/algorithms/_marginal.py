"""Shared vectorized marginal-gain selection for the greedy solvers.

Both greedies pick, for an advertiser ``a_i``, the unassigned billboard
maximizing the *regret-effectiveness* ratio

    (R(S_i) − R(S_i ∪ {o})) / I({o})

(Algorithm 1 line 1.5 and Algorithm 2 line 2.6).  Pricing is lazy
(DESIGN.md §16): a :class:`StaleGains` record of each billboard's last exact
coverage gain bounds its ratio, and only the candidates whose bound can still
win go through the coverage kernel.  The pick is bit-identical to pricing
every candidate.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.core.allocation import UNASSIGNED, Allocation

#: Candidates priced up front on each pick, highest bound first; the rest are
#: priced only while their bound still reaches the best exact ratio.
_FIRST_BATCH = 8


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


class StaleGains:
    """Per-advertiser upper bounds on every billboard's coverage gain.

    A row starts at ``I({o})`` and takes each exact gain the kernel returns.
    Gains only shrink while an advertiser's set only grows, so every stored
    value bounds the current gain from above.  That holds within one greedy
    call (G-Global's release drops the victim from ``active`` for good), so
    each call builds its own record and discards it on return.
    """

    def __init__(self, individual: np.ndarray) -> None:
        self._individual = individual
        self._rows: dict[int, np.ndarray] = {}
        #: Coverage-kernel rows priced so far (``marginal_gain_evals``).
        self.priced = 0

    def row(self, advertiser_id: int) -> np.ndarray:
        row = self._rows.get(advertiser_id)
        if row is None:
            row = self._rows[advertiser_id] = self._individual.copy()
        return row


def _gain_ratios(
    advertiser, gamma: float, influence: int, regret: float,
    gains: np.ndarray, sizes: np.ndarray,
) -> np.ndarray:
    """``(R(I) − R(I + gain)) / I({o})`` elementwise, ``regret = R(I)``."""
    new_regrets = _regret_values_unchecked(
        advertiser.payment, advertiser.demand, gamma, influence + gains
    )
    return (regret - new_regrets) / sizes


def _ratio_bounds(
    advertiser, gamma: float, influence: int, regret: float,
    stale_gains: np.ndarray, sizes: np.ndarray,
) -> np.ndarray:
    """The largest ratio any integer gain in ``0..stale_gains`` can reach.

    The float ratio rises (weakly) in the gain while ``I + Δ < D`` and falls
    from there, so it peaks at one of the two gains straddling the demand:
    ``c − 1`` or ``c`` with ``c = ⌈D⌉ − I``, each capped at the stale gain.
    Both points are needed: with γ = 1 and D = 10.2 the ratio at gain 10
    beats the one at 11.  Each is an integer gain, so the bound is a value
    the exact ratio could take, computed with the same float operations.
    """
    reach = math.ceil(advertiser.demand) - influence
    straddle = np.minimum(stale_gains, [[max(reach - 1, 0)], [max(reach, 0)]])
    return _gain_ratios(advertiser, gamma, influence, regret, straddle, sizes).max(axis=0)


def best_marginal_billboard(
    allocation: Allocation,
    advertiser_id: int,
    candidate_ids: np.ndarray,
    stale: StaleGains | None = None,
) -> int | None:
    """The candidate maximizing the regret-effectiveness ratio, or ``None``.

    Candidates whose individual influence ``I({o})`` is zero are skipped —
    they can never change any advertiser's influence, so assigning them only
    burns inventory (and the paper's ratio is undefined for them).  Ties are
    broken by the first maximum in ``candidate_ids`` order (the smallest id
    for the sorted pools the greedies pass).

    ``stale`` carries the gain bounds across the picks of one greedy call;
    without it every candidate starts from the ``I({o})`` bound.
    """
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
    regret = instance.regret_of(advertiser_id, influence)
    pricing = (advertiser, instance.gamma, influence, regret)
    if influence == 0:
        # An empty counter row (influence 0 ⇒ all counts 0) makes every
        # candidate's gain exactly its individual influence — the common case
        # for a quoting newcomer, where this skips the coverage kernel.
        obs.histogram_observe("greedy.repriced", 0)
        return int(candidate_ids[np.argmax(_gain_ratios(*pricing, individual, individual))])

    if stale is None:
        stale = StaleGains(coverage.individual_influences)
    row = stale.row(advertiser_id)
    bounds = _ratio_bounds(*pricing, row[candidate_ids], individual)

    counts_row = allocation.counts_row(advertiser_id)
    exact = np.full(len(candidate_ids), -np.inf)
    priced = np.zeros(len(candidate_ids), dtype=bool)
    if len(candidate_ids) > _FIRST_BATCH:
        batch = np.argpartition(-bounds, _FIRST_BATCH)[:_FIRST_BATCH]
    else:
        batch = np.arange(len(candidate_ids))
    while len(batch):
        gains = coverage.batch_add_gains(counts_row, candidate_ids=candidate_ids[batch])
        row[candidate_ids[batch]] = gains
        exact[batch] = _gain_ratios(*pricing, gains, individual[batch])
        priced[batch] = True
        best = exact.max()
        # A bound equal to the best may hide an equal ratio at a smaller id,
        # so ties are priced too.
        batch = np.flatnonzero(~priced & (bounds >= best))
    repriced = int(np.count_nonzero(priced))
    stale.priced += repriced
    obs.histogram_observe("greedy.repriced", repriced)
    # The first exact maximum, as an argmax over every candidate would take:
    # an unpriced candidate's ratio is at most its bound, which is below best.
    return int(candidate_ids[np.argmax(exact == best)])
