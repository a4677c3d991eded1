"""BLS partner confirmation: one vectorized pass against the scalar loop.

For an owner↔owner exchange, ``bls._confirm_partner`` prices every
bound-eligible partner at once from the maintained gain/loss vectors
(``Allocation.partner_swap_deltas``) and takes the first improving one in
descending-bound order.  The reference, ``tests/oracles.loop_confirm_partner``,
walks the same order and prices each partner with one scalar
``CoverageIndex.swap_delta`` over its counter row and scalar Eq. 1.  Every
call of whole BLS solves, restart batches and quote repairs must return the
same partner and the bit-identical regret total.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import bls
from repro.algorithms.bls import billboard_driven_local_search
from repro.algorithms.greedy_global import synchronous_greedy
from repro.algorithms.local_search import RandomizedLocalSearch
from repro.core.allocation import Allocation
from repro.market.online import OnlineHost
from repro.market.scenario import Scenario
from tests.oracles import loop_confirm_partner


class ConfirmChecker:
    """``_confirm_partner`` that asserts each answer against the loop."""

    def __init__(self, production) -> None:
        self.production = production
        self.calls = 0
        self.confirmed = 0

    def __call__(self, *args):
        got = self.production(*args)
        assert got == loop_confirm_partner(*args[:-1])
        self.calls += 1
        self.confirmed += got is not None
        return got


@pytest.fixture
def checker(monkeypatch):
    checker = ConfirmChecker(bls._confirm_partner)
    monkeypatch.setattr(bls, "_confirm_partner", checker)
    return checker


def scenario(dataset, gamma, alpha, seed=3):
    return Scenario(
        dataset=dataset, n_billboards=60, n_trajectories=400, alpha=alpha,
        p_avg=0.1, gamma=gamma, seed=seed,
    ).build_instance()


@pytest.mark.parametrize(
    "dataset, gamma, alpha",
    [
        ("nyc", 0.0, 1.2),
        ("nyc", 0.5, 1.2),
        ("nyc", 1.0, 1.5),
        ("sg", 0.0, 1.2),
        ("sg", 0.5, 1.2),
        ("sg", 1.0, 1.5),
    ],
)
def test_bls_from_greedy(checker, dataset, gamma, alpha):
    start = Allocation(scenario(dataset, gamma, alpha))
    synchronous_greedy(start)
    billboard_driven_local_search(start)
    assert checker.confirmed > 0


def test_bls_confirms_partners_from_a_random_plan(checker):
    instance = scenario("nyc", 0.5, 1.2, seed=7)
    rng = np.random.default_rng(7)
    start = Allocation(instance)
    for billboard_id in range(instance.num_billboards):
        if rng.random() < 0.8:
            start.assign(billboard_id, int(rng.integers(instance.num_advertisers)))
    stats: dict = {}
    billboard_driven_local_search(start, stats=stats)
    assert checker.confirmed > 0
    assert stats["bls_partner_exact_evals"] >= checker.confirmed


def test_restarts(checker):
    RandomizedLocalSearch("bls", restarts=3, seed=11).solve(scenario("sg", 0.5, 1.2))
    assert checker.calls > 0


def test_quote_repairs(checker):
    coverage = scenario("nyc", 0.5, 1.0, seed=2).coverage
    host = OnlineHost(coverage, pricing="incremental", seed=2)
    rng = np.random.default_rng(2)
    for step in range(20):
        demand = int(rng.integers(20, 300))
        payment = round(float(rng.uniform(1.0, 20.0)), 3)
        getattr(host, "accept" if step % 4 == 3 else "quote")(demand, payment)
    assert checker.calls > 0
