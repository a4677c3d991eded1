"""Equivalence and lifecycle tests for the incremental quoting engine.

The load-bearing contract (DESIGN.md §15): ``pricing="incremental"`` is
**bit-identical** to ``pricing="full"`` in everything a caller can see —
``regret_before``/``regret_after``/``would_satisfy`` of every quote, and the
resulting allocation after every accept — over arbitrary interleavings of
quote / accept / reoptimize.  The property tests hold two hosts in lockstep
over randomized sequences on two coverage families and compare with ``==``
(no tolerances).
"""

import random

import numpy as np
import pytest

from repro import obs
from repro.billboard.influence import CoverageIndex
from repro.market.online import OnlineHost, PRICING_MODES, Quote


def disjoint_coverage(num_billboards=8, per_board=3) -> CoverageIndex:
    lists = [range(i * per_board, (i + 1) * per_board) for i in range(num_billboards)]
    return CoverageIndex.from_coverage_lists(lists, num_billboards * per_board)


def overlapping_coverage(seed, num_billboards=40, num_trajectories=300) -> CoverageIndex:
    rng = random.Random(seed)
    lists = [
        rng.sample(range(num_trajectories), rng.randint(1, 12))
        for _ in range(num_billboards)
    ]
    return CoverageIndex.from_coverage_lists(lists, num_trajectories)


COVERAGE_FAMILIES = {
    "disjoint": lambda seed: disjoint_coverage(),
    "overlapping": overlapping_coverage,
}


def assert_same_book_plan(incremental: OnlineHost, full: OnlineHost) -> None:
    assert len(incremental.advertisers) == len(full.advertisers)
    if full.allocation is None:
        assert incremental.allocation is None
        return
    for advertiser_id in range(len(full.advertisers)):
        assert incremental.allocation.billboards_of(
            advertiser_id
        ) == full.allocation.billboards_of(advertiser_id)
    assert incremental.total_regret() == full.total_regret()


class TestBitIdentity:
    @pytest.mark.parametrize("family", sorted(COVERAGE_FAMILIES))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lockstep_quote_accept_reoptimize(self, family, seed):
        coverage = COVERAGE_FAMILIES[family](seed)
        incremental = OnlineHost(coverage, pricing="incremental", seed=seed)
        full = OnlineHost(coverage, pricing="full", seed=seed)
        rng = random.Random(1000 * seed + 7)
        for step in range(25):
            demand = rng.randint(2, 35)
            payment = round(rng.uniform(0.5, 15.0), 3)
            roll = rng.random()
            if roll < 0.5:
                quote_inc = incremental.quote(demand, payment)
                quote_full = full.quote(demand, payment)
            elif roll < 0.85:
                quote_inc = incremental.accept(demand, payment, name=f"a{step}")
                quote_full = full.accept(demand, payment, name=f"a{step}")
            else:
                assert incremental.reoptimize(restarts=2) == full.reoptimize(
                    restarts=2
                )
                continue
            assert quote_inc.regret_before == quote_full.regret_before
            assert quote_inc.regret_after == quote_full.regret_after
            assert quote_inc.would_satisfy == quote_full.would_satisfy
            assert_same_book_plan(incremental, full)

    @pytest.mark.parametrize("family", sorted(COVERAGE_FAMILIES))
    def test_repair_sweeps_zero_lockstep(self, family):
        coverage = COVERAGE_FAMILIES[family](5)
        incremental = OnlineHost(coverage, pricing="incremental", repair_sweeps=0)
        full = OnlineHost(coverage, pricing="full", repair_sweeps=0)
        rng = random.Random(5)
        for step in range(12):
            demand, payment = rng.randint(2, 20), round(rng.uniform(1, 8), 2)
            quote_inc = incremental.accept(demand, payment)
            quote_full = full.accept(demand, payment)
            assert quote_inc.regret_after == quote_full.regret_after
            assert_same_book_plan(incremental, full)

    def test_fixed_seed_determinism(self):
        results = []
        for _ in range(2):
            host = OnlineHost(overlapping_coverage(9), seed=9)
            rng = random.Random(9)
            trace = []
            for step in range(15):
                demand, payment = rng.randint(2, 25), round(rng.uniform(1, 9), 2)
                if rng.random() < 0.6:
                    quote = host.quote(demand, payment)
                else:
                    quote = host.accept(demand, payment)
                trace.append((quote.regret_after, quote.would_satisfy))
            trace.append(host.reoptimize(restarts=2))
            results.append(tuple(trace))
        assert results[0] == results[1]


class TestRollbackIsolation:
    def test_rejected_quote_leaves_state_byte_identical(self):
        host = OnlineHost(overlapping_coverage(2), pricing="incremental")
        rng = random.Random(2)
        for i in range(5):
            host.accept(rng.randint(3, 20), round(rng.uniform(1, 8), 2))
        allocation = host.allocation
        owner_before = allocation._owner.copy()
        counts_before = allocation._counts.copy()
        influences_before = allocation._influences.copy()
        sets_before = [frozenset(s) for s in allocation._sets]
        obs.enable()
        obs.reset()
        try:
            host.quote(demand=18, payment=6.0)
            # Rejected quotes roll back through the journal — no fresh
            # allocation object, no copied arrays.
            assert obs.counter_value("journal.rollback") >= 1
        finally:
            obs.disable()
            obs.reset()
        assert host.allocation is allocation
        assert np.array_equal(allocation._owner, owner_before)
        assert np.array_equal(allocation._counts, counts_before)
        assert np.array_equal(allocation._influences, influences_before)
        assert [frozenset(s) for s in allocation._sets] == sets_before

    def test_accept_preserves_allocation_object(self):
        host = OnlineHost(disjoint_coverage(), pricing="incremental")
        host.accept(demand=3, payment=3.0)
        allocation = host.allocation
        host.accept(demand=3, payment=3.0)
        host.quote(demand=3, payment=3.0)
        assert host.allocation is allocation


class TestTokens:
    def test_commit_of_quote_equals_accept(self):
        coverage = overlapping_coverage(4)
        via_commit = OnlineHost(coverage, seed=4)
        via_accept = OnlineHost(coverage, seed=4)
        rng = random.Random(4)
        for step in range(8):
            demand, payment = rng.randint(2, 20), round(rng.uniform(1, 8), 2)
            quote = via_commit.quote(demand, payment)
            via_commit.commit(quote)
            via_accept.accept(demand, payment)
            assert_same_book_plan(via_commit, via_accept)

    @pytest.mark.parametrize("pricing", PRICING_MODES)
    def test_stale_token_is_rejected(self, pricing):
        host = OnlineHost(disjoint_coverage(), pricing=pricing)
        quote = host.quote(demand=3, payment=3.0)
        host.accept(demand=3, payment=3.0)
        with pytest.raises(ValueError, match="stale"):
            host.commit(quote)

    @pytest.mark.parametrize("pricing", PRICING_MODES)
    def test_foreign_token_is_rejected(self, pricing):
        """A token priced by another host (even at the same book version) is
        refused before any state changes."""
        issuer = OnlineHost(overlapping_coverage(1), pricing=pricing)
        host = OnlineHost(disjoint_coverage(), pricing=pricing)
        quote = issuer.quote(demand=30, payment=5.0)
        with pytest.raises(ValueError, match="foreign"):
            host.commit(quote)
        assert host.advertisers == ()
        assert host.total_regret() == 0.0
        issuer.commit(quote)  # still valid on its own host

    def test_adopted_reoptimize_invalidates_tokens(self):
        host = OnlineHost(overlapping_coverage(6), repair_sweeps=0, seed=6)
        rng = random.Random(6)
        for _ in range(6):
            host.accept(rng.randint(3, 18), round(rng.uniform(1, 8), 2))
        before = host.total_regret()
        quote = host.quote(demand=10, payment=4.0)
        after = host.reoptimize(restarts=3)
        if after < before:  # the plan changed: the token must die
            with pytest.raises(ValueError, match="stale"):
                host.commit(quote)
        else:  # incumbent kept: the token is still exactly valid
            host.commit(quote)

    def test_tokenless_quote_cannot_commit(self):
        host = OnlineHost(disjoint_coverage())
        quote = Quote("x", 3, 3.0, 0.0, 0.0, True)
        with pytest.raises(ValueError, match="token"):
            host.commit(quote)


class TestReoptimize:
    def test_keeps_better_incumbent_object(self):
        host = OnlineHost(disjoint_coverage(), pricing="incremental", seed=1)
        host.accept(demand=3, payment=3.0)
        host.accept(demand=6, payment=6.0)
        assert host.total_regret() == pytest.approx(0.0)
        allocation = host.allocation
        # The incumbent is already optimal, so reoptimize must keep it — the
        # live workspace object, not a rebuilt equal-regret plan.
        assert host.reoptimize(restarts=2) == pytest.approx(0.0)
        assert host.allocation is allocation

    def test_interleaved_with_quotes(self):
        coverage = overlapping_coverage(8)
        incremental = OnlineHost(coverage, pricing="incremental", seed=8)
        full = OnlineHost(coverage, pricing="full", seed=8)
        rng = random.Random(8)
        for step in range(4):
            for _ in range(3):
                demand, payment = rng.randint(2, 22), round(rng.uniform(1, 9), 2)
                incremental.accept(demand, payment)
                full.accept(demand, payment)
            assert incremental.reoptimize(restarts=2) == full.reoptimize(restarts=2)
            demand, payment = rng.randint(2, 22), round(rng.uniform(1, 9), 2)
            assert (
                incremental.quote(demand, payment).regret_after
                == full.quote(demand, payment).regret_after
            )
            assert_same_book_plan(incremental, full)


class TestQuoteMany:
    def test_serial_batch_equals_quote_loop(self):
        host = OnlineHost(overlapping_coverage(3))
        rng = random.Random(3)
        for _ in range(4):
            host.accept(rng.randint(3, 18), round(rng.uniform(1, 8), 2))
        proposals = [
            (rng.randint(2, 25), round(rng.uniform(0.5, 8), 2), f"p{i}")
            for i in range(6)
        ]
        loop = [host.quote(d, p, n) for d, p, n in proposals]
        batch = host.quote_many(proposals)
        assert [(q.regret_before, q.regret_after, q.would_satisfy) for q in loop] == [
            (q.regret_before, q.regret_after, q.would_satisfy) for q in batch
        ]
        # Serial batch quotes stay committable.
        host.commit(batch[0])

    def test_batch_accepts_two_tuples(self):
        host = OnlineHost(disjoint_coverage())
        quotes = host.quote_many([(3, 3.0), (6, 6.0)])
        assert [q.demand for q in quotes] == [3, 6]
        assert quotes[0].advertiser_name == ""


class TestConfiguration:
    def test_default_is_incremental(self):
        assert OnlineHost(disjoint_coverage()).pricing == "incremental"
        assert OnlineHost(disjoint_coverage(), pricing="full").pricing == "full"

    def test_unknown_pricing_rejected(self):
        with pytest.raises(ValueError, match="pricing"):
            OnlineHost(disjoint_coverage(), pricing="warp")
