"""Dirty-set sweep equivalence: the production BLS/ALS loops == the rescan oracles.

The production sweeps skip provably-dead scans via version-counter
certificates and, like the literal rescan loops of ``tests/oracles.py``,
stop at the first sweep that accepts nothing, so they must land on
bit-identical allocations — same owners, same total regret, same
accepted-move and sweep counts — on every instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import make_random_instance, random_allocation
from repro.algorithms.als import advertiser_driven_local_search
from repro.algorithms.bls import billboard_driven_local_search
from repro.algorithms.sweep import BillboardSweepState, PairSweepState
from repro.core.allocation import UNASSIGNED
from tests.oracles import (
    changed_candidates,
    own_side_stale,
    pair_clean,
    rescan_als,
    rescan_bls,
)

SEEDS = (0, 1, 7, 23, 99)
BLS = {"dirty": billboard_driven_local_search, "full": rescan_bls}
ALS = {"dirty": advertiser_driven_local_search, "full": rescan_als}


def _run_bls(instance, start_seed: int, engine: str):
    allocation = random_allocation(instance, seed=start_seed)
    stats: dict = {}
    allocation = BLS[engine](allocation, stats=stats)
    return allocation, stats


def _run_als(instance, start_seed: int, engine: str):
    allocation = random_allocation(instance, seed=start_seed)
    stats: dict = {}
    ALS[engine](allocation, stats=stats)
    return allocation, stats


class TestDirtyMatchesFull:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bls_identical_allocation_and_regret(self, seed):
        instance = make_random_instance(
            seed, num_billboards=20, num_trajectories=40, num_advertisers=4
        )
        dirty, dirty_stats = _run_bls(instance, start_seed=seed + 1, engine="dirty")
        full, full_stats = _run_bls(instance, start_seed=seed + 1, engine="full")
        assert np.array_equal(dirty.owners, full.owners)
        assert dirty.total_regret() == full.total_regret()
        assert dirty.assignment_map() == full.assignment_map()
        # Identical move sequence, not just the same fixed point.
        for key in ("bls_exchanges", "bls_releases", "bls_topups", "bls_sweeps"):
            assert dirty_stats[key] == full_stats[key], key

    @pytest.mark.parametrize("seed", SEEDS)
    def test_als_identical_allocation_and_regret(self, seed):
        instance = make_random_instance(
            seed, num_billboards=20, num_trajectories=40, num_advertisers=4
        )
        dirty, dirty_stats = _run_als(instance, start_seed=seed + 1, engine="dirty")
        full, full_stats = _run_als(instance, start_seed=seed + 1, engine="full")
        assert np.array_equal(dirty.owners, full.owners)
        assert dirty.total_regret() == full.total_regret()
        assert dirty_stats["als_exchanges"] == full_stats["als_exchanges"]
        assert dirty_stats["als_sweeps"] == full_stats["als_sweeps"]

    def test_dirty_skips_work_on_the_bench_shape(self):
        """The certificates must actually prune: from a greedy start (the
        benchmark's shape) the dirty sweep evaluates strictly fewer exchange
        candidates than the rescan oracle while landing on the same
        allocation."""
        from repro.algorithms.greedy_global import synchronous_greedy
        from repro.core.allocation import Allocation

        instance = make_random_instance(
            3, num_billboards=60, num_trajectories=150, num_advertisers=6
        )
        results = {}
        for engine in ("dirty", "full"):
            allocation = Allocation(instance)
            synchronous_greedy(allocation)
            stats: dict = {}
            allocation = BLS[engine](allocation, stats=stats)
            results[engine] = (allocation, stats)
        dirty, dirty_stats = results["dirty"]
        full, full_stats = results["full"]
        assert np.array_equal(dirty.owners, full.owners)
        assert dirty_stats["bls_exchange_evaluated"] < full_stats["bls_exchange_evaluated"]
        assert dirty_stats["bls_dirty_skipped"] > 0


class TestStatsKeys:
    def test_split_evaluated_counters(self):
        """Satellite: the old conflated ``moves_evaluated`` is split into
        exchange vs release tallies (dirty sweep and rescan oracle alike)."""
        instance = make_random_instance(2)
        for engine in ("dirty", "full"):
            _, stats = _run_bls(instance, start_seed=4, engine=engine)
            assert "bls_exchange_evaluated" in stats
            assert "bls_release_evaluated" in stats
            assert "bls_moves_evaluated" not in stats

    def test_dirty_engine_reports_scan_counters(self):
        instance = make_random_instance(2)
        _, stats = _run_bls(instance, start_seed=4, engine="dirty")
        assert stats["bls_dirty_scanned"] >= 0
        assert stats["bls_dirty_skipped"] >= 0
        _, full_stats = _run_bls(instance, start_seed=4, engine="full")
        assert "bls_dirty_scanned" not in full_stats


class TestBillboardSweepState:
    def test_never_certified_is_stale(self):
        state = BillboardSweepState(num_advertisers=2, num_billboards=4)
        assert own_side_stale(state, 0, 0)
        state.certify_scan(0)
        assert not own_side_stale(state, 0, 0)

    def test_mark_move_staleness_propagates(self):
        state = BillboardSweepState(num_advertisers=2, num_billboards=4)
        state.certify_scan(0)
        state.mark_move(advertisers=(0,))
        assert own_side_stale(state, 0, 0)
        assert not own_side_stale(state, 1, 0)  # advertiser 1 untouched

    def test_changed_candidates_restricts_to_touched(self):
        state = BillboardSweepState(num_advertisers=3, num_billboards=5)
        owners = np.array([0, 1, 2, UNASSIGNED, UNASSIGNED], dtype=np.int64)
        state.certify_scan(0)
        state.mark_move(advertisers=(1,), freed=(3,))
        changed = changed_candidates(state, 0, owners, advertiser_id=0)
        # Billboard 1 (owner moved) and billboard 3 (freshly freed) only:
        # billboard 2's owner and free billboard 4 predate the certificate.
        assert changed.tolist() == [1, 3]

    def test_changed_candidates_excludes_self_and_own_set(self):
        state = BillboardSweepState(num_advertisers=2, num_billboards=4)
        owners = np.array([0, 0, 1, UNASSIGNED], dtype=np.int64)
        changed = changed_candidates(state, 0, owners, advertiser_id=0)
        assert 0 not in changed.tolist()
        assert 1 not in changed.tolist()  # same advertiser

    def test_release_pass_certificate(self):
        state = BillboardSweepState(num_advertisers=2, num_billboards=4)
        assert not state.release_pass_clean(0)
        state.certify_release_pass(0)
        assert state.release_pass_clean(0)
        state.mark_move(advertisers=(0,))
        assert not state.release_pass_clean(0)


class TestPairSweepState:
    def test_pair_lifecycle(self):
        state = PairSweepState(num_advertisers=3)
        assert not pair_clean(state, 0, 1)
        state.certify_pair(0, 1)
        assert pair_clean(state, 0, 1)
        assert not pair_clean(state, 1, 0)  # direction-specific certificate
        state.mark_exchange(1, 2)
        assert not pair_clean(state, 0, 1)
        assert pair_clean(state, 0, 1) is False
