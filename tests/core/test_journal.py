"""Tests for the allocation's journal (rollback, replay, caches, guards)
and for BLS's in-place greedy top-up, which runs under a journal mark."""

import numpy as np
import pytest

from repro import obs
from repro.algorithms import bls
from repro.algorithms.bls import billboard_driven_local_search
from repro.billboard.influence import CoverageIndex
from repro.core.advertiser import Advertiser
from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.journal import JournaledAllocation
from repro.core.problem import MROAMInstance
from repro.core.validation import validate_allocation
from tests.oracles import rescan_bls


def small_instance(num_advertisers=3):
    lists = [
        [0, 1, 2],
        [2, 3],
        [4, 5, 6],
        [0, 6],
        [7, 8],
        [1, 4, 9],
    ]
    coverage = CoverageIndex.from_coverage_lists(lists, 10)
    contracts = [(3, 2.0)] * num_advertisers
    return MROAMInstance.from_contracts(coverage, contracts)


def state_fingerprint(allocation):
    return (
        allocation._owner.tobytes(),
        tuple(frozenset(s) for s in allocation._sets),
        allocation._counts.tobytes(),
        allocation._influences.tobytes(),
        frozenset(allocation._unassigned),
    )


class TestRollback:
    def test_rollback_restores_state_byte_identically(self):
        allocation = Allocation(small_instance())
        allocation.assign(0, 0)
        allocation.assign(1, 1)
        allocation.journal_enable()
        before = state_fingerprint(allocation)
        mark = allocation.journal_mark()
        allocation.assign(2, 0)
        allocation.release(1)
        allocation.assign(3, 2)
        allocation.move(0, 1)
        assert state_fingerprint(allocation) != before
        undone = allocation.rollback_to(mark)
        assert undone == 5  # move decomposes into release + assign
        assert state_fingerprint(allocation) == before
        assert allocation.journal_mark() == mark

    def test_rollback_counter_fires(self):
        allocation = Allocation(small_instance())
        allocation.journal_enable()
        obs.enable()
        obs.reset()
        try:
            allocation.assign(0, 0)
            allocation.rollback_to(0)
            assert obs.counter_value("journal.rollback") == 1
        finally:
            obs.disable()
            obs.reset()

    def test_nested_marks_roll_back_independently(self):
        allocation = Allocation(small_instance())
        allocation.journal_enable()
        allocation.assign(0, 0)
        outer = allocation.journal_mark()
        allocation.assign(1, 1)
        inner = allocation.journal_mark()
        allocation.assign(2, 2)
        allocation.rollback_to(inner)
        assert allocation.owner_of(2) == -1
        assert allocation.owner_of(1) == 1
        allocation.rollback_to(outer)
        assert allocation.owner_of(1) == -1
        assert allocation.owner_of(0) == 0


class TestReplay:
    def test_replay_reproduces_recorded_state(self):
        allocation = Allocation(small_instance())
        allocation.journal_enable()
        mark = allocation.journal_mark()
        allocation.assign(0, 0)
        allocation.assign(4, 1)
        allocation.move(0, 2)
        entries = allocation.journal_entries(mark)
        repaired = state_fingerprint(allocation)
        allocation.rollback_to(mark)
        allocation.replay(entries)
        assert state_fingerprint(allocation) == repaired

    def test_replay_does_not_record(self):
        allocation = Allocation(small_instance())
        allocation.journal_enable()
        allocation.assign(0, 0)
        entries = allocation.journal_entries()
        allocation.rollback_to(0)
        allocation.replay(entries)
        assert allocation.journal_mark() == 0


class TestRegretCache:
    def test_cached_value_matches_uncached(self):
        instance = small_instance()
        allocation = Allocation(instance)
        for billboard_id, advertiser_id in [(0, 0), (1, 1), (5, 2), (3, 0)]:
            allocation.assign(billboard_id, advertiser_id)
        allocation.release(1)
        first = allocation.total_regret()
        # A from-scratch plan with a cold cache: every entry recomputed.
        rebuilt = Allocation(instance)
        for advertiser_id, billboards in allocation.assignment_map().items():
            for billboard_id in sorted(billboards):
                rebuilt.assign(billboard_id, advertiser_id)
        assert first == rebuilt.total_regret()
        # Second read comes from the cache and must be the identical float.
        assert allocation._regret_valid.all()
        assert allocation.total_regret() == rebuilt.total_regret()
        validate_allocation(allocation)

    def test_cache_hits_and_misses_are_counted(self):
        allocation = Allocation(small_instance())
        obs.enable()
        obs.reset()
        try:
            allocation.total_regret()
            misses = obs.counter_value("quote.cache.miss")
            assert misses == allocation.instance.num_advertisers
            allocation.total_regret()
            assert obs.counter_value("quote.cache.hit") == misses
            allocation.assign(0, 0)
            allocation.total_regret()
            assert obs.counter_value("quote.cache.miss") == misses + 1
        finally:
            obs.disable()
            obs.reset()

    def test_invalidate_regret_drops_entries(self):
        allocation = Allocation(small_instance())
        allocation.total_regret()
        allocation.invalidate_regret(1)
        assert not allocation._regret_valid[1]
        assert allocation._regret_valid[0]
        allocation.invalidate_regret()
        assert not allocation._regret_valid.any()


def full_fingerprint(allocation):
    """Every piece of allocation state, the journal and the cache included."""
    return (
        *state_fingerprint(allocation),
        allocation._gains.tobytes(),
        allocation._losses.tobytes(),
        allocation._regret_cache.tobytes(),
        allocation._regret_valid.tobytes(),
        allocation.journaling,
        tuple(allocation._entries),
    )


def top_up_instance(contracts, gamma):
    """No assigned billboard, so BLS's first move is the greedy top-up."""
    coverage = CoverageIndex.from_coverage_lists([[0, 1], [2], [3, 4, 5]], 6)
    advertisers = [Advertiser(i, d, p) for i, (d, p) in enumerate(contracts)]
    return MROAMInstance(coverage, advertisers, gamma=gamma)


#: Greedy fills the one advertiser short of its demand 20; at γ = 0 its
#: regret stays the full payment, so the top-up is rejected.
REJECTED = ([(20, 2.0)], 0.0)
#: Greedy satisfies both advertisers: regret 4.0 → 0.0, adopted.
ADOPTED = ([(3, 2.0), (3, 2.0)], 0.5)


class TestTopUpInPlace:
    @pytest.mark.parametrize("recording", [False, True], ids=["cold", "recording"])
    def test_failed_top_up_restores_the_allocation(self, monkeypatch, recording):
        allocation = Allocation(top_up_instance(*ADOPTED))
        if recording:
            allocation.journal_enable()
            allocation.assign(1, 0)
            allocation.release(1)
        # BLS reads the total regret before its top-up; warm the cache the
        # same way so the before-state includes it.
        allocation.total_regret()
        before = full_fingerprint(allocation)

        def failing_greedy(target, *args, **kwargs):
            assert target is allocation and target.journaling
            target.assign(0, 0)
            target.assign(2, 1)
            raise RuntimeError("greedy failed mid top-up")

        monkeypatch.setattr(bls, "synchronous_greedy", failing_greedy)
        with pytest.raises(RuntimeError, match="mid top-up"):
            billboard_driven_local_search(allocation)
        assert full_fingerprint(allocation) == before
        assert allocation.journaling is recording
        assert allocation.journal_mark() == (2 if recording else 0)
        validate_allocation(allocation)

    @pytest.mark.parametrize("case", [REJECTED, ADOPTED], ids=["rejected", "adopted"])
    def test_cold_search_returns_its_allocation_with_an_empty_journal(self, case):
        instance = top_up_instance(*case)
        allocation = Allocation(instance)
        stats: dict = {}
        obs.enable()
        obs.reset()
        try:
            assert billboard_driven_local_search(allocation, stats=stats) is allocation
            rollbacks = obs.counter_value("journal.rollback")
        finally:
            obs.disable()
            obs.reset()
        assert allocation.journal_mark() == 0
        assert not allocation.journaling
        assert stats["bls_topups"] == (case is ADOPTED)
        assert rollbacks == (case is REJECTED)
        validate_allocation(allocation)
        # The clone-and-adopt top-up of the literal loop lands on the same plan.
        oracle = rescan_bls(Allocation(instance))
        assert allocation.assignment_map() == oracle.assignment_map()
        assert allocation.total_regret() == oracle.total_regret()
        if case is REJECTED:
            assert (allocation.owners == UNASSIGNED).all()

    def test_recording_caller_keeps_the_adopted_records(self):
        allocation = Allocation(top_up_instance(*ADOPTED))
        allocation.journal_enable()
        billboard_driven_local_search(allocation)
        entries = allocation.journal_entries()
        assert allocation.journaling
        assert sorted(kind for kind, _, _ in entries) == ["assign"] * 3
        allocation.rollback_to(0)
        assert (allocation.owners == UNASSIGNED).all()

    def test_journaled_name_is_the_allocation_class(self):
        assert JournaledAllocation is Allocation


class TestGuards:
    def test_exchange_sets_raises_while_recording(self):
        allocation = Allocation(small_instance())
        allocation.journal_enable()
        with pytest.raises(RuntimeError, match="exchange_sets"):
            allocation.exchange_sets(0, 1)

    def test_copy_assignments_raises_over_uncommitted_entries(self):
        instance = small_instance()
        allocation = Allocation(instance)
        allocation.journal_enable()
        allocation.assign(0, 0)
        with pytest.raises(RuntimeError, match="uncommitted"):
            allocation.copy_assignments_from(Allocation(instance))


class TestBulkCopy:
    def test_copy_matches_loop_assignment(self):
        instance = small_instance()
        source = Allocation(instance)
        source.assign(0, 0)
        source.assign(2, 1)
        source.assign(4, 2)
        bulk = Allocation(instance)
        bulk.copy_assignments_from(source)
        loop = Allocation(instance)
        for advertiser_id in range(instance.num_advertisers):
            for billboard_id in source.billboards_of(advertiser_id):
                loop.assign(billboard_id, advertiser_id)
        assert state_fingerprint(bulk) == state_fingerprint(loop)

    def test_copy_into_wider_instance_clears_extra_rows(self):
        narrow = small_instance(num_advertisers=2)
        wide = MROAMInstance.from_contracts(narrow.coverage, [(3, 2.0)] * 4)
        source = Allocation(narrow)
        source.assign(1, 0)
        source.assign(3, 1)
        dest = Allocation(wide)
        dest.assign(5, 3)  # must be wiped: the source owns the plan
        dest.copy_assignments_from(source)
        assert dest.billboards_of(0) == frozenset({1})
        assert dest.billboards_of(1) == frozenset({3})
        assert dest.billboards_of(3) == frozenset()
        assert dest.influence(3) == 0
        assert 5 in dest.unassigned

    def test_copy_rejects_foreign_coverage(self):
        instance = small_instance()
        other = small_instance()
        with pytest.raises(ValueError, match="coverage"):
            Allocation(instance).copy_assignments_from(Allocation(other))

    def test_copy_rejects_narrower_destination(self):
        narrow = small_instance(num_advertisers=2)
        wide = MROAMInstance.from_contracts(narrow.coverage, [(3, 2.0)] * 4)
        with pytest.raises(ValueError, match="more advertisers"):
            Allocation(narrow).copy_assignments_from(Allocation(wide))


class TestGrow:
    def test_grow_appends_empty_rows(self):
        narrow = small_instance(num_advertisers=2)
        allocation = Allocation(narrow)
        allocation.journal_enable()
        allocation.assign(0, 0)
        allocation.assign(2, 1)
        regret_before = allocation.total_regret()
        wide = MROAMInstance.from_contracts(narrow.coverage, [(3, 2.0)] * 4)
        allocation.grow(wide)
        assert allocation.instance is wide
        assert allocation.billboards_of(0) == frozenset({0})
        assert allocation.billboards_of(3) == frozenset()
        assert allocation.influence(2) == 0
        # Two fresh (3, 2.0) contracts at influence 0 add their unsatisfied
        # regret on top of the carried-over rows.
        expected_extra = sum(wide.regret_of(i, 0) for i in (2, 3))
        assert allocation.total_regret() == pytest.approx(
            regret_before + expected_extra
        )

    def test_grow_rejects_shrink_and_foreign_coverage(self):
        wide = small_instance(num_advertisers=3)
        allocation = Allocation(wide)
        narrow = MROAMInstance.from_contracts(wide.coverage, [(3, 2.0)] * 2)
        with pytest.raises(ValueError):
            allocation.grow(narrow)
        foreign = small_instance(num_advertisers=4)
        with pytest.raises(ValueError):
            allocation.grow(foreign)
