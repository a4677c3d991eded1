"""Warm-vs-cold equivalence for the shared bounded-repair pass."""

import random

import numpy as np
import pytest

from repro.algorithms.repair import bounded_repair
from repro.algorithms.sweep import BillboardSweepState
from repro.billboard.influence import CoverageIndex
from repro.core.advertiser import Advertiser
from repro.core.allocation import Allocation
from repro.core.journal import JournaledAllocation
from repro.core.problem import MROAMInstance


def build_world(seed, num_billboards=30, num_trajectories=200, booked=5):
    rng = random.Random(seed)
    lists = [
        rng.sample(range(num_trajectories), rng.randint(1, 10))
        for _ in range(num_billboards)
    ]
    coverage = CoverageIndex.from_coverage_lists(lists, num_trajectories)
    advertisers = [
        Advertiser(i, rng.randint(3, 15), round(rng.uniform(1, 8), 2))
        for i in range(booked)
    ]
    newcomers = [
        (rng.randint(2, 20), round(rng.uniform(0.5, 9), 2)) for _ in range(6)
    ]
    return coverage, advertisers, newcomers


def plan_fingerprint(allocation, num_advertisers):
    return tuple(
        allocation.billboards_of(advertiser_id)
        for advertiser_id in range(num_advertisers)
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("sweeps", [0, 2])
def test_warm_repairs_match_cold_repairs(seed, sweeps):
    """A warm journaled workspace repairs bit-identically to cold reruns.

    The warm side prices every newcomer against one live allocation +
    carried sweep state (rolling back in between); the cold side rebuilds a
    fresh allocation and state per newcomer — certificates can only skip
    work, never change the accepted moves.
    """
    coverage, advertisers, newcomers = build_world(seed)
    slot = len(advertisers)

    def extended_instance(demand, payment):
        return MROAMInstance(
            coverage, [*advertisers, Advertiser(slot, demand, payment)]
        )

    # Warm: one journaled allocation + one sweep state across all repairs.
    warm_instance = extended_instance(1, 0.0)
    warm = JournaledAllocation(warm_instance)
    warm.journal_enable()
    state = BillboardSweepState(slot + 1, coverage.num_billboards)
    # Give the book a standing plan first (repair an initial newcomer in and
    # keep it — the realistic warm starting point).
    for advertiser_id in range(slot):
        bounded_repair(warm, advertiser_id, sweeps, state=state)
    warm.journal_commit()
    baseline = plan_fingerprint(warm, slot + 1)

    for demand, payment in newcomers:
        warm_instance.advertisers[slot] = Advertiser(slot, demand, payment)
        warm_instance.demands[slot] = demand
        warm_instance.payments[slot] = payment
        warm.invalidate_regret(slot)
        pre = state.snapshot()
        mark = warm.journal_mark()
        repaired = bounded_repair(warm, slot, sweeps, state=state)
        assert repaired is warm
        warm_result = (
            plan_fingerprint(warm, slot + 1),
            warm.total_regret(),
        )
        warm.rollback_to(mark)
        state.restore(pre)
        assert plan_fingerprint(warm, slot + 1) == baseline

        # Cold: fresh allocation + fresh implicit state, same starting plan.
        cold_instance = extended_instance(demand, payment)
        cold = Allocation(cold_instance)
        cold.copy_assignments_from(warm)
        cold = bounded_repair(cold, slot, sweeps)
        assert warm_result == (
            plan_fingerprint(cold, slot + 1),
            cold.total_regret(),
        )


def test_snapshot_restore_round_trips_after_mutation():
    state = BillboardSweepState(3, 5)
    snap = state.snapshot()
    state.mark_move(advertisers=(1,), freed=(2,))
    state.certify_scan(0)
    state.certify_topup()
    assert not state.topup_clean() or state.version == state.topup_version
    state.restore(snap)
    assert state.version == 1
    assert state.topup_version == 0
    assert list(state.advertiser_version) == [1, 1, 1]
    assert list(state.scan_version) == [0, 0, 0, 0, 0]
    # Restoring twice from the same snapshot must be safe (accept replays).
    state.mark_move(advertisers=(0,))
    state.restore(snap)
    assert list(state.advertiser_version) == [1, 1, 1]


def test_grow_advertisers_stamps_new_rows_current():
    state = BillboardSweepState(2, 4)
    state.mark_move(advertisers=(0,))
    state.grow_advertisers(4)
    assert len(state.advertiser_version) == 4
    assert list(state.advertiser_version[2:]) == [state.version, state.version]
    assert list(state.release_version[2:]) == [0, 0]
    with pytest.raises(ValueError, match="shrink"):
        state.grow_advertisers(1)
