"""The allocation's maintained gain/loss vectors against two references.

``Allocation`` keeps ``gain[a, b] = |cov(b) ∩ {c_a = 0}|`` and
``loss[a, b] = |cov(b) ∩ {c_a = 1}|`` current through every move.  After
each step of seeded random move sequences, every row is checked against

* ``tests/oracles.SetCoverage``, which counts from Python sets built from
  the coverage lists (never from the index), and
* a fresh full ``batch_add_gains`` / ``batch_remove_losses`` pass of the
  coverage kernels over the counter row.

The sequences mix every primitive that writes the vectors: ``assign``,
``release``, ``exchange_billboards``, ``exchange_sets``, ``clone``,
``copy_assignments_from``, the journal's ``grow``, ``rollback_to`` and
``replay``.  The exact-scan helpers built on the vectors
(``gains_without``, ``partner_swap_deltas``) are checked against their
kernel counterparts too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.billboard.influence import CoverageIndex
from repro.core.advertiser import Advertiser
from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.journal import JournaledAllocation
from repro.core.problem import MROAMInstance
from repro.core.validation import validate_allocation
from tests.oracles import SetCoverage


def random_lists(rng, num_billboards, num_trajectories, max_coverage):
    return [
        rng.choice(num_trajectories, size=int(rng.integers(0, max_coverage + 1)), replace=False)
        .tolist()
        for _ in range(num_billboards)
    ]


def make_instance(seed, num_billboards=18, num_trajectories=40, num_advertisers=4):
    """A random instance with heavy overlap (counts reach 2 and beyond),
    plus the coverage lists it was built from."""
    rng = np.random.default_rng(seed)
    lists = random_lists(rng, num_billboards, num_trajectories, 14)
    coverage = CoverageIndex.from_coverage_lists(lists, num_trajectories)
    advertisers = [
        Advertiser(i, int(rng.integers(3, 20)), float(rng.integers(5, 40)))
        for i in range(num_advertisers)
    ]
    return MROAMInstance(coverage, advertisers, gamma=0.5), lists


def assert_vectors(allocation: Allocation, oracle: SetCoverage) -> None:
    coverage = allocation.instance.coverage
    everything = range(allocation.instance.num_billboards)
    for advertiser_id in range(allocation.instance.num_advertisers):
        row = allocation.counts_row(advertiser_id)
        gains = allocation.gains[advertiser_id]
        losses = allocation.losses[advertiser_id]
        assert gains.tolist() == [oracle.add_gain(row, b) for b in everything]
        assert losses.tolist() == [oracle.remove_loss(row, b) for b in everything]
        assert np.array_equal(gains, coverage.batch_add_gains(row))
        assert np.array_equal(losses, coverage.batch_remove_losses(row))


def random_move(allocation: Allocation, rng) -> None:
    """One random assign / release / billboard exchange."""
    instance = allocation.instance
    billboard_id = int(rng.integers(instance.num_billboards))
    kind = rng.random()
    if kind < 0.2:
        other = int(rng.integers(instance.num_billboards))
        allocation.exchange_billboards(billboard_id, other)
    elif allocation.owner_of(billboard_id) == UNASSIGNED:
        allocation.assign(billboard_id, int(rng.integers(instance.num_advertisers)))
    else:
        allocation.release(billboard_id)


@pytest.mark.parametrize("seed", range(4))
def test_moves_swaps_clones_and_copies(seed):
    instance, lists = make_instance(seed)
    oracle = SetCoverage(lists)
    rng = np.random.default_rng(100 + seed)
    allocation = Allocation(instance)
    assert_vectors(allocation, oracle)
    for step in range(120):
        action = rng.random()
        if action < 0.75:
            random_move(allocation, rng)
        elif action < 0.85:
            a, b = (int(x) for x in rng.integers(instance.num_advertisers, size=2))
            allocation.exchange_sets(a, b)
        elif action < 0.93:
            copy = allocation.clone()
            random_move(allocation, rng)  # the copy must not share rows
            assert_vectors(copy, oracle)
        else:
            target = Allocation(instance)
            for _ in range(5):
                random_move(target, rng)
            target.copy_assignments_from(allocation)
            assert np.array_equal(target.gains, allocation.gains)
            assert np.array_equal(target.losses, allocation.losses)
            allocation = target
        assert_vectors(allocation, oracle)
    validate_allocation(allocation)


@pytest.mark.parametrize("seed", range(3))
def test_copy_from_a_smaller_book_resets_the_extra_rows(seed):
    instance, lists = make_instance(seed)
    small = MROAMInstance(instance.coverage, instance.advertisers[:2], gamma=0.5)
    rng = np.random.default_rng(seed)
    source = Allocation(small)
    target = Allocation(instance)
    for _ in range(40):
        random_move(source, rng)
        random_move(target, rng)
    target.copy_assignments_from(source)
    assert_vectors(target, SetCoverage(lists))


@pytest.mark.parametrize("seed", range(4))
def test_journal_rollback_replay_and_grow(seed):
    instance, lists = make_instance(seed, num_advertisers=3)
    oracle = SetCoverage(lists)
    rng = np.random.default_rng(200 + seed)
    allocation = JournaledAllocation(instance)
    allocation.journal_enable()
    for _ in range(30):
        random_move(allocation, rng)
    allocation.journal_commit()
    for round_ in range(6):
        before = (allocation.gains.copy(), allocation.losses.copy())
        mark = allocation.journal_mark()
        for _ in range(int(rng.integers(1, 25))):
            random_move(allocation, rng)
            assert_vectors(allocation, oracle)
        after = (allocation.gains.copy(), allocation.losses.copy())
        entries = allocation.journal_entries(mark)
        allocation.rollback_to(mark)
        assert np.array_equal(allocation.gains, before[0])
        assert np.array_equal(allocation.losses, before[1])
        assert_vectors(allocation, oracle)
        allocation.replay(entries)
        assert np.array_equal(allocation.gains, after[0])
        assert np.array_equal(allocation.losses, after[1])
        allocation.journal_commit(mark)
        if round_ % 2 == 1:
            grown = MROAMInstance(
                instance.coverage,
                [
                    *allocation.instance.advertisers,
                    Advertiser(allocation.instance.num_advertisers, 9, 12.0),
                ],
                gamma=0.5,
            )
            allocation.grow(grown)
            new_row = allocation.instance.num_advertisers - 1
            assert np.array_equal(
                allocation.gains[new_row], instance.coverage.individual_influences
            )
            assert not allocation.losses[new_row].any()
        assert_vectors(allocation, oracle)
    validate_allocation(allocation)


@pytest.mark.parametrize("seed", range(4))
def test_exact_scan_helpers_match_the_kernels(seed):
    instance, _ = make_instance(seed, num_billboards=24)
    coverage = instance.coverage
    rng = np.random.default_rng(300 + seed)
    allocation = Allocation(instance)
    for _ in range(60):
        random_move(allocation, rng)
        owned = np.flatnonzero(allocation.owners != UNASSIGNED)
        for advertiser_id in range(instance.num_advertisers):
            row = allocation.counts_row(advertiser_id)
            for billboard_id in allocation.billboards_of(advertiser_id):
                assert np.array_equal(
                    allocation.gains_without(advertiser_id, billboard_id),
                    coverage.batch_add_gains_without(row, billboard_id),
                )
        added = int(rng.integers(instance.num_billboards))
        partners = owned[owned != added]
        expected = [
            coverage.swap_delta(
                int(b), added, allocation.counts_row(allocation.owner_of(int(b)))
            )
            for b in partners
        ]
        assert allocation.partner_swap_deltas(added, partners).tolist() == expected


def test_validation_catches_a_drifted_vector(tiny_instance):
    allocation = Allocation(tiny_instance)
    allocation.assign(0, 0)
    allocation._gains[0, 1] += 1
    with pytest.raises(AssertionError, match="gain/loss vectors"):
        validate_allocation(allocation)
