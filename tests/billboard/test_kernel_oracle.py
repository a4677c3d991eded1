"""Property tests: every coverage kernel against the scalar set oracle.

:class:`CoverageIndex` answers each influence query with vectorized CSR
gathers.  These tests re-derive every answer from one Python ``set`` per
billboard (:class:`tests.oracles.SetCoverage`), built from the same coverage
lists, for arbitrary coverage (empty rows and a single-trajectory universe
included), arbitrary counter rows, and candidate ids that are unordered or
repeated.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.billboard.influence import CoverageIndex
from repro.core.advertiser import Advertiser
from repro.core.allocation import Allocation
from repro.core.problem import MROAMInstance
from repro.utils.rng import as_generator
from tests.oracles import SetCoverage

SEEDS = st.integers(0, 10_000)
TRAJECTORIES = st.integers(1, 90)


def random_coverage(seed: int, num_billboards: int, num_trajectories: int):
    rng = as_generator(seed)
    lists = []
    for _ in range(num_billboards):
        size = int(rng.integers(0, num_trajectories + 1))
        lists.append(rng.choice(num_trajectories, size=size, replace=False).tolist())
    return lists


def kernel_case(seed: int, num_trajectories: int, num_billboards: int = 14):
    """The same coverage as an index under test and as its set oracle."""
    lists = random_coverage(seed, num_billboards, num_trajectories)
    lists[seed % num_billboards] = []  # always one empty row
    index = CoverageIndex.from_coverage_lists(lists, num_trajectories)
    return index, SetCoverage(lists)


def random_counts_row(seed: int, num_trajectories: int) -> np.ndarray:
    return as_generator(seed).integers(0, 4, size=num_trajectories).astype(np.int32)


def candidate_sets(seed: int, num_billboards: int) -> list[np.ndarray]:
    """Empty, a random strict subset, and unordered ids with duplicates."""
    rng = as_generator(seed)
    return [
        np.empty(0, dtype=np.int64),
        rng.choice(num_billboards, size=int(rng.integers(0, num_billboards)), replace=False),
        rng.integers(0, num_billboards, size=2 * num_billboards),
    ]


class TestKernelEquality:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, num_trajectories=TRAJECTORIES)
    @example(seed=0, num_trajectories=1)
    def test_influence_of_set(self, seed, num_trajectories):
        index, oracle = kernel_case(seed, num_trajectories)
        everything = np.arange(index.num_billboards)
        assert index.influence_of_set(everything) == oracle.influence_of_set(everything)
        for ids in candidate_sets(seed + 1, index.num_billboards):
            assert index.influence_of_set(ids.tolist()) == oracle.influence_of_set(ids)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, num_trajectories=TRAJECTORIES)
    @example(seed=0, num_trajectories=1)
    def test_batch_add_gains(self, seed, num_trajectories):
        index, oracle = kernel_case(seed, num_trajectories)
        counts = random_counts_row(seed + 2, num_trajectories)
        assert index.batch_add_gains(counts).tolist() == oracle.batch_add_gains(counts)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, num_trajectories=TRAJECTORIES)
    @example(seed=0, num_trajectories=1)
    def test_batch_add_gains_without(self, seed, num_trajectories):
        index, oracle = kernel_case(seed, num_trajectories)
        counts = random_counts_row(seed + 2, num_trajectories)
        for removed in range(index.num_billboards):
            full = index.batch_add_gains_without(counts, removed)
            assert full.tolist() == oracle.batch_add_gains_without(counts, removed)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, num_trajectories=TRAJECTORIES)
    @example(seed=0, num_trajectories=1)
    def test_batch_remove_losses(self, seed, num_trajectories):
        index, oracle = kernel_case(seed, num_trajectories)
        counts = random_counts_row(seed + 3, num_trajectories)
        assert index.batch_remove_losses(counts).tolist() == oracle.batch_remove_losses(
            counts
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, num_trajectories=TRAJECTORIES)
    @example(seed=0, num_trajectories=1)
    def test_swap_delta(self, seed, num_trajectories):
        index, oracle = kernel_case(seed, num_trajectories)
        counts = random_counts_row(seed + 4, num_trajectories)
        for removed in range(index.num_billboards):
            for added in range(index.num_billboards):
                assert index.swap_delta(removed, added, counts) == oracle.swap_delta(
                    removed, added, counts
                )

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, num_trajectories=TRAJECTORIES)
    @example(seed=0, num_trajectories=1)
    def test_batch_swap_deltas(self, seed, num_trajectories):
        index, oracle = kernel_case(seed, num_trajectories)
        counts = random_counts_row(seed + 4, num_trajectories)
        everything = np.arange(index.num_billboards)
        for removed in range(index.num_billboards):
            batched = index.batch_swap_deltas(removed, everything, counts)
            assert batched.tolist() == oracle.batch_swap_deltas(removed, everything, counts)
        removed = seed % index.num_billboards
        for ids in candidate_sets(seed + 5, index.num_billboards):
            batched = index.batch_swap_deltas(removed, ids, counts)
            assert batched.dtype == np.int64
            assert batched.tolist() == oracle.batch_swap_deltas(removed, ids, counts)

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS)
    def test_partner_swap_delta_in_bls(self, seed):
        """On live allocations, the BLS partner-side swap delta and the
        allocation's add/remove deltas equal differences of oracle unions."""
        lists = random_coverage(seed, 10, 60)
        oracle = SetCoverage(lists)
        coverage = CoverageIndex.from_coverage_lists(lists, 60)
        advertisers = [Advertiser(0, 5, 10.0), Advertiser(1, 4, 8.0)]
        allocation = Allocation(MROAMInstance(coverage, advertisers, gamma=0.5))
        assign_rng = as_generator(seed + 7)
        for billboard_id in range(coverage.num_billboards):
            if assign_rng.random() < 0.6:
                allocation.assign(billboard_id, int(assign_rng.integers(0, 2)))
        for partner in (0, 1):
            owned = set(allocation.billboards_of(partner))
            before = oracle.influence_of_set(owned)
            assert allocation.influence(partner) == before
            for billboard_id in range(coverage.num_billboards):
                if billboard_id in owned:
                    after = oracle.influence_of_set(owned - {billboard_id})
                    assert allocation.influence_delta_remove(partner, billboard_id) == (
                        before - after
                    )
                else:
                    after = oracle.influence_of_set(owned | {billboard_id})
                    assert allocation.influence_delta_add(partner, billboard_id) == (
                        after - before
                    )
            for lost in owned:
                for gained in range(coverage.num_billboards):
                    if gained in owned:
                        continue
                    after = oracle.influence_of_set((owned - {lost}) | {gained})
                    delta = coverage.swap_delta(
                        lost, gained, allocation.counts_row(partner)
                    )
                    assert delta == after - before
