"""Restricted-vs-full batch-kernel equality (the PR's bit-identical contract).

Every batch pass accepts ``candidate_ids`` and must return exactly the full
pass sliced to those rows — for *any* subset (empty, full, unordered, with
duplicates), because the dirty sweep engine's correctness proof reduces
restricted scans to full scans through this equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.billboard.influence import CoverageIndex

SEEDS = (0, 1, 7, 23, 99)


def _random_index(rng: np.random.Generator) -> tuple[CoverageIndex, np.ndarray]:
    num_billboards = int(rng.integers(1, 40))
    num_trajectories = int(rng.integers(1, 200))
    covered = [
        rng.choice(
            num_trajectories, size=int(rng.integers(0, num_trajectories + 1)),
            replace=False,
        )
        for _ in range(num_billboards)
    ]
    index = CoverageIndex.from_coverage_lists(covered, num_trajectories)
    counts = rng.integers(0, 3, size=num_trajectories).astype(np.int64)
    return index, counts


def _subsets(rng: np.random.Generator, num_billboards: int) -> list[np.ndarray]:
    """Full, empty, a random strict subset, and an unordered-with-duplicates
    id array — the contract holds for all of them."""
    return [
        np.arange(num_billboards),
        np.empty(0, dtype=np.int64),
        rng.choice(
            num_billboards,
            size=int(rng.integers(0, num_billboards + 1)),
            replace=False,
        ),
        rng.integers(0, num_billboards, size=int(rng.integers(1, 2 * num_billboards + 1))),
    ]


class TestRestrictedEqualsFullSlice:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_add_gains(self, seed):
        rng = np.random.default_rng(seed)
        index, counts = _random_index(rng)
        full = index.batch_add_gains(counts)
        for subset in _subsets(rng, index.num_billboards):
            restricted = index.batch_add_gains(counts, candidate_ids=subset)
            assert restricted.dtype == np.int64
            assert np.array_equal(restricted, full[subset])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_add_gains_without(self, seed):
        rng = np.random.default_rng(seed)
        index, counts = _random_index(rng)
        removed = int(rng.integers(0, index.num_billboards))
        full = index.batch_add_gains_without(counts, removed)
        for subset in _subsets(rng, index.num_billboards):
            restricted = index.batch_add_gains_without(
                counts, removed, candidate_ids=subset
            )
            assert np.array_equal(restricted, full[subset])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_remove_losses(self, seed):
        rng = np.random.default_rng(seed)
        index, counts = _random_index(rng)
        full = index.batch_remove_losses(counts)
        for subset in _subsets(rng, index.num_billboards):
            restricted = index.batch_remove_losses(counts, candidate_ids=subset)
            assert np.array_equal(restricted, full[subset])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_swap_deltas(self, seed):
        """One removed billboard against many added candidates equals the
        per-candidate ``swap_delta`` loop, bit for bit."""
        rng = np.random.default_rng(seed)
        index, counts = _random_index(rng)
        removed = int(rng.integers(0, index.num_billboards))
        for subset in _subsets(rng, index.num_billboards):
            batched = index.batch_swap_deltas(removed, subset, counts)
            looped = np.array(
                [index.swap_delta(removed, int(a), counts) for a in subset],
                dtype=np.int64,
            )
            assert batched.dtype == np.int64
            assert np.array_equal(batched, looped)

    def test_restricted_rows_histogram(self):
        """``influence.popcount.rows`` must record the *restricted* row count
        on restricted dispatches — the observable proof that the kernel no
        longer touches all rows."""
        index = CoverageIndex.from_coverage_lists(
            [list(range(0, 80)), list(range(10, 90)), list(range(20, 100)), [1, 2]],
            num_trajectories=100,
        )
        counts = np.zeros(100, dtype=np.int64)
        obs.enable()
        try:
            obs.reset()
            index.batch_add_gains(counts, candidate_ids=np.array([2]))
            histogram = obs.get_registry().histogram("influence.popcount.rows")
            assert histogram.count == 1
            assert histogram.max == 1  # one row, not num_billboards
        finally:
            obs.disable()
            obs.reset()
