"""Candidate-restricted pricing equals the full batch passes, sliced.

A BLS scan prices only its screened candidates, by slicing the allocation's
maintained vectors (``gains``, ``losses``, ``gains_without``) at the
candidate ids; the coverage index has no row-restricted pass of its own.
Every slice must equal the full kernel pass over the advertiser's counter
row sliced the same way — for *any* subset (empty, full, unordered, with
duplicates) — because the sweep engine's correctness proof reduces
restricted scans to full scans through this equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.billboard.influence import CoverageIndex
from repro.core.advertiser import Advertiser
from repro.core.allocation import Allocation
from repro.core.problem import MROAMInstance

SEEDS = (0, 1, 7, 23, 99)

#: The batch passes' inputs: the random indexes, plus one whose billboards
#: cover nothing, so the full pass gathers an empty CSR.
INPUTS = (*SEEDS, "empty")


def _random_index(
    rng: np.random.Generator, empty: bool = False
) -> tuple[CoverageIndex, np.ndarray]:
    num_billboards = int(rng.integers(1, 40))
    num_trajectories = int(rng.integers(1, 200))
    covered = [
        []
        if empty
        else rng.choice(
            num_trajectories, size=int(rng.integers(0, num_trajectories + 1)),
            replace=False,
        )
        for _ in range(num_billboards)
    ]
    index = CoverageIndex.from_coverage_lists(covered, num_trajectories)
    counts = rng.integers(0, 3, size=num_trajectories).astype(np.int64)
    return index, counts


def _input(case) -> tuple[np.random.Generator, Allocation]:
    """An allocation over a random index whose one advertiser holds a
    random non-empty billboard set."""
    rng = np.random.default_rng(0 if case == "empty" else case)
    index, _ = _random_index(rng, empty=case == "empty")
    allocation = Allocation(MROAMInstance(index, [Advertiser(0, 1, 1.0)]))
    owned = rng.choice(
        index.num_billboards,
        size=int(rng.integers(1, index.num_billboards + 1)),
        replace=False,
    )
    for billboard_id in owned:
        allocation.assign(int(billboard_id), 0)
    return rng, allocation


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
    @pytest.mark.parametrize("case", INPUTS)
    def test_batch_add_gains(self, case):
        rng, allocation = _input(case)
        index = allocation.instance.coverage
        full = index.batch_add_gains(allocation.counts_row(0))
        for subset in _subsets(rng, index.num_billboards):
            restricted = allocation.gains[0][subset]
            assert restricted.dtype == np.int64
            assert np.array_equal(restricted, full[subset])

    @pytest.mark.parametrize("case", INPUTS)
    def test_batch_add_gains_without(self, case):
        rng, allocation = _input(case)
        index = allocation.instance.coverage
        removed = int(rng.choice(sorted(allocation.billboards_of(0))))
        full = index.batch_add_gains_without(allocation.counts_row(0), removed)
        released = allocation.gains_without(0, removed)
        for subset in _subsets(rng, index.num_billboards):
            assert np.array_equal(released[subset], full[subset])

    @pytest.mark.parametrize("case", INPUTS)
    def test_batch_remove_losses(self, case):
        rng, allocation = _input(case)
        index = allocation.instance.coverage
        full = index.batch_remove_losses(allocation.counts_row(0))
        for subset in _subsets(rng, index.num_billboards):
            assert np.array_equal(allocation.losses[0][subset], full[subset])

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
        """Pricing a restricted candidate set from the vectors reads no
        kernel rows: no ``influence.dispatch.idarray`` call and nothing in
        the ``influence.popcount.rows`` histogram, which only the union
        observes."""
        index = CoverageIndex.from_coverage_lists(
            [list(range(0, 80)), list(range(10, 90)), list(range(20, 100)), [1, 2]],
            num_trajectories=100,
        )
        allocation = Allocation(MROAMInstance(index, [Advertiser(0, 50, 1.0)]))
        allocation.assign(0, 0)
        obs.enable()
        try:
            obs.reset()
            allocation.gains_without(0, 0)[np.array([2])]
            allocation.losses[0][np.array([0])]
            assert obs.counter_value("influence.dispatch.idarray") == 0
            assert obs.get_registry().histogram("influence.popcount.rows").count == 0
            index.influence_of_set([0, 3])
            histogram = obs.get_registry().histogram("influence.popcount.rows")
            assert histogram.count == 1
            assert histogram.max == 2  # the union's two members
        finally:
            obs.disable()
            obs.reset()
