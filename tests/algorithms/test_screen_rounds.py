"""Round-fused exchange screens must equal the per-billboard screens.

The BLS sweep consumes screen verdicts through
:class:`~repro.algorithms.screen.ScreenRoundPlanner`; these tests pin the
bit-identity claims of DESIGN.md §13 at every layer: candidate-set
construction (:func:`round_candidates` vs the scalar helpers in
``tests/oracles.py``) and verdict arithmetic (:func:`round_flags` vs the
scalar ``exchange_screen`` oracle, whole rounds vs per-advertiser rounds).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.greedy_global import synchronous_greedy
from repro.algorithms.screen import round_flags
from repro.algorithms.sweep import BillboardSweepState, round_candidates
from repro.core.allocation import UNASSIGNED, Allocation
from tests.conftest import make_random_instance
from tests.oracles import (
    all_exchange_candidates,
    changed_candidates,
    exchange_screen,
    own_side_stale,
)


@pytest.fixture(scope="module")
def instance():
    return make_random_instance(
        23, num_billboards=40, num_trajectories=120, num_advertisers=5
    )


def _greedy_allocation(instance) -> Allocation:
    allocation = Allocation(instance)
    synchronous_greedy(allocation)
    return allocation


def _mixed_state(instance, allocation) -> BillboardSweepState:
    """A sweep state with certified, stale, and never-scanned rows mixed."""
    state = BillboardSweepState(instance.num_advertisers, instance.num_billboards)
    owned = np.nonzero(allocation.owners != UNASSIGNED)[0]
    for billboard_id in owned[::2]:
        state.certify_scan(int(billboard_id))
    state.mark_move(advertisers=(0,), freed=(int(owned[0]),))
    for billboard_id in owned[1::3]:
        state.certify_scan(int(billboard_id))
    state.mark_move(advertisers=(1, 2))
    return state


def _assigned_rows(allocation) -> tuple[np.ndarray, np.ndarray]:
    """Every (advertiser, billboard) row in engine visit order."""
    advertisers, billboards = [], []
    for advertiser_id in range(allocation.instance.num_advertisers):
        for billboard_id in sorted(allocation.billboards_of(advertiser_id)):
            advertisers.append(advertiser_id)
            billboards.append(billboard_id)
    return (
        np.asarray(advertisers, dtype=np.int64),
        np.asarray(billboards, dtype=np.int64),
    )


class TestRoundCandidates:
    def test_matches_scalar_helpers_row_by_row(self, instance):
        allocation = _greedy_allocation(instance)
        state = _mixed_state(instance, allocation)
        advertiser_ids, billboard_ids = _assigned_rows(allocation)
        owners = allocation.owners
        certified = state.round_certificates(advertiser_ids, billboard_ids)
        # The round mixes all three regimes: never-certified rows and rows
        # whose owner moved take the full mask, the rest restrict.
        never = state.scan_version[billboard_ids] == 0
        assert never.any() and (certified[never] == -1).all()
        assert (certified == -1).any() and (certified > 0).any()
        flat, lengths = round_candidates(
            owners,
            advertiser_ids,
            billboard_ids,
            certified,
            state.advertiser_version,
            state.freed_version,
        )
        offset = 0
        for k in range(len(billboard_ids)):
            advertiser_id = int(advertiser_ids[k])
            billboard_id = int(billboard_ids[k])
            if own_side_stale(state, advertiser_id, billboard_id):
                expected = all_exchange_candidates(owners, advertiser_id, billboard_id)
            else:
                expected = changed_candidates(state, billboard_id, owners, advertiser_id)
            got = flat[offset : offset + lengths[k]]
            assert np.array_equal(got, expected), (advertiser_id, billboard_id)
            offset += lengths[k]
        assert offset == len(flat)


class TestRoundFlags:
    def test_matches_scalar_and_batch_screens(self, instance):
        allocation = _greedy_allocation(instance)
        state = _mixed_state(instance, allocation)
        advertiser_ids, billboard_ids = _assigned_rows(allocation)
        owners = allocation.owners
        certified = state.round_certificates(advertiser_ids, billboard_ids)
        flat, lengths = round_candidates(
            owners,
            advertiser_ids,
            billboard_ids,
            certified,
            state.advertiser_version,
            state.freed_version,
        )
        min_improvement = 1e-9
        flags = round_flags(
            instance,
            owners,
            allocation.influences,
            advertiser_ids,
            billboard_ids,
            flat,
            lengths,
            min_improvement,
        )
        offsets = np.zeros(len(billboard_ids), dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        candidate_sets = [
            flat[offsets[k] : offsets[k] + lengths[k]]
            for k in range(len(billboard_ids))
        ]
        # Scalar screen, row by row.
        for k in range(len(billboard_ids)):
            expected = exchange_screen(
                allocation,
                int(advertiser_ids[k]),
                int(billboard_ids[k]),
                candidate_sets[k],
                min_improvement,
            )
            assert bool(flags[k]) == expected, int(billboard_ids[k])
        # Per-advertiser rounds: verdicts must not depend on how rows are
        # grouped into a round.
        for advertiser_id in range(instance.num_advertisers):
            rows = np.nonzero(advertiser_ids == advertiser_id)[0]
            if len(rows) == 0:
                continue
            batch = round_flags(
                instance,
                owners,
                allocation.influences,
                advertiser_ids[rows],
                billboard_ids[rows],
                np.concatenate([candidate_sets[k] for k in rows]),
                lengths[rows],
                min_improvement,
            )
            assert np.array_equal(flags[rows], batch)

    def test_empty_candidate_sets_screen_out(self, instance):
        allocation = _greedy_allocation(instance)
        advertiser_ids, billboard_ids = _assigned_rows(allocation)
        flat = np.empty(0, dtype=np.int64)
        lengths = np.zeros(len(billboard_ids), dtype=np.int64)
        flags = round_flags(
            instance,
            allocation.owners,
            allocation.influences,
            advertiser_ids,
            billboard_ids,
            flat,
            lengths,
            1e-9,
        )
        assert not flags.any()
