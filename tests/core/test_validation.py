"""Tests that the invariant checker actually catches corruption."""

import pytest

from repro.core.allocation import Allocation
from repro.core.validation import AllocationInvariantError, validate_allocation


def test_valid_allocation_passes(tiny_instance):
    allocation = Allocation(tiny_instance)
    allocation.assign(0, 0)
    allocation.assign(2, 1)
    validate_allocation(allocation)


def test_detects_corrupted_influence(tiny_instance):
    allocation = Allocation(tiny_instance)
    allocation.assign(0, 0)
    allocation._influences[0] += 1  # simulate drift
    with pytest.raises(AllocationInvariantError, match="influence"):
        validate_allocation(allocation)


def test_detects_corrupted_counts(tiny_instance):
    allocation = Allocation(tiny_instance)
    allocation.assign(0, 0)
    allocation._counts[0][6] += 1
    with pytest.raises(AllocationInvariantError, match="counters"):
        validate_allocation(allocation)


def test_detects_owner_set_mismatch(tiny_instance):
    allocation = Allocation(tiny_instance)
    allocation.assign(0, 0)
    allocation._owner[0] = 1
    with pytest.raises(AllocationInvariantError):
        validate_allocation(allocation)


def test_detects_duplicate_membership(tiny_instance):
    allocation = Allocation(tiny_instance)
    allocation.assign(0, 0)
    allocation._sets[1].add(0)
    with pytest.raises(AllocationInvariantError, match="multiple"):
        validate_allocation(allocation)


def test_detects_unassigned_pool_drift(tiny_instance):
    allocation = Allocation(tiny_instance)
    allocation.assign(0, 0)
    allocation._unassigned.add(0)
    with pytest.raises(AllocationInvariantError, match="unassigned"):
        validate_allocation(allocation)


def test_detects_stale_regret_cache(tiny_instance):
    allocation = Allocation(tiny_instance)
    allocation.assign(0, 0)
    allocation.total_regret()
    validate_allocation(allocation)
    allocation._regret_cache[0] += 1.0  # a planted stale entry
    with pytest.raises(AllocationInvariantError, match="cached regret"):
        validate_allocation(allocation)
    allocation.invalidate_regret(0)  # an entry marked invalid is not checked
    validate_allocation(allocation)
