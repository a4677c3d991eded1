"""Shared fixtures for the test suite.

Fixtures are session-scoped where the underlying object is immutable and
expensive (generated cities, coverage indices); tests that mutate state build
their own allocations from these shared instances.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.billboard.influence import CoverageIndex
from repro.core.advertiser import Advertiser
from repro.core.problem import MROAMInstance
from repro.datasets import example1_instance, generate_nyc, generate_sg
from repro.utils.rng import as_generator


def pytest_addoption(parser):
    parser.addoption(
        "--shuffle-seed",
        type=int,
        default=None,
        help="run the collected tests in an order shuffled by this seed "
        "(default: collection order)",
    )


def pytest_collection_modifyitems(config, items):
    """Shuffle the test order when ``--shuffle-seed`` is given.

    Tests must pass in any order; a seeded shuffle finds the ones that lean
    on state an earlier test left behind, and the printed seed replays the
    failing order.
    """
    seed = config.getoption("--shuffle-seed")
    if seed is None:
        return
    random.Random(seed).shuffle(items)
    reporter = config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(f"shuffle seed: {seed}")


@pytest.fixture(scope="session")
def example1() -> MROAMInstance:
    """The Section 1 worked example (γ = 0.5)."""
    return example1_instance()


@pytest.fixture(scope="session")
def tiny_instance() -> MROAMInstance:
    """A 5-billboard / 2-advertiser instance with overlapping coverage.

    Coverage (trajectory ids):
        o0: {0, 1, 2}      o1: {2, 3}        o2: {3, 4, 5}
        o3: {0, 5}         o4: {6}
    Advertisers: a0 demands 4 pays 8; a1 demands 3 pays 9.
    """
    coverage = CoverageIndex.from_coverage_lists(
        [[0, 1, 2], [2, 3], [3, 4, 5], [0, 5], [6]], num_trajectories=7
    )
    advertisers = [Advertiser(0, 4, 8.0), Advertiser(1, 3, 9.0)]
    return MROAMInstance(coverage, advertisers, gamma=0.5)


@pytest.fixture(scope="session")
def small_nyc():
    """A small NYC-like city shared across tests (immutable)."""
    return generate_nyc(n_billboards=120, n_trajectories=1_500, seed=11)


@pytest.fixture(scope="session")
def small_sg():
    """A small SG-like city shared across tests (immutable)."""
    return generate_sg(n_billboards=200, n_trajectories=1_500, seed=11)


def make_random_instance(
    seed: int,
    num_billboards: int = 12,
    num_trajectories: int = 30,
    num_advertisers: int = 3,
    gamma: float = 0.5,
    max_coverage: int = 8,
) -> MROAMInstance:
    """A random small MROAM instance (used by oracle and property tests)."""
    rng = as_generator(seed)
    coverage_lists = []
    for _ in range(num_billboards):
        size = int(rng.integers(0, max_coverage + 1))
        coverage_lists.append(
            sorted(rng.choice(num_trajectories, size=size, replace=False).tolist())
        )
    coverage = CoverageIndex.from_coverage_lists(coverage_lists, num_trajectories)
    advertisers = []
    for advertiser_id in range(num_advertisers):
        demand = int(rng.integers(2, max(3, num_trajectories // 2)))
        payment = float(rng.integers(5, 50))
        advertisers.append(Advertiser(advertiser_id, demand, payment))
    return MROAMInstance(coverage, advertisers, gamma=gamma)


def random_allocation(instance: MROAMInstance, seed: int, fill: float = 0.6):
    """A random partial allocation over ``instance``."""
    from repro.core.allocation import Allocation

    rng = as_generator(seed)
    allocation = Allocation(instance)
    for billboard_id in range(instance.num_billboards):
        if rng.random() < fill:
            allocation.assign(
                billboard_id, int(rng.integers(0, instance.num_advertisers))
            )
    return allocation


@pytest.fixture
def rng() -> np.random.Generator:
    return as_generator(1234)
