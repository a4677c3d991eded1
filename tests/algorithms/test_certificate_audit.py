"""Every certificate-backed skip of the BLS and ALS sweeps is sound.

The sweeps stop at their first sweep that accepts nothing, trusting the
version certificates (``repro.algorithms.sweep``) and the interval screens
(``repro.algorithms.screen``) for every scan they skip.  Theorem 2's local
optimality then rests on those skips being proofs.  This suite runs the
production searches under :class:`tests.oracles.CertificateAudit`, which
reruns the unrestricted oracle at every skip and records each disagreement;
``test_local_optimality.py`` checks the end state by brute force.
"""

from __future__ import annotations

import functools

import pytest

from repro.algorithms.als import advertiser_driven_local_search
from repro.algorithms.bls import billboard_driven_local_search
from repro.algorithms.greedy_global import synchronous_greedy
from repro.algorithms.sweep import BillboardSweepState
from repro.core.allocation import Allocation
from repro.market.scenario import Scenario
from tests.conftest import random_allocation
from tests.oracles import CertificateAudit

MIN_IMPROVEMENT = 1e-9
DATASETS = ("nyc", "sg")
GAMMAS = (0.0, 0.5, 1.0)
SCENARIO_SEEDS = (5, 6, 7)
RANDOM_STARTS = (3, 11)


def scenario(dataset: str, gamma: float, seed: int) -> Scenario:
    return Scenario(
        dataset=dataset, n_billboards=24, n_trajectories=2000, alpha=0.8,
        p_avg=0.1, gamma=gamma, seed=seed,
    )


@functools.lru_cache(maxsize=None)
def audit_city(dataset: str, seed: int):
    """One city per dataset and seed, shared by the three γ values."""
    return scenario(dataset, 0.0, seed).build_city()


def audit_instance(dataset: str, gamma: float, seed: int):
    return scenario(dataset, gamma, seed).build_instance(audit_city(dataset, seed))


def starts(instance):
    """A greedy start and two random starts."""
    greedy = Allocation(instance)
    synchronous_greedy(greedy)
    yield greedy
    for seed in RANDOM_STARTS:
        yield random_allocation(instance, seed=seed)


def assert_sound(audit: CertificateAudit, kinds) -> None:
    assert audit.violations == []
    for kind in kinds:
        assert audit.checks[kind] > 0, (kind, audit.checks)


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_bls_certificates(monkeypatch, dataset, gamma):
    """Cold searches from every start (adaptive screen rounds, as solves
    run), then a warm rerun on a carried state after one release recorded
    in it (eager rounds, as quote repairs run)."""
    audit = CertificateAudit().install(monkeypatch)
    for seed in SCENARIO_SEEDS:
        instance = audit_instance(dataset, gamma, seed)
        for start in starts(instance):
            billboard_driven_local_search(start, MIN_IMPROVEMENT)
        state = BillboardSweepState(instance.num_advertisers, instance.num_billboards)
        allocation = billboard_driven_local_search(
            random_allocation(instance, seed=RANDOM_STARTS[0]),
            MIN_IMPROVEMENT,
            state=state,
        )
        busiest = max(
            range(instance.num_advertisers),
            key=lambda i: (len(allocation.billboards_of(i)), -i),
        )
        freed = min(allocation.billboards_of(busiest))
        allocation.release(freed)
        state.mark_move(advertisers=(busiest,), freed=(freed,))
        billboard_driven_local_search(allocation, MIN_IMPROVEMENT, state=state)
    assert_sound(audit, ("exchange", "scan", "release", "topup"))


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_als_certificates(monkeypatch, dataset, gamma):
    audit = CertificateAudit().install(monkeypatch)
    for seed in SCENARIO_SEEDS:
        for start in starts(audit_instance(dataset, gamma, seed)):
            advertiser_driven_local_search(start, MIN_IMPROVEMENT)
    assert_sound(audit, ("pair",))


def test_audit_sees_a_wrong_certificate(monkeypatch):
    """The audit itself fails loudly: a planner that clears every row is
    caught at the first row the rescan oracle can still improve."""
    from repro.algorithms.screen import ScreenRoundPlanner

    audit = CertificateAudit()
    monkeypatch.setattr(
        ScreenRoundPlanner, "lookup", lambda self, a, p, billboards: (False, None)
    )
    monkeypatch.setattr(ScreenRoundPlanner, "clear_run", lambda self, a, p, b: (0, []))
    audit.install(monkeypatch)
    instance = audit_instance("nyc", 0.5, 5)
    billboard_driven_local_search(random_allocation(instance, seed=3), MIN_IMPROVEMENT)
    assert any(kind == "exchange" for kind, *_ in audit.violations)
