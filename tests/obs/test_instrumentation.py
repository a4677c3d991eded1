"""Instrumentation-site tests: influence dispatch, cache, grid."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.billboard import coverage_cache
from repro.billboard.influence import CoverageIndex
from repro.datasets import generate_nyc

COVERAGE = [[0, 1, 2], [2, 3], [3, 4, 5], [0, 5], [6]]


def make_index() -> CoverageIndex:
    return CoverageIndex.from_coverage_lists(COVERAGE, num_trajectories=7)


class TestInfluenceDispatch:
    def test_id_kernel_dispatches_idarray(self):
        obs.enable()
        index = make_index()
        assert index.influence_of_set([0, 1, 2]) == 6
        assert obs.counter_value("influence.dispatch.idarray") == 1
        rows = obs.get_registry().histograms["influence.popcount.rows"]
        assert rows.count == 1 and rows.max == 3

    def test_batch_pass_counts_one_dispatch(self):
        obs.enable()
        index = make_index()
        index.batch_add_gains(np.zeros(index.num_trajectories, dtype=np.int64))
        assert obs.counter_value("influence.dispatch.idarray") == 1


class TestCoverageCacheCounters:
    @pytest.fixture(scope="class")
    def city(self):
        return generate_nyc(n_billboards=20, n_trajectories=120, seed=5)

    def test_miss_then_hit(self, city, tmp_path):
        obs.enable()
        kwargs = dict(lambda_m=100.0, cache_dir=tmp_path)
        cold = coverage_cache.get_or_build(city.billboards, city.trajectories, **kwargs)
        warm = coverage_cache.get_or_build(city.billboards, city.trajectories, **kwargs)
        assert obs.counter_value("coverage_cache.miss") == 1
        assert obs.counter_value("coverage_cache.hit") == 1
        assert warm.to_arrays()[0].tolist() == cold.to_arrays()[0].tolist()
        spans = obs.get_registry().histograms["span.coverage_cache.get_or_build"]
        assert spans.count == 2

    def test_corrupt_entry_counts_and_rebuilds(self, city, tmp_path):
        obs.enable()
        fingerprint = coverage_cache.coverage_fingerprint(
            city.billboards, city.trajectories, 100.0
        )
        path = coverage_cache.cache_path(tmp_path, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz archive")
        index = coverage_cache.get_or_build(
            city.billboards, city.trajectories, lambda_m=100.0, cache_dir=tmp_path
        )
        assert index.num_billboards == 20
        assert obs.counter_value("coverage_cache.corrupt") == 1
        assert obs.counter_value("coverage_cache.miss") == 1
        # The rebuild replaced the garbage entry: the next lookup hits.
        coverage_cache.get_or_build(
            city.billboards, city.trajectories, lambda_m=100.0, cache_dir=tmp_path
        )
        assert obs.counter_value("coverage_cache.hit") == 1


class TestGridJoinCounters:
    def test_candidate_and_matched_pairs(self):
        obs.enable()
        city = generate_nyc(n_billboards=20, n_trajectories=120, seed=5)
        CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)
        candidates = obs.counter_value("grid.join.candidate_pairs")
        matched = obs.counter_value("grid.join.matched_pairs")
        assert candidates >= matched > 0
        assert obs.counter_value("coverage.builds") == 1
        assert obs.get_registry().histograms["span.coverage.build"].count == 1
