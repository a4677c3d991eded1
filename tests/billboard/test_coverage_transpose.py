"""The transposed coverage index: trajectory → covering billboards.

Whatever built the index — explicit coverage lists, the streamed join, an
in-memory corpus, the on-disk cache or a shared-memory attach — trajectory
``t``'s list must be ``{b : t ∈ cov(b)}`` in ascending order, with ``int32``
billboard ids.  The transposed passes (``covering_counts``,
``covering_pairs``) are checked against brute force over the same lists.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.billboard import coverage_build, influence
from repro.billboard.coverage_cache import load, store
from repro.billboard.influence import CoverageIndex
from repro.datasets import generate_city
from repro.datasets.stream import nyc_stream
from repro.obs.registry import _STATE


def expected_lists(index: CoverageIndex) -> list[list[int]]:
    """``{b : t ∈ cov(b)}`` per trajectory, ascending, from the CSR rows."""
    lists: list[list[int]] = [[] for _ in range(index.num_trajectories)]
    for billboard_id in range(index.num_billboards):
        for trajectory_id in index.covered_by(billboard_id).tolist():
            lists[trajectory_id].append(billboard_id)
    return lists


def covering(index: CoverageIndex, trajectory_id: int) -> list[int]:
    billboard_ids, offsets = index.to_transposed_arrays()
    return billboard_ids[offsets[trajectory_id] : offsets[trajectory_id + 1]].tolist()


def assert_transposed(index: CoverageIndex) -> None:
    billboard_ids, offsets = index.to_transposed_arrays()
    assert billboard_ids.dtype == np.int32
    assert len(offsets) == index.num_trajectories + 1
    assert offsets[-1] == len(billboard_ids) == len(index.to_arrays()[0])
    for trajectory_id, expected in enumerate(expected_lists(index)):
        assert covering(index, trajectory_id) == expected


@pytest.fixture(scope="module")
def city():
    return generate_city("nyc", n_billboards=30, n_trajectories=120, seed=4)


class TestEveryConstructor:
    @pytest.mark.parametrize("seed", range(5))
    def test_from_coverage_lists(self, seed):
        rng = np.random.default_rng(seed)
        num_trajectories = int(rng.integers(1, 40))
        lists = [
            rng.integers(0, num_trajectories, size=int(rng.integers(0, 12))).tolist()
            for _ in range(int(rng.integers(1, 20)))
        ]
        index = CoverageIndex.from_coverage_lists(lists, num_trajectories)
        assert_transposed(index)
        for trajectory_id in range(num_trajectories):
            expected = [b for b, ids in enumerate(lists) if trajectory_id in ids]
            assert covering(index, trajectory_id) == expected

    def test_no_coverage_at_all(self):
        index = CoverageIndex.from_coverage_lists([[], []], num_trajectories=3)
        assert_transposed(index)
        assert index.covering_counts(np.arange(3)).tolist() == [0, 0]

    def test_streamed_build(self):
        stream = nyc_stream(40, 300, chunk_size=70, seed=5)
        index = CoverageIndex.from_trajectory_chunks(stream.billboards, stream.chunks())
        assert len(index.to_arrays()[0]) > 0
        assert_transposed(index)

    def test_in_memory_corpus_and_reserved_ids(self, city, monkeypatch):
        monkeypatch.setattr(coverage_build, "CHUNK_TRAJECTORIES", 17)
        index = CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)
        assert_transposed(index)
        reserved = CoverageIndex.from_trajectory_chunks(
            city.billboards,
            coverage_build.corpus_views(city.trajectories, 50),
            num_trajectories=len(city.trajectories) + 9,
        )
        assert_transposed(reserved)
        assert covering(reserved, len(city.trajectories) + 8) == []

    def test_cache_round_trip(self, city, tmp_path):
        index = CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)
        loaded = load(store(index, tmp_path / "entry.npz"))
        assert_transposed(loaded)
        for mine, theirs in zip(index.to_transposed_arrays(), loaded.to_transposed_arrays()):
            assert mine.tobytes() == theirs.tobytes()

    def test_build_transposes_inside_its_span(self, city, monkeypatch):
        stacks = []
        transpose = coverage_build.transpose_csr

        def recording(*args):
            stacks.append(list(_STATE.span_stack))
            return transpose(*args)

        monkeypatch.setattr(coverage_build, "transpose_csr", recording)
        obs.enable()
        try:
            CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)
        finally:
            obs.disable()
            obs.reset()
        assert stacks == [["coverage.build"]]

    def test_attach_adopts_the_shipped_lists(self, city, monkeypatch):
        index = CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)
        with index.to_shared() as shared:

            def refuse(*args):
                raise AssertionError("attach_shared re-sorted the coverage")

            monkeypatch.setattr(influence, "transpose_csr", refuse)
            attached = CoverageIndex.attach_shared(shared.spec)
            assert_transposed(attached)
            billboard_ids, offsets = attached.to_transposed_arrays()
            assert not billboard_ids.flags.writeable
            assert not offsets.flags.writeable
            for mine, theirs in zip(
                index.to_transposed_arrays(), attached.to_transposed_arrays()
            ):
                assert mine.tobytes() == theirs.tobytes()


class TestTransposedPasses:
    @pytest.fixture
    def index(self):
        rng = np.random.default_rng(9)
        lists = [
            rng.choice(50, size=int(rng.integers(0, 20)), replace=False).tolist()
            for _ in range(15)
        ]
        return CoverageIndex.from_coverage_lists(lists, 50)

    def test_covering_counts(self, index):
        rng = np.random.default_rng(1)
        for _ in range(20):
            chosen = rng.choice(50, size=int(rng.integers(0, 50)), replace=False)
            labels = rng.integers(0, 3, size=len(chosen))
            plain = index.covering_counts(chosen)
            split = index.covering_counts(chosen, labels, num_labels=3)
            for billboard_id in range(index.num_billboards):
                covered = set(index.covered_by(billboard_id).tolist())
                assert plain[billboard_id] == len(covered & set(chosen.tolist()))
                for label in range(3):
                    picked = set(chosen[labels == label].tolist())
                    assert split[billboard_id, label] == len(covered & picked)

    def test_covering_pairs(self, index):
        chosen = np.array([7, 3, 41, 0], dtype=np.int64)
        billboards, trajectories = index.covering_pairs(chosen)
        expected = [
            (b, t)
            for t in chosen.tolist()
            for b in range(index.num_billboards)
            if t in index.covered_by(b).tolist()
        ]
        assert list(zip(billboards.tolist(), trajectories.tolist())) == expected

    def test_gathers_count_as_transposed_dispatches(self, index):
        obs.enable()
        try:
            obs.reset()
            index.covering_counts(np.arange(10))
            index.covering_pairs(np.arange(10))
            assert obs.counter_value("influence.dispatch.transposed") == 2
            assert obs.counter_value("influence.dispatch.idarray") == 0
        finally:
            obs.disable()
            obs.reset()
