"""Where chunks are cut never changes the coverage a build emits.

Every build streams chunks through one join against the billboard cell
table; an in-memory corpus goes in fixed-size views.  Because chunks carry
consecutive trajectory-id ranges and the distance predicate is evaluated
per (billboard, point) pair, the CSR must match the one-chunk build bit for
bit — for every chunk size, with and without exact segment geometry.
"""

import numpy as np
import pytest

from repro import obs
from repro.billboard import coverage_build
from repro.billboard.coverage_build import _join_chunk, corpus_views
from repro.billboard.influence import CoverageIndex
from repro.datasets import generate_city
from repro.datasets.stream import nyc_stream
from repro.spatial.grid import CellTable
from repro.trajectory.model import TrajectoryChunk
from tests.oracles import concat_chunks


@pytest.fixture(scope="module")
def city():
    return generate_city("nyc", n_billboards=25, n_trajectories=40, seed=3)


def assert_same_coverage(a: CoverageIndex, b: CoverageIndex) -> None:
    """Same sizes and a byte-identical CSR."""
    assert a.num_billboards == b.num_billboards
    assert a.num_trajectories == b.num_trajectories
    for array_a, array_b in zip(a.to_arrays(), b.to_arrays()):
        assert array_a.dtype == array_b.dtype
        assert array_a.tobytes() == array_b.tobytes()


def count_chunks(build) -> tuple[CoverageIndex, int]:
    """Run ``build()`` with collection on; the index and its chunk count."""
    obs.enable()
    try:
        obs.reset()
        index = build()
        return index, int(obs.counter_value("coverage.chunks"))
    finally:
        obs.disable()
        obs.reset()


class TestChunkedEqualsSingleShot:
    """``CoverageIndex(db)`` equals ``from_trajectory_chunks`` over views of
    ``db`` of any size (40 is the whole corpus, 45 more than it)."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 40, 45])
    def test_constructor_chunking(self, city, chunk_size):
        single = CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)
        chunked = CoverageIndex.from_trajectory_chunks(
            city.billboards, corpus_views(city.trajectories, chunk_size), lambda_m=100.0
        )
        assert_same_coverage(single, chunked)

    @pytest.mark.parametrize("chunk_size", [1, 7, 40, 45])
    def test_exact_segments_chunking(self, city, chunk_size):
        """The per-chunk margin join + exact confirm matches single-shot."""
        single = CoverageIndex(
            city.billboards, city.trajectories, lambda_m=100.0, exact_segments=True
        )
        chunked = CoverageIndex.from_trajectory_chunks(
            city.billboards,
            corpus_views(city.trajectories, chunk_size),
            lambda_m=100.0,
            exact_segments=True,
        )
        assert_same_coverage(single, chunked)

    def test_from_trajectory_chunks_on_plain_pairs(self, city):
        """Chunks made from plain ``(points, counts)`` array copies, not views
        of the corpus, give the in-memory CSR."""
        counts = city.trajectories.point_counts
        bounds = np.concatenate([[0], np.cumsum(counts)])

        def chunks():
            for start in range(0, len(city.trajectories), 7):
                end = min(start + 7, len(city.trajectories))
                points = city.trajectories.all_points[bounds[start] : bounds[end]]
                yield TrajectoryChunk(points.copy(), counts[start:end].copy())

        single = CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)
        streamed = CoverageIndex.from_trajectory_chunks(
            city.billboards, chunks(), lambda_m=100.0
        )
        assert_same_coverage(single, streamed)

    def test_env_default_chunk_size(self, city, monkeypatch):
        """The in-memory build's chunk size is ``CHUNK_TRAJECTORIES`` alone:
        the retired ``REPRO_COVERAGE_CHUNK_SIZE`` variable changes nothing."""
        monkeypatch.setenv("REPRO_COVERAGE_CHUNK_SIZE", "5")

        def build():
            return CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)

        single, one = count_chunks(build)
        monkeypatch.setattr(coverage_build, "CHUNK_TRAJECTORIES", 5)
        chunked, many = count_chunks(build)
        assert (one, many) == (1, 8)
        assert_same_coverage(single, chunked)


class TestBuildCoverage:
    def test_dispatches_in_memory_corpus(self, city, monkeypatch):
        """An in-memory corpus streams through the join in views of
        ``CHUNK_TRAJECTORIES``: patched down to 7, the 40-trip corpus goes
        in 6 chunks and gives the one-chunk CSR byte for byte."""

        def build():
            return CoverageIndex(city.billboards, city.trajectories, lambda_m=100.0)

        single, one = count_chunks(build)
        monkeypatch.setattr(coverage_build, "CHUNK_TRAJECTORIES", 7)
        chunked, many = count_chunks(build)
        assert (one, many) == (1, 6)
        assert_same_coverage(single, chunked)

    def test_dispatches_chunk_iterable(self, city):
        """A one-shot generator of chunks, empty ones among them: only the
        non-empty chunks are joined, and the CSR is the in-memory one."""
        empty = TrajectoryChunk(np.empty((0, 2)), np.empty(0, dtype=np.int64))

        def chunks():
            yield empty
            for view in corpus_views(city.trajectories, 15):
                yield view
                yield empty

        streamed, joined = count_chunks(
            lambda: CoverageIndex.from_trajectory_chunks(city.billboards, chunks())
        )
        assert joined == 3
        assert_same_coverage(CoverageIndex(city.billboards, city.trajectories), streamed)

    def test_reserves_declared_id_space(self, city):
        total = len(city.trajectories)
        index = CoverageIndex.from_trajectory_chunks(
            city.billboards,
            corpus_views(city.trajectories, 7),
            num_trajectories=total + 5,
        )
        assert index.num_trajectories == total + 5

    def test_rejects_understated_corpus_size(self, city):
        with pytest.raises(ValueError, match="num_trajectories"):
            CoverageIndex.from_trajectory_chunks(
                city.billboards,
                corpus_views(city.trajectories, 7),
                num_trajectories=len(city.trajectories) - 1,
            )


class TestNycStream:
    def test_stream_build_matches_single_shot(self):
        stream = nyc_stream(20, 50, chunk_size=12, seed=11)
        streamed = CoverageIndex.from_trajectory_chunks(
            stream.billboards, stream.chunks(), lambda_m=100.0
        )
        merged = concat_chunks(stream.chunks())
        single = CoverageIndex(stream.billboards, merged, lambda_m=100.0)
        assert streamed.num_trajectories == 50
        assert_same_coverage(single, streamed)

    def test_stream_is_restart_deterministic(self):
        first = nyc_stream(20, 50, chunk_size=12, seed=11)
        second = nyc_stream(20, 50, chunk_size=12, seed=11)
        for a, b in zip(first.chunks(), second.chunks()):
            assert np.array_equal(a.all_points, b.all_points)
            assert np.array_equal(a.point_counts, b.point_counts)
        assert np.array_equal(
            first.billboards.locations, second.billboards.locations
        )


class TestJoinChunkBitIdentity:
    """Direct contract test for the shared radius-join step.

    ``_join_chunk`` is the single primitive every build calls; its docstring
    claims chunk boundaries cannot change any (billboard, trajectory)
    coverage decision.  Joining the corpus as one chunk must therefore equal
    the per-chunk joins with local ids shifted back to global ids, merged by
    billboard — for every split point.
    """

    @pytest.mark.parametrize("exact_segments", [False, True])
    @pytest.mark.parametrize("split", [1, 13, 39])
    def test_split_join_matches_single_join(self, city, split, exact_segments):
        locations = city.billboards.locations
        trajectories = city.trajectories
        whole = TrajectoryChunk(trajectories.all_points, trajectories.point_counts)
        single = _join_chunk(
            CellTable(locations, 100.0), whole, 100.0, exact_segments
        )

        counts = trajectories.point_counts
        bounds = np.concatenate([[0], np.cumsum(counts)])
        billboard_parts, id_parts = [], []
        for start, stop in ((0, split), (split, len(trajectories))):
            chunk = TrajectoryChunk(
                trajectories.all_points[bounds[start] : bounds[stop]],
                counts[start:stop],
            )
            billboard_ids, local_ids = _join_chunk(
                CellTable(locations, 100.0), chunk, 100.0, exact_segments
            )
            billboard_parts.append(billboard_ids)
            id_parts.append(local_ids + start)

        billboard_ids = np.concatenate(billboard_parts)
        order = np.lexsort((np.concatenate(id_parts), billboard_ids))
        assert np.array_equal(single[0], billboard_ids[order])
        assert np.array_equal(single[1], np.concatenate(id_parts)[order])
