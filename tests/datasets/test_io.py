"""Round-trip tests for city persistence."""

import numpy as np
import pytest

from repro.billboard.influence import CoverageIndex
from repro.datasets.io import iter_trajectory_chunks, load_city, save_city
from repro.datasets.nyc import generate_nyc
from repro.trajectory.model import TrajectoryChunk


def test_round_trip(tmp_path):
    city = generate_nyc(n_billboards=15, n_trajectories=30, seed=2)
    directory = save_city(city, tmp_path / "nyc_small")
    loaded = load_city(directory, name="NYC")

    assert len(loaded.billboards) == len(city.billboards)
    assert len(loaded.trajectories) == len(city.trajectories)
    assert np.allclose(
        loaded.billboards.locations, city.billboards.locations, atol=1e-3
    )
    for trajectory_id in range(len(city.trajectories)):
        assert np.allclose(
            loaded.trajectories.points_of(trajectory_id),
            city.trajectories.points_of(trajectory_id),
            atol=1e-3,
        )
    assert np.allclose(
        loaded.trajectories.travel_times, city.trajectories.travel_times, atol=1e-3
    )


def test_round_trip_preserves_coverage(tmp_path):
    city = generate_nyc(n_billboards=15, n_trajectories=30, seed=4)
    loaded = load_city(save_city(city, tmp_path / "city"))
    original = city.coverage(100.0)
    restored = loaded.coverage(100.0)
    for billboard_id in range(len(city.billboards)):
        assert np.array_equal(
            original.covered_by(billboard_id), restored.covered_by(billboard_id)
        )


def test_default_name_is_directory(tmp_path):
    city = generate_nyc(n_billboards=5, n_trajectories=5, seed=0)
    loaded = load_city(save_city(city, tmp_path / "mytown"))
    assert loaded.name == "mytown"


def test_labels_round_trip(tmp_path):
    from repro.datasets.sg import generate_sg

    city = generate_sg(n_billboards=40, n_trajectories=10, seed=1)
    loaded = load_city(save_city(city, tmp_path / "sg"))
    assert loaded.billboards[0].label == city.billboards[0].label


@pytest.mark.parametrize("chunk_size", [1, 7, 30, 40])
def test_iter_trajectory_chunks_round_trip(tmp_path, chunk_size):
    """Streamed chunks reassemble the saved corpus exactly, and feed the
    streaming coverage build bit-identically to the in-memory load."""
    city = generate_nyc(n_billboards=10, n_trajectories=30, seed=6)
    directory = save_city(city, tmp_path / "streamed")
    loaded = load_city(directory)

    chunks = list(iter_trajectory_chunks(directory, chunk_size))
    assert all(isinstance(chunk, TrajectoryChunk) for chunk in chunks)
    assert all(len(chunk) <= chunk_size for chunk in chunks)
    assert np.array_equal(
        np.concatenate([chunk.point_counts for chunk in chunks]),
        loaded.trajectories.point_counts,
    )
    assert np.allclose(
        np.concatenate([chunk.all_points for chunk in chunks]),
        loaded.trajectories.all_points,
        atol=1e-3,
    )

    streamed = CoverageIndex.from_trajectory_chunks(
        loaded.billboards, iter_trajectory_chunks(directory, chunk_size)
    )
    single = CoverageIndex(loaded.billboards, loaded.trajectories)
    for billboard_id in range(len(loaded.billboards)):
        assert np.array_equal(
            streamed.covered_by(billboard_id), single.covered_by(billboard_id)
        )


def test_iter_trajectory_chunks_rejects_scrambled_ids(tmp_path):
    city = generate_nyc(n_billboards=5, n_trajectories=5, seed=0)
    directory = save_city(city, tmp_path / "bad_stream")
    trajectory_file = directory / "trajectories.csv"
    lines = trajectory_file.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    trajectory_file.write_text("\n".join([header] + rows[::-1]) + "\n")
    with pytest.raises(ValueError, match="dense"):
        list(iter_trajectory_chunks(directory, 2))


def test_load_rejects_scrambled_ids(tmp_path):
    city = generate_nyc(n_billboards=5, n_trajectories=5, seed=0)
    directory = save_city(city, tmp_path / "bad")
    billboard_file = directory / "billboards.csv"
    lines = billboard_file.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    billboard_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="dense"):
        load_city(directory)
