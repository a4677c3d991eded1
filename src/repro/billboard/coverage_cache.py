"""Content-keyed on-disk cache for :class:`CoverageIndex`.

Building coverage is the dominant fixed cost of every experiment: a radius
join of the whole inventory against millions of trajectory points.  The join
is a pure function of (billboard locations, trajectory points, λ, meet-test
mode), so its result can be cached on disk keyed by a fingerprint of exactly
those inputs.  A sweep then recomputes coverage for an unchanged (city, λ)
cell at most once *ever* — across processes, workers, and runs.

The cache lives in the directory named by the ``REPRO_COVERAGE_CACHE``
environment variable (or an explicit ``cache_dir`` argument); when neither is
set, caching is disabled and :func:`get_or_build` degrades to a plain build.
Entries are ``npz`` files holding the CSR serialization of the covered-id
arrays; writes are atomic (temp file + rename) so concurrent workers can
share one cache directory safely.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from repro import env, obs
from repro.billboard.influence import CoverageIndex
from repro.billboard.model import BillboardDB
from repro.trajectory.model import TrajectoryDB

#: Environment variable naming the cache directory (unset = caching off).
CACHE_ENV = env.COVERAGE_CACHE.name

#: Bumped whenever the meet-test semantics or the file layout change, so a
#: stale cache can never leak wrong coverage into an experiment.  v3 dropped
#: the packed-bitmap budget / storage mode that v2 added to the content key.
_FORMAT_VERSION = 3


def resolve_cache_dir(cache_dir: str | os.PathLike | None = None) -> Path | None:
    """The effective cache directory: explicit argument, else environment."""
    if cache_dir is not None:
        return Path(cache_dir)
    from_env = env.COVERAGE_CACHE.raw()
    return Path(from_env) if from_env else None


def coverage_fingerprint(
    billboards: BillboardDB,
    trajectories: TrajectoryDB,
    lambda_m: float,
    exact_segments: bool = False,
) -> str:
    """Hex digest identifying one coverage computation's exact inputs."""
    digest = hashlib.sha256()
    digest.update(f"repro-coverage-v{_FORMAT_VERSION}".encode())
    digest.update(np.float64(lambda_m).tobytes())
    digest.update(b"exact" if exact_segments else b"sampled")
    digest.update(np.int64(len(billboards)).tobytes())
    digest.update(np.int64(len(trajectories)).tobytes())
    digest.update(np.ascontiguousarray(billboards.locations).tobytes())
    digest.update(np.ascontiguousarray(trajectories.point_counts).tobytes())
    digest.update(np.ascontiguousarray(trajectories.all_points).tobytes())
    return digest.hexdigest()


def cache_path(cache_dir: str | os.PathLike, fingerprint: str) -> Path:
    return Path(cache_dir) / f"coverage-{fingerprint}.npz"


def store(index: CoverageIndex, path: str | os.PathLike) -> Path:
    """Persist one index at ``path`` (atomic replace; parent dirs created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    flat_ids, offsets = index.to_arrays()
    handle, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem, suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            np.savez_compressed(
                stream,
                version=np.int64(_FORMAT_VERSION),
                flat_ids=flat_ids,
                offsets=offsets,
                num_trajectories=np.int64(index.num_trajectories),
                lambda_m=np.float64(index.lambda_m),
            )
        os.replace(temp_name, path)
    except BaseException:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
        raise
    return path


def load(path: str | os.PathLike) -> CoverageIndex | None:
    """Load a cached index, or ``None`` if absent/unreadable/stale."""
    path = Path(path)
    if not path.is_file():
        return None
    try:
        with np.load(path) as archive:
            if int(archive["version"]) != _FORMAT_VERSION:
                obs.counter_add("coverage_cache.corrupt")
                return None
            return CoverageIndex.from_flat_arrays(
                archive["flat_ids"],
                archive["offsets"],
                num_trajectories=int(archive["num_trajectories"]),
                lambda_m=float(archive["lambda_m"]),
            )
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
        obs.counter_add("coverage_cache.corrupt")
        return None


def get_or_build(
    billboards: BillboardDB,
    trajectories: TrajectoryDB,
    lambda_m: float = 100.0,
    exact_segments: bool = False,
    cache_dir: str | os.PathLike | None = None,
    chunk_size: int | None = None,
) -> CoverageIndex:
    """Load the coverage index from cache, building (and storing) on a miss.

    With no cache directory configured this is exactly a
    :class:`CoverageIndex` construction.
    """
    directory = resolve_cache_dir(cache_dir)
    if directory is None:
        return CoverageIndex(
            billboards,
            trajectories,
            lambda_m=lambda_m,
            exact_segments=exact_segments,
            chunk_size=chunk_size,
        )
    fingerprint = coverage_fingerprint(billboards, trajectories, lambda_m, exact_segments)
    path = cache_path(directory, fingerprint)
    with obs.span("coverage_cache.get_or_build", fingerprint=fingerprint[:12]):
        cached = load(path)
        if cached is not None:
            obs.counter_add("coverage_cache.hit")
            return cached
        obs.counter_add("coverage_cache.miss")
        index = CoverageIndex(
            billboards,
            trajectories,
            lambda_m=lambda_m,
            exact_segments=exact_segments,
            chunk_size=chunk_size,
        )
        try:
            store(index, path)
        except OSError:
            # An unwritable cache location must not fail the experiment.
            obs.counter_add("coverage_cache.write_failure")
            obs.get_logger("repro.billboard.coverage_cache").warning(
                "coverage cache write failed for %s (continuing uncached)", path
            )
    return index
