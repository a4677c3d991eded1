"""Tiered, row-sharded storage for the packed coverage bitmap.

PR 1's bitmap kernel kept the whole ``(num_billboards, words)`` ``uint64``
matrix in one RAM array and silently fell back to the id-array kernel when
the matrix exceeded ``REPRO_BITMAP_BUDGET_MB``.  At the paper's corpus scale
(1.7-2.2 M trajectories) that fallback is exactly where the bitmap kernel
matters most, so the bitmap now lives behind a :class:`BitmapStore` that
splits the matrix into fixed-height *row shards* and backs them with one of
three tiers:

* ``ram`` — one plain ndarray (the PR-1 layout; chosen when the matrix fits
  the budget);
* ``memmap`` — one ``numpy.memmap`` file per shard under a spill directory
  (``REPRO_BITMAP_SPILL_DIR``, else a ``bitmap-shards/`` folder inside
  ``REPRO_COVERAGE_CACHE``, else a private temp dir), chosen when the matrix
  exceeds the budget — queries then stream shard-sized working sets through
  the page cache instead of giving up the kernel;
* ``shm`` — shards attached from ``multiprocessing.shared_memory`` segments
  (what :meth:`CoverageIndex.attach_shared` workers see).

Every tier serves the same four access patterns the kernels need — single
row, restricted row gather, full-matrix masked popcount, union popcount —
and all tiers are bit-identical by construction (the shards hold the same
words).  Popcounts run on numpy's ``bitwise_count`` (:mod:`repro.utils.bitset`).

The store mode is picked by ``resolve_storage`` from the ``bitmap_storage``
argument or the ``REPRO_BITMAP_STORAGE`` environment variable:

* ``auto`` (default) — ram within budget, memmap spill past it (only when a
  spill directory is configured), id-array fallback otherwise;
* ``ram`` / ``memmap`` — force that tier (``ram`` still honours the budget);
* ``none`` — disable the bitmap kernel entirely (same as budget 0).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import uuid
import weakref
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro import env
from repro.utils import bitset

#: Environment variable selecting the bitmap storage mode.
STORAGE_ENV = env.BITMAP_STORAGE.name

#: Environment variable naming the memmap spill directory.
SPILL_DIR_ENV = env.BITMAP_SPILL_DIR.name

STORAGE_MODES = ("auto", "ram", "memmap", "none")

#: Target bytes per memmap shard; rows are sharded so one shard's working
#: set (the ``shard & mask`` pass) stays around this size.
DEFAULT_SHARD_BYTES = 64 * 1024 * 1024


def resolve_storage(storage: str | None) -> str:
    """Effective storage mode: explicit argument, else environment, else auto."""
    if storage is None:
        storage = env.BITMAP_STORAGE.raw() or "auto"
    storage = storage.strip().lower()
    if storage not in STORAGE_MODES:
        raise ValueError(
            f"bitmap storage must be one of {STORAGE_MODES}, got {storage!r} "
            f"(check the {STORAGE_ENV} environment variable)"
        )
    return storage


def resolve_spill_dir(spill_dir: str | os.PathLike | None = None) -> Path | None:
    """The configured memmap spill directory, or ``None`` when unset.

    Order: explicit argument, ``REPRO_BITMAP_SPILL_DIR``, then a
    ``bitmap-shards/`` folder inside ``REPRO_COVERAGE_CACHE``.
    """
    if spill_dir is not None:
        return Path(spill_dir)
    from_env = env.BITMAP_SPILL_DIR.raw()
    if from_env:
        return Path(from_env)
    cache_dir = env.COVERAGE_CACHE.raw()
    if cache_dir:
        return Path(cache_dir) / "bitmap-shards"
    return None


def rows_per_shard_for(words: int, shard_bytes: int = DEFAULT_SHARD_BYTES) -> int:
    """Shard height giving ~``shard_bytes`` per shard (always >= 1 row)."""
    return max(1, int(shard_bytes) // max(int(words) * 8, 1))


def _cleanup_spill(paths: tuple[str, ...], created_dir: str | None) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - already gone / racing cleanup
            pass
    if created_dir is not None:
        shutil.rmtree(created_dir, ignore_errors=True)


class BitmapStore:
    """Row-sharded packed bitmap with uniform shard height.

    ``shards[k]`` holds rows ``[k * rows_per_shard, ...)``; every shard has
    exactly ``rows_per_shard`` rows except possibly the last.  The backing
    arrays may be plain ndarrays, memmaps, or views over shared-memory
    segments — the kernels only rely on the ndarray interface.
    """

    def __init__(
        self,
        shards: Sequence[np.ndarray],
        rows_per_shard: int,
        num_rows: int,
        words: int,
        tier: str,
        paths: tuple[str, ...] = (),
    ) -> None:
        self._shards = list(shards)
        self.rows_per_shard = int(rows_per_shard)
        self.num_rows = int(num_rows)
        self.words = int(words)
        self.tier = tier
        #: Absolute shard file paths (memmap tier only) — what
        #: :class:`~repro.parallel.shared.SharedCoverage` ships to workers.
        self.paths = tuple(paths)
        self._finalizer = None

    # ------------------------------------------------------------ construction

    @classmethod
    def ram(cls, bitmap: np.ndarray) -> "BitmapStore":
        """Wrap one in-RAM matrix as a single-shard store."""
        rows, words = bitmap.shape
        return cls([bitmap], max(rows, 1), rows, words, "ram")

    @classmethod
    def memmap_create(
        cls,
        num_rows: int,
        words: int,
        directory: str | os.PathLike | None,
        shard_bytes: int = DEFAULT_SHARD_BYTES,
    ) -> "BitmapStore":
        """Create writable memmap shards (fill rows, then :meth:`seal`).

        ``directory=None`` uses a private temp dir.  The shard files (and a
        private temp dir, if one was made) are deleted when the store is
        garbage-collected — they are spill space, not a cache.
        """
        created_dir = None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-bitmap-")
            created_dir = str(directory)
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        rows_per_shard = rows_per_shard_for(words, shard_bytes)
        token = uuid.uuid4().hex[:12]
        shards: list[np.ndarray] = []
        paths: list[str] = []
        for k, start in enumerate(range(0, max(num_rows, 1), rows_per_shard)):
            rows = min(rows_per_shard, num_rows - start) if num_rows else 1
            path = directory / f"bitmap-{token}-shard{k:04d}.u64"
            shard = np.memmap(
                path, dtype=bitset.WORD_DTYPE, mode="w+", shape=(max(rows, 1), max(words, 1))
            )
            shard[:] = 0
            shards.append(shard)
            paths.append(str(path))
        store = cls(shards, rows_per_shard, num_rows, words, "memmap", tuple(paths))
        store._finalizer = weakref.finalize(
            store, _cleanup_spill, tuple(paths), created_dir
        )
        return store

    @classmethod
    def memmap_attach(
        cls,
        paths: Sequence[str],
        rows_per_shard: int,
        num_rows: int,
        words: int,
    ) -> "BitmapStore":
        """Read-only view over another process's sealed shard files.

        Attachers never delete the files — the creating store's finalizer
        owns them (the same creator-owns rule as the shm segments).
        """
        shards = []
        for k, path in enumerate(paths):
            start = k * rows_per_shard
            rows = min(rows_per_shard, num_rows - start)
            shards.append(
                np.memmap(
                    path,
                    dtype=bitset.WORD_DTYPE,
                    mode="r",
                    shape=(max(rows, 1), max(words, 1)),
                )
            )
        return cls(shards, rows_per_shard, num_rows, words, "memmap", tuple(paths))

    @classmethod
    def from_shards(
        cls,
        shards: Sequence[np.ndarray],
        rows_per_shard: int,
        num_rows: int,
        words: int,
        tier: str,
    ) -> "BitmapStore":
        """Wrap already-backed shard arrays (the shm attach path)."""
        return cls(shards, rows_per_shard, num_rows, words, tier)

    def seal(self) -> None:
        """Flush written shards and reopen them read-only (memmap tier)."""
        if self.tier != "memmap":
            return
        for k, shard in enumerate(self._shards):
            if isinstance(shard, np.memmap) and shard.mode != "r":
                shard.flush()
                self._shards[k] = np.memmap(
                    self.paths[k], dtype=bitset.WORD_DTYPE, mode="r", shape=shard.shape
                )

    # ------------------------------------------------------------ row writing

    def set_rows(self, start: int, block: np.ndarray) -> None:
        """Write packed rows ``[start, start + len(block))`` (build phase)."""
        offset = 0
        while offset < len(block):
            shard_id, local = divmod(start + offset, self.rows_per_shard)
            take = min(len(block) - offset, self.rows_per_shard - local)
            self._shards[shard_id][local : local + take] = block[offset : offset + take]
            offset += take

    # ------------------------------------------------------------- row access

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[np.ndarray, ...]:
        """The backing shard arrays, in row order (read-only usage)."""
        return tuple(self._shards)

    def nbytes(self) -> int:
        return self.num_rows * self.words * 8

    def row(self, row_id: int) -> np.ndarray:
        """One packed coverage row (a view into its shard)."""
        shard_id, local = divmod(int(row_id), self.rows_per_shard)
        return self._shards[shard_id][local]

    def blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """``(row_start, shard_array)`` pairs covering all rows in order."""
        for k, shard in enumerate(self._shards):
            yield k * self.rows_per_shard, shard

    def gather(self, row_ids: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Copy the given rows into ``out`` (any order, duplicates allowed)."""
        if len(self._shards) == 1:
            np.take(self._shards[0], row_ids, axis=0, out=out)
            return out
        shard_ids = row_ids // self.rows_per_shard
        local = row_ids - shard_ids * self.rows_per_shard
        for shard_id in np.unique(shard_ids):
            mask = shard_ids == shard_id
            out[mask] = self._shards[shard_id][local[mask]]
        return out

    # ---------------------------------------------------------------- kernels

    def masked_popcounts(self, mask: np.ndarray) -> np.ndarray:
        """``popcount(row & mask)`` for every row — the full-matrix batch pass.

        Streams one shard at a time, so peak extra memory is one shard's
        ``& mask`` temporary.
        """
        out = np.empty(self.num_rows, dtype=np.int64)
        for start, shard in self.blocks():
            stop = min(start + len(shard), self.num_rows)
            masked = np.asarray(shard[: stop - start]) & mask
            out[start:stop] = (
                bitset.popcount_inplace(masked).sum(axis=1).astype(np.int64)
            )
        return out

    def union_popcount(self, row_ids: np.ndarray, block_rows: int = 256) -> int:
        """Popcount of the OR of the given rows (union influence).

        Rows are gathered in bounded blocks so memmap shards never force a
        full-selection temporary.
        """
        if len(row_ids) == 0:
            return 0
        union = np.zeros(self.words, dtype=bitset.WORD_DTYPE)
        scratch = np.empty(
            (min(len(row_ids), block_rows), self.words), dtype=bitset.WORD_DTYPE
        )
        for start in range(0, len(row_ids), block_rows):
            ids = row_ids[start : start + block_rows]
            block = self.gather(ids, scratch[: len(ids)])
            np.bitwise_or(np.bitwise_or.reduce(block, axis=0), union, out=union)
        return bitset.popcount_total(union)


def block_masked_popcounts(block: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``popcount(block[i] & mask)`` per row of an already-gathered block.

    The restricted batch passes call this on their scratch block, which it
    clobbers (AND + in-place popcount, zero extra allocation).
    """
    np.bitwise_and(block, mask, out=block)
    return bitset.popcount_inplace(block).sum(axis=1).astype(np.int64)


def masked_total(row: np.ndarray, mask: np.ndarray) -> int:
    """``popcount(row & mask)`` for one row (the swap-delta terms)."""
    return bitset.popcount_total(row & mask)
