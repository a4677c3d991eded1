"""Dirty-set bookkeeping for the local-search sweeps.

Classic local-search engineering (don't-look bits / dirty-candidate lists):
after an accepted move, only billboards owned by the affected advertisers —
plus any billboard that was freed — can see a different move delta, so a
sweep needs to re-examine only those.  The state objects here track *which*
scans are provably still valid via monotone version counters:

* every accepted move bumps a global ``version`` and stamps it onto the
  advertisers (and freed billboards) it touched;
* a scan that comes back empty stamps the current version onto the scanned
  billboard (or pair) as a *certificate*;
* a later scan may be skipped, or restricted to the candidates whose stamp
  is newer than the certificate, because every unchanged candidate was
  already proven non-improving at certification time.

The sweeps built on top (``bls.py``, ``als.py``) still run one final
unrestricted sweep before declaring local optimality, so Theorem 2's
``(1+r)``-local-maximum guarantee never rests on this bookkeeping — the
certificates only let the intermediate sweeps skip provably dead work.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.allocation import UNASSIGNED


class BillboardSweepState:
    """Version counters for the billboard-driven (BLS) sweep.

    ``advertiser_version[a]`` — version of the last accepted move that changed
    advertiser ``a``'s set (so any exchange involving one of its billboards,
    on either side, may now price differently).

    ``freed_version[b]`` — version at which billboard ``b`` last returned to
    the free pool; consulted only while ``b`` is unassigned.

    ``scan_version[b]`` — certificate: the version at which a full candidate
    scan for ``b`` (as the outgoing billboard) last came back empty; 0 means
    never certified.

    ``release_version[a]`` — certificate for advertiser ``a``'s release pass
    (move family 3), which depends only on ``a``'s own set.
    """

    def __init__(self, num_advertisers: int, num_billboards: int) -> None:
        self.version = 1
        self.advertiser_version = np.ones(num_advertisers, dtype=np.int64)
        self.freed_version = np.ones(num_billboards, dtype=np.int64)
        self.scan_version = np.zeros(num_billboards, dtype=np.int64)
        self.release_version = np.zeros(num_advertisers, dtype=np.int64)
        # Certificate for the greedy top-up over the free pool: greedy is
        # deterministic in the allocation state, so a rejected top-up stays
        # rejected until the next accepted move bumps ``version``.
        self.topup_version = 0

    def mark_move(self, advertisers=(), freed=()) -> None:
        """Record one accepted move touching ``advertisers`` / freeing ``freed``."""
        self.version += 1
        obs.counter_add("sweep.moves")
        for advertiser_id in advertisers:
            self.advertiser_version[advertiser_id] = self.version
        for billboard_id in freed:
            self.freed_version[billboard_id] = self.version

    def certify_scan(self, billboard_id: int) -> None:
        self.scan_version[billboard_id] = self.version

    def certify_scans(self, billboard_ids) -> None:
        """Vectorized :meth:`certify_scan` for a screened-clear run of rows.

        Sound whenever no move landed between the rows' screen verdicts and
        this call — every row then certifies at the same version a per-row
        loop would have stamped.
        """
        self.scan_version[np.asarray(billboard_ids, dtype=np.int64)] = self.version

    def round_certificates(
        self,
        advertiser_ids: np.ndarray,
        billboard_ids: np.ndarray,
        verifying: bool,
    ) -> np.ndarray:
        """Effective scan certificates for a whole screen round at once.

        ``-1`` marks rows that must take the full candidate mask — verify
        sweeps, never-certified rows, and rows whose own advertiser moved
        since the certificate (the whole candidate set must then be
        rescanned); other rows carry their billboard's certified scan
        version, the value candidate stamps are compared against.  Feed the
        result to :func:`round_candidates`.
        """
        if verifying:
            return np.full(len(billboard_ids), -1, dtype=np.int64)
        certified = self.scan_version[billboard_ids]
        stale = (certified == 0) | (
            self.advertiser_version[advertiser_ids] > certified
        )
        return np.where(stale, np.int64(-1), certified)

    def release_pass_clean(self, advertiser_id: int) -> bool:
        return bool(
            self.advertiser_version[advertiser_id]
            <= self.release_version[advertiser_id]
        )

    def certify_release_pass(self, advertiser_id: int) -> None:
        self.release_version[advertiser_id] = self.version

    def topup_clean(self) -> bool:
        """True when a greedy top-up was already priced non-improving against
        the current allocation state (nothing moved since)."""
        return self.version <= self.topup_version

    def certify_topup(self) -> None:
        self.topup_version = self.version

    # -------------------------------------------------- warm-state lifecycle
    #
    # The incremental quoting engine keeps one state object alive across
    # quotes: certificates earned while pricing one proposal stay valid for
    # the next, because a rejected quote restores the allocation to exactly
    # the snapshot the certificates were earned against (DESIGN.md §15).

    def snapshot(self) -> tuple:
        """Opaque copy of every counter, for :meth:`restore`."""
        return (
            self.version,
            self.advertiser_version.copy(),
            self.freed_version.copy(),
            self.scan_version.copy(),
            self.release_version.copy(),
            self.topup_version,
        )

    def restore(self, snapshot: tuple) -> None:
        """Reset all counters to a prior :meth:`snapshot`.

        The snapshot arrays are copied in — a snapshot may be restored more
        than once (priced proposal committed later), so the stored arrays
        must never alias the live ones.
        """
        (
            self.version,
            advertiser_version,
            freed_version,
            scan_version,
            release_version,
            self.topup_version,
        ) = snapshot
        self.advertiser_version = advertiser_version.copy()
        self.freed_version = freed_version.copy()
        self.scan_version = scan_version.copy()
        self.release_version = release_version.copy()

    def grow_advertisers(self, num_advertisers: int) -> None:
        """Extend the per-advertiser counters for appended advertiser slots.

        New rows are stamped with the *current* version: a fresh slot has no
        certified scans against it, so every certificate predating it must
        treat its billboards as changed candidates.
        """
        added = num_advertisers - len(self.advertiser_version)
        if added < 0:
            raise ValueError("cannot shrink the advertiser axis")
        if added:
            self.advertiser_version = np.concatenate(
                [
                    self.advertiser_version,
                    np.full(added, self.version, dtype=np.int64),
                ]
            )
            self.release_version = np.concatenate(
                [self.release_version, np.zeros(added, dtype=np.int64)]
            )


def round_candidates(
    owners: np.ndarray,
    advertiser_ids: np.ndarray,
    billboard_ids: np.ndarray,
    certified: np.ndarray,
    advertiser_version: np.ndarray,
    freed_version: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every row's exchange-candidate ids, concatenated, plus per-row lengths.

    A row's candidates are the exchange partners whose pairing with its
    billboard may price differently than at the row's certified scan:
    assigned candidates whose owner moved since the certificate, free
    candidates freed since.  The billboard itself and its own advertiser's
    billboards are excluded, mirroring the full scan's candidate mask.

    One broadcasted ``(rows × billboards)`` comparison covers the whole
    round; each row's slice is bit-identical to the scalar per-billboard
    helper the tests keep as the oracle, because the stamp vector, the
    exclusion masks, and row-major ``nonzero`` ordering reproduce the same
    ascending candidate ids.  A ``certified`` entry of ``-1`` (see
    :meth:`BillboardSweepState.round_certificates`) turns its row into the
    full-scan mask — every stamp is ``>= 1``, so only the exclusions bite.
    """
    assigned = owners != UNASSIGNED
    stamp = np.where(
        assigned, advertiser_version[np.where(assigned, owners, 0)], freed_version
    )
    num_rows = len(billboard_ids)
    full_mask = certified < 0
    if not (full_mask.any() and not full_mask.all()):
        return _group_candidates(
            owners, stamp, advertiser_ids, billboard_ids, certified
        )
    # Mixed round: full-mask rows (own side stale, every stamp qualifies)
    # would drag the certified floor to -1 and force the dense broadcast for
    # everyone, so the two populations are screened separately and stitched
    # back in original row order.  Each row's slice is computed by exactly
    # the same comparison either way, so the merge is pure bookkeeping.
    restricted = ~full_mask
    flat_full, lengths_full = _group_candidates(
        owners,
        stamp,
        advertiser_ids[full_mask],
        billboard_ids[full_mask],
        certified[full_mask],
    )
    flat_rest, lengths_rest = _group_candidates(
        owners,
        stamp,
        advertiser_ids[restricted],
        billboard_ids[restricted],
        certified[restricted],
    )
    lengths = np.zeros(num_rows, dtype=np.int64)
    index_full = np.nonzero(full_mask)[0]
    index_rest = np.nonzero(restricted)[0]
    lengths[index_full] = lengths_full
    lengths[index_rest] = lengths_rest
    ends = np.cumsum(lengths)
    starts = ends - lengths
    flat = np.empty(int(ends[-1]) if num_rows else 0, dtype=np.int64)
    for index, group_flat, group_lengths in (
        (index_full, flat_full, lengths_full),
        (index_rest, flat_rest, lengths_rest),
    ):
        if len(group_flat):
            group_ends = np.cumsum(group_lengths)
            group_starts = group_ends - group_lengths
            positions = np.repeat(
                starts[index] - group_starts, group_lengths
            ) + np.arange(len(group_flat))
            flat[positions] = group_flat
    return flat, lengths


def _group_candidates(
    owners: np.ndarray,
    stamp: np.ndarray,
    advertiser_ids: np.ndarray,
    billboard_ids: np.ndarray,
    certified: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`round_candidates` for rows sharing one certificate regime.

    Columns whose stamp is at or below every row's certificate can never be
    marked changed, so the broadcast only needs the remaining pool.  On a
    settled warm state the pool is the handful of billboards touched since
    the oldest certificate in the group; on a cold group (``certified`` all
    ``-1``) it degenerates to the full inventory and the dense path is taken
    unchanged.
    """
    num_rows = len(billboard_ids)
    pool = np.nonzero(stamp > certified.min())[0]
    if len(pool) == len(stamp):
        changed = stamp[None, :] > certified[:, None]
        changed[owners[None, :] == advertiser_ids[:, None]] = False
        changed[np.arange(num_rows), billboard_ids] = False
        rows, cols = np.nonzero(changed)
        lengths = np.bincount(rows, minlength=num_rows).astype(np.int64)
        return cols, lengths
    if len(pool) == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.zeros(num_rows, dtype=np.int64),
        )
    changed = stamp[pool][None, :] > certified[:, None]
    changed[owners[pool][None, :] == advertiser_ids[:, None]] = False
    position = np.searchsorted(pool, billboard_ids)
    hit = position < len(pool)
    hit[hit] = pool[position[hit]] == billboard_ids[hit]
    changed[np.nonzero(hit)[0], position[hit]] = False
    rows, cols = np.nonzero(changed)
    lengths = np.bincount(rows, minlength=num_rows).astype(np.int64)
    return pool[cols], lengths


class PairSweepState:
    """Version counters for the advertiser-pair (ALS) sweep.

    ``delta_exchange_sets(a, b)`` depends only on the two advertisers'
    influence scalars, so a pair is clean exactly when neither advertiser
    moved since the pair was last priced non-improving.
    """

    def __init__(self, num_advertisers: int) -> None:
        self.version = 1
        self.advertiser_version = np.ones(num_advertisers, dtype=np.int64)
        self.pair_version = np.zeros((num_advertisers, num_advertisers), dtype=np.int64)

    def mark_exchange(self, advertiser_a: int, advertiser_b: int) -> None:
        self.version += 1
        self.advertiser_version[advertiser_a] = self.version
        self.advertiser_version[advertiser_b] = self.version

    def dirty_partners(self, advertiser_a: int, start: int) -> np.ndarray:
        """Partners ``b ≥ start`` whose pair ``(a, b)`` is *not* certified
        clean (either advertiser moved since the pair was last priced
        non-improving), as one vectorized row filter.
        Cleanliness is evaluated at call time, so callers must re-query the
        remaining suffix after accepting an exchange in the row.
        """
        certified = self.pair_version[advertiser_a, start:]
        stale = (self.advertiser_version[advertiser_a] > certified) | (
            self.advertiser_version[start:] > certified
        )
        return np.nonzero(stale)[0] + start

    def certify_pair(self, advertiser_a: int, advertiser_b: int) -> None:
        self.pair_version[advertiser_a, advertiser_b] = self.version
