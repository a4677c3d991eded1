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

The sweeps built on top (``bls.py``, ``als.py``) stop at their first sweep
that accepts nothing, so Theorem 2's ``(1+r)``-local-maximum guarantee rests
on every certificate being a proof.  No runtime sweep re-checks them: the
test-only ``tests/oracles.CertificateAudit`` reruns the unrestricted oracle
at every skip, and ``tests/algorithms/test_local_optimality.py`` checks the
end state by brute force (DESIGN.md §9).
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
    ) -> np.ndarray:
        """Effective scan certificates for a whole screen round at once.

        ``-1`` marks rows that must take the full candidate mask —
        never-certified rows, and rows whose own advertiser moved since the
        certificate (the whole candidate set must then be rescanned); other
        rows carry their billboard's certified scan version, the value
        candidate stamps are compared against.  Feed the result to
        :func:`round_blocks`.
        """
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


def round_blocks(
    owners: np.ndarray,
    advertiser_ids: np.ndarray,
    billboard_ids: np.ndarray,
    certified: np.ndarray,
    advertiser_version: np.ndarray,
    freed_version: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every row's exchange candidates, as one dense block per certificate
    group.

    A row's candidates are the exchange partners whose pairing with its
    billboard may price differently than at the row's certified scan:
    assigned candidates whose owner moved since the certificate, free
    candidates freed since.  The billboard itself and its own advertiser's
    billboards are excluded, mirroring the full scan's candidate mask.  A
    ``certified`` entry of ``-1`` (see
    :meth:`BillboardSweepState.round_certificates`) turns its row into the
    full-scan mask — every stamp is ``>= 1``, so only the exclusions bite.

    Returns ``(rows, pool, changed)`` triples: ``rows`` indexes the round's
    rows in the group, ``pool`` holds the ascending billboard ids any of
    them may pair with, and row ``rows[r]``'s candidates are
    ``pool[changed[r]]`` — the same ascending ids the scalar helpers the
    tests keep as oracles return.  Full-mask rows (own side stale) would
    drag a group's certificate floor to ``-1`` and widen its pool to the
    whole inventory, so a mixed round splits into a full-mask group and a
    restricted group.
    """
    if len(billboard_ids) == 0:
        return []
    assigned = owners != UNASSIGNED
    stamp = np.where(
        assigned, advertiser_version[np.where(assigned, owners, 0)], freed_version
    )
    full_mask = certified < 0
    if full_mask.any() and not full_mask.all():
        groups = (np.flatnonzero(full_mask), np.flatnonzero(~full_mask))
    else:
        groups = (np.arange(len(billboard_ids)),)
    blocks = []
    for rows in groups:
        pool, changed = _group_candidates(
            owners, stamp, advertiser_ids[rows], billboard_ids[rows], certified[rows]
        )
        blocks.append((rows, pool, changed))
    return blocks


def _group_candidates(
    owners: np.ndarray,
    stamp: np.ndarray,
    advertiser_ids: np.ndarray,
    billboard_ids: np.ndarray,
    certified: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(pool, changed)`` of :func:`round_blocks` for one certificate group.

    Columns whose stamp is at or below every row's certificate can never be
    marked changed, so the block only needs the remaining pool.  On a
    settled warm state the pool is the handful of billboards touched since
    the oldest certificate in the group; on a cold group (``certified`` all
    ``-1``) it is the full inventory.
    """
    pool = np.flatnonzero(stamp > certified.min())
    changed = stamp[pool][None, :] > certified[:, None]
    changed &= owners[pool][None, :] != advertiser_ids[:, None]
    position = np.searchsorted(pool, billboard_ids)
    hit = position < len(pool)
    hit[hit] = pool[position[hit]] == billboard_ids[hit]
    changed[np.flatnonzero(hit), position[hit]] = False
    return pool, changed


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
