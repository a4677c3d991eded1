"""Round-fused exchange screens for the BLS sweep loop (DESIGN.md §13).

The sweep's optimistic exchange screen is a pure function of the current
allocation: given an outgoing billboard and its candidate set, interval
arithmetic proves (or fails to prove) that no improving exchange exists
among the candidates, so the exact scan can be skipped.

This module runs the screen at *round* granularity:

* :func:`~repro.algorithms.sweep.round_blocks` builds every remaining
  billboard's candidate set as one dense ``(rows × pool)`` mask per
  certificate group, from the version counters (each row's candidates are
  the ascending ids the scalar changed-candidate / full-scan helpers the
  tests keep as oracles return);
* :func:`round_flags` prices every (row, candidate) cell of a block in one
  vectorized pass.  Each side's post-swap influence is bounded from the
  allocation's maintained gain/loss vectors (:func:`block_intervals`),
  read with row- and column-structured gathers and no coverage gather;
  the bounds lie inside the individual-influence intervals of the scalar
  ``tests/oracles.exchange_screen``, so the block clears every row that
  screen clears, and more;
* :class:`ScreenRoundPlanner` caches one round's verdicts for the sweep and
  drops them after every accepted move, so each verdict is consumed at
  exactly the allocation state a per-billboard screen would have computed
  it at — the accepted move sequence cannot drift.  Rows are screened in
  geometrically growing chunks (1, 2, 4, …) from the visit frontier, capped
  at :data:`SERIAL_CHUNK_CELLS`: move-heavy stretches, where the next
  accepted move would throw eager work away, cost one row per miss, while
  quiescent stretches fuse the whole remaining round within a logarithmic
  number of dispatches.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.algorithms._marginal import _regret_values_unchecked
from repro.algorithms.sweep import round_blocks
from repro.core.allocation import UNASSIGNED

#: Chunk growth stops at this many cells (rows × candidates per row).  The
#: block pass materializes several float64 temporaries of the block's
#: size; past this size they fall out of cache and the
#: screen turns memory-bound (measured at bench scale: unbounded chunks
#: cost ~25% more wall than capped ones), while chunks this size still
#: amortize the numpy call overhead dozens of rows at a time.
SERIAL_CHUNK_CELLS = 1 << 16


def _optimistic_regret(
    payments: np.ndarray,
    demands: np.ndarray,
    gamma: float,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Minimum Eq. 1 regret reachable with achieved influence in ``[lo, hi]``.

    Regret decreases in the unsatisfied branch, drops to 0 exactly at the
    demand, and increases in the excessive branch, so the minimum is at the
    point of the interval closest to the demand.

    All operands broadcast (scalars welcome).  Demand positivity is enforced
    once at :class:`~repro.core.problem.MROAMInstance` construction, not per
    call — this runs inside the exchange screen's hot path.
    """
    shape = np.broadcast_shapes(
        np.shape(payments), np.shape(demands), np.shape(lo), np.shape(hi)
    )
    lo = np.maximum(lo, 0.0, out=np.empty(shape))
    hi = np.maximum(hi, lo, out=np.empty(shape))
    return _closest_regret(payments, demands, gamma, lo, hi)


def _closest_regret(
    payments: np.ndarray,
    demands: np.ndarray,
    gamma: float,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """:func:`_optimistic_regret` for ordered, non-negative bounds
    (``0 <= lo <= hi``) of the full broadcast shape, computed in place:
    ``lo`` and ``hi`` are overwritten.

    Eq. 1 at the point of ``[lo, hi]`` closest to the demand: the
    unsatisfied branch, zeroed at or past the demand, against the excessive
    branch, negative below it.  Each branch keeps the operation order of
    the scalar formula, so every value equals Eq. 1 at that point bit for
    bit (a zero may come out as ``-0.0``).  The block pass is bound by
    passes over ``rows × pool`` arrays, hence no ``where`` and no
    temporaries beyond one mask.
    """
    closest = np.maximum(lo, demands, out=lo)
    np.minimum(closest, hi, out=closest)
    unsatisfied = np.multiply(gamma, closest, out=hi)
    unsatisfied /= demands
    np.subtract(1.0, unsatisfied, out=unsatisfied)
    unsatisfied *= payments
    unsatisfied *= closest < demands
    excessive = np.subtract(closest, demands, out=closest)
    excessive *= payments
    excessive /= demands
    return np.maximum(unsatisfied, excessive, out=excessive)


def block_intervals(
    allocation,
    advertiser_ids: np.ndarray,
    billboard_ids: np.ndarray,
    pool: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bounds on both sides' post-swap influence for every (row, pool) cell.

    Row ``r``'s advertiser ``a`` gives ``o_m = billboard_ids[r]`` and takes
    ``o_n = pool[k]``; if ``o_n`` is owned, its owner ``j`` takes ``o_m``
    back.  From the maintained vectors (``gain``, ``loss``) and influences
    ``v``::

        own:     lo = v_a − loss[a, o_m] + gain[a, o_n]
                 hi = lo + min(loss[a, o_m], loss[a, o_n])
        partner: lo = v_j − loss[j, o_n] + gain[j, o_m]
                 hi = lo + min(loss[j, o_n], loss[j, o_m])

    The exact result adds the overlap ``|cov(o_n) ∩ sole_a(o_m)|`` (resp.
    ``|cov(o_m) ∩ sole_j(o_n)|``) to ``lo``, and the overlap is at most
    both losses, so it always lands in ``[lo, hi]``.

    Returns ``(own_lo, own_hi, owners, partner_lo, partner_hi)``, every
    bound a ``rows × pool`` array of integers held exactly in ``float64``.
    ``owners`` holds each pool billboard's owner (``UNASSIGNED`` when
    free); the partner bounds of free columns are meaningless.  Every
    gather takes whole rows or columns of the vectors: no coverage list is
    read.
    """
    gains = allocation.gains
    losses = allocation.losses
    influences = allocation.influences.astype(np.float64)
    released = losses[advertiser_ids, billboard_ids]
    own_lo = _submatrix(gains, advertiser_ids, pool) + (
        influences[advertiser_ids] - released
    )[:, None]
    own_hi = own_lo + np.minimum(
        _submatrix(losses, advertiser_ids, pool), released[:, None]
    )

    owners = allocation.owners[pool]
    partners = np.where(owners != UNASSIGNED, owners, 0)
    given = losses[partners, pool]
    partner_lo = np.take(gains[:, billboard_ids].T, partners, axis=1) + (
        influences[partners] - given
    )
    partner_hi = partner_lo + np.minimum(
        np.take(losses[:, billboard_ids].T, partners, axis=1), given
    )
    return own_lo, own_hi, owners, partner_lo, partner_hi


def _submatrix(matrix: np.ndarray, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``matrix[rows][:, columns]``, gathering along the axis that copies
    less first: a few rows of a wide pool, or a narrow pool of many rows."""
    if len(rows) * matrix.shape[1] <= matrix.shape[0] * len(columns):
        return matrix[rows][:, columns]
    return matrix[:, columns][rows]


def round_flags(
    allocation,
    advertiser_ids: np.ndarray,
    billboard_ids: np.ndarray,
    pool: np.ndarray,
    changed: np.ndarray,
    min_improvement: float,
) -> np.ndarray:
    """Screen verdicts for one dense block of rows in one pass.

    Row ``r`` exchanges ``billboard_ids[r]`` (owned by ``advertiser_ids[r]``)
    with the candidates ``pool[changed[r]]``.  ``flags[r] is False`` proves
    that every such exchange improves total regret by at most
    ``min_improvement``: both sides' post-swap influences lie in the
    :func:`block_intervals` bounds, so the summed best-case regret drop
    over those intervals upper-bounds the true improvement.  Each interval
    lies inside the individual-influence interval of the scalar
    ``tests/oracles.exchange_screen``, so every row that screen clears is
    cleared here too.
    """
    instance = allocation.instance
    gamma = instance.gamma
    own_lo, own_hi, owners, partner_lo, partner_hi = block_intervals(
        allocation, advertiser_ids, billboard_ids, pool
    )
    regrets = _regret_values_unchecked(
        instance.payments,
        instance.demands,
        gamma,
        allocation.influences.astype(np.float64),
    )
    payments = instance.payments[advertiser_ids]
    demands = instance.demands[advertiser_ids]
    potential = _closest_regret(
        payments[:, None], demands[:, None], gamma, own_lo, own_hi
    )
    np.subtract(regrets[advertiser_ids][:, None], potential, out=potential)
    assigned = owners != UNASSIGNED
    if assigned.any():
        partners = np.where(assigned, owners, 0)
        drop = _closest_regret(
            instance.payments[partners],
            instance.demands[partners],
            gamma,
            partner_lo,
            partner_hi,
        )
        np.subtract(regrets[partners], drop, out=drop)
        drop *= assigned  # a free candidate has no partner side
        potential += drop
    return ((potential > min_improvement) & changed).any(axis=1)


class ScreenRoundPlanner:
    """Round-level verdict cache for the BLS sweep's exchange phase.

    One *round* covers every billboard the phase has yet to visit: the
    current advertiser's remaining list plus all later advertisers' sets.
    Verdicts stay valid while the allocation is unchanged; every accepted
    move calls :meth:`invalidate`, so a verdict is always consumed at the
    allocation state the per-billboard screen would have computed it
    at.  A ``certify_scan`` between misses never invalidates: it stamps only
    the screened billboard's own certificate, which no other row's candidate
    set reads.

    The round is screened lazily in chunks that double per miss (1, 2, 4,
    …), resetting after every invalidation.  This keeps the planner no worse
    than the per-billboard screen when moves land constantly (each chunk is
    then a single frontier row) and lets it fuse the whole remaining
    inventory once moves dry up, which is where the screen wall
    concentrates.

    Moves themselves are never computed here — the sweep replays surviving
    exchanges through the exact restricted scan, which is what keeps the
    move sequence identical to the per-billboard screen's.
    """

    def __init__(
        self,
        allocation,
        state,
        min_improvement: float,
        track: bool,
        eager_rounds: bool = False,
    ) -> None:
        self.allocation = allocation
        self.state = state
        self.min_improvement = min_improvement
        self.track = track
        self.screen_seconds = 0.0
        self._valid = False
        self._chunk_rows = 1
        # Eager rounds: the first screen of the round covers the whole
        # remaining frontier (still bounded by the chunk cell cap) instead
        # of doubling up from one row.  Callers that expect few or no moves —
        # warm quote repairs on a settled state, the read-only settle pass —
        # opt in: nine doubling dispatches collapse into one or two, and the
        # post-move reset below still drops back to single-row chunks when a
        # move does land.  Verdicts are row-wise and chunking-invariant, so
        # this changes wall-clock only.
        self._next_chunk = (1 << 30) if eager_rounds else 1
        self._verdicts: dict[int, bool] = {}
        self._survivor_sets: dict[int, np.ndarray] = {}

    def invalidate(self) -> None:
        """Drop the cached verdicts (call after every accepted move)."""
        self._valid = False
        self._next_chunk = 1  # a move landed: assume more follow nearby

    def lookup(
        self, advertiser_id: int, position: int, billboard_list: list[int]
    ) -> tuple[bool, np.ndarray | None]:
        """Verdict (and, for survivors, the screened candidate ids) of
        ``billboard_list[position]`` owned by ``advertiser_id``.

        A miss — the cache was invalidated by a move, or the visit frontier
        passed the covered prefix — screens the next chunk of the remaining
        round, starting at this row.  Chunks double per consecutive miss and
        reset to one row after an invalidation.
        """
        billboard_id = billboard_list[position]
        if not self._valid:
            self._verdicts = {}
            self._survivor_sets = {}
            self._chunk_rows = self._next_chunk
            self._valid = True
        if billboard_id not in self._verdicts:
            self._compute(advertiser_id, position, billboard_list)
        if not self._verdicts.get(billboard_id, False):
            return False, None
        return True, self._survivor_sets[billboard_id]

    def clear_run(
        self, advertiser_id: int, position: int, billboard_list: list[int]
    ) -> tuple[int, list[int]]:
        """The advertiser's screened-clear run starting at ``position``.

        Returns ``(rows_consumed, billboards_to_certify)``: the longest
        prefix of ``billboard_list[position:]`` the sweep loop would walk
        without scanning — rows no longer owned (skipped without a
        certificate) and rows whose cached verdict is ``False`` (skipped
        *with* one).  Stops at the first row whose verdict is missing or
        ``True``.  No move can have landed inside the run (a move empties
        the cache), so the caller may certify the whole run in one
        vectorized stamp — each row lands on exactly the version the
        per-row loop would have written.
        """
        if not self._valid:
            return 0, []
        verdicts = self._verdicts
        owner_of = self.allocation.owner_of
        consumed = 0
        cleared: list[int] = []
        for billboard_id in billboard_list[position:]:
            if owner_of(billboard_id) != advertiser_id:
                consumed += 1  # moved earlier in this sweep: skip, no stamp
                continue
            if not (billboard_id in verdicts and not verdicts[billboard_id]):
                break
            consumed += 1
            cleared.append(billboard_id)
        return consumed, cleared

    # ------------------------------------------------------------ internals

    def _round_rows(
        self, advertiser_id: int, position: int, billboard_list: list[int], limit: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The next ``limit`` unscreened rows from the visit frontier, in the
        exact order the sweep visits them: the current advertiser's
        remaining (still-owned) list, then each later advertiser's sorted
        set."""
        allocation = self.allocation
        advertisers: list[int] = []
        billboards: list[int] = []
        for candidate in billboard_list[position:]:
            if len(billboards) >= limit:
                break
            if allocation.owner_of(candidate) == advertiser_id:
                advertisers.append(advertiser_id)
                billboards.append(candidate)
        later = advertiser_id + 1
        while len(billboards) < limit and later < allocation.instance.num_advertisers:
            for candidate in sorted(allocation.billboards_of(later)):
                if len(billboards) >= limit:
                    break
                advertisers.append(later)
                billboards.append(candidate)
            later += 1
        return (
            np.asarray(advertisers, dtype=np.int64),
            np.asarray(billboards, dtype=np.int64),
        )

    def _row_width(self) -> int:
        """Estimated candidates per row, for the cache-bound chunk cap.

        A cold state screens full-inventory rows, so the cap
        divides by the inventory as before.  A settled warm state screens
        only the billboards stamped since the oldest owned certificate — a
        handful per row — so the cap can admit proportionally more rows per
        fused round, collapsing a whole warm sweep into one or two screen
        calls.  Purely a chunking heuristic: verdicts are computed row-wise
        and are chunking-invariant, so this changes wall-clock only.
        """
        allocation = self.allocation
        inventory = allocation.instance.num_billboards
        state = self.state
        owners = allocation.owners
        assigned = owners != UNASSIGNED
        if not assigned.any():
            return inventory
        # The certificate floor is taken over rows that will actually screen
        # restricted; own-side-stale rows (owner moved since certification,
        # or never certified) take the full mask whatever the floor says,
        # and their billboards count into the width below via their fresh
        # stamps instead.
        owned = np.nonzero(assigned)[0]
        cert = state.scan_version[owned]
        current = (cert > 0) & (state.advertiser_version[owners[owned]] <= cert)
        if not current.any():
            return inventory
        floor = int(cert[current].min())
        stamp = np.where(
            assigned,
            state.advertiser_version[np.where(assigned, owners, 0)],
            state.freed_version,
        )
        return max(int((stamp > floor).sum()), 1)

    def _compute(
        self, advertiser_id: int, position: int, billboard_list: list[int]
    ) -> None:
        started = time.perf_counter() if self.track else 0.0  # repro-lint: ignore[determinism] telemetry-only clock
        limit = min(
            self._chunk_rows,
            max(1, SERIAL_CHUNK_CELLS // max(self._row_width(), 1)),
        )
        advertiser_ids, billboard_ids = self._round_rows(
            advertiser_id, position, billboard_list, limit
        )
        self._chunk_rows = limit * 2
        obs.counter_add("bls.screen.rounds")
        if len(billboard_ids) == 0:
            if self.track:
                self.screen_seconds += time.perf_counter() - started  # repro-lint: ignore[determinism] telemetry-only clock
            return
        certified = self.state.round_certificates(advertiser_ids, billboard_ids)
        flags, survivors = self._screen_round(advertiser_ids, billboard_ids, certified)
        obs.counter_add("bls.screen.rows", len(billboard_ids))
        obs.counter_add("bls.screen.survivors", len(survivors))
        self._verdicts.update(
            zip((int(b) for b in billboard_ids), flags.tolist())
        )
        self._survivor_sets.update(survivors)
        if self.track:
            self.screen_seconds += time.perf_counter() - started  # repro-lint: ignore[determinism] telemetry-only clock

    def _screen_round(
        self,
        advertiser_ids: np.ndarray,
        billboard_ids: np.ndarray,
        certified: np.ndarray,
    ) -> tuple[np.ndarray, dict]:
        allocation = self.allocation
        state = self.state
        flags = np.zeros(len(billboard_ids), dtype=bool)
        survivors = {}
        for rows, pool, changed in round_blocks(
            allocation.owners,
            advertiser_ids,
            billboard_ids,
            certified,
            state.advertiser_version,
            state.freed_version,
        ):
            block = round_flags(
                allocation,
                advertiser_ids[rows],
                billboard_ids[rows],
                pool,
                changed,
                self.min_improvement,
            )
            flags[rows] = block
            for r in np.flatnonzero(block):
                survivors[int(billboard_ids[rows[r]])] = pool[changed[r]]
        return flags, survivors
