"""Reference implementations the production paths are tested against.

Each function here is a literal, unoptimized form of something the library
computes faster: the rescan-everything BLS and ALS loops of Algorithms 5 and
4, the scalar per-billboard exchange screen and candidate helpers that the
round-fused screen (``repro.algorithms.screen``) replaced, the scalar
``swap_delta`` partner-confirmation loop and the eager kernel-priced greedy
pick that the maintained gain/loss vectors (``repro.core.allocation``)
replaced, the both-legs route synthesis that per-leg evaluation
(``repro.datasets.stream``) replaced, and the grid-over-points radius join
(:class:`GridIndex`) that the billboard cell table
(``repro.spatial.grid.CellTable``) replaced, next to a brute-force join over
every (point, site) pair.
:class:`SetCoverage` re-derives every coverage kernel answer from Python
``set``s, one per billboard, and :class:`CertificateAudit` reruns the
rescan oracles at every certificate-backed skip of the BLS and ALS sweeps.
None of them is imported by ``src/``; they exist so the equivalence tests
compare the production paths against code that skips nothing.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._marginal import _regret_values_unchecked
from repro.algorithms.bls import _emit_stats, _select_partner
from repro.algorithms.greedy_global import synchronous_greedy
from repro.algorithms.screen import _optimistic_regret
from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.moves import delta_exchange_sets, delta_release
from repro.spatial.grid import _expand_slices
from repro.trajectory.model import TrajectoryChunk

# ----------------------------------------------------- candidate sets (BLS)


def all_exchange_candidates(
    owners: np.ndarray, advertiser_id: int, billboard_id: int
) -> np.ndarray:
    """Every legal exchange partner of ``billboard_id`` (the full scan's mask)."""
    mask = owners != advertiser_id
    mask[billboard_id] = False
    return np.nonzero(mask)[0]


def own_side_stale(state, advertiser_id: int, billboard_id: int) -> bool:
    """True when ``billboard_id``'s own advertiser changed since its last
    certified scan (or it was never certified) — the whole candidate set
    must then be rescanned, not just the changed candidates."""
    certified = state.scan_version[billboard_id]
    return bool(certified == 0 or state.advertiser_version[advertiser_id] > certified)


def changed_candidates(
    state, billboard_id: int, owners: np.ndarray, advertiser_id: int
) -> np.ndarray:
    """Exchange partners whose pairing with ``billboard_id`` may price
    differently than at its last certified scan.

    Assigned candidates are stale when their owner moved since the
    certificate; free candidates when they were freed since.  The billboard
    itself and its own advertiser's billboards are excluded, mirroring the
    full scan's candidate mask.
    """
    certified = state.scan_version[billboard_id]
    assigned = owners != UNASSIGNED
    changed = np.empty(len(owners), dtype=bool)
    changed[assigned] = state.advertiser_version[owners[assigned]] > certified
    changed[~assigned] = state.freed_version[~assigned] > certified
    changed[billboard_id] = False
    changed[owners == advertiser_id] = False
    return np.nonzero(changed)[0]


def pair_clean(state, advertiser_a: int, advertiser_b: int) -> bool:
    """Whether ALS pair ``(a, b)`` is certified: neither advertiser moved
    since the pair was last priced non-improving."""
    certified = state.pair_version[advertiser_a, advertiser_b]
    return bool(
        state.advertiser_version[advertiser_a] <= certified
        and state.advertiser_version[advertiser_b] <= certified
    )


# ------------------------------------------------------------ BLS screens


def exchange_screen(
    allocation: Allocation,
    advertiser_id: int,
    billboard_id: int,
    candidate_ids: np.ndarray,
    min_improvement: float,
) -> bool:
    """Optimistic gate over a candidate set: ``False`` proves that exchanging
    ``billboard_id`` with *any* of ``candidate_ids`` improves total regret by
    at most ``min_improvement`` — the exact scan would return ``None``.

    The own side lands in ``[v_i − I(o_m), v_i + I(o_n)]`` and an assigned
    partner in ``[v_j − I(o_n), v_j + I(o_m)]``, so the summed best-case
    regret drop upper-bounds the true improvement.
    """
    if len(candidate_ids) == 0:
        return False
    instance = allocation.instance
    individual = instance.coverage.individual_influences_f64
    advertiser = instance.advertisers[advertiser_id]
    own_influence = float(allocation.influence(advertiser_id))
    own_regret = instance.regret_of(advertiser_id, own_influence)

    own_best = _optimistic_regret(
        advertiser.payment,
        float(advertiser.demand),
        instance.gamma,
        own_influence - float(individual[billboard_id]),
        own_influence + individual[candidate_ids],
    )
    potential = own_regret - own_best

    candidate_owners = allocation.owners[candidate_ids]
    assigned = candidate_owners != UNASSIGNED
    if assigned.any():
        partner_ids = candidate_owners[assigned]
        all_influences = allocation.influences.astype(np.float64)
        partner_influence = all_influences[partner_ids]
        partner_payments = instance.payments[partner_ids]
        partner_demands = instance.demands[partner_ids]
        partner_regret = _regret_values_unchecked(
            partner_payments,
            partner_demands,
            instance.gamma,
            partner_influence,
        )
        partner_best = _optimistic_regret(
            partner_payments,
            partner_demands,
            instance.gamma,
            partner_influence - individual[candidate_ids[assigned]],
            partner_influence + float(individual[billboard_id]),
        )
        potential[assigned] += partner_regret - partner_best
    return bool(np.any(potential > min_improvement))


# ------------------------------------------------- partner confirmation


def loop_confirm_partner(
    allocation: Allocation,
    billboard_id: int,
    candidates: np.ndarray,
    partner_ids: np.ndarray,
    partner_influence: np.ndarray,
    partner_regret: np.ndarray,
    own_delta: np.ndarray,
    improvement_bound: np.ndarray,
    min_improvement: float,
    counters: dict | None = None,
) -> tuple[int, float] | None:
    """``repro.algorithms.bls._confirm_partner`` as a scalar loop: walk the
    candidates in stable descending-bound order while the bound exceeds
    ``min_improvement``, pricing each partner with one
    ``CoverageIndex.swap_delta`` over its counter row and scalar Eq. 1, and
    stop at the first exact total below ``−min_improvement``."""
    instance = allocation.instance
    order = np.argsort(-improvement_bound, kind="stable")
    for position in order:
        if improvement_bound[position] <= min_improvement:
            break
        partner_billboard = int(candidates[position])
        partner_id = int(partner_ids[position])
        influence_delta = instance.coverage.swap_delta(
            partner_billboard, billboard_id, allocation.counts_row(partner_id)
        )
        partner_delta = (
            instance.regret_of(
                partner_id, allocation.influence(partner_id) + influence_delta
            )
            - partner_regret[position]
        )
        total = float(own_delta[position]) + partner_delta
        if total < -min_improvement:
            return partner_billboard, total
    return None


# ------------------------------------------------------- rescan loops


def rescan_exchange(
    allocation: Allocation,
    advertiser_id: int,
    billboard_id: int,
    min_improvement: float,
    counters: dict | None = None,
) -> int | None:
    """Improving exchange partner of ``billboard_id`` over *every* legal
    candidate, or ``None``.

    Temporarily releases ``billboard_id`` so one batch coverage pass over the
    resulting counters prices ``S_i − o_m + o_n`` for every ``o_n``; restored
    before return.  The partner choice is the shared ``_select_partner``.
    """
    instance = allocation.instance
    own_regret = instance.regret_of(
        advertiser_id, float(allocation.influence(advertiser_id))
    )
    allocation.release(billboard_id)
    try:
        released_influence = float(allocation.influence(advertiser_id))
        candidates = all_exchange_candidates(
            allocation.owners, advertiser_id, billboard_id
        )
        gains = instance.coverage.batch_add_gains(allocation.counts_row(advertiser_id))
        return _select_partner(
            allocation,
            advertiser_id,
            billboard_id,
            own_regret,
            released_influence,
            candidates,
            gains[candidates],
            min_improvement,
            counters,
        )
    finally:
        allocation.assign(billboard_id, advertiser_id)


def rescan_bls(
    allocation: Allocation,
    min_improvement: float = 1e-9,
    max_sweeps: int | None = None,
    stats: dict | None = None,
) -> Allocation:
    """Algorithm 5 as written: every sweep rescans every assigned billboard."""
    instance = allocation.instance
    sweeps = 0
    exchanges = 0
    releases = 0
    topups = 0
    counters: dict = {}

    while True:
        sweeps += 1
        improved = False

        # Move families 1 & 2: pairwise and assigned↔free exchanges.
        for advertiser_id in range(instance.num_advertisers):
            for billboard_id in sorted(allocation.billboards_of(advertiser_id)):
                if allocation.owner_of(billboard_id) != advertiser_id:
                    continue  # already moved earlier in this sweep
                partner = rescan_exchange(
                    allocation, advertiser_id, billboard_id, min_improvement, counters
                )
                if partner is not None:
                    allocation.exchange_billboards(billboard_id, partner)
                    exchanges += 1
                    improved = True

        # Move family 3: releases.
        for advertiser_id in range(instance.num_advertisers):
            for billboard_id in sorted(allocation.billboards_of(advertiser_id)):
                counters["release_evaluated"] = counters.get("release_evaluated", 0) + 1
                if delta_release(allocation, billboard_id) < -min_improvement:
                    allocation.release(billboard_id)
                    releases += 1
                    improved = True

        # Move family 4: greedy top-up of the unassigned pool (line 5.11),
        # adopted only if it strictly improves (lines 5.12-5.13).
        if allocation.unassigned:
            candidate = allocation.clone()
            synchronous_greedy(candidate)
            if candidate.total_regret() < allocation.total_regret() - min_improvement:
                allocation = candidate
                topups += 1
                improved = True

        if not improved or (max_sweeps is not None and sweeps >= max_sweeps):
            break

    if stats is not None:
        _emit_stats(stats, sweeps, exchanges, releases, topups, counters)
    return allocation


def rescan_als(
    allocation: Allocation, min_improvement: float = 1e-9, stats: dict | None = None
) -> Allocation:
    """Algorithm 4 as written: every sweep prices every advertiser pair."""
    num_advertisers = allocation.instance.num_advertisers
    sweeps = 0
    exchanges = 0
    evaluated = 0
    improved = True
    while improved:
        improved = False
        sweeps += 1
        for advertiser_a in range(num_advertisers):
            for advertiser_b in range(advertiser_a + 1, num_advertisers):
                delta = delta_exchange_sets(allocation, advertiser_a, advertiser_b)
                evaluated += 1
                if delta < -min_improvement:
                    allocation.exchange_sets(advertiser_a, advertiser_b)
                    exchanges += 1
                    improved = True
    if stats is not None:
        stats["als_sweeps"] = stats.get("als_sweeps", 0) + sweeps
        stats["als_exchanges"] = stats.get("als_exchanges", 0) + exchanges
        stats["als_moves_evaluated"] = stats.get("als_moves_evaluated", 0) + evaluated
    return allocation


# ------------------------------------------------------- certificate audit


class CertificateAudit:
    """Reruns the unrestricted oracle at every certificate-backed skip.

    The production sweeps stop at their first sweep that accepts nothing,
    so a certificate that wrongly skips an improving move would end the
    search early instead of failing.  :meth:`install` wraps, with
    ``monkeypatch`` only, each point where a sweep trusts a certificate or a
    screen, and checks the skip against code that skips nothing:

    * ``exchange``: a BLS row the round planner clears
      (``ScreenRoundPlanner.lookup`` returns ``False``, or ``clear_run``
      certifies it) — :func:`rescan_exchange` must return ``None``;
    * ``scan``: a restricted exact scan (``bls._find_improving_exchange``
      over the screened changed candidates) — it must return the partner
      :func:`rescan_exchange` returns over every legal candidate;
    * ``release``: a clean or batch-screened release pass
      (``release_pass_clean``, ``_release_pass_improves`` returning
      ``False``) — no owned billboard's ``delta_release`` may improve;
    * ``topup``: a clean top-up (``topup_clean``) — a greedy top-up on a
      clone must not be adopted;
    * ``pair``: every ALS pair ``PairSweepState.dirty_partners`` omits —
      ``delta_exchange_sets`` must not improve.

    Every check runs against the allocation state at the moment of the skip,
    on a clone where the oracle mutates.  ``checks`` counts the checks per
    kind and ``violations`` lists each failed one.
    """

    KINDS = ("exchange", "scan", "release", "topup", "pair")

    def __init__(self) -> None:
        self.checks = dict.fromkeys(self.KINDS, 0)
        self.violations: list[tuple] = []
        # The allocation the running sweep reads: BLS builds one planner per
        # sweep over its current allocation, ALS mutates one object in place.
        self._allocation = None
        self._min_improvement = 0.0

    def install(self, monkeypatch) -> "CertificateAudit":
        from repro.algorithms import als, bls
        from repro.algorithms.screen import ScreenRoundPlanner
        from repro.algorithms.sweep import BillboardSweepState, PairSweepState

        audit = self
        planner_init = ScreenRoundPlanner.__init__
        lookup = ScreenRoundPlanner.lookup
        clear_run = ScreenRoundPlanner.clear_run
        release_pass_clean = BillboardSweepState.release_pass_clean
        topup_clean = BillboardSweepState.topup_clean
        dirty_partners = PairSweepState.dirty_partners
        find_exchange = bls._find_improving_exchange
        release_improves = bls._release_pass_improves
        als_search = als._search

        def audited_planner_init(planner, allocation, state, min_improvement, *args, **kwargs):
            planner_init(planner, allocation, state, min_improvement, *args, **kwargs)
            audit._allocation = allocation
            audit._min_improvement = min_improvement

        def audited_lookup(planner, advertiser_id, position, billboard_list):
            survived, screen_ids = lookup(planner, advertiser_id, position, billboard_list)
            if not survived:
                audit._check_exchange(
                    planner.allocation,
                    advertiser_id,
                    billboard_list[position],
                    planner.min_improvement,
                )
            return survived, screen_ids

        def audited_clear_run(planner, advertiser_id, position, billboard_list):
            consumed, cleared = clear_run(planner, advertiser_id, position, billboard_list)
            for billboard_id in cleared:
                audit._check_exchange(
                    planner.allocation, advertiser_id, billboard_id, planner.min_improvement
                )
            return consumed, cleared

        def audited_find_exchange(
            allocation, advertiser_id, billboard_id, candidate_ids, min_improvement, counters=None
        ):
            partner = find_exchange(
                allocation, advertiser_id, billboard_id, candidate_ids, min_improvement, counters
            )
            expected = rescan_exchange(
                allocation.clone(), advertiser_id, billboard_id, min_improvement
            )
            audit._record("scan", partner == expected, (advertiser_id, billboard_id, partner, expected))
            return partner

        def audited_release_improves(allocation, advertiser_id, owned, min_improvement):
            improves = release_improves(allocation, advertiser_id, owned, min_improvement)
            if not improves:
                audit._check_release(allocation, advertiser_id, min_improvement)
            return improves

        def audited_release_pass_clean(state, advertiser_id):
            clean = release_pass_clean(state, advertiser_id)
            if clean:
                audit._check_release(audit._allocation, advertiser_id, audit._min_improvement)
            return clean

        def audited_topup_clean(state):
            clean = topup_clean(state)
            if clean:
                allocation = audit._allocation
                candidate = allocation.clone()
                synchronous_greedy(candidate)
                adopted = (
                    candidate.total_regret()
                    < allocation.total_regret() - audit._min_improvement
                )
                audit._record("topup", not adopted, ())
            return clean

        def audited_dirty_partners(state, advertiser_a, start):
            partners = dirty_partners(state, advertiser_a, start)
            allocation = audit._allocation
            omitted = sorted(
                set(range(start, allocation.instance.num_advertisers))
                - {int(b) for b in partners}
            )
            for advertiser_b in omitted:
                delta = delta_exchange_sets(allocation, advertiser_a, advertiser_b)
                audit._record(
                    "pair",
                    not delta < -audit._min_improvement,
                    (advertiser_a, advertiser_b, delta),
                )
            return partners

        def audited_als_search(allocation, min_improvement, stats):
            audit._allocation = allocation
            audit._min_improvement = min_improvement
            return als_search(allocation, min_improvement, stats)

        monkeypatch.setattr(ScreenRoundPlanner, "__init__", audited_planner_init)
        monkeypatch.setattr(ScreenRoundPlanner, "lookup", audited_lookup)
        monkeypatch.setattr(ScreenRoundPlanner, "clear_run", audited_clear_run)
        monkeypatch.setattr(BillboardSweepState, "release_pass_clean", audited_release_pass_clean)
        monkeypatch.setattr(BillboardSweepState, "topup_clean", audited_topup_clean)
        monkeypatch.setattr(PairSweepState, "dirty_partners", audited_dirty_partners)
        monkeypatch.setattr(bls, "_find_improving_exchange", audited_find_exchange)
        monkeypatch.setattr(bls, "_release_pass_improves", audited_release_improves)
        monkeypatch.setattr(als, "_search", audited_als_search)
        return self

    def _record(self, kind: str, ok: bool, detail: tuple) -> None:
        self.checks[kind] += 1
        if not ok:
            self.violations.append((kind, *detail))

    def _check_exchange(self, allocation, advertiser_id, billboard_id, min_improvement) -> None:
        partner = rescan_exchange(
            allocation.clone(), advertiser_id, billboard_id, min_improvement
        )
        self._record("exchange", partner is None, (advertiser_id, billboard_id, partner))

    def _check_release(self, allocation, advertiser_id, min_improvement) -> None:
        improving = [
            billboard_id
            for billboard_id in sorted(allocation.billboards_of(advertiser_id))
            if delta_release(allocation, billboard_id) < -min_improvement
        ]
        self._record("release", not improving, (advertiser_id, improving))


# ------------------------------------------------------- greedy pricing


def gathered_add_gains(coverage, counts_row, candidate_ids) -> np.ndarray:
    """``batch_add_gains(counts_row)[candidate_ids]`` from a gather of only
    the candidates' CSR slices (the row-restricted pass the index once had):
    one concatenation of their covered ids, per-candidate sums by
    cumulative-sum differencing at the slice bounds."""
    covered = [coverage.covered_by(int(b)) for b in candidate_ids]
    bounds = np.cumsum([0, *map(len, covered)])
    ids = np.concatenate(covered) if covered else np.empty(0, dtype=np.int64)
    free = np.concatenate([[0], np.cumsum(counts_row[ids] == 0)])
    return free[bounds[1:]] - free[bounds[:-1]]


def eager_best_marginal_billboard(allocation, advertiser_id, candidate_ids, rows=None):
    """Price every usable candidate from the counter row and take the first
    maximum: through one full ``batch_add_gains`` kernel pass, or with
    ``rows`` through :func:`gathered_add_gains` calls of ``rows``
    candidates each."""
    if len(candidate_ids) == 0:
        return None
    instance = allocation.instance
    advertiser = instance.advertisers[advertiser_id]
    coverage = instance.coverage
    individual = coverage.individual_influences[candidate_ids]
    usable = individual > 0
    if not usable.any():
        return None
    candidate_ids = candidate_ids[usable]
    individual = individual[usable]
    influence = allocation.influence(advertiser_id)
    counts_row = allocation.counts_row(advertiser_id)
    if rows is None:
        gains = coverage.batch_add_gains(counts_row)[candidate_ids]
    else:
        gains = np.concatenate(
            [
                gathered_add_gains(coverage, counts_row, candidate_ids[i : i + rows])
                for i in range(0, len(candidate_ids), rows)
            ]
        )
    regret = instance.regret_of(advertiser_id, influence)
    new_regrets = _regret_values_unchecked(
        advertiser.payment, advertiser.demand, instance.gamma, influence + gains
    )
    return int(candidate_ids[np.argmax((regret - new_regrets) / individual)])


def literal_pick(allocation, advertiser_id, candidate_ids):
    """Brute force with scalar Eq. 1: the smallest id among the best ratios,
    each gain counted from the counter row."""
    instance = allocation.instance
    influence = allocation.influence(advertiser_id)
    before = instance.regret_of(advertiser_id, influence)
    counts_row = allocation.counts_row(advertiser_id)
    best = None
    for billboard_id in (int(b) for b in candidate_ids):
        size = instance.coverage.influence_of(billboard_id)
        if size == 0:
            continue
        covered = instance.coverage.covered_by(billboard_id)
        gain = int(np.count_nonzero(counts_row[covered] == 0))
        ratio = (before - instance.regret_of(advertiser_id, influence + gain)) / size
        if best is None or ratio > best[0]:
            best = (ratio, billboard_id)
    return None if best is None else best[1]


# -------------------------------------------------------- trip chunks


def concat_chunks(chunks) -> TrajectoryChunk:
    """Merge chunks into one (for single-shot vs chunked comparisons)."""
    chunks = list(chunks)
    return TrajectoryChunk(
        np.concatenate([c.all_points for c in chunks])
        if chunks
        else np.empty((0, 2)),
        np.concatenate([c.point_counts for c in chunks])
        if chunks
        else np.empty(0, dtype=np.int64),
    )


# ------------------------------------------------------------ trip routes


def where_route_points(
    origins: np.ndarray, corners: np.ndarray, destinations: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``repro.datasets.stream._route_points`` with both legs evaluated over
    every point and the applicable one picked by ``np.where``."""
    from repro.datasets.nyc import _SAMPLE_SPACING_M

    leg1 = np.abs(corners - origins).sum(axis=1)
    leg2 = np.abs(destinations - corners).sum(axis=1)
    total = leg1 + leg2
    counts = np.maximum(2, np.ceil(total / _SAMPLE_SPACING_M).astype(np.int64) + 1)
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
    position = np.arange(len(owner)) - starts[owner]
    distance = position / (counts[owner] - 1) * total[owner]
    u1 = (corners - origins) / np.maximum(leg1, 1e-12)[:, None]
    u2 = (destinations - corners) / np.maximum(leg2, 1e-12)[:, None]
    on_leg2 = distance > leg1[owner]
    along = np.where(
        on_leg2[:, None],
        corners[owner] + u2[owner] * (distance - leg1[owner])[:, None],
        origins[owner] + u1[owner] * distance[:, None],
    )
    return along, counts


# ----------------------------------------------------------- radius joins


class GridIndex:
    """A uniform grid over a static set of 2-D points — the index coverage
    builds queried before the billboard cell table.

    Parameters
    ----------
    points:
        ``(n, 2)`` float array of indexed points (e.g. billboard locations).
    cell_size:
        Grid cell edge length in metres.  For radius-``r`` queries a cell
        size of ``r`` limits candidates to the 3×3 neighbourhood of the query
        point's cell.
    """

    def __init__(self, points: np.ndarray, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {points.shape}")

        self.points = points
        self.cell_size = float(cell_size)
        if len(points) == 0:
            self._origin = np.zeros(2)
            self._dims = (0, 0)
            self._order = np.empty(0, dtype=np.int64)
            self._cell_ids = np.empty(0, dtype=np.int64)
            self._bucket_offsets = np.zeros(1, dtype=np.int64)
            return

        self._origin = points.min(axis=0)
        cols = np.floor((points - self._origin) / self.cell_size).astype(np.int64)
        self._dims = (int(cols[:, 0].max()) + 1, int(cols[:, 1].max()) + 1)
        linear = cols[:, 0] * self._dims[1] + cols[:, 1]
        order = np.argsort(linear, kind="stable")
        cell_ids, starts = np.unique(linear[order], return_index=True)
        self._order = order.astype(np.int64)
        self._cell_ids = cell_ids
        self._bucket_offsets = np.append(starts, len(points)).astype(np.int64)

    def __len__(self) -> int:
        return len(self.points)

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (
            int(np.floor((x - self._origin[0]) / self.cell_size)),
            int(np.floor((y - self._origin[1]) / self.cell_size)),
        )

    def _lookup_buckets(self, linear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bucket slots of the given linear cell ids, and a found mask."""
        positions = np.searchsorted(self._cell_ids, linear)
        positions = np.minimum(positions, len(self._cell_ids) - 1)
        return positions, self._cell_ids[positions] == linear

    def query_radius(self, x: float, y: float, radius: float) -> np.ndarray:
        """Indices of indexed points within ``radius`` of ``(x, y)``.

        Returns a sorted ``int64`` array of point indices.
        """
        candidates = self._candidates(x, y, radius)
        if len(candidates) == 0:
            return candidates
        diff = self.points[candidates] - np.array([x, y])
        mask = np.sum(diff * diff, axis=1) <= radius * radius
        return np.sort(candidates[mask])

    def _candidates(self, x: float, y: float, radius: float) -> np.ndarray:
        """All indexed points in cells overlapping the query disc."""
        if len(self.points) == 0:
            return np.empty(0, dtype=np.int64)
        reach = max(int(np.ceil(radius / self.cell_size)), 1)
        nx, ny = self._dims
        cx, cy = self._cell_of(x, y)
        x_lo, x_hi = max(cx - reach, 0), min(cx + reach, nx - 1)
        y_lo, y_hi = max(cy - reach, 0), min(cy + reach, ny - 1)
        if x_lo > x_hi or y_lo > y_hi:
            return np.empty(0, dtype=np.int64)
        grid_x = np.arange(x_lo, x_hi + 1, dtype=np.int64)
        grid_y = np.arange(y_lo, y_hi + 1, dtype=np.int64)
        linear = (grid_x[:, None] * ny + grid_y[None, :]).ravel()
        slots, found = self._lookup_buckets(linear)
        slots = slots[found]
        if len(slots) == 0:
            return np.empty(0, dtype=np.int64)
        starts = self._bucket_offsets[slots]
        counts = self._bucket_offsets[slots + 1] - starts
        return self._order[_expand_slices(starts, counts)]


def brute_force_join(points: np.ndarray, sites: np.ndarray, radius: float) -> set:
    """Every ``(point_index, site_index)`` pair within ``radius``.

    Prices all ``len(points) × len(sites)`` pairs with the production
    predicate: ``dx*dx + dy*dy <= radius*radius`` for ``point − site``.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    sites = np.asarray(sites, dtype=np.float64).reshape(-1, 2)
    dx = points[:, 0, None] - sites[None, :, 0]
    dy = points[:, 1, None] - sites[None, :, 1]
    point_ids, site_ids = np.nonzero(dx * dx + dy * dy <= radius * radius)
    return set(zip(point_ids.tolist(), site_ids.tolist()))


def grid_join_radius(
    grid: GridIndex, queries: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """All ``(query_index, point_index)`` pairs within ``radius`` of a
    :class:`GridIndex` — the grid-over-points join coverage builds ran before
    the billboard cell table.

    Every query's neighbourhood cells are resolved against the grid's CSR
    buckets with one ``searchsorted`` per neighbourhood offset, candidate
    pairs are gathered with a vectorized slice expansion, and one distance
    mask runs per offset.  Each qualifying pair appears once; pair order is
    deterministic but unspecified.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != 2:
        raise ValueError(f"queries must have shape (m, 2), got {queries.shape}")
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if len(queries) == 0 or len(grid.points) == 0:
        return empty

    reach = max(int(np.ceil(radius / grid.cell_size)), 1)
    nx, ny = grid._dims
    cells = np.floor((queries - grid._origin) / grid.cell_size).astype(np.int64)
    radius_sq = radius * radius
    query_hits: list[np.ndarray] = []
    point_hits: list[np.ndarray] = []
    for dx in range(-reach, reach + 1):
        for dy in range(-reach, reach + 1):
            tx = cells[:, 0] + dx
            ty = cells[:, 1] + dy
            in_grid = (tx >= 0) & (tx < nx) & (ty >= 0) & (ty < ny)
            query_ids = np.nonzero(in_grid)[0]
            slots, found = grid._lookup_buckets(tx[in_grid] * ny + ty[in_grid])
            query_ids = query_ids[found]
            starts = grid._bucket_offsets[slots[found]]
            counts = grid._bucket_offsets[slots[found] + 1] - starts
            point_ids = grid._order[_expand_slices(starts, counts)]
            pair_queries = np.repeat(query_ids, counts)
            diff = grid.points[point_ids] - queries[pair_queries]
            mask = np.sum(diff * diff, axis=1) <= radius_sq
            query_hits.append(pair_queries[mask])
            point_hits.append(point_ids[mask])
    return np.concatenate(query_hits), np.concatenate(point_hits)


def grid_query_radius_bulk(grid: GridIndex, queries: np.ndarray, radius: float) -> np.ndarray:
    """Sorted, deduplicated indices of grid points within ``radius`` of any query."""
    _, point_ids = grid_join_radius(grid, queries, radius)
    return np.unique(point_ids)


def grid_chunk_coverage(
    locations: np.ndarray, points: np.ndarray, point_counts: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled-mode coverage of one chunk the way builds computed it before
    the cell table: a :class:`GridIndex` over the chunk's points (cell size
    ``radius``) joined with the billboards.  Returns the deduplicated
    ``(billboard, chunk-local trajectory)`` pairs sorted by billboard, then
    trajectory."""
    owners = np.repeat(np.arange(len(point_counts), dtype=np.int64), point_counts)
    grid = GridIndex(points, cell_size=radius)
    billboard_ids, point_ids = grid_join_radius(grid, locations, radius)
    keys = np.unique(billboard_ids * len(point_counts) + owners[point_ids])
    return np.divmod(keys, len(point_counts))


# -------------------------------------------------------- coverage kernels


class SetCoverage:
    """Scalar coverage oracle: one Python ``set`` of trajectory ids per
    billboard, every kernel answer counted trajectory by trajectory.

    Built from the same coverage lists the index under test is built from
    (``covered[b]`` lists the trajectories billboard ``b`` covers, in any
    order, repeats allowed), never from the index itself.
    ``counts_row[t]`` is an advertiser's multiplicity counter for trajectory
    ``t`` (how many of its billboards cover ``t``).  Candidate ids may be
    unordered or repeated; answers align to the order given.
    """

    def __init__(self, covered) -> None:
        self.sets = [{int(t) for t in ids} for ids in covered]

    def influence_of_set(self, billboard_ids) -> int:
        covered: set[int] = set()
        for billboard_id in billboard_ids:
            covered |= self.sets[int(billboard_id)]
        return len(covered)

    def add_gain(self, counts_row, billboard_id: int, removed=None) -> int:
        """Trajectories of ``billboard_id`` with no cover left once
        ``removed`` (if any) leaves the set."""
        released = self.sets[removed] if removed is not None else set()
        return sum(
            1
            for t in self.sets[billboard_id]
            if counts_row[t] - (t in released) == 0
        )

    def remove_loss(self, counts_row, billboard_id: int) -> int:
        """Trajectories ``billboard_id`` alone covers."""
        return sum(1 for t in self.sets[billboard_id] if counts_row[t] == 1)

    def batch_add_gains(self, counts_row) -> list[int]:
        return [self.add_gain(counts_row, b) for b in range(len(self.sets))]

    def batch_add_gains_without(self, counts_row, removed_billboard: int) -> list[int]:
        return [
            self.add_gain(counts_row, b, removed_billboard) for b in range(len(self.sets))
        ]

    def batch_remove_losses(self, counts_row) -> list[int]:
        return [self.remove_loss(counts_row, b) for b in range(len(self.sets))]

    def swap_delta(self, removed_billboard: int, added_billboard: int, counts_row) -> int:
        """Change in covered trajectories when the row's counters lose
        ``removed_billboard`` and gain ``added_billboard``."""
        removed = self.sets[removed_billboard]
        added = self.sets[added_billboard]
        delta = 0
        for t in removed | added:
            after = counts_row[t] - (t in removed) + (t in added)
            delta += int(after > 0) - int(counts_row[t] > 0)
        return delta

    def batch_swap_deltas(self, removed_billboard: int, candidate_ids, counts_row):
        return [
            self.swap_delta(removed_billboard, int(b), counts_row)
            for b in candidate_ids
        ]
