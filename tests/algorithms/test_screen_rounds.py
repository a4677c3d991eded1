"""The round-fused exchange screen: candidate blocks, bounds and verdicts.

The BLS sweep consumes screen verdicts through
:class:`~repro.algorithms.screen.ScreenRoundPlanner`; these tests pin the
claims of DESIGN.md §13 at every layer:

* candidate blocks (:func:`round_blocks`): each row's ``pool[changed[r]]``
  equals the scalar helpers in ``tests/oracles.py``;
* bounds (:func:`block_intervals`): every cell's exact post-swap own and
  partner influence, recounted from Python sets by
  ``tests/oracles.SetCoverage``, lies in its ``[lo, hi]``;
* verdicts (:func:`round_flags`): the block clears every row the scalar
  ``exchange_screen`` clears, every row it clears has no improving
  exchange (``rescan_exchange`` returns ``None``), and verdicts do not
  depend on how rows are grouped into a round;
* the exact stage (:func:`exact_improving` over the hot cells, run by the
  planner): each hot cell's two influences equal the recount, it clears
  exactly the survivors with no improving exchange, each pass prices the
  hot cells of its rows in visit order and stops at the first row that
  keeps a move, and capped passes keep every move.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.algorithms import screen
from repro.algorithms.bls import (
    _find_improving_exchange,
    billboard_driven_local_search,
)
from repro.algorithms.greedy_global import synchronous_greedy
from repro.algorithms.screen import (
    _optimistic_regret,
    block_intervals,
    exact_improving,
    round_flags,
)
from repro.algorithms.sweep import BillboardSweepState, round_blocks
from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.regret import regret
from repro.market.online import OnlineHost
from repro.market.scenario import Scenario
from tests.conftest import make_random_instance, random_allocation
from tests.oracles import (
    SetCoverage,
    all_exchange_candidates,
    changed_candidates,
    exchange_screen,
    own_side_stale,
    rescan_bls,
    rescan_exchange,
)

MIN_IMPROVEMENT = 1e-9


@pytest.fixture(scope="module")
def instance():
    return make_random_instance(
        23, num_billboards=40, num_trajectories=120, num_advertisers=5
    )


def _greedy_allocation(instance) -> Allocation:
    allocation = Allocation(instance)
    synchronous_greedy(allocation)
    return allocation


def _mixed_state(instance, allocation) -> BillboardSweepState:
    """A sweep state with certified, stale, and never-scanned rows mixed."""
    state = BillboardSweepState(instance.num_advertisers, instance.num_billboards)
    owned = np.nonzero(allocation.owners != UNASSIGNED)[0]
    for billboard_id in owned[::2]:
        state.certify_scan(int(billboard_id))
    state.mark_move(advertisers=(0,), freed=(int(owned[0]),))
    for billboard_id in owned[1::3]:
        state.certify_scan(int(billboard_id))
    state.mark_move(advertisers=(1, 2))
    return state


def _assigned_rows(allocation) -> tuple[np.ndarray, np.ndarray]:
    """Every (advertiser, billboard) row in engine visit order."""
    advertisers, billboards = [], []
    for advertiser_id in range(allocation.instance.num_advertisers):
        for billboard_id in sorted(allocation.billboards_of(advertiser_id)):
            advertisers.append(advertiser_id)
            billboards.append(billboard_id)
    return (
        np.asarray(advertisers, dtype=np.int64),
        np.asarray(billboards, dtype=np.int64),
    )


def _blocks(allocation, state, advertiser_ids, billboard_ids):
    return round_blocks(
        allocation.owners,
        advertiser_ids,
        billboard_ids,
        state.round_certificates(advertiser_ids, billboard_ids),
        state.advertiser_version,
        state.freed_version,
    )


def _block_verdicts(allocation, state, advertiser_ids, billboard_ids):
    """``(verdicts, candidate sets)`` of a whole round, block by block."""
    verdicts = np.zeros(len(billboard_ids), dtype=bool)
    candidates: list = [None] * len(billboard_ids)
    for rows, pool, changed in _blocks(allocation, state, advertiser_ids, billboard_ids):
        verdicts[rows], _ = round_flags(
            allocation,
            advertiser_ids[rows],
            billboard_ids[rows],
            pool,
            changed,
            MIN_IMPROVEMENT,
        )
        for r, row in enumerate(rows):
            candidates[row] = pool[changed[r]]
    return verdicts, candidates


class TestRoundCandidates:
    def test_matches_scalar_helpers_row_by_row(self, instance):
        allocation = _greedy_allocation(instance)
        state = _mixed_state(instance, allocation)
        advertiser_ids, billboard_ids = _assigned_rows(allocation)
        owners = allocation.owners
        certified = state.round_certificates(advertiser_ids, billboard_ids)
        # The round mixes all three regimes: never-certified rows and rows
        # whose owner moved take the full mask, the rest restrict.
        never = state.scan_version[billboard_ids] == 0
        assert never.any() and (certified[never] == -1).all()
        assert (certified == -1).any() and (certified > 0).any()
        blocks = _blocks(allocation, state, advertiser_ids, billboard_ids)
        assert len(blocks) == 2  # a mixed round splits into two groups
        seen = np.concatenate([rows for rows, _, _ in blocks])
        assert sorted(seen.tolist()) == list(range(len(billboard_ids)))
        for rows, pool, changed in blocks:
            assert np.all(np.diff(pool) > 0)
            assert changed.shape == (len(rows), len(pool))
            for r, k in enumerate(rows):
                advertiser_id = int(advertiser_ids[k])
                billboard_id = int(billboard_ids[k])
                if own_side_stale(state, advertiser_id, billboard_id):
                    expected = all_exchange_candidates(
                        owners, advertiser_id, billboard_id
                    )
                else:
                    expected = changed_candidates(
                        state, billboard_id, owners, advertiser_id
                    )
                assert np.array_equal(pool[changed[r]], expected), (
                    advertiser_id,
                    billboard_id,
                )

    def test_empty_round_has_no_blocks(self, instance):
        allocation = _greedy_allocation(instance)
        state = _mixed_state(instance, allocation)
        empty = np.empty(0, dtype=np.int64)
        assert _blocks(allocation, state, empty, empty) == []


class TestRoundFlags:
    def test_matches_scalar_and_batch_screens(self, instance):
        """The block clears every row the scalar screen clears, every row
        it clears has no improving exchange among its candidates, and
        per-advertiser rounds give the whole round's verdicts."""
        allocation = _greedy_allocation(instance)
        state = _mixed_state(instance, allocation)
        advertiser_ids, billboard_ids = _assigned_rows(allocation)
        flags, candidate_sets = _block_verdicts(
            allocation, state, advertiser_ids, billboard_ids
        )
        for k in range(len(billboard_ids)):
            scalar = exchange_screen(
                allocation,
                int(advertiser_ids[k]),
                int(billboard_ids[k]),
                candidate_sets[k],
                MIN_IMPROVEMENT,
            )
            assert scalar or not flags[k], int(billboard_ids[k])
            if not flags[k]:
                assert (
                    _find_improving_exchange(
                        allocation,
                        int(advertiser_ids[k]),
                        int(billboard_ids[k]),
                        candidate_sets[k],
                        MIN_IMPROVEMENT,
                    )
                    is None
                )
        # Verdicts must not depend on how rows are grouped into a round.
        for advertiser_id in range(instance.num_advertisers):
            rows = np.nonzero(advertiser_ids == advertiser_id)[0]
            if len(rows) == 0:
                continue
            batch, _ = _block_verdicts(
                allocation, state, advertiser_ids[rows], billboard_ids[rows]
            )
            assert np.array_equal(flags[rows], batch)

    def test_empty_candidate_sets_screen_out(self, instance):
        allocation = _greedy_allocation(instance)
        advertiser_ids, billboard_ids = _assigned_rows(allocation)
        pool = np.arange(instance.num_billboards)
        changed = np.zeros((len(billboard_ids), len(pool)), dtype=bool)
        flags, hot = round_flags(
            allocation, advertiser_ids, billboard_ids, pool, changed, MIN_IMPROVEMENT
        )
        assert not flags.any() and not hot.any()

    def test_optimistic_regret_is_eq1_at_the_closest_point(self):
        """The screen's best-case regret is Eq. 1 at the point of the
        interval closest to the demand, bit for bit: where an interval is a
        point, the screen's drop is exactly the scan's regret change."""
        rng = np.random.default_rng(4)
        for gamma in (0.0, 0.5, 1.0):
            payments = rng.uniform(0.5, 40.0, size=(7, 1))
            demands = rng.integers(1, 60, size=(7, 1)).astype(np.float64)
            lo = rng.integers(-5, 90, size=(7, 300)).astype(np.float64)
            lo[:, :20] = demands  # intervals that touch the demand exactly
            hi = lo + rng.integers(0, 30, size=(7, 300))
            hi[:, 20:40] = lo[:, 20:40]  # points
            floor = np.maximum(lo, 0.0)
            closest = np.clip(demands, floor, np.maximum(hi, floor))
            expected = [
                [regret(p, d, x, gamma) for x in row]
                for p, d, row in zip(payments[:, 0], demands[:, 0], closest)
            ]
            got = _optimistic_regret(payments, demands, gamma, lo, hi)
            assert np.array_equal(got, expected)


# ------------------------------------------------- bounds and soundness


def _scenario_instance(dataset: str, gamma: float):
    return Scenario(
        dataset=dataset, n_billboards=24, n_trajectories=2000, alpha=0.8,
        p_avg=0.1, gamma=gamma, seed=5,
    ).build_instance()


def _quote_states(dataset: str, gamma: float):
    """The live allocation of an incremental quoting host after each of
    three commits (book plus the ghost slot), quotes priced in between."""
    coverage = _scenario_instance(dataset, gamma).coverage
    host = OnlineHost(coverage, gamma=gamma, pricing="incremental", seed=2)
    rng = np.random.default_rng(2)
    for step in range(9):
        demand = int(rng.integers(20, 300))
        payment = round(float(rng.uniform(1.0, 20.0)), 3)
        if step % 3 == 2:
            host.accept(demand, payment)
            yield host.allocation
        else:
            host.quote(demand, payment)


def _states(dataset: str, gamma: float):
    """Random, greedy, mid-BLS and warm-quote allocations."""
    instance = _scenario_instance(dataset, gamma)
    yield random_allocation(instance, seed=3)
    greedy = Allocation(instance)
    synchronous_greedy(greedy)
    yield greedy
    mid = random_allocation(instance, seed=11)
    yield billboard_driven_local_search(mid, MIN_IMPROVEMENT, max_sweeps=1)
    yield from _quote_states(dataset, gamma)


def _full_masks(allocation, advertiser_ids, billboard_ids):
    pool = np.arange(allocation.instance.num_billboards)
    changed = np.zeros((len(billboard_ids), len(pool)), dtype=bool)
    for r, (advertiser_id, billboard_id) in enumerate(zip(advertiser_ids, billboard_ids)):
        changed[
            r, all_exchange_candidates(allocation.owners, int(advertiser_id), int(billboard_id))
        ] = True
    return pool, changed


@pytest.mark.parametrize("gamma", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("dataset", ("nyc", "sg"))
def test_exact_influences_lie_in_block_bounds(dataset, gamma):
    """Every legal (row, candidate) cell's exact post-swap influences lie in
    the block bounds, the block clears every row the scalar screen clears,
    and no cleared row has an improving exchange.  The exact stage on the
    surviving rows' hot cells prices each side's influence to the recount,
    clears exactly the rows with no improving exchange and keeps exactly the
    rows that have one."""
    widened = cleared = tighter = exact_kept = 0
    for allocation in _states(dataset, gamma):
        coverage = allocation.instance.coverage
        oracle = SetCoverage(
            [coverage.covered_by(b).tolist() for b in range(coverage.num_billboards)]
        )
        sets = [set(allocation.billboards_of(a)) for a in range(allocation.instance.num_advertisers)]
        advertiser_ids, billboard_ids = _assigned_rows(allocation)
        pool, changed = _full_masks(allocation, advertiser_ids, billboard_ids)
        own_lo, own_hi, owners, partner_lo, partner_hi = block_intervals(
            allocation, advertiser_ids, billboard_ids, pool
        )
        assert np.array_equal(owners, allocation.owners)
        for r, k in zip(*np.nonzero(changed)):
            advertiser_id, outgoing, incoming = (
                int(advertiser_ids[r]), int(billboard_ids[r]), int(pool[k])
            )
            own = oracle.influence_of_set(sets[advertiser_id] - {outgoing} | {incoming})
            assert own_lo[r, k] <= own <= own_hi[r, k], (advertiser_id, outgoing, incoming)
            widened += own > own_lo[r, k]
            partner = int(owners[k])
            if partner != UNASSIGNED:
                exact = oracle.influence_of_set(sets[partner] - {incoming} | {outgoing})
                assert partner_lo[r, k] <= exact <= partner_hi[r, k], (
                    partner, incoming, outgoing
                )
                widened += exact > partner_lo[r, k]

        flags, hot = round_flags(
            allocation, advertiser_ids, billboard_ids, pool, changed, MIN_IMPROVEMENT
        )
        assert np.array_equal(flags, hot.any(axis=1))
        assert not (hot & ~changed).any()
        for r in range(len(billboard_ids)):
            advertiser_id, billboard_id = int(advertiser_ids[r]), int(billboard_ids[r])
            if not exchange_screen(
                allocation, advertiser_id, billboard_id, pool[changed[r]], MIN_IMPROVEMENT
            ):
                assert not flags[r], (advertiser_id, billboard_id)
            else:
                tighter += not flags[r]
            if not flags[r]:
                cleared += 1
                assert (
                    rescan_exchange(allocation.clone(), advertiser_id, billboard_id, MIN_IMPROVEMENT)
                    is None
                ), (advertiser_id, billboard_id)

        kept, _ = _check_exact_stage(
            allocation, advertiser_ids, billboard_ids, pool, flags, hot
        )
        exact_kept += kept
    # The overlap term is exercised (a cell above its lower bound), the
    # block clears rows, some of which the scalar screen cannot, and the
    # exact stage prices survivors that keep a move.
    assert widened > 0 and cleared > 0 and tighter > 0
    assert exact_kept > 0


def test_exact_stage_clears_rows_the_screen_keeps():
    """On the SG states the exact stage clears survivors the interval screen
    could not (the NYC γ = 0 states above have none to clear)."""
    exact_cleared = 0
    for allocation in _states("sg", 0.5):
        advertiser_ids, billboard_ids = _assigned_rows(allocation)
        pool, changed = _full_masks(allocation, advertiser_ids, billboard_ids)
        flags, hot = round_flags(
            allocation, advertiser_ids, billboard_ids, pool, changed, MIN_IMPROVEMENT
        )
        _, dropped = _check_exact_stage(
            allocation, advertiser_ids, billboard_ids, pool, flags, hot
        )
        exact_cleared += dropped
    assert exact_cleared > 0


def _check_exact_stage(
    allocation, advertiser_ids, billboard_ids, pool, flags, hot
) -> tuple[int, int]:
    """Price every surviving row's hot cells as the exact stage does and
    check them against the oracles: each side's influence equals the
    ``SetCoverage`` recount, every row with no improving hot cell has no
    improving exchange at all (``rescan_exchange`` is ``None``), and every
    other row has one.  Returns ``(kept, cleared)`` row counts."""
    coverage = allocation.instance.coverage
    oracle = SetCoverage(
        [coverage.covered_by(b).tolist() for b in range(coverage.num_billboards)]
    )
    sets = [set(allocation.billboards_of(a)) for a in range(allocation.instance.num_advertisers)]
    owners = allocation.owners
    survivors = np.flatnonzero(flags)
    cell_rows, columns = np.nonzero(hot[survivors])
    own, partner = allocation.exchange_deltas(
        billboard_ids[survivors], cell_rows, pool[columns]
    )
    for i, (row, k) in enumerate(zip(cell_rows, columns)):
        r = survivors[row]
        advertiser_id, outgoing, incoming = (
            int(advertiser_ids[r]), int(billboard_ids[r]), int(pool[k])
        )
        own_exact = oracle.influence_of_set(sets[advertiser_id] - {outgoing} | {incoming})
        assert allocation.influence(advertiser_id) + own[i] == own_exact, (
            advertiser_id, outgoing, incoming
        )
        partner_id = int(owners[k])
        if partner_id == UNASSIGNED:
            assert partner[i] == 0
            continue
        partner_exact = oracle.influence_of_set(
            sets[partner_id] - {incoming} | {outgoing}
        )
        assert allocation.influence(partner_id) + partner[i] == partner_exact, (
            partner_id, incoming, outgoing
        )
    improving = exact_improving(
        allocation,
        advertiser_ids[survivors],
        billboard_ids[survivors],
        cell_rows,
        pool[columns],
        MIN_IMPROVEMENT,
    )
    kept = np.bincount(cell_rows[improving], minlength=len(survivors)) > 0
    for row, r in enumerate(survivors):
        advertiser_id, billboard_id = int(advertiser_ids[r]), int(billboard_ids[r])
        partner_id = rescan_exchange(
            allocation.clone(), advertiser_id, billboard_id, MIN_IMPROVEMENT
        )
        assert (partner_id is not None) == kept[row], (advertiser_id, billboard_id)
    return int(kept.sum()), int((~kept).sum())


# ------------------------------------------------ the planner's exact stage


def _solve_counted(start: Allocation) -> tuple[dict, dict, dict]:
    """BLS from a clone of ``start``: ``(plan, stats, screen counters)``."""
    obs.enable()
    obs.reset()
    try:
        stats: dict = {}
        plan = billboard_driven_local_search(start.clone(), MIN_IMPROVEMENT, stats=stats)
        counters = {
            name: int(obs.counter_value(name))
            for name in ("bls.screen.survivors", "bls.exact.rows", "bls.exact.cleared")
        }
    finally:
        obs.disable()
        obs.reset()
    return plan.assignment_map(), stats, counters


def _audit_starts():
    for dataset in ("nyc", "sg"):
        instance = _scenario_instance(dataset, 0.5)
        yield random_allocation(instance, seed=3)
        yield _greedy_allocation(instance)


class TestExactStage:
    def test_prices_exactly_the_hot_cells_in_visit_order(self, monkeypatch):
        """Within whole solves, every exact pass prices each surviving
        row's hot cells and no others, rows in visit order, in batches that
        double from one row and stop at the first batch that keeps a row."""
        hot_sets: dict[int, set] = {}
        passes: list[list] = []
        price_survivors = screen.ScreenRoundPlanner._price_survivors

        def spy_price(planner, *args):
            passes.append([])
            return price_survivors(planner, *args)

        def spy_flags(allocation, advertiser_ids, billboard_ids, pool, changed, threshold):
            flags, hot = round_flags(
                allocation, advertiser_ids, billboard_ids, pool, changed, threshold
            )
            for r in np.flatnonzero(flags):
                hot_sets[int(billboard_ids[r])] = set(pool[hot[r]].tolist())
            return flags, hot

        def spy_exact(allocation, advertiser_ids, billboard_ids, cell_rows, candidates, threshold):
            for r, billboard_id in enumerate(billboard_ids.tolist()):
                assert set(candidates[cell_rows == r].tolist()) == hot_sets[billboard_id]
            improving = exact_improving(
                allocation, advertiser_ids, billboard_ids, cell_rows, candidates, threshold
            )
            kept = bool(improving.any())
            passes[-1].append(
                (list(zip(advertiser_ids.tolist(), billboard_ids.tolist())), kept)
            )
            return improving

        monkeypatch.setattr(screen.ScreenRoundPlanner, "_price_survivors", spy_price)
        monkeypatch.setattr(screen, "round_flags", spy_flags)
        monkeypatch.setattr(screen, "exact_improving", spy_exact)
        for start in _audit_starts():
            billboard_driven_local_search(start, MIN_IMPROVEMENT)
        for batches in passes:
            rows = [row for batch, _ in batches for row in batch]
            assert rows == sorted(rows)
            sizes = [len(batch) for batch, _ in batches]
            assert sizes[:-1] == [1 << i for i in range(len(sizes) - 1)]
            assert not any(kept for _, kept in batches[:-1])
        assert any(len(batches) > 1 for batches in passes)
        assert any(batches and batches[-1][1] for batches in passes)

    @pytest.mark.parametrize("cap", (0, 300))
    def test_capped_passes_keep_the_moves(self, monkeypatch, cap):
        """Rows past the trajectory cap keep their screen verdict: the plan
        and every move count equal the uncapped stage's and the rescan
        oracle's; only the split between exact-cleared and scanned rows
        moves.  Counters keep ``cleared ≤ rows ≤ survivors``."""
        saved = 0
        for start in _audit_starts():
            plan, stats, counters = _solve_counted(start)
            monkeypatch.setattr(screen, "EXACT_PASS_TRAJECTORIES", cap)
            capped_plan, capped_stats, capped = _solve_counted(start)
            monkeypatch.undo()
            oracle_stats: dict = {}
            oracle = rescan_bls(start.clone(), MIN_IMPROVEMENT, stats=oracle_stats)
            assert plan == capped_plan == oracle.assignment_map()
            for key in ("bls_sweeps", "bls_exchanges", "bls_releases", "bls_topups"):
                assert stats[key] == capped_stats[key] == oracle_stats[key], key
            for seen in (counters, capped):
                assert (
                    seen["bls.exact.cleared"]
                    <= seen["bls.exact.rows"]
                    <= seen["bls.screen.survivors"]
                ), seen
            assert counters["bls.exact.rows"] >= capped["bls.exact.rows"]
            # The sweep visits the same rows; a row the stage clears is
            # skipped where the capped pass scans it.
            visited = [
                seen["bls_dirty_scanned"] + seen["bls_dirty_skipped"]
                for seen in (stats, capped_stats)
            ]
            assert visited[0] == visited[1]
            assert stats["bls_dirty_scanned"] <= capped_stats["bls_dirty_scanned"]
            saved += capped_stats["bls_dirty_scanned"] - stats["bls_dirty_scanned"]
            if cap == 0:
                assert capped["bls.exact.rows"] == 0
        assert saved > 0
