"""Quote-throughput benchmark: incremental vs from-scratch pricing.

Builds a standing book on the PR-1 NYC-scale scenario (two
:class:`~repro.market.online.OnlineHost` instances — ``pricing="incremental"``
and ``pricing="full"`` — fed the identical acceptance sequence, asserting
they land on the identical plan), then measures:

* **per-quote wall time** on both engines over the same cyclic proposal
  stream, asserting every overlapping quote is bit-identical in
  ``(regret_before, regret_after, would_satisfy)``.  ``speedup`` is the
  from-scratch / incremental ratio — the number the journaled allocation +
  warm restricted repair exists to move (the acceptance bar is 10× at bench
  scale);
* **quotes/sec** of the incremental engine over a long stream (toward the
  10⁴–10⁵ regime the ISSUE sweeps at full scale);
* **p50/p95/p99 quote latency** from the ``quote.price`` span's log-bucket
  histogram, collected in a separate instrumented pass (observability on)
  so the timed sections stay obs-off;
* **journal hygiene**: the instrumented pass asserts every priced quote
  rolled back through the journal (``journal.rollback`` fired per quote) and
  the host's allocation object survived identically — rejected quotes
  allocate no copies.

Appends to ``BENCH_quotes.json`` — an append-only, commit-stamped time
series (see ``scripts/_bench_history.py``); ``--gate-regression`` fails the
run when any per-quote timing regresses >15% against the median recorded
run of the same scenario.

Usage::

    PYTHONPATH=src python scripts/bench_quotes.py            # full bench
    PYTHONPATH=src python scripts/bench_quotes.py \
        --assert-speedup 10 --gate-regression                # make bench-quotes
    PYTHONPATH=src python scripts/bench_quotes.py --smoke    # CI: no speedup
                                                             # floor (shallow book)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _bench_history

from repro import obs
from repro.market.online import OnlineHost
from repro.market.scenario import Scenario


def quote_key(quote) -> tuple:
    return (quote.regret_before, quote.regret_after, quote.would_satisfy)


def build_books(scenario: Scenario, book_size: int):
    """Two hosts (incremental + full) holding the identical standing book.

    The scenario's generated advertisers are split: the first ``book_size``
    are accepted into both hosts (lockstep, identity asserted), the rest
    become the held-out proposal stream the timed sections quote from.
    """
    instance = scenario.build_instance()
    if instance.num_advertisers <= book_size:
        raise SystemExit(
            f"scenario generates {instance.num_advertisers} advertisers; "
            f"need > {book_size} to hold out a proposal stream"
        )
    booked = instance.advertisers[:book_size]
    proposals = [
        (advertiser.demand, advertiser.payment)
        for advertiser in instance.advertisers[book_size:]
    ]
    incremental = OnlineHost(
        instance.coverage, gamma=scenario.gamma, pricing="incremental"
    )
    full = OnlineHost(instance.coverage, gamma=scenario.gamma, pricing="full")
    for advertiser in booked:
        quote_inc = incremental.accept(advertiser.demand, advertiser.payment)
        quote_full = full.accept(advertiser.demand, advertiser.payment)
        assert quote_key(quote_inc) == quote_key(quote_full), (
            "book construction diverged between pricing engines"
        )
    for advertiser_id in range(book_size):
        assert incremental.allocation.billboards_of(
            advertiser_id
        ) == full.allocation.billboards_of(advertiser_id), (
            f"standing plans diverged at advertiser {advertiser_id}"
        )
    return incremental, full, proposals


def bench_quote_paths(incremental, full, proposals, n_incremental, n_full) -> dict:
    """Timed (obs-off) per-quote cost on both engines, bit-identity asserted.

    Both engines quote the same cyclic proposal stream; the overlapping
    prefix must match quote-for-quote.  The incremental side then continues
    to ``n_incremental`` quotes for the throughput figure.
    """

    def proposal(index):
        return proposals[index % len(proposals)]

    full_keys = []
    started = time.perf_counter()
    for index in range(n_full):
        demand, payment = proposal(index)
        full_keys.append(quote_key(full.quote(demand, payment)))
    full_wall = time.perf_counter() - started

    incremental_keys = []
    started = time.perf_counter()
    for index in range(n_incremental):
        demand, payment = proposal(index)
        quote = incremental.quote(demand, payment)
        if index < n_full:
            incremental_keys.append(quote_key(quote))
    incremental_wall = time.perf_counter() - started

    assert incremental_keys == full_keys, (
        "incremental quotes diverged from the from-scratch path"
    )
    full_quote_s = full_wall / n_full
    incremental_quote_s = incremental_wall / n_incremental
    return {
        "n_full_quotes": n_full,
        "n_incremental_quotes": n_incremental,
        "full_quote_s": full_quote_s,
        "incremental_quote_s": incremental_quote_s,
        "quotes_per_s": n_incremental / incremental_wall,
        "full_quotes_per_s": n_full / full_wall,
        "speedup": full_quote_s / incremental_quote_s,
        "identity_checked_quotes": len(full_keys),
        "note": (
            "per-quote wall time, obs off; every overlapping quote asserted "
            "bit-identical across engines"
        ),
    }


def collect_quote_latency(incremental, proposals, samples) -> dict:
    """Instrumented pass: span quantiles + journal-hygiene assertions."""
    obs.enable()
    obs.reset()
    try:
        allocation = incremental.allocation
        owners_before = allocation.owners.copy()
        for index in range(samples):
            demand, payment = proposals[index % len(proposals)]
            incremental.quote(demand, payment)
        histogram = obs.get_registry().histogram("span.quote.price")
        rollbacks = int(obs.counter_value("journal.rollback"))
        cache_hits = int(obs.counter_value("quote.cache.hit"))
        cache_misses = int(obs.counter_value("quote.cache.miss"))
        assert rollbacks >= samples, (
            f"expected >= {samples} journal rollbacks, saw {rollbacks} — "
            "rejected quotes are not rolling back through the journal"
        )
        assert incremental.allocation is allocation, (
            "quoting replaced the allocation object — the zero-copy contract "
            "is broken"
        )
        assert np.array_equal(incremental.allocation.owners, owners_before), (
            "quoting left residue in the standing plan"
        )
        return {
            "samples": int(histogram.count),
            "p50_s": histogram.p50,
            "p95_s": histogram.p95,
            "p99_s": histogram.p99,
            "mean_s": histogram.mean,
            "journal_rollbacks": rollbacks,
            "regret_cache_hits": cache_hits,
            "regret_cache_misses": cache_misses,
            "regret_cache_hit_rate": (
                cache_hits / (cache_hits + cache_misses)
                if cache_hits + cache_misses
                else 0.0
            ),
            "note": (
                "log-bucket quantiles of the quote.price span over an "
                "instrumented (obs-on) pass; timed sections run obs-off"
            ),
        }
    finally:
        obs.disable()
        obs.reset()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny city + short stream (CI wiring)"
    )
    parser.add_argument("--output", default="BENCH_quotes.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless incremental pricing reaches X× over from-scratch",
    )
    parser.add_argument(
        "--gate-regression",
        type=float,
        default=None,
        nargs="?",
        const=_bench_history.DEFAULT_THRESHOLD,
        metavar="X",
        help="fail when any per-quote timing exceeds X times the median "
        "recorded run of the same scenario "
        f"(default X={_bench_history.DEFAULT_THRESHOLD})",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        scenario = Scenario(
            dataset="nyc",
            n_billboards=200,
            n_trajectories=2_000,
            p_avg=0.05,
            seed=args.seed,
        )
        book_size, n_incremental, n_full, latency_samples = 12, 200, 8, 40
    else:
        # alpha/p_avg = 120 generated advertisers: an 80-deep standing book
        # (the ISSUE floor is 32) plus a 40-proposal held-out stream both
        # quote loops cycle through.  The deep book is the point — the
        # from-scratch path re-prices O(book) per quote while the journaled
        # path re-prices O(delta), so this is where the asymmetry shows.
        # The book stops at 80 of 120: booking toward the full demand (or
        # raising alpha) saturates the supply, the 2-sweep repairs stop
        # converging, the settle pass cannot certify the standing plan, and
        # the warm path loses its restriction.  n_full is one whole proposal
        # cycle and n_incremental an exact multiple of it, so both means
        # average the identical proposal mix (the per-proposal spread is
        # wide — see the latency percentiles).
        scenario = Scenario(
            dataset="nyc",
            n_billboards=800,
            n_trajectories=8_000,
            alpha=1.2,
            p_avg=0.01,
            seed=args.seed,
        )
        book_size, n_incremental, n_full, latency_samples = 80, 10_000, 40, 500

    incremental, full, proposals = build_books(scenario, book_size)
    quote_paths = bench_quote_paths(
        incremental, full, proposals, n_incremental, n_full
    )
    latency = collect_quote_latency(incremental, proposals, latency_samples)

    report = {
        "benchmark": "quote-throughput",
        "smoke": bool(args.smoke),
        "commit": _bench_history.git_commit(),
        "scenario": {
            "dataset": scenario.dataset,
            "n_billboards": scenario.n_billboards,
            "n_trajectories": scenario.n_trajectories,
            "alpha": scenario.alpha,
            "p_avg": scenario.p_avg,
            "book_size": book_size,
            "seed": scenario.seed,
        },
        "machine": _bench_history.machine_stamp(),
        "quote_paths": quote_paths,
        "quote_latency": latency,
    }
    path = Path(args.output)
    # Every timing here is a per-quote mean or quantile over many quotes
    # (at full scale each covers >= 40 quotes and >= 0.9 s of wall), so it
    # is measurable even where the figure is under 0.1 s.
    history, failures = _bench_history.append_gated_run(
        path, report, args.gate_regression, min_gated_s=0.0
    )
    print(json.dumps(report, indent=2))
    print(f"\nappended run {len(history['runs'])} to {path}")

    if args.gate_regression is not None:
        if failures:
            print("\nREGRESSION GATE FAILED:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"regression gate passed (threshold {args.gate_regression:.2f}x)")
    if args.assert_speedup is not None:
        assert quote_paths["speedup"] >= args.assert_speedup, (
            f"incremental speedup {quote_paths['speedup']:.2f}x below the "
            f"required {args.assert_speedup}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
