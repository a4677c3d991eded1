"""End-to-end benchmark: the paper's solve pipeline and the quote stream.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` makes the same untraced pass, then repeats exactly
the same operations with every layer wrapped (see ``layers.py``) and the
program's own obs counters on, and prints the per-layer metrics: each
layer's time and work per operation, the part of the wall no layer accounts
for (``unattributed_s``), the tracing overhead, and for quote-churn
the layer split of the slowest requests next to that of median ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The workloads, their sizes and the metric definitions are in README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: The traced run fails when the layers leave more than this share of its
#: wall unattributed.
RECONCILE_TOLERANCE = 0.05

#: Tail split categories (per request, milliseconds).
SPLIT_COLUMNS = ("greedy", "bls", "rollback", "settle", "commit", "other")


#: Workload sizes; README.md gives the reason for each.
SIZES = {
    "solve": dict(billboards=1_000, trajectories=4_000, chunk=1_000, alpha=1.0, p_avg=0.05),
    "greedy-scale": dict(
        billboards=1_462, trajectories=20_000, chunk=5_000, alpha=0.25, p_avg=0.05
    ),
    "quote-churn": dict(
        billboards=800,
        trajectories=8_000,
        alpha=1.2,
        p_avg=0.01,
        book=60,
        commit_every=50,
        episode=1_000,
    ),
}


def build_workloads(sizes: dict | None = None) -> dict:
    """Every workload by name, at ``sizes`` (default :data:`SIZES`)."""
    from workloads import PipelineSize, PipelineWorkload, QuoteSize, QuoteWorkload

    sizes = sizes or SIZES
    return {
        "solve": PipelineWorkload(
            "solve", PipelineSize(**sizes["solve"]), with_gorder=False, with_bls=True
        ),
        "greedy-scale": PipelineWorkload(
            "greedy-scale",
            PipelineSize(**sizes["greedy-scale"]),
            with_gorder=True,
            with_bls=False,
        ),
        "quote-churn": QuoteWorkload("quote-churn", QuoteSize(**sizes["quote-churn"])),
    }


def pin_to_one_cpu() -> None:
    """Run on the lowest-numbered allowed CPU for the whole run.

    On a shared 2-vCPU host the two CPUs differed by 15-25 % in speed, and
    the scheduler moving the process between them made run times bimodal.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or stop."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------ metrics


def end_to_end_metrics(setup_times, latencies, rss_mb) -> dict:
    latencies_ms = [value * 1e3 for value in latencies] or [0.0]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p99_ms": (percentile(latencies_ms, 0.99), "ms"),
        "throughput_per_s": (
            len(latencies) / sum(latencies) if latencies else 0.0,
            "1/s",
        ),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def tail_splits(untraced: list[float], splits: list[dict]) -> dict:
    """Mean split of requests above the untraced p99 and near its p50.

    Both passes serve the same requests in the same order, so each traced
    request is classed by its own untraced latency.
    """
    groups = {"p50": [], "p99": []}
    if splits and len(splits) == len(untraced):
        p99 = percentile(untraced, 0.99)
        groups["p99"] = [s for s, lat in zip(splits, untraced) if lat > p99]
        by_latency = sorted(range(len(untraced)), key=untraced.__getitem__)
        middle = by_latency[int(0.45 * len(by_latency)) : int(0.55 * len(by_latency)) + 1]
        groups["p50"] = [splits[i] for i in middle]
    table = {}
    for group, members in groups.items():
        rows = [_split_row(split) for split in members]
        for column in SPLIT_COLUMNS:
            table[f"tail.{group}.{column}_ms"] = (
                statistics.fmean(row[column] for row in rows) * 1e3 if rows else 0.0,
                "ms",
            )
        table[f"tail.{group}.requests"] = (len(rows), "count")
    return table


def _split_row(split: dict) -> dict:
    row = {
        "greedy": split.get("repair.greedy", 0.0),
        "bls": split.get("repair.bls", 0.0),
        "rollback": split.get("journal.rollback", 0.0),
        "settle": split.get("settle", 0.0),
    }
    row["commit"] = split["commit"] - row["settle"]
    row["other"] = split["request"] - sum(row.values())
    return row


def per_layer_metrics(tracer, traced, untraced_wall: float) -> dict:
    """Per-operation layer metrics from the tracer and the obs registry."""
    from repro import obs

    registry = obs.get_registry()
    ops = max(1, len(traced.latencies))
    wall = sum(traced.latencies)
    counts = tracer.counts
    facts = traced.facts

    def per_op(value):
        return value / ops

    def incl(*layers):
        return per_op(sum(tracer.inclusive(layer) for layer in layers))

    def histogram_total(name):
        found = registry.histograms.get(name)
        return found.total if found is not None else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    rows = histogram_total("influence.popcount.rows")
    words = facts.get("words", per_op(counts["influence.words"]))
    picks = counts["greedy.picks"]
    moves = counts["bls_exchanges"] + counts["bls_releases"] + counts["bls_topups"]
    evaluated = counts["bls_exchange_evaluated"] + counts["bls_release_evaluated"]
    hits = obs.counter_value("quote.cache.hit")
    misses = obs.counter_value("quote.cache.miss")
    synth = tracer.inclusive("stream.synth")
    metrics = {
        "stream.synth_s": (per_op(synth), "s"),
        "stream.points": (per_op(counts["stream.points"]), "count"),
        "influence.build_s": (per_op(tracer.inclusive("influence.build") - synth), "s"),
        "influence.nnz": (facts.get("nnz", per_op(counts["influence.nnz"])), "count"),
        "influence.bitmap_mb": (
            registry.gauges.get("influence.bitmap.bytes", 0) / 2**20,
            "MB",
        ),
        "influence.kernel_calls": (per_op(tracer.calls("influence.kernel")), "count"),
        "influence.kernel_s": (incl("influence.kernel"), "s"),
        "influence.kernel_rows": (per_op(rows), "count"),
        "influence.kernel_bytes": (per_op(rows) * words * 8, "B"),
        "gorder.s": (incl("gorder"), "s"),
        "gglobal.s": (incl("gglobal"), "s"),
        "greedy.picks": (per_op(picks), "count"),
        "greedy.releases": (per_op(counts["greedy.releases"]), "count"),
        "greedy.candidates_priced": (per_op(counts["greedy.candidates_priced"]), "count"),
        "greedy.priced_per_pick": (ratio(counts["greedy.candidates_priced"], picks), "count"),
        "bls.s": (incl("bls", "repair.bls"), "s"),
        "bls.sweeps": (per_op(counts["bls_sweeps"]), "count"),
        "bls.moves": (per_op(moves), "count"),
        "bls.evaluated": (per_op(evaluated), "count"),
        "bls.accept_ratio": (ratio(moves, evaluated), "ratio"),
        "bls.dirty_skip_ratio": (
            ratio(
                counts["bls_dirty_skipped"],
                counts["bls_dirty_scanned"] + counts["bls_dirty_skipped"],
            ),
            "ratio",
        ),
        "bls.screen_s": (per_op(histogram_total("bls.phase.screen")), "s"),
        "bls.exchange_s": (per_op(histogram_total("bls.phase.exchange")), "s"),
        "bls.release_s": (per_op(histogram_total("bls.phase.release")), "s"),
        "bls.topup_s": (per_op(histogram_total("bls.phase.topup")), "s"),
        "bls.verify_s": (per_op(histogram_total("bls.phase.verify")), "s"),
        "repair.s": (incl("repair"), "s"),
        "repair.greedy_s": (incl("repair.greedy"), "s"),
        "repair.bls_s": (incl("repair.bls"), "s"),
        "settle.s": (incl("settle"), "s"),
        "settle.calls": (per_op(tracer.calls("settle")), "count"),
        "journal.rollbacks": (per_op(obs.counter_value("journal.rollback")), "count"),
        "journal.rollback_s": (incl("journal.rollback"), "s"),
        "journal.replay_s": (incl("journal.replay"), "s"),
        "quote.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "quote.price_s": (incl("quote.price"), "s"),
        "quote.commit_s": (incl("quote.commit"), "s"),
        "unattributed_s": (per_op(wall - tracer.top_level_s), "s"),
        "trace.overhead_ratio": (ratio(wall, untraced_wall), "ratio"),
    }
    return metrics


# ------------------------------------------------------------- report


def print_table(title: str, metrics: dict) -> None:
    print(f"\n{title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")


def print_layers(tracer, traced) -> None:
    """Self time per layer; the rows plus ``unattributed`` sum to the wall."""
    ops = max(1, len(traced.latencies))
    wall = sum(traced.latencies)
    print(f"\nlayers (traced pass, {len(traced.latencies)} operations, per operation;"
          f" self times plus unattributed sum to the wall)")
    print(f"  {'layer':<20} {'calls':>10} {'inclusive_s':>12} {'self_s':>12} {'share':>7}")
    for layer, stats in sorted(
        tracer.layers.items(), key=lambda item: -item[1].inclusive_s
    ):
        print(
            f"  {layer:<20} {stats.calls / ops:>10.3g} {stats.inclusive_s / ops:>12.6f}"
            f" {stats.self_s / ops:>12.6f} {stats.self_s / wall if wall else 0:>7.1%}"
        )
    rest = wall - tracer.top_level_s
    print(f"  {'unattributed':<20} {'':>10} {'':>12} {rest / ops:>12.6f}"
          f" {rest / wall if wall else 0:>7.1%}")
    print(f"  {'wall':<20} {'':>10} {'':>12} {wall / ops:>12.6f} {1:>7.1%}")


def print_tail(table: dict) -> None:
    print("\ntail split (mean ms per request, traced pass)")
    print(f"  {'group':<6} {'requests':>8} " + " ".join(f"{c:>9}" for c in SPLIT_COLUMNS))
    for group in ("p50", "p99"):
        cells = " ".join(f"{table[f'tail.{group}.{c}_ms'][0]:>9.3f}" for c in SPLIT_COLUMNS)
        print(f"  {group:<6} {table[f'tail.{group}.requests'][0]:>8} {cells}")


# -------------------------------------------------------------- main


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object to print."""
    from layers import Tracer, patched
    from repro import obs
    from workloads import SPLIT_LAYERS

    city = workload.setup(seed)  # untimed: lazy imports and first-call allocations
    setup_times = []

    def time_setups():
        # Timed at the start of every round or episode, so that their median
        # spans the run's spells of host speed as the operations' does.
        for _ in range(workload.setups):
            started = time.perf_counter()
            workload.setup(seed)
            setup_times.append(time.perf_counter() - started)

    result = workload.run(city, seed, seconds, on_round=time_setups)
    rss_mb = peak_rss_mb()
    checks, failures = workload.check(city, seed, result)
    attempted = result.attempted + checks
    failures = result.failures + failures
    metrics = end_to_end_metrics(setup_times, result.latencies, rss_mb)

    print(f"workload {workload.name}  seed {seed}  operations {len(result.latencies)}"
          f"  setups {len(setup_times)}  checks {checks}")
    if "regret" in result.facts:
        print(f"regret of the first pipeline: {result.facts['regret']!r}")
    print_table("end-to-end (untraced)", metrics)

    if trace:
        tracer = Tracer(SPLIT_LAYERS)
        obs.enable()
        obs.reset()
        try:
            with patched(tracer, workload.trace_targets(tracer, city)):
                traced = workload.run(city, seed, seconds, replay=result, tracer=tracer)
            metrics = per_layer_metrics(tracer, traced, sum(result.latencies))
        finally:
            obs.disable()
        metrics.update(tail_splits(result.latencies, traced.splits))
        attempted += traced.attempted
        failures += traced.failures
        wall = sum(traced.latencies)
        unattributed = wall - tracer.top_level_s
        print_layers(tracer, traced)
        print_tail(metrics)
        print_table("per-layer (traced, per operation)", metrics)
        if abs(unattributed) > RECONCILE_TOLERANCE * wall:
            failures.append(
                f"layers do not reconcile: {unattributed:.4f} s of {wall:.4f} s "
                f"unattributed (tolerance {RECONCILE_TOLERANCE:.0%})"
            )

    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    return {
        "correct": not failures and bool(result.latencies),
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    pin_to_one_cpu()
    available = build_workloads()
    if args.workload not in available:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(available)}")
    outcome = run(available[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
