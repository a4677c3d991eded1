"""Command-line interface: run any experiment cell or sweep from a shell.

Examples::

    mroam cell --dataset nyc --alpha 1.0 --p-avg 0.05
    mroam sweep --dataset sg --parameter alpha
    mroam datasets
    mroam example1
"""

from __future__ import annotations

import argparse
import sys

from repro import env, obs
from repro.datasets import example1_instance, example1_strategy1, example1_strategy2, generate_city
from repro.experiments.configs import (
    ALPHA_VALUES,
    BENCH_SCALE,
    GAMMA_VALUES,
    LAMBDA_VALUES,
    P_AVG_VALUES,
)
from repro.experiments.harness import run_cell, sweep
from repro.experiments.reporting import format_regret_table, format_runtime_table
from repro.market.scenario import Scenario
from repro.trajectory.stats import summarize

_SWEEP_VALUES = {
    "alpha": ALPHA_VALUES,
    "p_avg": P_AVG_VALUES,
    "gamma": GAMMA_VALUES,
    "lambda_m": LAMBDA_VALUES,
}
_SWEEP_FORMATS = {
    "alpha": "{:.0%}",
    "p_avg": "{:.0%}",
    "gamma": "{:.2f}",
    "lambda_m": "{:.0f}m",
}


def positive_int(raw: str) -> int:
    """argparse type: an integer >= 1 (exit 2 with a usage error otherwise)."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=("nyc", "sg"), default="nyc")
    parser.add_argument("--billboards", type=int, default=None, help="inventory size")
    parser.add_argument("--trajectories", type=int, default=None, help="corpus size")
    parser.add_argument("--alpha", type=float, default=1.0, help="demand-supply ratio")
    parser.add_argument("--p-avg", type=float, default=0.05, help="avg individual demand ratio")
    parser.add_argument("--gamma", type=float, default=0.5, help="unsatisfied penalty ratio")
    parser.add_argument("--lambda-m", type=float, default=100.0, help="influence radius (m)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--restarts", type=int, default=3, help="ALS/BLS restart count")
    parser.add_argument(
        "--methods",
        default="g-order,g-global,als,bls",
        help="comma-separated method names",
    )
    parser.add_argument(
        "--workers",
        type=positive_int,
        default=None,
        help="worker processes sharing one coverage index: a grid of several "
        "methods × values tasks fans out over them, a lone ALS/BLS cell fans "
        "out its random restarts; same results as serial (default 1)",
    )
    parser.add_argument(
        "--obs-summary",
        action="store_true",
        help="print a human-readable metrics summary after the run",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the run's Chrome/Perfetto trace (clock-aligned spans "
        "across worker pools, solver telemetry, final counters, gauges and "
        f"histograms) to this JSON file; ${obs.TRACE_ENV} is the default",
    )


def _scenario_from(args: argparse.Namespace) -> Scenario:
    scale = BENCH_SCALE[args.dataset]
    return Scenario(
        dataset=args.dataset,
        n_billboards=args.billboards if args.billboards is not None else scale[0],
        n_trajectories=args.trajectories if args.trajectories is not None else scale[1],
        alpha=args.alpha,
        p_avg=args.p_avg,
        gamma=args.gamma,
        lambda_m=args.lambda_m,
        seed=args.seed,
    )


def _obs_begin(args: argparse.Namespace) -> bool:
    """Enable observability when the flags or the environment ask for it."""
    trace_out = getattr(args, "trace_out", None) or env.OBS_TRACE.raw()
    if trace_out is None and not args.obs_summary:
        return False
    obs.enable(out=trace_out)
    return True


def _obs_finish(args: argparse.Namespace) -> None:
    """Write the trace, print the summary, then reset obs."""
    try:
        if obs.configured_out() is not None:
            from repro.parallel.pool import close_all_pools

            # Retire the pools first so every worker's teardown spill (the
            # events recorded after its last shipped snapshot) is on disk
            # before the trace is assembled.
            close_all_pools()
            path = obs.write_trace()
            print(f"\nwrote Chrome trace to {path}")
        if args.obs_summary:
            print()
            print(obs.summary_table())
    finally:
        obs.disable()


def _cmd_cell(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    methods = args.methods.split(",")
    obs_active = _obs_begin(args)
    metrics = run_cell(
        scenario,
        methods=methods,
        restarts=args.restarts,
        workers=args.workers,
    )
    print(f"cell: {scenario}")
    for method, cell in metrics.items():
        print(
            f"  {method:<9} regret={cell.total_regret:>12.1f} "
            f"excess={cell.excessive_pct:5.1f}% unsat={cell.unsatisfied_pct:5.1f}% "
            f"satisfied={cell.satisfied_advertisers}/{cell.num_advertisers} "
            f"time={cell.runtime_s:.2f}s"
        )
    if obs_active:
        _obs_finish(args)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    values = _SWEEP_VALUES[args.parameter]
    methods = args.methods.split(",")
    obs_active = _obs_begin(args)
    result = sweep(
        scenario,
        args.parameter,
        values,
        methods=methods,
        restarts=args.restarts,
        workers=args.workers,
    )
    fmt = _SWEEP_FORMATS[args.parameter]
    print(format_regret_table(result, f"{args.dataset.upper()} — sweep over {args.parameter}", fmt))
    print()
    print(format_runtime_table(result, "Runtime", fmt))
    if obs_active:
        _obs_finish(args)
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    for name in ("nyc", "sg"):
        scale = BENCH_SCALE[name]
        city = generate_city(
            name, n_billboards=scale[0], n_trajectories=scale[1], seed=args.seed
        )
        stats = summarize(city.trajectories)
        print(stats.as_table5_row(city.name, len(city.billboards)))
    return 0


def _cmd_example1(args: argparse.Namespace) -> int:
    instance = example1_instance()
    for label, builder in (("Strategy 1", example1_strategy1), ("Strategy 2", example1_strategy2)):
        allocation = builder(instance)
        print(f"{label}: regret={allocation.total_regret():.2f}")
        for advertiser in instance.advertisers:
            i = advertiser.advertiser_id
            achieved = allocation.influence(i)
            satisfied = "Y" if achieved >= advertiser.demand else "N"
            print(
                f"  {advertiser.name}: S={sorted(allocation.billboards_of(i))} "
                f"satisfy={satisfied} I(S)-I={achieved - advertiser.demand}"
            )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.export import sweep_to_csv
    from repro.experiments.figures import run_figure

    scale = None
    if args.billboards is not None or args.trajectories is not None:
        if args.billboards is None or args.trajectories is None:
            raise SystemExit("--billboards and --trajectories must be given together")
        scale = (args.billboards, args.trajectories)
    result, table = run_figure(
        args.figure_id, seed=args.seed, restarts=args.restarts, scale=scale
    )
    print(table)
    if args.csv:
        path = sweep_to_csv(result, args.csv)
        print(f"\nwrote {path}")
    return 0


def _cmd_quotes(args: argparse.Namespace) -> int:
    """Stream quotes through an :class:`OnlineHost` and print the verdicts.

    Builds the scenario's generated advertisers, accepts the first
    ``--book-size`` into a standing book, then prices the held-out rest as a
    proposal stream.  With ``--accept-attractive`` each quote whose repaired
    regret does not grow is committed through its token, so later quotes
    price against the grown book — the incremental engine's journal makes
    each of these a warm repair rather than a from-scratch re-solve.
    """
    from repro.market.online import OnlineHost

    scenario = _scenario_from(args)
    instance = scenario.build_instance()
    if instance.num_advertisers <= args.book_size:
        raise SystemExit(
            f"scenario generates {instance.num_advertisers} advertisers; "
            f"need > --book-size {args.book_size} to leave a proposal stream"
        )
    obs_active = _obs_begin(args)
    host = OnlineHost(
        instance.coverage,
        gamma=scenario.gamma,
        repair_sweeps=args.sweeps,
        pricing=args.pricing,
    )
    for advertiser in instance.advertisers[: args.book_size]:
        host.accept(advertiser.demand, advertiser.payment, name=advertiser.name)
    print(
        f"book: {args.book_size} proposals accepted "
        f"(pricing={host.pricing}), regret={host.total_regret():.1f}"
    )
    from repro.utils.timing import Stopwatch

    accepted = 0
    watch = Stopwatch()
    watch.start()
    for advertiser in instance.advertisers[args.book_size :]:
        quote = host.quote(
            advertiser.demand, advertiser.payment, name=advertiser.name
        )
        committed = False
        if args.accept_attractive and quote.attractive:
            host.commit(quote)
            committed = True
            accepted += 1
        print(
            f"  {quote.advertiser_name or f'#{advertiser.advertiser_id}':<8} "
            f"demand={quote.demand:>8} payment={quote.payment:>12.1f} "
            f"dregret={quote.regret_delta:>+12.1f} "
            f"satisfy={'Y' if quote.would_satisfy else 'N'} "
            f"{'ACCEPTED' if committed else 'quoted'}"
        )
    elapsed = watch.stop()
    streamed = instance.num_advertisers - args.book_size
    print(
        f"stream: {streamed} quotes in {elapsed:.2f}s "
        f"({streamed / elapsed:.0f} quotes/s), {accepted} accepted, "
        f"final regret={host.total_regret():.1f}"
    )
    if obs_active:
        _obs_finish(args)
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import load_trace, trace_report

    try:
        data = load_trace(args.path)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 1
    if args.validate:
        import json

        from repro.lint.findings import findings_payload, problems_to_findings

        problems = obs.validate_chrome_trace(data)
        findings = problems_to_findings("trace-schema", args.path, problems)
        if getattr(args, "as_json", False):
            # Same findings schema as `repro lint --json`, so one consumer
            # reads both checkers.
            print(json.dumps(findings_payload("repro-obs-validate", findings), indent=2))
            return 1 if findings else 0
        if findings:
            for finding in findings:
                print(f"invalid: {finding.message}", file=sys.stderr)
            return 1
        print(f"{args.path}: valid Chrome trace "
              f"({len(data['traceEvents'])} events)")
    print(trace_report(data))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_from_args

    return run_from_args(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mroam",
        description="Reproduction of 'Minimizing the Regret of an Influence Provider'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cell = sub.add_parser("cell", help="run all methods on one experiment cell")
    _add_scenario_arguments(cell)
    cell.set_defaults(func=_cmd_cell)

    sweep_parser = sub.add_parser("sweep", help="sweep one parameter (a paper figure)")
    _add_scenario_arguments(sweep_parser)
    sweep_parser.add_argument(
        "--parameter", choices=tuple(_SWEEP_VALUES), default="alpha"
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    datasets = sub.add_parser("datasets", help="print Table 5 dataset statistics")
    datasets.add_argument("--seed", type=int, default=7)
    datasets.set_defaults(func=_cmd_datasets)

    example = sub.add_parser("example1", help="replay the Section 1 worked example")
    example.set_defaults(func=_cmd_example1)

    figure = sub.add_parser("figure", help="regenerate one paper figure by id")
    figure.add_argument("figure_id", help="e.g. fig4 (see repro.experiments.figures)")
    figure.add_argument("--seed", type=int, default=7)
    figure.add_argument("--restarts", type=int, default=2)
    figure.add_argument("--billboards", type=int, default=None)
    figure.add_argument("--trajectories", type=int, default=None)
    figure.add_argument("--csv", default=None, help="also export the sweep to this CSV path")
    figure.set_defaults(func=_cmd_figure)

    quotes = sub.add_parser(
        "quotes",
        help="stream proposal quotes through the online host (DESIGN.md §15)",
    )
    quotes.add_argument("--dataset", choices=("nyc", "sg"), default="nyc")
    quotes.add_argument("--billboards", type=int, default=None, help="inventory size")
    quotes.add_argument("--trajectories", type=int, default=None, help="corpus size")
    quotes.add_argument("--alpha", type=float, default=1.0, help="demand-supply ratio")
    quotes.add_argument("--p-avg", type=float, default=0.05, help="avg individual demand ratio")
    quotes.add_argument("--gamma", type=float, default=0.5, help="unsatisfied penalty ratio")
    quotes.add_argument("--lambda-m", type=float, default=100.0, help="influence radius (m)")
    quotes.add_argument("--seed", type=int, default=7)
    quotes.add_argument(
        "--book-size",
        type=int,
        default=8,
        help="generated advertisers accepted as the standing book; the rest "
        "become the quoted proposal stream",
    )
    quotes.add_argument(
        "--pricing",
        choices=("incremental", "full"),
        default="incremental",
        help="quote-pricing engine (default: incremental); both return "
        "bit-identical quotes",
    )
    quotes.add_argument(
        "--sweeps", type=int, default=2, help="bounded-repair BLS sweeps per quote"
    )
    quotes.add_argument(
        "--accept-attractive",
        action="store_true",
        help="commit each quote whose repaired regret does not grow, so the "
        "book grows as the stream is priced",
    )
    quotes.add_argument(
        "--obs-summary",
        action="store_true",
        help="print a human-readable metrics summary after the run",
    )
    quotes.set_defaults(func=_cmd_quotes)

    obs_parser = sub.add_parser("obs", help="observability artifacts")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report",
        help="bottleneck report over a run's Chrome trace JSON",
    )
    report.add_argument("path", help="trace file to analyze")
    report.add_argument(
        "--validate",
        action="store_true",
        help="schema-check a Chrome trace first; exit 1 on violations",
    )
    report.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="with --validate, emit the shared findings JSON schema "
        "(same shape as `repro lint --json`)",
    )
    report.set_defaults(func=_cmd_obs_report)

    lint_parser = sub.add_parser(
        "lint",
        help="invariant linter: determinism, shm lifecycle, obs naming, "
        "env-knob registry, kernel contracts (DESIGN.md §14)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
