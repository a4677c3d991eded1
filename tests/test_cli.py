"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cell_defaults(self):
        args = build_parser().parse_args(["cell"])
        assert args.dataset == "nyc"
        assert args.alpha == 1.0

    def test_sweep_parameter_choices(self):
        args = build_parser().parse_args(["sweep", "--parameter", "gamma"])
        assert args.parameter == "gamma"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--parameter", "bogus"])

    @pytest.mark.parametrize("flag", ["--workers"])
    def test_zero_counts_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["cell", flag, "0"])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err


class TestCommands:
    def test_example1_output(self, capsys):
        assert main(["example1"]) == 0
        out = capsys.readouterr().out
        assert "Strategy 1" in out
        assert "Strategy 2" in out
        assert "regret=13.25" in out
        assert "regret=0.00" in out

    def test_cell_runs_small(self, capsys):
        code = main(
            [
                "cell",
                "--billboards", "50",
                "--trajectories", "300",
                "--alpha", "0.6",
                "--p-avg", "0.1",
                "--methods", "g-order,g-global",
                "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "g-order" in out
        assert "regret=" in out

    def test_sweep_runs_small(self, capsys):
        code = main(
            [
                "sweep",
                "--billboards", "50",
                "--trajectories", "300",
                "--p-avg", "0.1",
                "--methods", "g-global",
                "--parameter", "gamma",
                "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep over gamma" in out
        assert "Runtime" in out

    def test_figure_runs_small(self, capsys, tmp_path):
        csv_path = tmp_path / "fig10.csv"
        code = main(
            [
                "figure", "fig10",
                "--billboards", "50",
                "--trajectories", "300",
                "--restarts", "0",
                "--seed", "2",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert csv_path.exists()

    def test_figure_unknown_id(self):
        with pytest.raises(ValueError, match="unknown figure"):
            main(["figure", "fig99", "--billboards", "50", "--trajectories", "300"])

    def test_figure_partial_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig10", "--billboards", "50"])

    def test_cell_obs_out_and_summary(self, capsys, tmp_path):
        # The run's one obs output is its trace (--trace-out): spans, the
        # solver telemetry instant and the final counters in one file.
        import json

        from repro import obs

        trace_path = tmp_path / "run.json"
        code = main(
            [
                "cell",
                "--billboards", "40",
                "--trajectories", "250",
                "--p-avg", "0.1",
                "--methods", "g-global",
                "--restarts", "0",
                "--seed", "2",
                "--trace-out", str(trace_path),
                "--obs-summary",
            ]
        )
        assert code == 0
        assert not obs.enabled()  # the CLI cleans up after itself
        assert obs.configured_out() is None
        out = capsys.readouterr().out
        assert "== observability summary ==" in out
        assert "solver.solves" in out
        data = json.loads(trace_path.read_text())
        phases = {event["ph"] for event in data["traceEvents"]}
        assert {"X", "i"} <= phases
        assert "solver" in [e["name"] for e in data["traceEvents"] if e["ph"] == "i"]
        counters = data["otherData"]["counters"]
        assert counters["solver.solves"] == 1
        assert counters["coverage.builds"] == 1
        assert data["otherData"]["histograms"]["span.harness.cell"]["count"] == 1

    def test_obs_env_variable_enables_collection(self, capsys, tmp_path, monkeypatch):
        from repro import obs

        trace_path = tmp_path / "env-run.json"
        monkeypatch.setenv(obs.TRACE_ENV, str(trace_path))
        code = main(
            [
                "cell",
                "--billboards", "40",
                "--trajectories", "250",
                "--p-avg", "0.1",
                "--methods", "g-order",
                "--restarts", "0",
                "--seed", "2",
            ]
        )
        assert code == 0
        assert trace_path.exists()
        assert "wrote Chrome trace" in capsys.readouterr().out

    def test_datasets_table5(self, capsys):
        # Patch the bench scale down so the command is fast in tests.
        import repro.cli as cli_module

        original = cli_module.BENCH_SCALE
        cli_module.BENCH_SCALE = {"nyc": (30, 150), "sg": (60, 150)}
        try:
            assert main(["datasets", "--seed", "1"]) == 0
        finally:
            cli_module.BENCH_SCALE = original
        out = capsys.readouterr().out
        assert "NYC" in out and "SG" in out
        assert "AvgDistance" in out
