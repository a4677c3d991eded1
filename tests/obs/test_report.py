"""The bottleneck report: trace loading and aggregation.

``repro obs report`` turns a run's Chrome trace into a fixed-width report
and refuses every other file.  These tests feed synthetic traces with
known arithmetic through the aggregators so every reported number is
pinned, not just smoke-checked.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import obs
from repro.cli import main
from repro.obs import report


def complete(name, ts_us, dur_us, pid=100, args=None):
    event = {"name": name, "ph": "X", "cat": "span", "ts": ts_us, "dur": dur_us,
             "pid": pid, "tid": pid}
    if args:
        event["args"] = args
    return event


@pytest.fixture()
def trace_data():
    """A restart-bench-shaped trace: one parent (pid 100), two workers.

    First ``pool.map`` spans [1000, 11000]us with 4000us of worker task time
    across 2 lanes → warm-up = 10000 - 4000/2 = 8000us = 0.008s.
    """
    events = [
        complete("pool.spawn", 0, 500, pid=100),
        complete("pool.export", 500, 300, pid=100),
        complete("pool.map", 1000, 10_000, pid=100, args={"first": True}),
        complete("pool.attach", 2000, 1000, pid=201),
        complete("pool.attach", 2500, 1000, pid=202),
        complete("pool.task", 4000, 1000, pid=201),
        complete("pool.task", 4500, 1000, pid=202),
        complete("restart.reduce", 11_200, 400, pid=100),
        # A later, already-warm map: outside the first window.
        complete("pool.map", 20_000, 2_000, pid=100),
        complete("pool.task", 20_100, 900, pid=201),
        complete(
            "bls.sweep", 30_000, 4_000, pid=100,
            args={"screen_s": 0.001, "exchange_s": 0.002,
                  "release_s": 0.0005, "topup_s": 0.0005},
        ),
        complete(
            "bls.sweep", 35_000, 2_000, pid=100,
            args={"screen_s": 0.001, "exchange_s": 0.0005,
                  "release_s": 0.0003, "topup_s": 0.0002},
        ),
        {"name": "kernel.dispatch", "ph": "i", "s": "p", "ts": 40_000, "pid": 100,
         "tid": 100, "args": {"influence.dispatch.batch": 7}},
        {"name": "rss_mb", "ph": "C", "ts": 1000, "pid": 100, "tid": 100,
         "args": {"rss_mb": 50.0}},
        {"name": "rss_mb", "ph": "C", "ts": 9000, "pid": 100, "tid": 100,
         "args": {"rss_mb": 80.0}},
        {"name": "rss_mb", "ph": "C", "ts": 5000, "pid": 201, "tid": 201,
         "args": {"rss_mb": 30.0}},
    ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"commit": "cafef00d", "counters": {"influence.dispatch.batch": 7}},
    }


class TestLoadTrace:
    def test_trace_loads(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert report.load_trace(path) == {"traceEvents": []}

    @pytest.mark.parametrize(
        "text",
        [
            # An old run-ledger file (JSONL, one record per line).
            '{"schema": "obs-ledger-v1", "kind": "bench.sweep"}\n'
            '{"schema": "obs-ledger-v1", "kind": "bench.restarts"}\n',
            # The old JSONL run log (the trace carries its content now).
            '{"event": "counters", "counters": {"a": 1}}\n',
            # Malformed JSON.
            '{"traceEvents": [',
        ],
        ids=["ledger", "runlog", "malformed"],
    )
    def test_non_traces_are_refused(self, tmp_path, capsys, text):
        path = tmp_path / "not-a-trace.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a Chrome trace"):
            report.render_report(path)
        for flags in ([], ["--validate"]):
            assert main(["obs", "report", *flags, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.count("not a Chrome trace") == 1, err


class TestRestartAttribution:
    def test_totals_and_warmup(self, trace_data):
        attribution = report.restart_attribution(trace_data)
        totals = attribution["totals_s"]
        assert totals["spawn"] == pytest.approx(0.0005)
        assert totals["export"] == pytest.approx(0.0003)
        assert totals["attach"] == pytest.approx(0.002)
        assert totals["compute"] == pytest.approx(0.0029)  # 3 tasks
        assert totals["reduce"] == pytest.approx(0.0004)
        assert attribution["map_count"] == 2
        assert attribution["map_wall_s"] == pytest.approx(0.012)
        assert attribution["worker_pids"] == [201, 202]
        assert attribution["parent_pids"] == [100]
        # First map: 10000us wall - 4000us tasks+attach? tasks(2000)+attach(2000)
        # in window = 4000us over 2 lanes → 10000 - 2000 = 8000us.
        assert attribution["warmup_s"] == pytest.approx(0.008)

    def test_empty_trace(self):
        attribution = report.restart_attribution({"traceEvents": []})
        assert attribution["map_count"] == 0
        assert attribution["warmup_s"] == 0.0
        assert attribution["worker_pids"] == []


class TestBlsPhases:
    def test_phase_sums(self, trace_data):
        row = report.bls_phase_breakdown(trace_data)
        assert row["sweeps"] == 2
        assert row["wall_s"] == pytest.approx(0.006)
        assert row["screen_s"] == pytest.approx(0.002)
        assert row["exchange_s"] == pytest.approx(0.0025)
        assert row["release_s"] == pytest.approx(0.0008)
        assert row["topup_s"] == pytest.approx(0.0007)

    def test_no_sweeps(self):
        assert report.bls_phase_breakdown({"traceEvents": []})["sweeps"] == 0


class TestScreenPrecision:
    def test_counters_and_table(self):
        counters = {
            "bls.screen.rows": 40, "bls.screen.survivors": 12,
            "bls.exact.rows": 9, "bls.exact.cleared": 7,
            "bls.dirty.scanned": 5, "bls.dirty.skipped": 35,
        }
        data = {"traceEvents": [], "otherData": {"counters": counters}}
        assert report.bls_screen_precision(data) == {
            "rows": 40, "survivors": 12, "exact_rows": 9, "exact_cleared": 7,
            "scanned": 5, "skipped": 35,
        }
        lines = report.trace_report(data).splitlines()
        header = lines.index("-- BLS exchange screen --") + 1
        assert lines[header].split() == [
            "rows", "survivors", "exact_rows", "exact_cleared", "scanned", "skipped"
        ]
        assert lines[header + 2].split() == ["40", "12", "9", "7", "5", "35"]

    def test_no_bls(self):
        assert report.bls_screen_precision({"traceEvents": []}) == {}


class TestKernelsAndRss:
    def test_kernel_dispatch_table(self, trace_data):
        assert report.kernel_dispatch_table(trace_data) == {
            "influence.dispatch.batch": 7.0
        }

    def test_rss_ranges(self, trace_data):
        ranges = report.rss_by_pid(trace_data)
        assert ranges[100] == (50.0, 80.0)
        assert ranges[201] == (30.0, 30.0)


class TestRendering:
    def test_trace_report_mentions_every_section(self, trace_data, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(trace_data))
        text = report.render_report(path)
        assert "commit: cafef00d" in text
        assert "restart bench time attribution" in text
        assert "BLS sweep phases" in text
        assert "kernel dispatch in instrumented passes" in text
        assert "RSS by pid" in text
        assert "warm-up" in text

    def test_runlog_report(self, tmp_path):
        # The run's one file is its trace: the span quantile table and the
        # counters come from its otherData.
        path = tmp_path / "r.json"
        path.write_text(json.dumps({
            "traceEvents": [],
            "otherData": {
                "histograms": {"span.quote.price": {"count": 3, "total": 0.3,
                                                    "min": 0.08, "p50": 0.1,
                                                    "p95": 0.12, "p99": 0.12,
                                                    "max": 0.12}},
                "counters": {"sweep.moves": 5},
            },
        }))
        text = report.render_report(path)
        assert "quote.price" in text
        assert "p99_s" in text
        assert "sweep.moves" in text


class TestSpanQuantiles:
    def test_report_quantiles_equal_the_run_histograms(self, tmp_path):
        obs.enable(out=str(tmp_path / "run.json"))
        for seconds in (0.0, 0.001, 0.002, 0.004, 0.008):
            with obs.span("region"):
                time.sleep(seconds)
        histogram = obs.get_registry().histograms["span.region"]
        path = obs.write_trace()

        data = json.loads(path.read_text())
        summary = data["otherData"]["histograms"]["span.region"]
        assert (summary["p50"], summary["p95"], summary["p99"]) == (
            histogram.p50, histogram.p95, histogram.p99
        )
        (row,) = [line for line in report.render_report(path).splitlines()
                  if line.split()[:1] == ["region"]]
        assert row.split()[1:] == [
            "5", *(f"{value:.4f}" for value in (histogram.total, histogram.p50,
                                               histogram.p95, histogram.p99,
                                               histogram.max))
        ]
