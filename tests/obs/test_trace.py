"""The trace module: lifecycle, event shapes, schema validation, spill.

Spans become clock-aligned Chrome complete events in the one event buffer,
counters/instants layer kernel and memory context and solver telemetry onto
the timeline, and worker spill files carry events that never rode a task
snapshot home.  These tests pin the single-process behaviour; the
cross-process pieces live in ``test_trace_pool.py``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import obs
from repro.obs import trace


class TestLifecycle:
    def test_disabled_by_default_and_span_is_free(self):
        assert not obs.enabled()
        with obs.span("anything"):
            pass
        assert trace.take_trace() == []

    def test_enable_implies_metric_collection(self):
        obs.enable(out="unused.json")
        assert obs.enabled()
        assert obs.configured_out() == "unused.json"
        with obs.span("work"):
            pass
        assert obs.get_registry().histograms["span.work"].count == 1

    def test_one_span_appends_exactly_one_event(self, monkeypatch):
        # Collection and a trace output both on: the span is recorded once,
        # in the one buffer.  (The throttled RSS sampler is held off so the
        # count is exact; its samples are counter events, not span records.)
        monkeypatch.setattr(trace, "_SAMPLE_INTERVAL_S", float("inf"))
        obs.enable(out="unused.json")
        with obs.span("once", rows=3):
            pass
        (event,) = trace.take_trace()
        assert event["ph"] == "X" and event["name"] == "once"
        assert event["args"] == {"path": "once", "rows": 3}

    def test_rss_sampling_only_with_an_output(self):
        obs.enable()
        with obs.span("unsampled"):
            pass
        assert {e["ph"] for e in trace.take_trace()} == {"X"}
        obs.enable(out="unused.json")
        with obs.span("sampled"):
            pass
        assert "rss_mb" in [e["name"] for e in trace.take_trace() if e["ph"] == "C"]

    def test_write_trace_drops_buffer_and_out(self, tmp_path):
        obs.enable(out=str(tmp_path / "trace.json"))
        with obs.span("work"):
            pass
        assert trace.take_trace()
        obs.write_trace()
        assert trace.take_trace() == []
        assert obs.configured_out() is None
        assert obs.enabled()  # the metrics stay for the summary

    def test_buffer_survives_obs_reset_and_disable(self):
        # The bench flips obs.enable()/disable() around its timed sections;
        # with an output configured the buffer keeps accumulating across
        # those flips, and nothing is recorded while collection is off.
        obs.enable(out="unused.json")
        with obs.span("before"):
            pass
        obs.reset()
        obs.disable()
        with obs.span("while_off"):
            pass
        obs.enable()
        with obs.span("after"):
            pass
        names = [event["name"] for event in trace.take_trace() if event["ph"] == "X"]
        assert names == ["before", "after"]

    def test_buffer_drops_with_metrics_without_output(self):
        # perfbench's traced run enables collection with no output: its
        # enable/disable toggles drop the events with the metrics, and no
        # RSS sampling starts.
        obs.enable()
        for _ in range(3):
            with obs.span("work"):
                pass
        assert [e["ph"] for e in trace.take_trace()] == ["X", "X", "X"]
        obs.reset()
        assert trace.take_trace() == []
        with obs.span("work"):
            pass
        obs.disable()
        assert trace.take_trace() == []


class TestEvents:
    def test_span_becomes_complete_event(self):
        obs.enable()
        with obs.span("outer", phase="screen"):
            with obs.span("inner"):
                time.sleep(0.001)
        events = {event["name"]: event for event in trace.take_trace()}
        outer, inner = events["outer"], events["inner"]
        for event in (outer, inner):
            assert event["ph"] == "X"
            assert event["pid"] == os.getpid()
            assert event["dur"] >= 0
        assert outer["args"]["phase"] == "screen"
        assert inner["args"]["path"] == "outer.inner"
        # The child's window nests inside the parent's.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1

    def test_timestamps_are_epoch_aligned(self):
        obs.enable()
        before_us = time.time() * 1e6
        with obs.span("aligned"):
            pass
        after_us = time.time() * 1e6
        (event,) = [e for e in trace.take_trace() if e["name"] == "aligned"]
        assert before_us - 1e6 <= event["ts"] <= after_us + 1e6

    def test_emit_counter_and_instant(self):
        obs.enable()
        obs.emit_counter("rss_mb", {"rss_mb": 12.5})
        obs.emit_instant("kernel.dispatch", {"influence.dispatch.idarray": 3})
        counter, instant = trace.take_trace()
        assert counter["ph"] == "C" and counter["args"] == {"rss_mb": 12.5}
        assert instant["ph"] == "i" and instant["s"] == "p"
        assert instant["args"]["influence.dispatch.idarray"] == 3

    def test_failed_span_records_its_error(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("failing"):
                raise ValueError("boom")
        (event,) = trace.take_trace()
        assert event["args"]["error"] == "ValueError"

    def test_read_rss_positive_on_linux(self):
        rss = trace.read_rss_mb()
        if rss is not None:
            assert rss > 0


class TestWriteAndValidate:
    def test_write_trace_roundtrip_validates(self, tmp_path):
        out = tmp_path / "trace.json"
        obs.enable(out=str(out))
        with obs.span("one"):
            pass
        obs.counter_add("influence.dispatch.batch", 3)
        written = obs.write_trace()
        assert written == out
        data = json.loads(out.read_text())
        assert obs.validate_chrome_trace(data) == []
        assert data["displayTimeUnit"] == "ms"
        assert data["otherData"]["counters"]["influence.dispatch.batch"] == 3
        names = {event["name"] for event in data["traceEvents"]}
        assert "one" in names and "process_name" in names

    def test_write_trace_without_path_raises(self):
        obs.enable()
        with pytest.raises(ValueError, match="no trace output path"):
            obs.write_trace()

    def test_validate_flags_problems(self):
        bad = {
            "traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "ts": 10, "dur": -1},
                {"name": "y", "ph": "X", "pid": 1, "ts": 5, "dur": 1},
                {"name": "z", "ph": "?", "pid": 1, "ts": 0},
            ]
        }
        problems = obs.validate_chrome_trace(bad)
        assert any("non-negative dur" in p for p in problems)
        assert any("moved backwards" in p for p in problems)
        assert any("unknown phase" in p for p in problems)
        assert obs.validate_chrome_trace({"nope": 1}) == [
            "top level must be an object with a traceEvents list"
        ]


class TestSpill:
    def test_flush_and_collect_roundtrip(self, tmp_path):
        out = tmp_path / "trace.json"
        obs.enable(out=str(out))
        with obs.span("worker.side"):
            pass
        obs.counter_add("spilled.counter", 2)
        path = obs.flush_worker_spill()
        assert path is not None and path.parent == tmp_path / "trace.json.spill"
        # The flush drained the buffer: a second flush is a no-op.
        assert obs.flush_worker_spill() is None
        assert trace.take_trace() == []
        assert obs.counter_value("spilled.counter") == 0

        consumed = obs.collect_spills()
        assert consumed == 1
        assert obs.counter_value("spilled.counter") == 2
        assert "worker.side" in [e["name"] for e in trace.take_trace()]
        # Spill files are deleted after merge — no double counting — and
        # the emptied directory goes with them.
        assert not (tmp_path / "trace.json.spill").exists()
        assert obs.collect_spills() == 0

    def test_flush_without_spill_dir_is_noop(self):
        # No output configured means no spill directory to flush into.
        obs.enable()
        with obs.span("unspillable"):
            pass
        assert obs.flush_worker_spill() is None
        assert [e["name"] for e in trace.take_trace()] == ["unspillable"]
