"""Span tests: no-op path, nesting, attributes, errors, trace round trip."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.spans import _NULL_SPAN


def span_events() -> list[dict]:
    return [event for event in obs.take_trace() if event["ph"] == "X"]


class TestDisabledSpans:
    def test_returns_shared_null_span(self):
        assert obs.span("anything") is _NULL_SPAN
        assert obs.span("other", attr=1) is _NULL_SPAN

    def test_null_span_records_nothing(self):
        with obs.span("region") as active:
            active.set(ignored=True)
        obs.enable()
        assert obs.take_trace() == []
        assert obs.get_registry().histograms == {}


class TestEnabledSpans:
    def test_records_histogram_and_event(self):
        obs.enable()
        with obs.span("region", parameter="alpha"):
            pass
        histogram = obs.get_registry().histograms["span.region"]
        assert histogram.count == 1
        assert histogram.total >= 0.0
        (event,) = span_events()
        assert event["name"] == "region"
        assert event["dur"] >= 0
        assert event["args"] == {"path": "region", "parameter": "alpha"}

    def test_nesting_paths(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = span_events()
        assert inner["args"]["path"] == "outer.inner"
        assert outer["args"]["path"] == "outer"
        # Histograms key on the span's own name, not the nesting path, so
        # serial and parallel runs aggregate identically.
        assert set(obs.get_registry().histograms) == {"span.outer", "span.inner"}

    def test_set_attaches_attributes_mid_span(self):
        obs.enable()
        with obs.span("region") as active:
            active.set(rows=12)
        (event,) = span_events()
        assert event["args"] == {"path": "region", "rows": 12}

    def test_exception_propagates_and_is_recorded(self):
        obs.enable()
        with pytest.raises(ValueError, match="boom"):
            with obs.span("failing"):
                raise ValueError("boom")
        (event,) = span_events()
        assert event["args"]["error"] == "ValueError"
        # The stack unwound — a following span is not nested under "failing".
        with obs.span("after"):
            pass
        assert span_events()[-1]["args"]["path"] == "after"


class TestTraceRoundTrip:
    def test_events_and_snapshots_round_trip(self, tmp_path):
        obs.enable(out=str(tmp_path / "run.json"))
        with obs.span("coverage.build", lambda_m=100.0):
            pass
        obs.counter_add("influence.dispatch.idarray", np.int64(3))
        obs.gauge_set("bitmap.bytes", np.float64(1024.0))
        obs.histogram_observe("rows", 7)
        obs.emit_instant("solver", {"method": "BLS", "telemetry": {"iterations": 2}})

        path = obs.write_trace()
        data = json.loads(path.read_text())

        events = [e for e in data["traceEvents"] if e["ph"] in ("X", "i")]
        span_event, solver_event = events
        assert span_event["name"] == "coverage.build"
        assert span_event["args"]["lambda_m"] == 100.0
        assert solver_event["name"] == "solver"
        assert solver_event["args"]["telemetry"] == {"iterations": 2}

        other = data["otherData"]
        assert other["counters"]["influence.dispatch.idarray"] == 3
        assert other["gauges"]["bitmap.bytes"] == 1024.0
        assert other["histograms"]["rows"]["count"] == 1
        assert other["histograms"]["span.coverage.build"]["count"] == 1

    def test_creates_parent_directories(self, tmp_path):
        obs.enable()
        path = obs.write_trace(tmp_path / "deep" / "nested" / "run.json")
        assert path.is_file()


class TestSummaryTable:
    def test_sections_and_names(self):
        obs.enable()
        obs.counter_add("coverage_cache.hit", 2)
        obs.gauge_set("bitmap.bytes", 64.0)
        with obs.span("harness.cell"):
            pass
        obs.histogram_observe("rows", 5)
        table = obs.summary_table()
        assert "-- counters --" in table
        assert "coverage_cache.hit" in table
        assert "-- gauges --" in table
        assert "-- spans --" in table
        assert "harness.cell" in table
        assert "-- histograms --" in table

    def test_empty_registry(self):
        obs.enable()
        assert "(nothing recorded)" in obs.summary_table()
