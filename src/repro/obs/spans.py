"""Lightweight nesting spans.

``with span("coverage.build", lambda_m=100.0):`` times a region, records the
completed span once, as a Chrome complete event in the run's event buffer
(with its dotted nesting path and attributes as ``args``), and feeds its
duration into the ``span.<name>`` histogram.  When observability is
disabled, :func:`span` returns a shared no-op context manager — no
allocation, no clock reads — so instrumented regions cost one boolean test.

Spans nest via a process-local stack (the instrumented code is
single-threaded per process; worker processes each have their own stack).
Histogram names use the span's *own* name, not the nesting path, so serial
and parallel runs aggregate identically; the full path is kept on the span
event for trace reconstruction.
"""

from __future__ import annotations

import time

from repro.obs import registry as _registry
from repro.obs import trace as _trace
from repro.obs.registry import _STATE


class _NullSpan:
    """Shared do-nothing span used whenever collection is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """One timed region; created by :func:`span`, used as a context manager."""

    __slots__ = ("name", "attrs", "path", "duration_s", "_started")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.path = name
        self.duration_s: float | None = None
        self._started = 0.0

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes mid-span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = _STATE.span_stack
        self.path = ".".join((*stack, self.name)) if stack else self.name
        stack.append(self.name)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._started
        stack = _STATE.span_stack
        if stack and stack[-1] == self.name:
            stack.pop()
        if _STATE.enabled:
            _registry.histogram_observe(f"span.{self.name}", self.duration_s)
            args = {"path": self.path, **self.attrs}
            if exc_type is not None:
                args["error"] = exc_type.__name__
            _trace.emit_complete(self.name, self._started, self.duration_s, args=args)
            _trace.maybe_sample()
        return False


def span(name: str, **attrs):
    """A context manager timing one named region (no-op when disabled)."""
    if not _STATE.enabled:
        return _NULL_SPAN
    return Span(name, attrs)
