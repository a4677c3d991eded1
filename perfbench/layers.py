"""Layer tracing from outside the program: wrappers around public calls.

The traced run of the benchmark replaces a handful of module attributes,
class methods and bound methods with timing wrappers (see
:func:`patched`), so no span inside ``src/`` is needed.  A :class:`Tracer`
keeps every wrapped call's inclusive time and its *self* time (inclusive
minus the wrapped calls nested inside it), so the self times of all layers
partition the time spent under the top-level wrappers and the remainder of
the wall is reported as unattributed.

Per-request splits (the quote-tail table) are collected with
:meth:`Tracer.begin_request` / :meth:`Tracer.end_request`: while a request
is open, the *outermost* call of every layer in :attr:`Tracer.split_layers`
adds its inclusive time to the request's split.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Inclusive/self time per layer, plus optional per-request splits."""

    def __init__(self, split_layers: frozenset[str] = frozenset()) -> None:
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.counts: dict[str, float] = defaultdict(float)
        self.split_layers = split_layers
        self.recording = False
        #: Time under wrappers entered with no wrapper active (the
        #: attributed part of the wall).
        self.top_level_s = 0.0
        self._stack: list[list[float]] = []  # [child seconds] per active call
        self._split_depth = 0
        self._request: dict[str, float] | None = None

    # ---------------------------------------------------------- wrapping

    def wrap(self, layer: str, fn, hook=None):
        """A wrapper timing ``fn`` as ``layer`` while recording.

        ``hook(args, kwargs)``, when given, runs before each recorded call
        (it may add a ``stats`` dict to ``kwargs``) and may return a callback
        that receives the call's result, to add counts.
        """

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            after = hook(args, kwargs) if hook is not None else None
            frame = [0.0]
            split = layer in self.split_layers
            outermost_split = split and self._split_depth == 0
            self._split_depth += split
            self._stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._stack.pop()
                self._split_depth -= split
                if self._stack:
                    self._stack[-1][0] += elapsed
                else:
                    self.top_level_s += elapsed
                stats = self.layers[layer]
                stats.calls += 1
                stats.inclusive_s += elapsed
                stats.self_s += elapsed - frame[0]
                if outermost_split and self._request is not None:
                    self._request[layer] = self._request.get(layer, 0.0) + elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # ---------------------------------------------------------- requests

    def begin_request(self) -> None:
        self._request = {}

    def end_request(self) -> dict[str, float]:
        request, self._request = self._request or {}, None
        return request

    # ----------------------------------------------------------- queries

    def inclusive(self, layer: str) -> float:
        return self.layers[layer].inclusive_s if layer in self.layers else 0.0

    def calls(self, layer: str) -> int:
        return self.layers[layer].calls if layer in self.layers else 0


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Install wrappers for ``(owner, attribute, layer[, hook])`` tuples.

    ``owner`` is a module, a class or an instance; the original attribute is
    put back on exit even when the body raises.  Instance attributes shadow
    the class method only for that object, which is how one coverage index's
    kernels are traced without touching any other index.
    """
    saved = []
    try:
        for target in targets:
            owner, attribute, layer = target[:3]
            hook = target[3] if len(target) > 3 else None
            own = vars(owner)
            saved.append((owner, attribute, attribute in own, own.get(attribute)))
            wrapper = tracer.wrap(layer, getattr(owner, attribute), hook)
            setattr(owner, attribute, wrapper)
        yield
    finally:
        for owner, attribute, had_own, original in reversed(saved):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
