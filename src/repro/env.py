"""Central registry of every ``REPRO_*`` environment knob.

Every environment variable the library reads is declared here as an
:class:`EnvKnob` — name, default, parser, one-line doc — and read through
the knob's accessors.  The ``env-registry`` lint rule (``repro lint``)
rejects any ``os.environ`` / ``os.getenv`` *read* of a ``REPRO_*`` key
outside this module, and ``scripts/gen_env_docs.py`` generates the README
knob table from these declarations, so the docs cannot drift from the code.

Writes (``os.environ[...] = value``) remain legal everywhere: environment
variables are the repo's cross-process transport (the CLI exports knobs so
forked pool workers inherit them), and only *reads* need a single source of
truth.  Use :func:`temporary` to set-and-restore a knob around a benchmark
section instead of hand-rolled save/restore.

Parsers take the raw string and return the typed value; they are only
invoked when the variable is set, so ``default`` is returned untouched
(``get()``) when the environment says nothing.  Modules with bespoke
validation read ``raw()`` and keep their own error messages.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

#: Strings accepted as "true" by :func:`parse_bool` (case-insensitive).
TRUE_VALUES = frozenset({"1", "true", "yes", "on"})


def parse_bool(raw: str) -> bool:
    """``"1"/"true"/"yes"/"on"`` (any case) → True, everything else False."""
    return raw.strip().lower() in TRUE_VALUES


def parse_nonempty(raw: str) -> str | None:
    """The string itself, or ``None`` for empty / whitespace-only values."""
    return raw if raw.strip() else None


@dataclass(frozen=True)
class EnvKnob:
    """One declared environment knob: the single place its read happens."""

    name: str
    default: object
    parser: Callable[[str], object]
    doc: str
    #: Where the knob surfaces besides the environment ("--trace-out PATH",
    #: "constructor argument", ...) — documentation only.
    cli: str = field(default="", compare=False)

    def raw(self) -> str | None:
        """The raw environment string, or ``None`` when unset."""
        return os.environ.get(self.name)

    def is_set(self) -> bool:
        """Whether the variable is present *and* non-empty."""
        raw = self.raw()
        return raw is not None and bool(raw)

    def get(self) -> object:
        """The parsed value, or ``default`` when the variable is unset.

        Parser exceptions propagate — a malformed knob should fail loudly at
        the read site, with the variable name in the message.
        """
        raw = self.raw()
        if raw is None:
            return self.default
        return self.parser(raw)


#: Declaration order is presentation order in the generated docs table.
REGISTRY: dict[str, EnvKnob] = {}


def _declare(knob: EnvKnob) -> EnvKnob:
    if knob.name in REGISTRY:
        raise ValueError(f"duplicate env knob declaration: {knob.name}")
    REGISTRY[knob.name] = knob
    return knob


def knob(name: str) -> EnvKnob:
    """Look up a declared knob by variable name (KeyError when undeclared)."""
    return REGISTRY[name]


class temporary:
    """Context manager: set (or unset) a knob for a scope, then restore.

    ``value=None`` removes the variable for the scope.  Used by the bench
    scripts to pin a knob per measured section without hand-rolled
    save/restore of ``os.environ``.
    """

    def __init__(self, name: str, value: str | None) -> None:
        self.name = name
        self.value = value
        self._previous: str | None = None

    def __enter__(self) -> "temporary":
        self._previous = os.environ.get(self.name)
        if self.value is None:
            os.environ.pop(self.name, None)
        else:
            os.environ[self.name] = str(self.value)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._previous is None:
            os.environ.pop(self.name, None)
        else:
            os.environ[self.name] = self._previous


# --------------------------------------------------------------- coverage


COVERAGE_CACHE = _declare(
    EnvKnob(
        name="REPRO_COVERAGE_CACHE",
        default=None,
        parser=parse_nonempty,
        doc="Directory caching coverage indices on disk, keyed by a content "
        "fingerprint of (city, λ, meet-test mode); unset disables caching.",
    )
)


# --------------------------------------------------------------- solvers


POOL_OVERSUBSCRIBE = _declare(
    EnvKnob(
        name="REPRO_POOL_OVERSUBSCRIBE",
        default=False,
        parser=lambda raw: bool(raw),
        doc="Lift the CPU-affinity cap on worker-pool sizes (any non-empty "
        "value); for attribution runs on small hosts, not timing runs.",
    )
)


# ----------------------------------------------------------- observability


OBS_TRACE = _declare(
    EnvKnob(
        name="REPRO_OBS_TRACE",
        default=None,
        parser=parse_nonempty,
        doc="Write the run's Chrome/Perfetto trace (pid-attributed spans "
        "across worker pools, solver telemetry, final counters, gauges and "
        "histograms) to this JSON path; setting it enables collection.",
        cli="--trace-out PATH",
    )
)

OBS_LEDGER = _declare(
    EnvKnob(
        name="REPRO_OBS_LEDGER",
        default=None,
        parser=parse_nonempty,
        doc="Append one JSONL record per harness cell / bench section "
        "(commit, instance features, outcome) to this ledger path.",
        cli="--ledger PATH",
    )
)
