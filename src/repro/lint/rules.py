"""The shipped invariant rules.

Each rule is a function of ``(context, source_file)`` yielding
``(line, col, message)`` tuples; ids, motivations, and the paths each rule
patrols are documented in ``DESIGN.md`` §14.  Rules lean deliberately
syntactic: they catch the contract violations that have actually bitten
(module-global RNG, leaked shared memory, forked metric series, undocumented
knobs) without pretending to be a type checker.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import LintContext, SourceFile, rule

# --------------------------------------------------------------- helpers


def _attr_chain(node: ast.AST) -> str:
    """Dotted name of an attribute/name chain (``"np.random.seed"``), or ``""``
    for anything holding a non-name base (calls, subscripts, ...)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_call_to(node: ast.Call, dotted: tuple[str, ...]) -> bool:
    return _attr_chain(node.func) in dotted


def _in_package(source: SourceFile, *prefixes: str) -> bool:
    return source.rel.startswith(prefixes)


def _string_values(node: ast.AST) -> list[ast.Constant]:
    """The string constants a name expression can evaluate to: a literal, or
    both arms of a conditional expression (``"a" if flag else "b"``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node]
    if isinstance(node, ast.IfExp):
        return _string_values(node.body) + _string_values(node.orelse)
    return []


# ------------------------------------------------------------ determinism

#: Clock reads are confined to the obs layer and the stopwatch utility; a
#: wall-clock read anywhere else is either nondeterminism leaking into solver
#: logic or telemetry that belongs behind ``repro.obs`` / ``repro.utils.timing``.
_CLOCK_ALLOWED = ("src/repro/obs/", "src/repro/utils/timing.py")
_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
}

#: The legacy module-global numpy RNG API; ``default_rng``/``Generator``/
#: ``SeedSequence`` are the sanctioned seeded interfaces.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}

#: Modules where set-iteration order would change results (solver sweeps,
#: kernels, cross-process reductions), not just formatting.
_ORDERED_PATHS = (
    "src/repro/algorithms/",
    "src/repro/billboard/",
    "src/repro/parallel/",
    "src/repro/core/",
)


@rule(
    "determinism",
    "no module-global RNG, no clock reads outside repro/obs, no iteration "
    "over bare sets in solver/kernel/reduction modules",
)
def determinism(context: LintContext, source: SourceFile) -> Iterator:
    if not _in_package(source, "src/repro/"):
        return
    clock_allowed = _in_package(source, *_CLOCK_ALLOWED)
    ordered = _in_package(source, *_ORDERED_PATHS)
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if not clock_allowed and chain in _CLOCK_CALLS:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"clock read {chain}() outside repro/obs — solver results "
                    "must not depend on wall time; route telemetry through "
                    "repro.obs spans or repro.utils.timing",
                )
            elif chain.startswith("random.") and chain.count(".") == 1:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{chain}() uses the module-global stdlib RNG; thread a "
                    "seeded numpy Generator (repro.utils.rng.as_generator) "
                    "instead",
                )
            elif (
                chain.startswith(("np.random.", "numpy.random."))
                and chain.rsplit(".", 1)[1] not in _NP_RANDOM_OK
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{chain}() uses numpy's module-global RNG; use "
                    "np.random.default_rng(seed) / repro.utils.rng instead",
                )
        elif ordered and isinstance(node, (ast.For, ast.AsyncFor)):
            iterated = node.iter
            if isinstance(iterated, (ast.Set, ast.SetComp)) or (
                isinstance(iterated, ast.Call)
                and _attr_chain(iterated.func) in ("set", "frozenset")
            ):
                yield (
                    iterated.lineno,
                    iterated.col_offset,
                    "iteration over a bare set: order is arbitrary per process "
                    "and breaks parallel==serial reductions; iterate "
                    "sorted(...) or a list",
                )


# ----------------------------------------------------------- shm-lifecycle


def _enclosing_functions(tree: ast.AST):
    """Yield every function node with its body reachable for sub-walks."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_shared_memory_call(node: ast.Call) -> bool:
    chain = _attr_chain(node.func)
    return chain == "SharedMemory" or chain.endswith(".SharedMemory")


def _creates(node: ast.Call) -> bool:
    return any(
        keyword.arg == "create"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in node.keywords
    )


@rule(
    "shm-lifecycle",
    "SharedMemory creators must reach close()+unlink() (or a registered "
    "finalizer); attacher code paths must never unlink",
)
def shm_lifecycle(context: LintContext, source: SourceFile) -> Iterator:
    creations = []
    has_close = has_unlink = has_finalizer = False
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            if _is_shared_memory_call(node):
                creations.append(node)
            chain = _attr_chain(node.func)
            if chain.endswith(".close"):
                has_close = True
            if chain.endswith(".unlink"):
                has_unlink = True
            if chain.endswith((".register", "Finalize")) and chain.startswith(
                ("atexit", "util", "multiprocessing")
            ):
                has_finalizer = True
    if not creations:
        return
    for creation in creations:
        if _creates(creation):
            if not ((has_close and has_unlink) or has_finalizer):
                yield (
                    creation.lineno,
                    creation.col_offset,
                    "SharedMemory(create=True) without close()+unlink() (or a "
                    "registered atexit/Finalize hook) in this module — the "
                    "segment outlives the process",
                )
    # Attachers: a function that opens an existing segment must never unlink
    # it — that is the creator's exactly-once job.
    for function in _enclosing_functions(source.tree):
        attaches = [
            node
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and _is_shared_memory_call(node)
            and not _creates(node)
        ]
        if not attaches:
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and _attr_chain(node.func).endswith(
                ".unlink"
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"unlink() in {function.name}(), which attaches an "
                    "existing SharedMemory segment — attachers close their "
                    "mapping only; unlinking would tear the segment out from "
                    "under the creator and every sibling worker",
                )


# -------------------------------------------------------------- obs-naming

_OBS_BASES = {"obs", "trace", "_trace"}
_OBS_NAMED_CALLS = {
    "counter_add",
    "counter_value",
    "gauge_set",
    "histogram_observe",
    "span",
    "emit_instant",
    "emit_counter",
    "emit_complete",
}


@rule(
    "obs-naming",
    "metric/span name literals at obs call sites must appear in the "
    "repro.obs.names taxonomy (typos silently fork series across merges)",
)
def obs_naming(context: LintContext, source: SourceFile) -> Iterator:
    if not (
        _in_package(source, "src/repro/", "scripts/", "benchmarks/")
        and not _in_package(source, "src/repro/obs/")
    ):
        return
    from repro.obs import names as taxonomy

    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _OBS_NAMED_CALLS
            and _attr_chain(func.value) in _OBS_BASES
        ):
            continue
        name_arg = node.args[0]
        for constant in _string_values(name_arg):
            name = constant.value
            if name in taxonomy.NAMES or name.startswith(taxonomy.DYNAMIC_PREFIXES):
                continue
            yield (
                constant.lineno,
                constant.col_offset,
                f"obs name {name!r} is not in the repro.obs.names taxonomy — "
                "register it there (typos fork metric series across the "
                "worker snapshot merge)",
            )
        if isinstance(name_arg, ast.JoinedStr):
            head = name_arg.values[0] if name_arg.values else None
            prefix = (
                head.value
                if isinstance(head, ast.Constant) and isinstance(head.value, str)
                else ""
            )
            if not prefix.startswith(taxonomy.DYNAMIC_PREFIXES):
                yield (
                    name_arg.lineno,
                    name_arg.col_offset,
                    "f-string obs name must open with a registered dynamic "
                    f"prefix ({', '.join(taxonomy.DYNAMIC_PREFIXES)}); got "
                    f"prefix {prefix!r}",
                )


# ------------------------------------------------------------ env-registry


def _env_read_key(node: ast.Call) -> ast.AST | None:
    """The key expression of an ``os.environ``/``os.getenv`` *read*, if any."""
    chain = _attr_chain(node.func)
    if chain in ("os.getenv", "os.environ.get") and node.args:
        return node.args[0]
    return None


def _key_violation(key: ast.AST) -> str | None:
    """Why this key expression denotes a ``REPRO_*`` env read, or ``None``."""
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        if key.value.startswith("REPRO_"):
            return f"{key.value!r}"
        return None
    dotted = _attr_chain(key)
    if dotted and dotted.split(".")[-1].endswith("_ENV"):
        return dotted
    return None


@rule(
    "env-registry",
    "every os.environ/os.getenv read of a REPRO_* key must go through the "
    "repro.env knob registry (writes stay legal: env is the worker transport)",
)
def env_registry(context: LintContext, source: SourceFile) -> Iterator:
    if source.rel == "src/repro/env.py":
        return
    from repro import env as knob_registry

    declared = set(knob_registry.REGISTRY)
    for node in ast.walk(source.tree):
        key = None
        if isinstance(node, ast.Call):
            key = _env_read_key(node)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if _attr_chain(node.value) == "os.environ":
                key = node.slice
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            if any(_attr_chain(cmp) == "os.environ" for cmp in node.comparators):
                key = node.left
        if key is None:
            continue
        described = _key_violation(key)
        if described is None:
            continue
        if (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and key.value not in declared
        ):
            yield (
                node.lineno,
                node.col_offset,
                f"read of undeclared env knob {described} — declare an "
                "EnvKnob in repro/env.py (name, default, parser, doc) first",
            )
        else:
            yield (
                node.lineno,
                node.col_offset,
                f"direct environment read of {described} — read it through "
                "the repro.env registry (knob.raw()/get()/is_set() or "
                "env.temporary for save/restore)",
            )


# --------------------------------------------------------- kernel-contract

_KERNEL_MODULES = ("src/repro/billboard/influence.py",)

_BIT_IDENTICAL_TAG = "bit-identical"


@rule(
    "kernel-contract",
    "kernel functions whose docstring claims bit-identity must be referenced "
    "by at least one test under tests/ — the claim is a test contract, not "
    "prose",
)
def kernel_contract(context: LintContext, source: SourceFile) -> Iterator:
    if source.rel not in _KERNEL_MODULES:
        return
    corpus = context.test_corpus()
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        docstring = ast.get_docstring(node) or ""
        if _BIT_IDENTICAL_TAG not in docstring:
            continue
        name = node.name
        if name not in corpus:
            yield (
                node.lineno,
                node.col_offset,
                f"{name}() claims bit-identity in its docstring but no test "
                "under tests/ references it — add a property/equivalence test "
                "or drop the claim",
            )


# --------------------------------------------------------------- obs-guard

_GUARDED_CALLS = {"span", "emit_instant", "emit_complete", "emit_counter"}


@rule(
    "obs-guard",
    "no unconditional obs.span/obs.emit_* in loop bodies of algorithms/ — "
    "per-row emission turns telemetry into the hot path",
)
def obs_guard(context: LintContext, source: SourceFile) -> Iterator:
    if not _in_package(source, "src/repro/algorithms/"):
        return

    findings: list[tuple[int, int, str]] = []

    def visit(node: ast.AST, in_loop: bool, guarded: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_in_loop, child_guarded = in_loop, guarded
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # A nested def's body runs when called, not per iteration.
                child_in_loop, child_guarded = False, False
            elif isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                child_in_loop, child_guarded = True, False
            elif isinstance(child, ast.If) and in_loop:
                child_guarded = True
            if (
                in_loop
                and not guarded
                and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _GUARDED_CALLS
                and _attr_chain(child.func.value) == "obs"
            ):
                findings.append(
                    (
                        child.lineno,
                        child.col_offset,
                        f"obs.{child.func.attr}(...) runs unconditionally in a "
                        "loop body — hoist it out of the loop or gate it "
                        "(sampling / enabled check); span setup costs real "
                        "time per row even when collection is off",
                    )
                )
            visit(child, child_in_loop, child_guarded)

    visit(source.tree, in_loop=False, guarded=False)
    yield from findings
