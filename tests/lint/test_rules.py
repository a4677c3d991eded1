"""Each shipped lint rule, pinned on fixture snippets with exact locations.

Every test writes a small module into a throwaway tree shaped like the repo
(the rules scope by relative path), lints just that file, and asserts the
exact ``(rule, line, col)`` triples — so a rule that drifts to a different
node or loses a case fails here with a precise diff.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import run_lint


def lint_snippet(root, rel, source, rules=None):
    """Findings for one snippet placed at ``rel`` under a repo-shaped tree."""
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    result = run_lint(root, paths=[path], rule_ids=rules)
    return result.new


def triples(findings):
    return [(f.rule, f.line, f.col) for f in findings]


class TestDeterminism:
    def test_clock_read_outside_obs(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/algorithms/mod.py",
            """\
            import time


            def f():
                return time.perf_counter()
            """,
            rules=["determinism"],
        )
        assert triples(findings) == [("determinism", 5, 11)]
        assert "clock read time.perf_counter()" in findings[0].message

    def test_clock_read_allowed_in_obs_and_timing(self, tmp_path):
        source = """\
            import time


            def f():
                return time.monotonic()
            """
        for rel in ("src/repro/obs/mod.py", "src/repro/utils/timing.py"):
            assert lint_snippet(tmp_path, rel, source, rules=["determinism"]) == []

    def test_stdlib_and_numpy_global_rng(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/algorithms/mod.py",
            """\
            import random

            import numpy as np


            def f():
                a = random.random()
                b = np.random.rand(3)
                ok = np.random.default_rng(7)
                return a, b, ok
            """,
            rules=["determinism"],
        )
        assert triples(findings) == [
            ("determinism", 7, 8),
            ("determinism", 8, 8),
        ]

    def test_set_iteration_only_in_ordered_modules(self, tmp_path):
        source = """\
            def f(items):
                for item in set(items):
                    yield item
                for item in {1, 2}:
                    yield item
            """
        ordered = lint_snippet(
            tmp_path, "src/repro/algorithms/mod.py", source, rules=["determinism"]
        )
        assert triples(ordered) == [
            ("determinism", 2, 16),
            ("determinism", 4, 16),
        ]
        # The same code outside solver/kernel/reduction modules is fine.
        assert (
            lint_snippet(
                tmp_path, "src/repro/analysis/mod.py", source, rules=["determinism"]
            )
            == []
        )


class TestShmLifecycle:
    def test_creator_without_cleanup_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/parallel/mod.py",
            """\
            from multiprocessing.shared_memory import SharedMemory


            def create(size):
                return SharedMemory(create=True, size=size)
            """,
            rules=["shm-lifecycle"],
        )
        assert triples(findings) == [("shm-lifecycle", 5, 11)]

    def test_creator_with_close_and_unlink_is_clean(self, tmp_path):
        assert (
            lint_snippet(
                tmp_path,
                "src/repro/parallel/mod.py",
                """\
                from multiprocessing.shared_memory import SharedMemory


                def create(size):
                    segment = SharedMemory(create=True, size=size)
                    try:
                        return bytes(segment.buf)
                    finally:
                        segment.close()
                        segment.unlink()
                """,
                rules=["shm-lifecycle"],
            )
            == []
        )

    def test_attacher_must_not_unlink(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/parallel/mod.py",
            """\
            from multiprocessing.shared_memory import SharedMemory


            def attach(name):
                segment = SharedMemory(name=name)
                segment.close()
                segment.unlink()
            """,
            rules=["shm-lifecycle"],
        )
        assert triples(findings) == [("shm-lifecycle", 7, 4)]
        assert "attach" in findings[0].message


class TestObsNaming:
    def test_unregistered_literal_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/algorithms/mod.py",
            """\
            from repro import obs


            def f():
                obs.counter_add("definitely.not.registered")
            """,
            rules=["obs-naming"],
        )
        assert triples(findings) == [("obs-naming", 5, 20)]

    def test_registered_and_dynamic_names_are_clean(self, tmp_path):
        assert (
            lint_snippet(
                tmp_path,
                "src/repro/algorithms/mod.py",
                """\
                from repro import obs


                def f(name):
                    obs.counter_add("pool.reuse")
                    obs.gauge_set(f"solver.{name}", 1)
                """,
                rules=["obs-naming"],
            )
            == []
        )

    def test_fstring_without_dynamic_prefix_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/algorithms/mod.py",
            """\
            from repro import obs


            def f(kind):
                obs.counter_add(f"made.up.{kind}")
            """,
            rules=["obs-naming"],
        )
        assert triples(findings) == [("obs-naming", 5, 20)]
        assert "dynamic" in findings[0].message

    def test_both_arms_of_conditional_names_checked(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/algorithms/mod.py",
            """\
            from repro import obs


            def f(hit):
                obs.counter_add("pool.reuse" if hit else "bogus.name")
            """,
            rules=["obs-naming"],
        )
        assert [(f.rule, f.line) for f in findings] == [("obs-naming", 5)]
        assert "'bogus.name'" in findings[0].message

    def test_obs_package_itself_is_exempt(self, tmp_path):
        assert (
            lint_snippet(
                tmp_path,
                "src/repro/obs/mod.py",
                """\
                from repro import obs


                def f():
                    obs.counter_add("internal.helper.name")
                """,
                rules=["obs-naming"],
            )
            == []
        )


class TestEnvRegistry:
    def test_direct_read_of_declared_knob_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/billboard/mod.py",
            """\
            import os


            def f():
                return os.environ.get("REPRO_POOL_OVERSUBSCRIBE")
            """,
            rules=["env-registry"],
        )
        assert triples(findings) == [("env-registry", 5, 11)]
        assert "repro.env registry" in findings[0].message

    def test_undeclared_knob_gets_declaration_message(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/billboard/mod.py",
            """\
            import os


            def f():
                return os.getenv("REPRO_NOT_A_KNOB")
            """,
            rules=["env-registry"],
        )
        assert triples(findings) == [("env-registry", 5, 11)]
        assert "undeclared env knob" in findings[0].message

    def test_subscript_and_membership_reads_fire(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/billboard/mod.py",
            """\
            import os

            SOME_ENV = "REPRO_POOL_OVERSUBSCRIBE"


            def f():
                if SOME_ENV in os.environ:
                    return os.environ[SOME_ENV]
                return None
            """,
            rules=["env-registry"],
        )
        assert triples(findings) == [
            ("env-registry", 7, 7),
            ("env-registry", 8, 15),
        ]

    def test_writes_and_foreign_keys_are_legal(self, tmp_path):
        assert (
            lint_snippet(
                tmp_path,
                "src/repro/billboard/mod.py",
                """\
                import os


                def f():
                    os.environ["REPRO_POOL_OVERSUBSCRIBE"] = "1"
                    os.environ.pop("REPRO_POOL_OVERSUBSCRIBE", None)
                    return os.environ.get("HOME")
                """,
                rules=["env-registry"],
            )
            == []
        )


class TestKernelContract:
    KERNEL = """\
        def fused_gather(rows):
            \"\"\"Gathers ids; bit-identical to the numpy reference.\"\"\"
            return rows


        def helper(rows):
            \"\"\"No contract claimed here.\"\"\"
            return rows
        """

    def test_untested_bit_identity_claim_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/billboard/influence.py",
            self.KERNEL,
            rules=["kernel-contract"],
        )
        assert triples(findings) == [("kernel-contract", 1, 0)]
        assert "fused_gather" in findings[0].message

    def test_referenced_claim_is_clean(self, tmp_path):
        test_dir = tmp_path / "tests"
        test_dir.mkdir()
        (test_dir / "test_kernels.py").write_text(
            "from repro.billboard.influence import fused_gather\n",
            encoding="utf-8",
        )
        assert (
            lint_snippet(
                tmp_path,
                "src/repro/billboard/influence.py",
                self.KERNEL,
                rules=["kernel-contract"],
            )
            == []
        )

    def test_build_module_is_patrolled(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/billboard/coverage_build.py",
            self.KERNEL,
            rules=["kernel-contract"],
        )
        assert triples(findings) == [("kernel-contract", 1, 0)]

    def test_rule_only_patrols_kernel_modules(self, tmp_path):
        assert (
            lint_snippet(
                tmp_path,
                "src/repro/billboard/other.py",
                self.KERNEL,
                rules=["kernel-contract"],
            )
            == []
        )


class TestObsGuard:
    def test_unconditional_span_in_loop_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/algorithms/mod.py",
            """\
            from repro import obs


            def sweep(rows):
                for row in rows:
                    with obs.span("solver.row"):
                        row.work()
            """,
            rules=["obs-guard"],
        )
        assert triples(findings) == [("obs-guard", 6, 13)]

    @pytest.mark.parametrize("call", [
        'obs.emit_instant("solver.row", {"row": row})',
        'obs.emit_complete("solver.row", 0.0, 0.0)',
        'obs.emit_counter("solver.row", {"row": row})',
    ])
    def test_unconditional_event_in_loop_fires(self, tmp_path, call):
        findings = lint_snippet(
            tmp_path,
            "src/repro/algorithms/mod.py",
            f"""\
            from repro import obs


            def sweep(rows):
                for row in rows:
                    {call}
            """,
            rules=["obs-guard"],
        )
        assert triples(findings) == [("obs-guard", 6, 8)]

    def test_guarded_and_hoisted_calls_are_clean(self, tmp_path):
        assert (
            lint_snippet(
                tmp_path,
                "src/repro/algorithms/mod.py",
                """\
                from repro import obs


                def sweep(rows):
                    with obs.span("solver.sweep"):
                        for row in rows:
                            if obs.enabled():
                                obs.emit_instant("solver.row", {"row": row})
                            row.work()
                """,
                rules=["obs-guard"],
            )
            == []
        )

    def test_nested_function_resets_loop_state(self, tmp_path):
        assert (
            lint_snippet(
                tmp_path,
                "src/repro/algorithms/mod.py",
                """\
                from repro import obs


                def build(rows):
                    closures = []
                    for row in rows:
                        def emit(row=row):
                            obs.emit_instant("solver.emit", {"row": row})
                        closures.append(emit)
                    return closures
                """,
                rules=["obs-guard"],
            )
            == []
        )


class TestUnknownRule:
    def test_unknown_rule_id_raises(self, tmp_path):
        with pytest.raises(KeyError, match="no-such-rule"):
            lint_snippet(
                tmp_path,
                "src/repro/algorithms/mod.py",
                "x = 1\n",
                rules=["no-such-rule"],
            )
