"""Prove every shipped lint rule still fires (the CI canary step).

Writes one deliberately-violating module per rule into a throwaway tree
shaped like the repo (``src/repro/algorithms/``, ``src/repro/parallel/``,
...), runs the linter over it with no baseline, and fails unless **each**
rule reports a finding in its canary file — so a rule that silently stops
matching (an ``ast`` drift, a scoping typo) breaks CI instead of letting
real violations through.

Also round-trips the two escape hatches on the same tree: an inline
``# repro-lint: ignore[rule]`` suppression must hide exactly its finding,
and ``--write-baseline`` → re-run must report everything as baselined.

Usage::

    python scripts/lint_canary.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.lint import load_baseline, run_lint, write_baseline
from repro.lint.core import BASELINE_FILENAME

#: rule id -> (repo-relative canary path, violating source).
CANARIES: dict[str, tuple[str, str]] = {
    "determinism": (
        "src/repro/algorithms/canary_determinism.py",
        """\
import random
import time


def pick(items):
    started = time.perf_counter()
    for item in {1, 2, 3}:
        items.append(item)
    return random.random() + started
""",
    ),
    "shm-lifecycle": (
        "src/repro/parallel/canary_shm.py",
        """\
from multiprocessing.shared_memory import SharedMemory


def create_segment(size):
    return SharedMemory(create=True, size=size)


def attach_segment(name):
    segment = SharedMemory(name=name)
    segment.unlink()
    return segment
""",
    ),
    "obs-naming": (
        "src/repro/algorithms/canary_obs_naming.py",
        """\
from repro import obs


def tick():
    obs.counter_add("canary.not.in.taxonomy")
""",
    ),
    "env-registry": (
        "src/repro/algorithms/canary_env.py",
        """\
import os


def knob():
    return os.environ.get("REPRO_CANARY_UNDECLARED")
""",
    ),
    "kernel-contract": (
        "src/repro/billboard/influence.py",
        '''\
def canary_kernel(ids):
    """Claims to be bit-identical to the id-array path; no test references it."""
    return ids
''',
    ),
    "obs-guard": (
        "src/repro/algorithms/canary_obs_guard.py",
        """\
from repro import obs


def sweep(rows):
    for row in rows:
        obs.emit_instant("solver.row", {"row": row})
""",
    ),
}


def write_tree(root: Path) -> None:
    for rel, text in CANARIES.values():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-lint-canary-") as tmp:
        root = Path(tmp)
        write_tree(root)

        result = run_lint(root)
        fired = {}
        for finding in result.new:
            fired.setdefault(finding.rule, set()).add(finding.path)
        for rule_id, (rel, _) in CANARIES.items():
            if rel in fired.get(rule_id, set()):
                print(f"ok: [{rule_id}] fired on {rel}")
            else:
                failures.append(rule_id)
                print(f"FAIL: [{rule_id}] did not fire on {rel}")

        # Inline suppression must hide exactly the suppressed rule's finding.
        env_path = root / CANARIES["env-registry"][0]
        env_path.write_text(
            CANARIES["env-registry"][1].replace(
                'os.environ.get("REPRO_CANARY_UNDECLARED")',
                'os.environ.get("REPRO_CANARY_UNDECLARED")'
                "  # repro-lint: ignore[env-registry]",
            ),
            encoding="utf-8",
        )
        suppressed = run_lint(root, paths=[env_path])
        if suppressed.new:
            failures.append("suppression")
            print("FAIL: inline ignore[env-registry] left findings behind")
        else:
            print("ok: inline ignore[env-registry] suppresses its finding")

        # Baseline round-trip: grandfather everything, re-run, expect clean.
        write_baseline(result.new, root / BASELINE_FILENAME)
        baselined = run_lint(root, baseline=load_baseline(root / BASELINE_FILENAME))
        if baselined.new or len(baselined.baselined) < len(result.new) - 1:
            failures.append("baseline")
            print("FAIL: baseline round-trip did not grandfather the findings")
        else:
            print(
                f"ok: baseline round-trip grandfathers "
                f"{len(baselined.baselined)} finding(s)"
            )

    if failures:
        print(f"canary FAILED: {', '.join(failures)}")
        return 1
    print(f"canary ok: all {len(CANARIES)} rules fire; escape hatches round-trip")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
