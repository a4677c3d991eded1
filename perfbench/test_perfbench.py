"""Self-test of the benchmark at toy sizes (seconds, not minutes).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.import_program()

TOY_CITY = dict(billboards=120, trajectories=3_000, alpha=1.2, p_avg=0.1)
TOY_SIZES = {
    "solve": dict(billboards=80, trajectories=600, chunk=200, alpha=1.0, p_avg=0.2),
    "greedy-scale": dict(billboards=80, trajectories=900, chunk=300, alpha=0.5, p_avg=0.1),
    "quote-churn": dict(TOY_CITY, book=4, commit_every=6, episode=12, shadow_quotes=3),
}


def test_toy_sizes_cover_every_workload():
    assert set(TOY_SIZES) == set(run.SIZES) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TOY_SIZES))
def test_prints_every_declared_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "SIZES", TOY_SIZES)
    args = ["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {metric["name"]: metric["unit"] for metric in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_checks_catch_a_corrupted_regret(monkeypatch):
    from repro.core.allocation import Allocation

    workload = run.build_workloads(TOY_SIZES)["solve"]
    honest = run.run(workload, seed=3, seconds=0.1, trace=False)
    assert honest["correct"] and honest["failed"] == 0

    regret = Allocation.total_regret
    monkeypatch.setattr(Allocation, "total_regret", lambda self: regret(self) + 1e-6)
    corrupted = run.run(workload, seed=3, seconds=0.1, trace=False)
    assert not corrupted["correct"]
    assert corrupted["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [*SPEC["command"], "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
