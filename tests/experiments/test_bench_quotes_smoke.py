"""Quote-throughput benchmark smoke wiring (tier-1).

The bench script itself carries the load-bearing assertions — every
overlapping quote bit-identical across pricing engines, a journal rollback
per rejected quote, the host allocation object surviving unchanged — so
this test only has to run the smoke mode end-to-end and check the report
shape the CI legs and the regression gate consume.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestBenchQuotesSmoke:
    def test_bench_quotes_smoke(self, tmp_path):
        """The quote benchmark's smoke mode runs end-to-end; it exits
        non-zero if any overlapping quote diverges between the incremental
        and from-scratch engines or a rejected quote fails to roll back."""
        output = tmp_path / "bench_quotes.json"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "bench_quotes.py"),
                "--smoke",
                "--output",
                str(output),
            ],
            check=True,
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            timeout=600,
        )
        history = json.loads(output.read_text())
        assert history["schema"] == "bench-history-v1"
        report = history["runs"][-1]
        assert report["smoke"] is True

        paths = report["quote_paths"]
        assert paths["identity_checked_quotes"] > 0
        assert paths["quotes_per_s"] > 0.0
        assert paths["full_quote_s"] > 0.0 and paths["incremental_quote_s"] > 0.0
        # No speedup floor in smoke (the shallow book can't show a stable
        # multiple) but the ratio must be the recorded quotient.
        assert paths["speedup"] == paths["full_quote_s"] / paths["incremental_quote_s"]

        latency = report["quote_latency"]
        assert latency["samples"] > 0
        assert 0.0 < latency["p50_s"] <= latency["p95_s"] <= latency["p99_s"]
        # Every priced-and-rejected quote rolled back through the journal.
        assert latency["journal_rollbacks"] >= latency["samples"]
        assert latency["regret_cache_hit_rate"] > 0.5
