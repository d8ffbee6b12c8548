"""``run.py --smoke`` under pytest: same code paths and checks, tiny sizes.

Outside tier-1's ``testpaths``; run it with::

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def test_smoke_runs_all_workloads_correctly():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    combined = json.loads((ROOT / ".bench_e2e" / "result_all.json").read_text())
    assert sorted(combined) == sorted(w["name"] for w in contract["workloads"])
    for name, runs in combined.items():
        for run in runs.values():
            assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0, name
        assert set(runs["untraced"]["end_to_end"]) == {m["name"] for m in contract["end_to_end"]}
        assert all(v > 0 for v in runs["untraced"]["end_to_end"].values()), name
        per_layer = runs["traced"]["per_layer"]
        assert set(per_layer) == {m["name"] for m in contract["per_layer"]}
        assert per_layer["obs.span_coverage_pct"] >= 90.0, name
        spilled = per_layer["engine.mem_spills"] > 0 and per_layer["engine.mem_evictions"] > 0
        assert spilled == (name == "bounded_memory"), name


def test_contract_line_is_last_and_complete():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "index_probe", "--seed", "7",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(last["metrics"]) == [m["name"] for m in contract["end_to_end"]]
    assert not any(p.name.startswith("scratch-") for p in (ROOT / ".bench_e2e").iterdir())
