"""Smoke test of the benchmark harness at reduced size.

Runs every workload once untraced and once traced with ``--smoke`` inputs
(10^4 simulated slots for validate_mc) and a one-second window, and
checks that the last output line carries every metric BENCHMARK.json
names, that the outputs pass the checks, and that the traced layer self
times add up to the traced wall time.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench/smoke_test.py)
"""
import json
from pathlib import Path
import subprocess
import sys

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_metric_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace)
            assert result["attempted"] >= 1
            names = [m["name"] for m in spec[key]]
            assert list(result["metrics"]) == names, (workload, trace)
            for m in spec[key]:
                assert result["metrics"][m["name"]]["unit"] == m["unit"]
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                self_sum = sum(v for k, v in values.items()
                               if k.endswith(".self_s"))
                wall = values["trace.wall_s"]
                assert abs(self_sum - wall) <= 1e-9 * wall + 1e-12, workload


if __name__ == "__main__":
    test_every_metric_printed()
    print("smoke test passed")
