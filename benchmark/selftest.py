"""Self-test of the benchmark: a smoke-length run of every workload.

Run from the repository root, either way:

    python3 benchmark/selftest.py
    python3 -m pytest benchmark/selftest.py

Every workload runs briefly untraced and traced.  Each run must name every
metric of BENCHMARK.json with its unit and fail no operation.  A copy of
the benchmark in a directory without the package must exit non-zero and
print no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = 1


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _check(proc: subprocess.CompletedProcess, section: str) -> None:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, proc.stdout[-3000:]
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)


def test_untraced_runs_report_every_end_to_end_metric():
    for workload in SPEC["workloads"]:
        _check(_run(workload["name"], 0), "end_to_end")


def test_traced_runs_report_every_per_layer_metric():
    for workload in SPEC["workloads"]:
        _check(_run(workload["name"], 1), "per_layer")


def test_without_the_package_it_fails_without_a_result():
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=Path(tmp))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


if __name__ == "__main__":
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    sys.exit(1 if failed else 0)
