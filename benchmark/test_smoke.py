"""Smoke test of the benchmark: every workload at a tiny size, traced and
untraced, must pass the correctness gate.

Run from the repository root:  python -m pytest benchmark/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _run(*args, cwd):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_smoke_passes_the_gate():
    for trace in ("0", "1"):
        proc = _run("--smoke", "--trace", trace, cwd=BENCH.parent)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0 and result["attempted"] > 0


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("--workload", "scan", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
