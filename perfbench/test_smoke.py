"""Smoke tests of the benchmark: tiny inputs, every workload, both modes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("serve", "experiment", "analyze", "recursive")


def test_smoke_runs_every_workload_traced_and_untraced():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert lines[-1] == {"smoke": "pass"}
    runs = {(line["workload"], line["trace"]): line for line in lines[:-1]}
    assert set(runs) == {(w, t) for w in WORKLOADS for t in (0, 1)}
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = sorted(m["name"] for m in declared["end_to_end"])
    per_layer = sorted(m["name"] for m in declared["per_layer"])
    for (_workload, trace), line in runs.items():
        assert line["correct"] and line["failed"] == 0
        assert line["metrics"] == (per_layer if trace else end_to_end)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
