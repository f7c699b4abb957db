"""BENCHMARK.json matches what the benchmark reports, and the benchmark
refuses to run without the package sources."""

import json
import shutil
import subprocess
import sys

from conftest import BENCH

import run
import tracing
from workloads import BUILDERS

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_workload_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(BUILDERS)


def test_metric_names_and_units():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.per_layer_metrics()


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, *SPEC["command"][1:], "--workload", "factoring", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
