"""Smoke runs of the benchmark: each workload, plain and traced, exits 0 with correct outputs.

bench/run.py stops with exit code 1 when a workload's check fails, when a
child process outlives the run, or when its tracer cannot wrap a layer of
the program.  Each run here is a short one of a copy of ``bench/`` and
``src/`` in a temporary directory, so the checkout's ``bench/results/`` is
left alone.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench-copy")
    skip = shutil.ignore_patterns("results", "__pycache__", "*.egg-info")
    for name in ("bench", "src"):
        shutil.copytree(REPO / name, root / name, ignore=skip)
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["protocol", "rabi-scan", "g2"])
def test_workload_runs_correct(bench_copy, workload, trace):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=bench_copy, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def test_g2_workload_normalizes_over_the_program_range(monkeypatch):
    # the g2 workload's independent correlator keeps its own copy of the range
    from rydpol import montecarlo

    monkeypatch.syspath_prepend(str(REPO / "bench"))
    try:
        workloads = importlib.import_module("workloads")
        assert workloads.G2.norm_range == montecarlo._NORM_RANGE
    finally:
        for name in ("workloads", "checks", "spans"):
            sys.modules.pop(name, None)
