"""Smoke test of the benchmark itself at a tiny scale.

Runs every workload in-process, untraced and traced, at a size that takes
milliseconds, and checks that every metric named in BENCHMARK.json is
emitted and every correctness check passes.  Timings are never checked.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402


def _names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace, tmp_path):
    res = run.work(workload, seed=3, seconds=0.05, trace=trace, t0=time.monotonic(),
                   out_dir=str(tmp_path), tiny=True)
    assert res["failed"] == 0, res["notes"].get("failures")
    assert res["attempted"] > 0
    names = _names("per_layer" if trace else "end_to_end")
    assert sorted(res["metrics"]) == sorted(names)
    for name, (value, unit) in res["metrics"].items():
        assert math.isfinite(value), name
        assert unit
    assert {"numpy", "scipy", "blas", "blas_threads", "python"} <= set(res["env"])


def test_transfer_matrix_matches_enumeration():
    from maflow.targets import exact_neg_log_z, ising_spec
    import workloads
    for L in (2, 4):
        spec = ising_spec(L)
        assert workloads.ising_neg_log_z(spec) == pytest.approx(exact_neg_log_z(spec),
                                                                rel=1e-12)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy", "--seed", "0",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                       capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
