"""Tests of the benchmark itself: seed-independent work, repeatable counts, tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench

The count test runs one traced, checked pass of each workload per seed in
this process: about two minutes in all, with cone-sup peaking near 0.9 GB.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import mehler
import pytest

import tracer as tracing
import workloads
from child import Runner
from run import tail_latency

COUNTS = ("hermite.f_points", "hermite.f_calls", "ou.cone_cells")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_counts(workload: str, seed: int) -> dict:
    tracer = tracing.Tracer()
    runner = Runner(workloads.build(workload, mehler, seed), tracer)
    runner.run_pass(traced=True)
    assert runner.failures == []
    metrics = tracing.layer_metrics(tracer, passes=1)
    return {"operations": len(runner.ops), **{name: metrics[name] for name in COUNTS}}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_does_not_depend_on_the_seed(workload):
    first = traced_counts(workload, 1)
    assert traced_counts(workload, 2) == first
    assert traced_counts(workload, 1) == first


def test_install_wraps_every_binding_and_uninstall_restores_it():
    original = mehler.ou.nontangential_maximal
    values = mehler.PointwiseFunction.values
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for namespace in (mehler, mehler.ou, mehler.experiments):
            assert namespace.nontangential_maximal is not original
        assert mehler.PointwiseFunction.values is not values
        f = mehler.catalog_entry("bump", 1).rep
        est = mehler.experiments.nontangential_maximal(f, (0.5,), "truncated-parabolic")
    finally:
        tracer.uninstall()
    for namespace in (mehler, mehler.ou, mehler.experiments):
        assert namespace.nontangential_maximal is original
    assert mehler.PointwiseFunction.values is values
    metrics = tracing.layer_metrics(tracer, passes=1)
    assert metrics["ou.cone_sup_calls"] == 1
    assert metrics["ou.cone_cells"] == est.grid_size
    assert metrics["hermite.f_calls"] > 0


def test_self_time_subtracts_the_child_spans():
    tracer = tracing.Tracer()
    # (id, name, start, end, parent, operation, amount); children end first
    tracer.spans = [(1, 0, 0.5, 1.0, 0, 0, 0), (2, 0, 1.5, 2.5, 0, 0, 0), (0, 0, 0.0, 3.0, -1, 0, 0)]
    tracer._next = 3
    spans = tracer.arrays()
    assert spans["self"].tolist() == [0.5, 1.0, 1.5]
    assert spans["parent_row"].tolist() == [2, 2, -1]


def test_tail_latency_leaves_ten_samples_beyond_it():
    assert tail_latency([float(x) for x in range(100)]) == (89.0, 90.0)
    assert tail_latency([3.0, 1.0, 2.0]) == (2.0, 50.0)


def bench(cwd: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", "verify-fast",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_benchmark_json(trace, kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    proc = bench(ROOT, trace)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(str(tmp_path), 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
