"""Smoke test of the benchmark's own code on shrunken workloads.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import BENCHMARKED, WHY, cell_order, make_config

HERE = Path(__file__).resolve().parent
SCALE = 0.02
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def quiet(_line: str) -> None:
    pass


def test_benchmark_json_matches_the_runner():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {name: WHY[name] for name in BENCHMARKED}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(WHY))
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result = run.run_workload(workload, 3, 0, False, tmp_path, scale=SCALE, log=quiet)
    assert result["correct"] and result["failed"] == 0
    methods = make_config(workload, 3)["clustering"]["methods"]
    assert result["attempted"] == len(cell_order(workload, 3, methods))
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WHY))
def test_traced_spans_nest_inside_their_parents(workload, tmp_path):
    result = run.run_workload(workload, 3, 0, True, tmp_path, scale=SCALE, log=quiet)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    doc = json.loads((tmp_path / f"spans-{workload}-seed3.json").read_text(encoding="utf-8"))
    by_id = {s["id"]: s for s in doc["spans"]}
    assert {s["name"].split(".")[0] for s in by_id.values()} == set(spans.LAYERS)
    roots = {}
    for s in by_id.values():
        assert s["self"] >= 0.0
        if s["parent"] is None:
            assert s["name"] == "bench.execute_task"
            roots[s["cell"]] = s
            continue
        parent = by_id[s["parent"]]
        assert s["cell"] == parent["cell"]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        assert s["self"] <= parent["end"] - parent["start"]
    for cell, root in roots.items():
        total = sum(s["self"] for s in by_id.values() if s["cell"] == cell)
        assert total == pytest.approx(root["end"] - root["start"], abs=1e-9)


def test_instrument_restores_the_program():
    selftrain = run.load_selftrain()
    before = (selftrain.training.fit_cluster, selftrain.classifiers.SoftmaxSGD.fit)
    tracer = spans.Tracer()
    spans.instrument(tracer, selftrain)
    assert selftrain.training.fit_cluster is not before[0]
    tracer.unwrap_all()
    assert (selftrain.training.fit_cluster, selftrain.classifiers.SoftmaxSGD.fit) == before


def test_output_check_reports_a_repeat_that_differs():
    selftrain = run.load_selftrain()
    config = selftrain.bench.validate_config(make_config("pool-2d", 3, SCALE))
    _, sizes = run.setup_once(selftrain, config, 3)
    traj = selftrain.bench.execute_task(config, 3, "kmeans")
    changed = copy.deepcopy(traj)
    changed.pseudo_error[-1] += 1e-12
    cells = [run.Cell(3, "kmeans", c, False, 1.0, t) for c, t in enumerate([traj, changed])]
    assert run.check_outputs(cells[:1], 12, sizes, {}) == []
    failures = run.check_outputs(cells, 12, sizes, {})
    assert failures == ["ist-kmeans@3/c1: deterministic fields differ from ist-kmeans@3/c0"]
    failures = run.check_outputs(cells[:1], 12, sizes, {(3, "kmeans"): (0.5, 10)})
    assert len(failures) == 1 and "reference 0.5 / 10" in failures[0]


def test_a_failing_cell_is_counted_and_the_rest_still_run(tmp_path, monkeypatch):
    selftrain = run.load_selftrain()
    execute = selftrain.bench.execute_task

    def flaky(config, seed, method):
        if method == "meanshift":
            raise RuntimeError("injected")
        return execute(config, seed, method)

    monkeypatch.setattr(selftrain.bench, "execute_task", flaky)
    result = run.run_workload("ridge-50d", 3, 0, False, tmp_path, scale=SCALE, log=quiet)
    assert not result["correct"]
    seeds = {s for s, _ in cell_order("ridge-50d", 3, ["kmeans"])}
    assert (result["attempted"], result["failed"]) == (4 * len(seeds), len(seeds))
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pool-2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
