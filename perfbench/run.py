#!/usr/bin/env python3
"""Benchmark of selftrain's ST and IST cells, end to end and by module.

    python3 perfbench/run.py --workload pool-2d --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A cell is one ``bench.execute_task(config, seed, method)`` call, the unit
``selftrain run --workers 1`` executes. One client runs cells one at a time
in a closed loop. A cycle runs ST and IST with each clustering method of the
workload at each data seed of the run (``workloads.cell_order``). The first
cycle always runs; after it, cells go on in the same order while their
median so far still fits in ``--seconds``.

``--trace 0`` times cells from outside with nothing wrapped and reports the
end-to-end metrics. ``--trace 1`` uses the first data seed only and
alternates untraced cycles with traced ones, in which the calls between
modules record spans (see spans.py). It reports per-module metrics and the tracing overhead
and writes the spans to ``.perfbench_out/``. Every run checks the program's
outputs and exits 1 if a check fails or a cell raises. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, set before numpy loads: with a thread per core, any other
# load on the host stalls every matrix product at its join, which made whole
# runs drift. An explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import spans  # noqa: E402 - after the thread settings above
from workloads import WHY, cell_order, make_config  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least SETUP_MIN_REPEATS times and on until SETUP_SECONDS
# are spent, which steadies the median of the smaller workloads.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 50
SETUP_SECONDS = 1.0
WARMUP_SCALE = 0.05

END_TO_END = {
    "setup_s": "s", "run_s": "s", "cell_s.st": "s", "cell_s.ist-kmeans": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "data.build_s": "s", "data.split_s": "s", "data.standardize_s": "s",
    "clustering.fit_s": "s", "clustering.fit_s.kmeans": "s", "clustering.fit_calls": "count",
    "clustering.k_found.min": "count", "clustering.iters.kmeans": "count",
    "querylist.build_s": "s", "querylist.partition_s": "s", "querylist.entries": "count",
    "classifiers.fit_s": "s", "classifiers.fit_calls": "count", "classifiers.fit_rows": "count",
    "classifiers.predict_s": "s", "classifiers.predict_calls": "count",
    "classifiers.predict_rows": "count",
    "training.pseudo_label_s": "s", "training.pseudo_label_self_s": "s", "training.eval_s": "s",
    "training.pseudo_error_s": "s", "training.loop_self_s": "s", "training.rounds": "count",
    "training.selected_rows": "count", "training.selected_share": "ratio",
    "bench.self_s": "s", "bench.trace_overhead_s": "s",
}

# Deterministic outputs of the program this benchmark was written against:
# (final accuracy, total processed) per method. A later change may move
# float order, so a match is within ACC_TOL and PROCESSED_RTOL.
REFERENCE = {
    ("pool-2d", 1): {"st": (0.86524, 698788), "kmeans": (0.91936, 561966)},
    ("pool-2d", 2): {"st": (0.7754, 600163), "kmeans": (0.72688, 556829)},
    ("pool-2d", 3): {"st": (0.92036, 691330), "kmeans": (0.92196, 552098)},
    ("ridge-50d", 1): {"st": (0.8615, 881), "kmeans": (0.8365, 618),
                       "minibatch_kmeans": (0.8735, 641), "meanshift": (0.8735, 553)},
    ("ridge-50d", 2): {"st": (0.9035, 978), "kmeans": (0.9075, 734),
                       "minibatch_kmeans": (0.8945, 779), "meanshift": (0.9105, 628)},
    ("ridge-50d", 3): {"st": (0.9075, 1093), "kmeans": (0.898, 683),
                       "minibatch_kmeans": (0.8945, 735), "meanshift": (0.9045, 574)},
    ("sgd-784d", 1): {"st": (0.9995, 37941), "kmeans": (0.9995, 30551)},
    ("sgd-784d", 2): {"st": (1.0, 36510), "kmeans": (1.0, 35700)},
    ("sgd-784d", 3): {"st": (0.9995, 32203), "kmeans": (0.99975, 33106)},
}
ACC_TOL = 0.005
PROCESSED_RTOL = 0.01


def load_selftrain():
    """Import selftrain from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "selftrain" / "__init__.py").is_file():
        raise SystemExit(f"error: no selftrain sources under {src}")
    sys.path.insert(0, str(src))
    import selftrain
    import selftrain.bench  # noqa: F401 - the benchmark drives this module
    if Path(selftrain.__file__).resolve().parent != (src / "selftrain").resolve():
        raise SystemExit(f"error: imported selftrain from {selftrain.__file__}, not {src}")
    return selftrain


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    }


def cell_name(method: str) -> str:
    return "st" if method == "st" else "ist-" + method.replace("_", "-")


@dataclass
class Cell:
    seed: int
    method: str
    cycle: int
    traced: bool
    wall: float = 0.0
    traj: object | None = None
    error: str | None = None

    @property
    def key(self) -> tuple[int, str]:
        return self.seed, self.method

    @property
    def id(self) -> str:
        return f"{cell_name(self.method)}@{self.seed}/c{self.cycle}"


def run_cell(selftrain, config, cell: Cell, tracer: spans.Tracer | None) -> Cell:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            cell.traj = selftrain.bench.execute_task(config, cell.seed, cell.method)
        else:
            tracer.cell = cell.id
            with tracer.span("bench.execute_task"):
                cell.traj = selftrain.bench.execute_task(config, cell.seed, cell.method)
    except Exception as exc:  # noqa: BLE001 - a failing cell is counted; the rest still runs
        cell.error = f"{type(exc).__name__}: {exc}"
    cell.wall = time.perf_counter() - t0
    return cell


def run_cells(selftrain, configs: dict, order: list[tuple[int, str]], seconds: float,
              mandatory: int, tracer: spans.Tracer | None, log) -> list[Cell]:
    """Closed loop over ``order``, cycle after cycle, one cell at a time.

    The first ``mandatory`` cycles always run. After them a cell starts only
    if its median so far still fits in ``seconds`` from the start. With a
    tracer, odd cycles are traced and even ones are not, so that both see
    the same warm-up and the same drift in machine speed.
    """
    cells: list[Cell] = []
    start = time.perf_counter()
    try:
        for i in itertools.count():
            cycle, j = divmod(i, len(order))
            seed, method = order[j]
            traced = tracer is not None and cycle % 2 == 1
            if cycle >= mandatory:
                past = [c.wall for c in cells if c.key == (seed, method) and c.traced == traced]
                if time.perf_counter() - start + statistics.median(past) > seconds:
                    break
            if traced and j == 0:
                spans.instrument(tracer, selftrain)
            cell = run_cell(selftrain, configs[seed], Cell(seed, method, cycle, traced),
                            tracer if traced else None)
            if traced and j == len(order) - 1:
                tracer.unwrap_all()
            cells.append(cell)
            log(f"cell {cell.id}{' traced' if traced else ''}: {cell.wall:.4f} s"
                + (" FAILED" if cell.error else ""))
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    return cells


def setup_once(selftrain, config, seed: int) -> tuple[float, dict]:
    """Build the dataset, split it and standardize the unlabeled rows, as a cell does."""
    t0 = time.perf_counter()
    dataset = selftrain.bench.build_dataset(config.dataset, seed)
    labeled, unlabeled, test = selftrain.data.split_ssl(
        dataset, config.split["labels_per_class"], config.split["test_fraction"], seed)
    selftrain.data.standardize(unlabeled.features)
    elapsed = time.perf_counter() - t0
    return elapsed, {"n_l": labeled.n_l, "n_u": unlabeled.n_u, "n_test": test.n}


def check_trajectory(traj, method: str, rounds: int, sizes: dict) -> list[str]:
    """Invariants every finished trajectory satisfies, whatever the seed."""
    problems = []
    if traj.failed_round is not None or traj.rounds_completed != rounds:
        problems.append(f"{traj.rounds_completed} of {rounds} rounds completed")
        return problems
    for t in range(rounds):
        acc, used, pool = traj.accuracy[t], traj.pseudo_used[t], traj.pool_size[t]
        hits = acc * sizes["n_test"]
        if not 0.0 <= acc <= 1.0 or abs(hits - round(hits)) > 1e-6:
            problems.append(f"round {t}: accuracy {acc} is not a share of "
                            f"{sizes['n_test']} test rows")
        if traj.processed[t] != sizes["n_l"] + used:
            problems.append(f"round {t}: processed {traj.processed[t]} != labeled "
                            f"{sizes['n_l']} + pseudo-labeled {used}")
        if not 0 <= used <= pool <= sizes["n_u"]:
            problems.append(f"round {t}: pseudo_used {used}, pool {pool}, "
                            f"unlabeled {sizes['n_u']} out of order")
        if (traj.pseudo_error[t] is None) != (t == 0 or used == 0):
            problems.append(f"round {t}: pseudo_error {traj.pseudo_error[t]} "
                            f"with {used} pseudo-labels")
    if method == "st" and any(p != sizes["n_u"] for p in traj.pool_size):
        problems.append("st pool is not the whole unlabeled set every round")
    if method != "st" and (traj.pool_size != sorted(traj.pool_size)
                           or traj.pool_size[-1] != sizes["n_u"]):
        problems.append(f"ist pool {traj.pool_size} does not grow to {sizes['n_u']}")
    return problems


def check_outputs(cells: list[Cell], rounds: int, sizes: dict,
                  reference: dict) -> list[str]:
    """Invariants, repeat-for-repeat equality, and the reference where one is pinned.

    ``reference`` maps (seed, method) to (final accuracy, total processed).
    """
    failures = []
    first: dict[tuple[int, str], Cell] = {}
    for cell in cells:
        if cell.traj is None:
            continue
        for problem in check_trajectory(cell.traj, cell.method, rounds, sizes):
            failures.append(f"{cell.id}: {problem}")
        ref = first.setdefault(cell.key, cell)
        if cell.traj.deterministic_fields() != ref.traj.deterministic_fields():
            failures.append(f"{cell.id}: deterministic fields differ from {ref.id}")
    for key, (acc, processed) in reference.items():
        cell = first.get(key)
        if cell is None:
            continue
        got_acc, got_proc = cell.traj.final_accuracy, cell.traj.total_processed
        if abs(got_acc - acc) > ACC_TOL or abs(got_proc - processed) > PROCESSED_RTOL * processed:
            failures.append(f"{cell.id}: final accuracy {got_acc} / processed {got_proc}, "
                            f"reference {acc} / {processed}")
    return failures


def report_outputs(cells: list[Cell], log) -> dict:
    """Log and return the deterministic outputs users read, per seed and method."""
    out: dict[str, dict] = {}
    for cell in cells:
        if cell.traj is not None:
            out.setdefault(str(cell.seed), {}).setdefault(cell_name(cell.method), {
                "final_accuracy": cell.traj.final_accuracy,
                "total_processed": cell.traj.total_processed})
    for seed, by_name in out.items():
        log(f"output seed {seed}: " + "  ".join(
            f"acc.{name} {o['final_accuracy']:.5f} fraction, processed.{name} "
            f"{o['total_processed']} rows" for name, o in by_name.items()))
        if "st" in by_name and "ist-kmeans" in by_name:
            st, ist = by_name["st"], by_name["ist-kmeans"]
            log(f"output seed {seed}: acc_gain_pt "
                f"{100.0 * (ist['final_accuracy'] - st['final_accuracy']):.3f} pt, "
                f"processed_ratio {ist['total_processed'] / st['total_processed']:.4f} ratio")
    return out


def end_to_end(setup_times: list[float], cells: list[Cell], log) -> dict:
    """Per cell the median over repeats; per method the mean of those over seeds."""
    walls: dict[tuple[int, str], list[float]] = {}
    for cell in cells:
        if cell.error is None:
            walls.setdefault(cell.key, []).append(cell.wall)
    medians = {key: statistics.median(values) for key, values in walls.items()}
    by_name: dict[str, list[float]] = {}
    for (seed, method), value in medians.items():
        by_name.setdefault(cell_name(method), []).append(value)
        log(f"cell_s {cell_name(method)}@{seed}: median {value:.4f} s "
            f"(n={len(walls[seed, method])}, min {min(walls[seed, method]):.4f}, "
            f"max {max(walls[seed, method]):.4f})")
    for name, values in by_name.items():
        log(f"cell_s.{name} {statistics.fmean(values):.4f} s (mean over {len(values)} seeds)")
    metrics = {"setup_s": statistics.median(setup_times), "run_s": sum(medians.values())}
    for name in ("st", "ist-kmeans"):
        if name in by_name:
            metrics[f"cell_s.{name}"] = statistics.fmean(by_name[name])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def layer_metrics(cycle_spans: list[spans.Span]) -> dict:
    """Per-module totals over one traced cycle."""
    selfs = spans.self_times(cycle_spans)

    def named(name):
        return [s for s in cycle_spans if s.name == name]

    def self_s(name):
        return sum(selfs[s.id] for s in named(name))

    fits = named("clustering.fit")
    pools = named("training.pseudo_label")
    predicted = sum(s.counts["predicted"] for s in pools)
    selected = sum(s.counts["selected"] for s in pools)
    kmeans_iters = [s.counts["iters"] for s in fits if "iters" in s.counts]
    return {
        "data.build_s": self_s("data.build"),
        "data.split_s": self_s("data.split"),
        "data.standardize_s": self_s("data.standardize"),
        "clustering.fit_s": self_s("clustering.fit"),
        "clustering.fit_s.kmeans": sum(selfs[s.id] for s in fits
                                       if s.counts["method"] == "kmeans"),
        "clustering.fit_calls": len(fits),
        "clustering.k_found.min": min((s.counts["k"] for s in fits), default=0),
        "clustering.iters.kmeans": statistics.median(kmeans_iters) if kmeans_iters else 0,
        "querylist.build_s": self_s("querylist.build"),
        "querylist.partition_s": self_s("querylist.partition"),
        "querylist.entries": sum(s.counts["entries"] for s in named("querylist.build")),
        "classifiers.fit_s": self_s("classifiers.fit"),
        "classifiers.fit_calls": len(named("classifiers.fit")),
        "classifiers.fit_rows": sum(s.counts["rows"] for s in named("classifiers.fit")),
        "classifiers.predict_s": self_s("classifiers.predict"),
        "classifiers.predict_calls": len(named("classifiers.predict")),
        "classifiers.predict_rows": sum(s.counts["rows"]
                                        for s in named("classifiers.predict")),
        "training.pseudo_label_s": sum(s.duration for s in pools),
        "training.pseudo_label_self_s": self_s("training.pseudo_label"),
        "training.eval_s": sum(s.duration for s in named("training.eval")),
        "training.pseudo_error_s": self_s("training.pseudo_error"),
        "training.loop_self_s": self_s("training.loop"),
        "training.rounds": sum(s.counts["rounds"] for s in named("training.loop")),
        "training.selected_rows": selected,
        "training.selected_share": selected / predicted if predicted else 0.0,
        "bench.self_s": self_s("bench.execute_task"),
    }


def per_layer(tracer: spans.Tracer, cells: list[Cell], order: list, log) -> tuple[dict, list]:
    """Per-layer metrics (median over complete traced cycles), the per-cell
    self-time table, and the trace checks."""
    problems = []
    selfs = spans.self_times(tracer.spans)
    log(f"{'cell':<28} {'wall_s':>7}  " + "  ".join(f"{layer:>11}" for layer in spans.LAYERS))
    for cell in cells:
        if not cell.traced:
            continue
        mine = [s for s in tracer.spans if s.cell == cell.id]
        by_layer = {layer: 0.0 for layer in spans.LAYERS}
        for s in mine:
            by_layer[s.layer] += selfs[s.id]
        log(f"{cell.id:<28} {cell.wall:7.3f}  " +
            "  ".join(f"{by_layer[layer]:11.4f}" for layer in spans.LAYERS))
        if abs(cell.wall - sum(by_layer.values())) > 1e-3:
            problems.append(f"{cell.id}: module self times sum to "
                            f"{sum(by_layer.values()):.4f} s, cell wall {cell.wall:.4f} s")
        fits = [s for s in mine if s.name == "clustering.fit"]
        for s in fits:
            if s.counts["k"] < 2:
                log(f"WARNING {cell.id}: {s.counts['method']} found k={s.counts['k']} "
                    f"clusters (< 2); IST ran on a collapsed clustering")
        if cell.method != "st" and cell.error is None and len(fits) != 1:
            problems.append(f"{cell.id}: clustering.fit_calls == {len(fits)}, expected 1")

    cycle_walls: dict[int, list[float]] = {}
    for cell in cells:
        cycle_walls.setdefault(cell.cycle, []).append(cell.wall)
    complete = [c for c, walls in cycle_walls.items() if len(walls) == len(order)]
    cycle_of = {cell.id: cell.cycle for cell in cells}
    per_cycle = [layer_metrics([s for s in tracer.spans if cycle_of[s.cell] == c])
                 for c in complete if c % 2 == 1]
    metrics = {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
    traced = statistics.median(sum(cycle_walls[c]) for c in complete if c % 2 == 1)
    untraced = statistics.median(sum(cycle_walls[c]) for c in complete if c % 2 == 0)
    metrics["bench.trace_overhead_s"] = traced - untraced
    log(f"tracing overhead: {traced - untraced:.4f} s per cycle (traced median "
        f"{traced:.4f} s over {len(per_cycle)} cycles, untraced median {untraced:.4f} s "
        f"over {len(complete) - len(per_cycle)})")
    return metrics, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, scale: float = 1.0, log=print) -> dict:
    """Run one workload; returns the result object (correct/attempted/failed/metrics)."""
    selftrain = load_selftrain()
    methods = make_config(workload, seed)["clustering"]["methods"]
    order = cell_order(workload, seed, methods)
    if trace:
        order = [(s, m) for s, m in order if s == seed]
    seeds = sorted({s for s, _ in order})
    configs = {s: selftrain.bench.validate_config(make_config(workload, s, scale))
               for s in seeds}
    config = configs[seed]
    rounds = config.selftrain["rounds"]
    env = environment()
    log("env " + json.dumps(env, sort_keys=True))
    log(f"workload {workload} seeds {seeds}: {WHY[workload]}")

    setup_times = []
    while True:
        elapsed, sizes = setup_once(selftrain, config, seed)
        setup_times.append(elapsed)
        if trace or len(setup_times) == SETUP_MAX_REPEATS or (
                len(setup_times) >= SETUP_MIN_REPEATS and sum(setup_times) >= SETUP_SECONDS):
            break
    log(f"setup: median {statistics.median(setup_times):.4f} s over {len(setup_times)} "
        f"(labeled {sizes['n_l']}, unlabeled {sizes['n_u']}, test {sizes['n_test']})")

    # First calls into numpy and BLAS cost far more than later ones; two
    # passes over a shrunken copy of the workload pay that before anything is
    # timed, and must agree with each other.
    problems = []
    warmup = selftrain.bench.validate_config(make_config(workload, seed, scale * WARMUP_SCALE))
    for method in ["st"] + methods:
        a, b = (run_cell(selftrain, warmup, Cell(seed, method, -1, False), None)
                for _ in range(2))
        if a.error is None and b.error is None and \
                a.traj.deterministic_fields() != b.traj.deterministic_fields():
            problems.append(f"warm-up {cell_name(method)}@{seed}: repeats differ")

    tracer = spans.Tracer() if trace else None
    cells = run_cells(selftrain, configs, order, seconds, 2 if trace else 1, tracer, log)
    failed = [c for c in cells if c.error is not None]
    for cell in failed:
        log(f"FAILED {cell.id}: {cell.error}")
    reference = {}
    if scale == 1.0:
        for s in seeds:
            for method, values in REFERENCE.get((workload, s), {}).items():
                reference[s, method] = values
    problems += check_outputs(cells, rounds, sizes, reference)
    outs = report_outputs(cells, log)

    report = {"workload": workload, "seed": seed, "seeds": seeds, "trace": int(trace),
              "environment": env, "config": config.raw, "sizes": sizes,
              "setup_s": setup_times, "outputs": outs,
              "cells": [{"id": c.id, "wall_s": c.wall, "traced": c.traced, "error": c.error}
                        for c in cells]}
    if trace:
        metrics, trace_problems = per_layer(tracer, cells, order, log)
        problems += trace_problems
        units = PER_LAYER
        report["spans_file"] = str(write_json(
            out_dir / f"spans-{workload}-seed{seed}.json",
            {"workload": workload, "seed": seed, "spans": spans.to_json_doc(tracer.spans)}))
    else:
        metrics = end_to_end(setup_times, cells, log)
        units = END_TO_END

    for problem in problems:
        log(f"CHECK FAILED {problem}")
    for name, value in metrics.items():
        log(f"metric {name} {value:.6g} {units[name]}")
    result = {"correct": not problems and not failed, "attempted": len(cells),
              "failed": len(failed),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    report.update(checks=problems, result=result)
    write_json(out_dir / f"result-{workload}-seed{seed}-trace{int(trace)}.json", report)
    return result


def write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds < 0:
        parser.error("--seconds must be a finite number >= 0")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          ROOT / ".perfbench_out")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
