"""Experiment harness: validated JSON configs, multi-seed ST-vs-IST runs,
comparison reports, labeled-budget sweeps, and clustering-time tables.

All tabular outputs are CSV, reports also get a JSON form, and every file is
written atomically (temp file + rename). Wall-clock columns are the only
fields that vary between identical reruns; everything else is a pure
function of (config, seeds).
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import inspect
import io
import json
import math
import os
import types
import typing
from dataclasses import dataclass, field, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import clustering
from .classifiers import ClassifierModel, RandomFeatureRidge, SoftmaxSGD
from .data import (Dataset, LabeledSet, UnlabeledSet, apply_standardize, load_csv,
                   load_idx, make_blobs, split_ssl, standardize)
from .training import (SelfTrainConfig, TrainingRoundError, TrainingTrajectory,
                       ist_train, st_train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3

BACKBONES = {"random_feature_ridge": RandomFeatureRidge, "softmax_sgd": SoftmaxSGD}


class ConfigError(ValueError):
    """Invalid experiment config; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class ExperimentConfig:
    dataset: dict
    split: dict
    backbone: dict
    selftrain: dict
    methods: list[str]
    cluster_options: dict
    seeds: list[int]
    output_dir: str
    raw: dict = field(repr=False, default_factory=dict)


@functools.cache
def _params(fn) -> dict:
    """Parameter name -> (type annotation, required), read from the signature of a
    function, a class's constructor or a dataclass."""
    hints = typing.get_type_hints(fn.__init__ if isinstance(fn, type) and not is_dataclass(fn)
                                  else fn)
    return {name: (hints.get(name, object), p.default is p.empty)
            for name, p in inspect.signature(fn).parameters.items()}


def _finite(value, path: str) -> None:
    """Reject NaN and infinite floats, such as JSON's ``NaN`` and ``Infinity``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")


def _typed(value, hint, path: str):
    """``value`` if it fits annotation ``hint``; a dict for a dataclass is built."""
    _finite(value, path)
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    for t in typing.get_args(hint) if union else (hint,):
        if is_dataclass(t):
            if isinstance(value, dict):
                return from_dict(t, value, path)
        elif isinstance(value, bool):
            if t in (bool, object):
                return value
        elif isinstance(value, (int, float) if t is float else t):
            return value
    name = hint.__name__ if isinstance(hint, type) else str(hint)
    raise ConfigError(path, f"expected {name}, got {value!r}")


def _kwargs(fn, doc: dict, path: str, given: dict) -> dict:
    """``doc`` plus ``given``, checked against the signature of ``fn``."""
    params = _params(fn)
    kwargs = dict(given)
    for key, value in _object(doc, path).items():
        if key not in params or key in given:
            allowed = sorted(params.keys() - given.keys())
            raise ConfigError(f"{path}.{key}", f"unknown key; {fn.__name__} takes {allowed}")
        kwargs[key] = _typed(value, params[key][0], f"{path}.{key}")
    for key, (_, required) in params.items():
        if required and key not in kwargs:
            raise ConfigError(f"{path}.{key}", "missing required field")
    return kwargs


def from_dict(fn, doc: dict, path: str, **given):
    """``fn(**doc, **given)`` for the config section at ``path``.

    ``fn`` is a class, a dataclass or a function. Allowed keys, their types and
    which of them are required come from its signature, so the defaults are its
    own. Unknown keys and keys the caller fills in (``given``) are rejected;
    ``bool`` is no number, an ``int`` passes for a ``float``, ``X | None``
    admits null, and a dict for a dataclass parameter is built the same way.
    The call's ``ValueError`` becomes a ConfigError.
    """
    return _call(path, fn, **_kwargs(fn, doc, path, given))


def _call(path: str, fn, /, *args, **kwargs):
    """``fn(*args, **kwargs)``; a ``ValueError`` it raises becomes a ConfigError at ``path``."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return doc[key]


def _object(value, path: str, allowed=None) -> dict:
    """``value`` if it is a JSON object with no key outside ``allowed`` (if given)."""
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {value!r}")
    for key in value:
        if allowed is not None and key not in allowed:
            raise ConfigError(f"{path}.{key}", f"unknown key; allowed: {sorted(allowed)}")
    return value


def _list(value, path: str, valid, what: str) -> list:
    """A copy of ``value`` if it is a non-empty list of distinct ``valid`` items."""
    if not isinstance(value, list) or not value:
        raise ConfigError(path, f"expected a non-empty list of {what}")
    for i, item in enumerate(value):
        if not valid(item):
            raise ConfigError(f"{path}[{i}]", f"expected {what}, got {item!r}")
        if item in value[:i]:
            raise ConfigError(f"{path}[{i}]", f"duplicate {item!r}")
    return list(value)


def validate_config(doc: dict) -> ExperimentConfig:
    """Validate a raw config document; raises ConfigError with a field path.

    The first seed's dataset is built and split, and the backbone and every
    self-training and cluster section the config names are built, once here,
    by the same code that builds them for each cell. Nothing is trained.
    """
    _object(doc, "$", ("dataset", "split", "backbone", "selftrain", "clustering", "seeds",
                       "output_dir"))
    dataset = _object(_require(doc, "dataset", "$"), "$.dataset")
    loader, keys, given = _loader(dataset, None)  # keys first; the seed comes from $.seeds
    _kwargs(loader, keys, "$.dataset", given)
    _typed(dataset.get("max_rows"), int | None, "$.dataset.max_rows")
    _typed(dataset.get("standardize", False), bool, "$.dataset.standardize")

    split = _object(_require(doc, "split", "$"), "$.split")
    backbone = _object(_require(doc, "backbone", "$"), "$.backbone")
    st = _object(_require(doc, "selftrain", "$"), "$.selftrain")
    cl = _object(_require(doc, "clustering", "$"), "$.clustering",
                 ("methods",) + clustering.METHODS)
    methods = _list(_require(cl, "methods", "$.clustering"), "$.clustering.methods",
                    clustering.METHODS.__contains__, f"methods in {clustering.METHODS}")
    seeds = _list(_require(doc, "seeds", "$"), "$.seeds",
                  lambda s: isinstance(s, int) and not isinstance(s, bool) and s >= 0,
                  "non-negative integers")

    config = ExperimentConfig(dataset=dataset, split=split, backbone=backbone, selftrain=st,
                              methods=methods,
                              cluster_options={m: cl.get(m, {}) for m in clustering.METHODS},
                              seeds=seeds, output_dir=doc.get("output_dir", "results"),
                              raw=doc)
    make_backbone(backbone, 2, 1, 0)
    for m in dict.fromkeys(methods + [m for m in clustering.METHODS if m in cl]):
        make_selftrain_config(config, "ist", m, 0)

    try:
        data = _call("$.dataset", build_dataset, dataset, seeds[0])
    except OSError as exc:  # a file the dataset names cannot be read
        key = next((f"$.dataset.{k}" for k, v in keys.items() if v == exc.filename), "$.dataset")
        raise ConfigError(key, f"cannot read {exc.filename}: {exc.strerror}") from None
    if data.labels is None:  # the split stratifies by label
        raise ConfigError("$.dataset.label_column", "missing required field")
    from_dict(split_ssl, split, "$.split", dataset=data, seed=seeds[0])
    return config


def read_config(path: str) -> dict:
    """The JSON object in the file at ``path``, not yet validated."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("$", f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError("$", "config must be a JSON object")
    return doc


def _loader(spec: dict, seed: int | None):
    """The loader of ``spec``'s source, the keys it takes from ``spec``, and those a run fills in.

    The loader is looked up by name on every call, so a wrapper put in its place
    in this module sees each call.
    """
    loaders = {"blobs": make_blobs, "csv": load_csv, "idx": load_idx}
    source = _require(spec, "source", "$.dataset")
    if not isinstance(source, str) or source not in loaders:
        raise ConfigError("$.dataset.source",
                          f"unknown source {source!r}; implemented: {tuple(loaders)}")
    keys = {k: v for k, v in spec.items() if k not in ("source", "max_rows", "standardize")}
    return loaders[source], keys, {"seed": seed} if source == "blobs" else {}


def build_dataset(spec: dict, seed: int) -> Dataset:
    """The dataset ``spec`` describes, drawn with ``seed`` where its source is random.

    A file source does not depend on the seed, so the last file dataset
    parsed in this process is handed out again while its files are
    unchanged; a Dataset's arrays are read-only, so sharing it is safe.
    """
    loader, keys, given = _loader(spec, seed)
    if given:  # blobs, drawn from the seed
        data = loader(**keys, **given)
    else:
        stamps = tuple(_stamp(path) for key, path in sorted(keys.items())
                       if key.endswith("path"))
        data = _parse_file(loader, tuple(sorted(keys.items())), stamps)
    return data.head(spec.get("max_rows"))


def _stamp(path: str) -> tuple:
    """What tells a file apart from its earlier versions: resolved path, mtime, size."""
    stat = os.stat(path)
    return os.path.realpath(path), stat.st_mtime_ns, stat.st_size


@functools.lru_cache(maxsize=1)
def _parse_file(loader, keys: tuple, stamps: tuple) -> Dataset:
    """``loader(**keys)``; ``stamps`` takes part in the cache key only."""
    return loader(**dict(keys))


def make_backbone(spec: dict, class_count: int, input_dim: int, seed: int) -> ClassifierModel:
    """The backbone ``spec["kind"]`` names; keys only the other kinds take are dropped."""
    kind = _require(spec, "kind", "$.backbone")
    if not isinstance(kind, str) or kind not in BACKBONES:
        raise ConfigError("$.backbone.kind",
                          f"unknown backbone {kind!r}; implemented: {tuple(BACKBONES)}")
    cls = BACKBONES[kind]
    known = {"kind"}.union(*map(_params, BACKBONES.values()))
    own = {key: value for key, value in spec.items()
           if key in _params(cls) or key not in known}
    return from_dict(cls, own, "$.backbone", class_count=class_count, input_dim=input_dim,
                     seed=seed)


def make_selftrain_config(config: ExperimentConfig, mode: str, method: str | None,
                          seed: int) -> SelfTrainConfig:
    """One cell's self-training config, built as for IST.

    An ST cell gets the schedule and rounds an IST cell would get.
    """
    cluster = None
    if mode == "ist":
        cluster = from_dict(clustering.CONFIGS[method], config.cluster_options[method],
                            f"$.clustering.{method}", seed=seed)
    cfg = from_dict(SelfTrainConfig, config.selftrain, "$.selftrain", mode="ist",
                    cluster_method=method, cluster_config=cluster, seed=seed)
    return cfg if mode == "ist" else replace(cfg, mode="st", cluster_method=None)


def _prepare_split(config: ExperimentConfig, seed: int):
    dataset = build_dataset(config.dataset, seed)
    labeled, unlabeled, test = split_ssl(dataset, **config.split, seed=seed)
    if config.dataset.get("standardize"):
        train = np.vstack([labeled.features, unlabeled.features])
        _, stats = standardize(train)
        labeled = LabeledSet(apply_standardize(stats, labeled.features), labeled.labels,
                             labeled.ids, labeled.class_count)
        unlabeled = UnlabeledSet(apply_standardize(stats, unlabeled.features),
                                 unlabeled.ids, unlabeled.eval_labels())
        test = Dataset(apply_standardize(stats, test.features), test.labels,
                       test.class_count, test.ids)
    return labeled, unlabeled, test


def execute_task(config: ExperimentConfig, seed: int, method: str) -> TrainingTrajectory:
    """Run one (method, seed) cell; ``method`` is 'st' or a clustering tag."""
    labeled, unlabeled, test = _prepare_split(config, seed)
    backbone = make_backbone(config.backbone, labeled.class_count,
                             labeled.features.shape[1], seed)
    if method == "st":
        cfg = make_selftrain_config(config, "st", None, seed)
        _, traj = st_train(labeled, unlabeled, test, backbone, cfg)
    else:
        cfg = make_selftrain_config(config, "ist", method, seed)
        _, traj = ist_train(labeled, unlabeled, test, backbone, cfg)
    return traj


def _pool_worker(config: ExperimentConfig, seed: int, method: str):
    try:
        traj = execute_task(config, seed, method)
        return method, seed, traj, None
    except TrainingRoundError as exc:
        return method, seed, exc.trajectory, str(exc)
    except Exception as exc:  # noqa: BLE001 - cell failures must not kill the harness
        return method, seed, None, str(exc)


@dataclass
class ReportCell:
    method: str
    seed: int
    status: str  # "ok" | "failed"
    final_accuracy: float | None = None
    total_processed: int | None = None
    total_seconds: float | None = None
    cluster_seconds: float | None = None
    error: str | None = None


@dataclass
class ComparisonReport:
    cells: list[ReportCell]

    def methods(self) -> list[str]:
        seen = []
        for c in self.cells:
            if c.method not in seen:
                seen.append(c.method)
        return seen

    def aggregates(self) -> dict:
        """Median and interquartile range per method, recomputed from raw cells."""
        out = {}
        for method in self.methods():
            ok = [c for c in self.cells if c.method == method and c.status == "ok"]
            entry = {"runs": len([c for c in self.cells if c.method == method]),
                     "ok": len(ok)}
            for fld in ("final_accuracy", "total_processed", "total_seconds",
                        "cluster_seconds"):
                values = [getattr(c, fld) for c in ok if getattr(c, fld) is not None]
                if values:
                    q25, q75 = np.quantile(values, [0.25, 0.75])
                    entry[fld] = {"median": float(np.median(values)),
                                  "iqr": float(q75 - q25)}
            out[method] = entry
        return out

    def to_json_doc(self, config_echo: dict) -> dict:
        return {
            "config": config_echo,
            "cells": [vars(c) for c in self.cells],
            "aggregates": self.aggregates(),
        }

    def to_csv_text(self) -> str:
        return _csv_text(
            ["method", "seed", "status", "final_accuracy", "total_processed",
             "total_seconds", "cluster_seconds", "error"],
            ([c.method, c.seed, c.status, _repr_or_blank(c.final_accuracy),
              "" if c.total_processed is None else c.total_processed,
              _repr_or_blank(c.total_seconds), _repr_or_blank(c.cluster_seconds),
              c.error or ""] for c in self.cells))


def report_deterministic_view(doc: dict) -> dict:
    """Report JSON with every wall-clock field removed, for rerun comparison."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if "seconds" not in k}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return strip(doc)


def _repr_or_blank(value) -> str:
    return "" if value is None else repr(value)


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def run(config: ExperimentConfig, workers: int = 1,
        out_dir: str | None = None) -> tuple[int, dict]:
    """Execute ST plus one IST per clustering method for every seed.

    Writes trajectory CSVs with JSON summaries, the comparison report
    (CSV + JSON), and plot-data files. Returns (exit_code, report_doc).
    """
    out = Path(out_dir or config.output_dir)
    tasks = [(seed, method) for seed in config.seeds
             for method in ["st"] + list(config.methods)]

    results: dict[tuple[str, int], tuple[TrainingTrajectory | None, str | None]] = {}
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_pool_worker, config, seed, method)
                       for seed, method in tasks]
            for (seed, method), fut in zip(tasks, futures):
                try:
                    _, _, traj, error = fut.result()
                except Exception as exc:  # noqa: BLE001 - a dead worker fails its cell only
                    traj, error = None, f"worker failed: {type(exc).__name__}: {exc}"
                results[(method, seed)] = (traj, error)
    else:
        for seed, method in tasks:
            method, seed, traj, error = _pool_worker(config, seed, method)
            results[(method, seed)] = (traj, error)

    cells = []
    acc_rows = []
    cluster_rows = []
    for seed, method in tasks:
        traj, error = results[(method, seed)]
        name = "st" if method == "st" else f"ist-{method.replace('_', '-')}"
        if traj is not None and error is None:
            cells.append(ReportCell(name, seed, "ok", traj.final_accuracy,
                                    traj.total_processed, traj.total_seconds,
                                    traj.cluster_seconds))
        else:
            cells.append(ReportCell(name, seed, "failed", error=error))
        if traj is not None:
            _atomic_write(out / "trajectories" / f"{name}_seed{seed}.csv",
                          traj.to_csv_text())
            _atomic_write(out / "trajectories" / f"{name}_seed{seed}.summary.json",
                          json.dumps(traj.summary(), indent=2, sort_keys=True))
            for t in range(traj.rounds_completed):
                acc_rows.append((name, seed, t, repr(traj.accuracy[t])))
            if method != "st":
                cluster_rows.append((name, seed, repr(traj.cluster_seconds)))

    report = ComparisonReport(cells)
    doc = report.to_json_doc(config.raw)
    _atomic_write(out / "report.csv", report.to_csv_text())
    _atomic_write(out / "report.json", json.dumps(doc, indent=2, sort_keys=True))

    _atomic_write(out / "plotdata" / "accuracy_vs_round.csv",
                  _csv_text(["method", "seed", "round", "accuracy"], acc_rows))
    _atomic_write(out / "plotdata" / "cluster_time.csv",
                  _csv_text(["method", "seed", "cluster_seconds"], cluster_rows))

    failed = any(c.status == "failed" for c in cells)
    return (EXIT_PARTIAL if failed else EXIT_OK), doc


def sweep_labeled_budget(config: ExperimentConfig, budgets: list[int],
                         workers: int = 1,
                         out_dir: str | None = None) -> tuple[int, dict]:
    """Re-run the comparison at several labeled budgets; emit one merged long CSV.

    Every budget's config is validated before the first one runs, so an
    infeasible budget fails before anything is written.
    """
    out = Path(out_dir or config.output_dir)
    subs = {}
    for budget in _list(budgets, "--budgets", lambda b: isinstance(b, int), "integers"):
        raw = json.loads(json.dumps(config.raw))
        raw["split"]["labels_per_class"] = budget
        raw["output_dir"] = str(out / f"budget_{budget}")
        try:
            subs[budget] = validate_config(raw)
        except ConfigError as exc:
            raise ConfigError("$.split.labels_per_class",
                              f"budget {budget} infeasible: {exc}") from None
    merged = []
    worst = EXIT_OK
    sub_docs = {}
    for budget, sub in subs.items():
        code, doc = run(sub, workers=workers)
        worst = max(worst, code)
        sub_docs[budget] = doc
        for cell in doc["cells"]:
            if cell["status"] == "ok":
                merged.append((budget, cell["method"], cell["seed"],
                               repr(cell["final_accuracy"]), repr(cell["total_seconds"])))

    _atomic_write(out / "sweep_merged.csv", _csv_text(
        ["budget", "method", "seed", "final_accuracy", "total_seconds"], merged))
    return worst, {"budgets": {str(b): d for b, d in sub_docs.items()}}


def cluster_timing(config: ExperimentConfig,
                   out_dir: str | None = None) -> tuple[int, dict]:
    """Fit every configured method on the unlabeled split, once per seed."""
    out = Path(out_dir or config.output_dir)
    per_method: dict[str, list[float]] = {m: [] for m in config.methods}
    failures: dict[str, str] = {}
    for seed in config.seeds:
        labeled, unlabeled, _ = _prepare_split(config, seed)
        scaled, _ = standardize(unlabeled.features)
        for method in config.methods:
            cfg = make_selftrain_config(config, "ist", method, seed).cluster_config
            try:
                model = clustering.fit_cluster(method, scaled, cfg, k=labeled.class_count)
                per_method[method].append(model.fit_seconds)
            except Exception as exc:  # noqa: BLE001 - mark the row, keep timing others
                failures[method] = str(exc)

    table = {}
    for method in config.methods:
        values = per_method[method]
        table[method] = {
            "fit_seconds": values,
            "mean_seconds": float(np.mean(values)) if values else None,
            "median_seconds": float(np.median(values)) if values else None,
            "error": failures.get(method),
        }

    _atomic_write(out / "cluster_time.csv", _csv_text(
        ["method", "mean_seconds", "median_seconds", "status"],
        ([m, _repr_or_blank(row["mean_seconds"]), _repr_or_blank(row["median_seconds"]),
          "failed" if row["error"] else "ok"] for m, row in table.items())))
    _atomic_write(out / "cluster_time.json", json.dumps(table, indent=2, sort_keys=True))
    return (EXIT_PARTIAL if failures else EXIT_OK), table


def preset_config(name: str, out_dir: str = "results",
                  mnist_dir: str | None = None) -> dict:
    """Bundled experiment configurations."""
    if name == "blobs-small":
        return {
            "dataset": {"source": "blobs", "class_count": 4, "per_class": 600,
                        "dims": 2, "spread": 0.5},
            "split": {"labels_per_class": 4, "test_fraction": 0.25},
            "backbone": {"kind": "random_feature_ridge", "hidden_width": 512,
                         "ridge_lambda": 1e-2, "temperature": 0.2},
            "selftrain": {"rounds": 12, "confidence_threshold": 0.95,
                          "schedule": {"initial_fraction": 0.2, "rounds": 8,
                                       "growth": "equal"}},
            "clustering": {"methods": ["kmeans"]},
            "seeds": [1, 2, 3, 4, 5],
            "output_dir": out_dir,
        }
    if name == "blobs-noisy":
        # Same centroid geometry as blobs-small (separation 6 * 0.5) but a much
        # wider spread, which fills the gaps between classes with a noise band.
        doc = preset_config("blobs-small", out_dir)
        doc["dataset"]["spread"] = 1.2
        doc["dataset"]["min_separation"] = 3.0
        return doc
    if name == "mnist-100":
        if mnist_dir is None:
            raise ConfigError("$.dataset", "preset mnist-100 needs --mnist-dir")
        base = Path(mnist_dir)
        return {
            "dataset": {"source": "idx",
                        "images_path": str(base / "train-images-idx3-ubyte"),
                        "labels_path": str(base / "train-labels-idx1-ubyte"),
                        "max_rows": 20000},
            "split": {"labels_per_class": 10, "test_fraction": 0.2},
            "backbone": {"kind": "softmax_sgd", "learning_rate": 0.03,
                         "batch_size": 64, "epochs": 10},
            "selftrain": {"rounds": 12, "confidence_threshold": 0.95,
                          "schedule": {"initial_fraction": 0.2, "rounds": 8,
                                       "growth": "equal"}},
            "clustering": {"methods": ["kmeans"]},
            "seeds": [1, 2, 3],
            "output_dir": out_dir,
        }
    if name == "blobs-timing":
        return {
            "dataset": {"source": "blobs", "class_count": 10, "per_class": 2000,
                        "dims": 50, "spread": 1.0},
            "split": {"labels_per_class": 4, "test_fraction": 0.1},
            "backbone": {"kind": "random_feature_ridge"},
            "selftrain": {"rounds": 9,
                          "schedule": {"initial_fraction": 0.2, "rounds": 8,
                                       "growth": "equal"}},
            "clustering": {"methods": ["kmeans", "minibatch_kmeans", "meanshift"]},
            "seeds": [1, 2, 3, 4, 5],
            "output_dir": out_dir,
        }
    raise ConfigError("$.preset", f"unknown preset {name!r}")
