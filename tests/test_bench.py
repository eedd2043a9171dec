import concurrent.futures
import csv
import functools
import json
import struct
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selftrain
from selftrain import bench
from selftrain.bench import (BACKBONES, EXIT_PARTIAL, ComparisonReport, ConfigError, ReportCell,
                             build_dataset, cluster_timing, make_backbone,
                             make_selftrain_config, preset_config, read_config,
                             report_deterministic_view, run, sweep_labeled_budget,
                             validate_config)
from selftrain.classifiers import SoftmaxSGD
from selftrain.cli import main
from selftrain.clustering import CONFIGS, METHODS, SUBSAMPLE, estimate_bandwidth
from selftrain.data import apply_standardize, make_blobs, split_ssl, standardize
from selftrain.querylist import BatchSchedule
from selftrain.training import SelfTrainConfig


def tiny_doc(out_dir, seeds=(1, 2, 3), methods=("kmeans",)):
    return {
        "dataset": {"source": "blobs", "class_count": 3, "per_class": 40,
                    "dims": 2, "spread": 0.5},
        "split": {"labels_per_class": 3, "test_fraction": 0.25},
        "backbone": {"kind": "random_feature_ridge", "hidden_width": 32},
        "selftrain": {"rounds": 3,
                      "schedule": {"initial_fraction": 0.3, "rounds": 2}},
        "clustering": {"methods": list(methods)},
        "seeds": list(seeds),
        "output_dir": str(out_dir),
    }


def read_csv_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _set(*keys, value):
    """An edit that sets ``doc[keys[0]]...[keys[-1]] = value``."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc.setdefault(key, {})
        doc[keys[-1]] = value
    return edit


# (edit to tiny_doc, path the ConfigError must name, text its message must hold)
MALFORMED = {
    "selftrain-unknown-key": (_set("selftrain", "threshold", value=0.9),
                              "$.selftrain.threshold", "unknown key"),
    "backbone-unknown-key": (_set("backbone", "hidden", value=16),
                             "$.backbone.hidden", "unknown key"),
    "kmeans-unknown-key": (_set("clustering", "kmeans", "iters", value=5),
                           "$.clustering.kmeans.iters", "unknown key"),
    "top-level-unknown-key": (_set("output", value="x"), "$.output", "unknown key"),
    "kmeans-init-removed": (_set("clustering", "kmeans", "init", value="kmeanspp"),
                            "$.clustering.kmeans.init", "unknown key"),
    "certainty-norm-removed": (_set("selftrain", "certainty_norm", value="global"),
                               "$.selftrain.certainty_norm", "unknown key"),
    "freeze-labels-removed": (_set("selftrain", "freeze_labels", value=False),
                              "$.selftrain.freeze_labels", "unknown key"),
    "pseudo-weight-removed": (_set("selftrain", "pseudo_weight", value=1.0),
                              "$.selftrain.pseudo_weight", "unknown key"),
    "schedule-rounds-float": (_set("selftrain", "schedule", "rounds", value=2.0),
                              "$.selftrain.schedule.rounds", "expected int"),
    "meanshift-bandwidth-string": (_set("clustering", "meanshift", "bandwidth", value="auto"),
                                   "$.clustering.meanshift.bandwidth", "expected float | None"),
    "sgd-epochs-negative": (_set("backbone", value={"kind": "softmax_sgd", "epochs": -1}),
                            "$.backbone", "epochs"),
    "duplicate-seeds": (_set("seeds", value=[1, 1]), "$.seeds[1]", "duplicate"),
    "negative-seed": (_set("seeds", value=[1, -1]), "$.seeds[1]",
                      "expected non-negative integers, got -1"),
    "duplicate-methods": (_set("clustering", "methods", value=["kmeans", "kmeans"]),
                          "$.clustering.methods[1]", "duplicate"),
    "max-rows-string": (_set("dataset", "max_rows", value="100"),
                        "$.dataset.max_rows", "expected int | None, got '100'"),
    "standardize-string": (_set("dataset", "standardize", value="yes"),
                           "$.dataset.standardize", "expected bool"),
    "source-list": (_set("dataset", "source", value=["blobs"]),
                    "$.dataset.source", "unknown source"),
    "backbone-kind-list": (_set("backbone", "kind", value=["softmax_sgd"]),
                           "$.backbone.kind", "unknown backbone"),
    "ridge-lambda-nan": (_set("backbone", "ridge_lambda", value=float("nan")),
                         "$.backbone.ridge_lambda", "finite"),
    "test-fraction-infinity": (_set("split", "test_fraction", value=float("inf")),
                               "$.split.test_fraction", "finite"),
    "meanshift-bandwidth-nan": (_set("clustering", "meanshift", "bandwidth", value=float("nan")),
                                "$.clustering.meanshift.bandwidth", "finite"),
    # the fits' fixed settings are module constants, not config keys
    **{f"{method.replace('_', '-')}-{key.replace('_', '-')}-removed": (
        _set("clustering", method, key, value=1), f"$.clustering.{method}.{key}", "unknown key")
       for method, keys in {"kmeans": ("max_iter", "tol"),
                            "minibatch_kmeans": ("max_iter", "tol", "batch_size",
                                                 "max_no_improve"),
                            "meanshift": ("merge_tol", "max_iter", "subsample",
                                          "shift_subsample")}.items()
       for key in keys},
    "birch-method": (_set("clustering", "methods", value=["kmeans", "birch"]),
                     "$.clustering.methods[1]", "expected methods in"),
    "birch-section": (_set("clustering", "birch", value={}),
                      "$.clustering.birch", "unknown key"),
    # the loader and the split check their own keys and ranges, on the first seed's data
    "split-infeasible": (_set("split", "labels_per_class", value=35),
                         "$.split", "class 0 has only 30 rows after the test split, need 35"),
    "max-rows-drops-a-class": (_set("dataset", "max_rows", value=80),
                               "$.split", "class 2 has no rows"),
    "csv-label-column-not-in-header": (
        _set("dataset", value={"source": "csv", "path": "data.csv", "label_column": "class"}),
        "$.dataset", "label column 'class' not in header"),
    "class-count-one": (_set("dataset", "class_count", value=1), "$.dataset", "class_count"),
    "per-class-zero": (_set("dataset", "per_class", value=0), "$.dataset", "per_class"),
    "dims-zero": (_set("dataset", "dims", value=0), "$.dataset", "dims"),
    "spread-zero": (_set("dataset", "spread", value=0), "$.dataset", "spread"),
    "min-separation-zero": (_set("dataset", "min_separation", value=0.0),
                            "$.dataset", "min_separation"),
    "labels-per-class-zero": (_set("split", "labels_per_class", value=0),
                              "$.split", "labels_per_class"),
    "test-fraction-zero": (_set("split", "test_fraction", value=0), "$.split", "test_fraction"),
    "test-fraction-one": (_set("split", "test_fraction", value=1.0), "$.split", "test_fraction"),
    "max-rows-zero": (_set("dataset", "max_rows", value=0), "$.dataset", "max_rows"),
    "dataset-unknown-key": (_set("dataset", "colour", value="red"),
                            "$.dataset.colour", "unknown key; make_blobs takes"),
    "split-unknown-key": (_set("split", "shuffle", value=True),
                          "$.split.shuffle", "unknown key; split_ssl takes"),
}

RIDGE_KEYS = {"hidden_width": st.integers(1, 48),
              "ridge_lambda": st.floats(1e-4, 10.0) | st.integers(1, 5),
              "temperature": st.floats(0.05, 2.0)}
SGD_KEYS = {"learning_rate": st.floats(1e-3, 1.0), "batch_size": st.integers(1, 128),
            "epochs": st.integers(0, 30)}
SCHEDULE_KEYS = {"initial_fraction": st.floats(0.05, 1.0), "rounds": st.integers(0, 8),
                 "growth": st.just("equal")}
SELFTRAIN_KEYS = {"rounds": st.integers(9, 15), "confidence_threshold": st.floats(0.0, 1.0),
                  "schedule": st.fixed_dictionaries({}, optional=SCHEDULE_KEYS)}
KMEANS_KEYS = {"k": st.none() | st.integers(1, 10)}
CLUSTER_KEYS = {"kmeans": KMEANS_KEYS, "minibatch_kmeans": KMEANS_KEYS,
                "meanshift": {"bandwidth": st.none() | st.floats(0.1, 5.0)}}


def _state(model) -> dict:
    """A backbone's attributes in comparable form."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, np.random.Generator):
            return value.bit_generator.state
        return value
    return {key: plain(value) for key, value in vars(model).items()}


class TestValidation:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_doc_rejected_at_parse_time(self, case, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # for the cases that read a file
        Path("data.csv").write_text("x,y,label\n" + "".join(f"{i},{-i},{i % 2}\n"
                                                             for i in range(40)))
        edit, path, needle = MALFORMED[case]
        doc = tiny_doc("unused")
        edit(doc)
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert err.value.path == path
        assert needle in str(err.value)

    def test_backbone_kind_switch_drops_the_other_kinds_keys(self):
        doc = preset_config("blobs-small")
        doc["backbone"]["kind"] = "softmax_sgd"  # keeps hidden_width, ridge_lambda, temperature
        config = validate_config(doc)
        model = make_backbone(config.backbone, 4, 2, 1)
        assert _state(model) == _state(SoftmaxSGD(4, 2, seed=1))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_sections_build_like_their_classes(self, data):
        """Each section equals its class called with the same keys: no default lives in bench."""
        kind = data.draw(st.sampled_from(sorted(BACKBONES)))
        own_keys, other_keys = ((RIDGE_KEYS, SGD_KEYS) if kind == "random_feature_ridge"
                                else (SGD_KEYS, RIDGE_KEYS))
        own = data.draw(st.fixed_dictionaries({}, optional=own_keys))
        other = data.draw(st.fixed_dictionaries(
            {}, optional={k: v for k, v in other_keys.items() if k not in own_keys}))
        selftrain = data.draw(st.fixed_dictionaries({}, optional=SELFTRAIN_KEYS))
        method = data.draw(st.sampled_from(METHODS))
        options = data.draw(st.fixed_dictionaries({}, optional=CLUSTER_KEYS[method]))
        class_count, input_dim, seed = (data.draw(st.integers(2, 5)),
                                        data.draw(st.integers(1, 6)),
                                        data.draw(st.integers(0, 1000)))

        doc = tiny_doc("unused", methods=(method,))
        doc["backbone"] = {"kind": kind, **other, **own}
        doc["selftrain"] = selftrain
        doc["clustering"][method] = options
        config = validate_config(doc)

        built = make_backbone(config.backbone, class_count, input_dim, seed)
        direct = BACKBONES[kind](class_count, input_dim, **own, seed=seed)
        assert type(built) is type(direct) and _state(built) == _state(direct)

        # Both modes get explicit rounds, the schedule's rounds + 4 unless set.
        kwargs = dict(selftrain, schedule=BatchSchedule(**selftrain.get("schedule", {})),
                      seed=seed)
        kwargs["rounds"] = selftrain.get("rounds", kwargs["schedule"].rounds + 4)
        assert make_selftrain_config(config, "ist", method, seed) == SelfTrainConfig(
            mode="ist", cluster_method=method,
            cluster_config=CONFIGS[method](**options, seed=seed), **kwargs)
        assert make_selftrain_config(config, "st", None, seed) == \
            SelfTrainConfig(mode="st", **kwargs)

    def test_missing_field_names_path(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"dataset": {"source": "blobs"}})
        assert "$.dataset.class_count" in str(err.value)

    def test_unknown_cluster_method_rejected_at_parse_time(self, tmp_path):
        doc = tiny_doc(tmp_path, methods=("kmeans", "spectral"))
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert "$.clustering.methods[1]" in str(err.value)

    def test_missing_file_rejected(self, tmp_path):
        doc = tiny_doc(tmp_path)
        doc["dataset"] = {"source": "csv", "path": str(tmp_path / "absent.csv")}
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert "$.dataset.path" in str(err.value)

    def test_csv_needs_its_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,label\n" + "".join(f"{i},{-i},{i % 2}\n" for i in range(40)))
        doc = tiny_doc(tmp_path)
        doc["dataset"] = {"source": "csv", "path": str(path)}
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert err.value.path == "$.dataset.label_column"
        assert "missing required field" in str(err.value)
        doc["dataset"]["label_column"] = 2
        with pytest.raises(ConfigError, match=r"\$\.dataset\.label_column: expected str"):
            validate_config(doc)
        doc["dataset"]["label_column"] = "label"
        code, report = run(validate_config(doc))
        assert code == 0 and all(c["status"] == "ok" for c in report["cells"])

    def test_bad_fraction_rejected(self, tmp_path):
        doc = tiny_doc(tmp_path)
        doc["split"]["test_fraction"] = 1.5
        with pytest.raises(ConfigError, match="test_fraction"):
            validate_config(doc)

    def test_rounds_must_cover_schedule(self, tmp_path):
        doc = tiny_doc(tmp_path)
        doc["selftrain"]["rounds"] = 2
        with pytest.raises(ConfigError, match="rounds"):
            validate_config(doc)

    def test_empty_seeds_rejected(self, tmp_path):
        doc = tiny_doc(tmp_path)
        doc["seeds"] = []
        with pytest.raises(ConfigError, match="seeds"):
            validate_config(doc)

    def test_non_finite_json_literal_rejected(self, tmp_path):
        doc = tiny_doc("unused")
        doc["backbone"]["ridge_lambda"] = float("nan")
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(doc))
        assert '"ridge_lambda": NaN' in p.read_text()
        with pytest.raises(ConfigError) as err:
            validate_config(read_config(str(p)))
        assert err.value.path == "$.backbone.ridge_lambda"
        assert "finite" in str(err.value)

    def test_json_error_carries_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"dataset": }')
        with pytest.raises(ConfigError, match="line 1"):
            read_config(str(p))


class TestRun:
    def test_file_counts_and_exit_code(self, tmp_path):
        cfg = validate_config(tiny_doc(tmp_path / "out"))
        code, doc = run(cfg)
        assert code == 0
        traj_csvs = sorted((tmp_path / "out" / "trajectories").glob("*.csv"))
        assert len(traj_csvs) == 6  # 3 ST + 3 IST
        assert (tmp_path / "out" / "report.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "plotdata" / "accuracy_vs_round.csv").exists()
        assert (tmp_path / "out" / "plotdata" / "cluster_time.csv").exists()
        assert len(doc["cells"]) == 6

    def test_rerun_is_deterministic_apart_from_wall_clock(self, tmp_path):
        cfg_a = validate_config(tiny_doc(tmp_path / "a"))
        cfg_b = validate_config(tiny_doc(tmp_path / "b"))
        _, doc_a = run(cfg_a)
        _, doc_b = run(cfg_b)
        doc_a["config"]["output_dir"] = doc_b["config"]["output_dir"] = ""
        assert report_deterministic_view(doc_a) == report_deterministic_view(doc_b)

    def test_report_round_trips_and_aggregates_recompute(self, tmp_path):
        cfg = validate_config(tiny_doc(tmp_path / "out"))
        _, doc = run(cfg)
        assert json.loads((tmp_path / "out" / "report.json").read_text()) == doc
        rows = read_csv_rows(tmp_path / "out" / "report.csv")
        assert rows == [{
            "method": c["method"], "seed": str(c["seed"]), "status": c["status"],
            "final_accuracy": repr(c["final_accuracy"]),
            "total_processed": str(c["total_processed"]),
            "total_seconds": repr(c["total_seconds"]),
            "cluster_seconds": repr(c["cluster_seconds"]), "error": ""}
            for c in doc["cells"]]
        report = ComparisonReport([ReportCell(**c) for c in doc["cells"]])
        assert report.aggregates() == doc["aggregates"]
        for method, agg in doc["aggregates"].items():
            accs = [c["final_accuracy"] for c in doc["cells"]
                    if c["method"] == method and c["status"] == "ok"]
            assert agg["final_accuracy"]["median"] == float(np.median(accs))

    def test_trajectory_files_re_readable(self, tmp_path):
        cfg = validate_config(tiny_doc(tmp_path / "out", seeds=(1,)))
        run(cfg)
        rows = read_csv_rows(tmp_path / "out" / "trajectories" / "st_seed1.csv")
        assert [r["round"] for r in rows] == ["0", "1", "2"]
        summary = json.loads(
            (tmp_path / "out" / "trajectories" / "st_seed1.summary.json").read_text())
        assert summary["rounds"] == len(rows)
        assert summary["final_accuracy"] == float(rows[-1]["accuracy"])
        assert summary["total_processed"] == sum(int(r["processed"]) for r in rows)
        assert summary["cluster"] is None

    def test_summary_carries_cluster_diagnostics(self, tmp_path):
        methods = ("kmeans", "minibatch_kmeans", "meanshift")
        run(validate_config(tiny_doc(tmp_path / "out", seeds=(1,), methods=methods)))
        for method in methods:
            name = f"ist-{method.replace('_', '-')}_seed1.summary.json"
            cluster = json.loads(
                (tmp_path / "out" / "trajectories" / name).read_text())["cluster"]
            assert set(cluster) == {"method", "k", "converged", "lloyd_passes", "bandwidth"}
            assert cluster["method"] == method
            assert cluster["k"] >= 1
            if method == "kmeans":
                assert cluster["converged"] is True and cluster["lloyd_passes"] >= 1
            else:
                assert cluster["lloyd_passes"] is None
            if method != "meanshift":
                assert cluster["bandwidth"] is None
        assert cluster["converged"] is None  # mean shift has no stopping criterion
        # the automatic bandwidth, estimated on the standardized unlabeled rows
        _, unlabeled, _ = bench._prepare_split(validate_config(tiny_doc(tmp_path)), 1)
        scaled, _ = standardize(unlabeled.features)
        assert cluster["bandwidth"] == estimate_bandwidth(scaled, 0.3, SUBSAMPLE, seed=1)

    def test_report_cells_carry_cluster_diagnostics(self, tmp_path):
        doc = tiny_doc(tmp_path / "out", seeds=(1,), methods=("kmeans", "meanshift"))
        _, report = run(validate_config(doc))
        cells = {c["method"]: c for c in report["cells"]}
        assert cells["st"]["cluster"] is None
        for name in ("ist-kmeans", "ist-meanshift"):
            summary = json.loads((tmp_path / "out" / "trajectories" /
                                  f"{name}_seed1.summary.json").read_text())
            assert cells[name]["cluster"] == summary["cluster"]
        assert cells["ist-meanshift"]["cluster"]["bandwidth"] > 0
        assert json.loads((tmp_path / "out" / "report.json").read_text()) == report
        # report.csv keeps its columns
        assert "cluster" not in read_csv_rows(tmp_path / "out" / "report.csv")[0]

    def test_standardize_fits_the_train_rows_and_scales_the_test_rows(self, tmp_path,
                                                                        monkeypatch):
        doc = preset_config("blobs-noisy", str(tmp_path / "out"))
        doc["seeds"] = [1]
        doc["dataset"]["standardize"] = True
        splits = []

        def recorded(config, seed):
            splits.append(prepare(config, seed))
            return splits[-1]

        prepare = bench._prepare_split
        monkeypatch.setattr(bench, "_prepare_split", recorded)
        code, report = run(validate_config(doc))
        assert code == 0 and [c["status"] for c in report["cells"]] == ["ok", "ok"]

        raw_l, raw_u, raw_test = split_ssl(build_dataset(doc["dataset"], 1), **doc["split"],
                                           seed=1)
        _, stats = standardize(np.vstack([raw_l.features, raw_u.features]))
        assert len(splits) == 2  # one per cell
        for labeled, unlabeled, test in splits:
            train = np.vstack([labeled.features, unlabeled.features])
            np.testing.assert_allclose(train.mean(axis=0), 0.0, rtol=0, atol=1e-9)
            np.testing.assert_allclose(train.std(axis=0), 1.0, rtol=0, atol=1e-9)
            assert np.array_equal(test.features, apply_standardize(stats, raw_test.features))

    def test_worker_pool_matches_sequential(self, tmp_path):
        cfg_seq = validate_config(tiny_doc(tmp_path / "seq", seeds=(1, 2)))
        cfg_par = validate_config(tiny_doc(tmp_path / "par", seeds=(1, 2)))
        _, doc_seq = run(cfg_seq, workers=1)
        _, doc_par = run(cfg_par, workers=2)
        doc_seq["config"]["output_dir"] = doc_par["config"]["output_dir"] = ""
        assert report_deterministic_view(doc_seq) == report_deterministic_view(doc_par)

    def test_failed_cell_marked_and_partial_exit(self, tmp_path):
        doc = tiny_doc(tmp_path / "out", seeds=(1,))
        doc["backbone"] = {"kind": "softmax_sgd", "learning_rate": 1e308, "epochs": 2}
        cfg = validate_config(doc)
        code, report = run(cfg)
        assert code == 3
        assert all(c["status"] == "failed" for c in report["cells"])
        assert all("learning_rate" in c["error"] for c in report["cells"])
        assert all(c["cluster"] is None for c in report["cells"])

    def test_dead_worker_fails_its_cell_only(self, tmp_path, monkeypatch):
        class DyingExecutor:
            """Runs tasks in-process; the second task's worker 'dies'."""

            def __init__(self, max_workers):
                self.submitted = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                self.submitted += 1
                if self.submitted == 2:
                    fut.set_exception(BrokenProcessPool("worker process died"))
                else:
                    fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DyingExecutor)
        cfg = validate_config(tiny_doc(tmp_path / "out", seeds=(1,)))
        code, report = run(cfg, workers=2)
        assert code == EXIT_PARTIAL
        by_method = {c["method"]: c for c in report["cells"]}
        assert by_method["st"]["status"] == "ok"
        assert by_method["ist-kmeans"]["status"] == "failed"
        assert "BrokenProcessPool" in by_method["ist-kmeans"]["error"]
        written = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [c["status"] for c in written["cells"]] == ["ok", "failed"]


class TestSweep:
    def test_sub_reports_and_merged_rows(self, tmp_path):
        cfg = validate_config(tiny_doc(tmp_path / "out", seeds=(1, 2)))
        code, _ = sweep_labeled_budget(cfg, [1, 3])
        assert code == 0
        merged = (tmp_path / "out" / "sweep_merged.csv").read_text().strip().splitlines()
        # header + budgets x methods(st, ist) x seeds
        assert len(merged) == 1 + 2 * 2 * 2
        assert (tmp_path / "out" / "budget_1" / "report.csv").exists()
        assert (tmp_path / "out" / "budget_3" / "report.csv").exists()

    def test_single_budget_matches_plain_run(self, tmp_path):
        cfg_sweep = validate_config(tiny_doc(tmp_path / "sweep", seeds=(1,)))
        sweep_labeled_budget(cfg_sweep, [3])
        direct_doc = tiny_doc(tmp_path / "direct", seeds=(1,))
        direct_doc["split"]["labels_per_class"] = 3
        _, direct = run(validate_config(direct_doc))
        sub = json.loads((tmp_path / "sweep" / "budget_3" / "report.json").read_text())
        sub["config"]["output_dir"] = direct["config"]["output_dir"] = ""
        assert report_deterministic_view(sub) == report_deterministic_view(direct)

    def test_infeasible_budget_named(self, tmp_path):
        cfg = validate_config(tiny_doc(tmp_path / "out", seeds=(1,)))
        with pytest.raises(ConfigError, match="budget 1000"):
            sweep_labeled_budget(cfg, [1000])

    def test_round0_accuracy_monotone_in_budget(self, tmp_path):
        doc = tiny_doc(tmp_path / "out", seeds=(1, 2, 3, 4, 5))
        doc["dataset"]["per_class"] = 60
        cfg = validate_config(doc)
        sweep_labeled_budget(cfg, [1, 4, 10])
        medians = []
        for budget in (1, 4, 10):
            accs = []
            for seed in (1, 2, 3, 4, 5):
                path = tmp_path / "out" / f"budget_{budget}" / "trajectories" / \
                    f"st_seed{seed}.csv"
                accs.append(float(read_csv_rows(path)[0]["accuracy"]))
            medians.append(float(np.median(accs)))
        assert medians[0] <= medians[1] <= medians[2]


class TestClusterTiming:
    def test_one_row_per_method(self, tmp_path):
        cfg = validate_config(tiny_doc(tmp_path / "out", seeds=(1, 2),
                                       methods=("kmeans", "minibatch_kmeans")))
        code, table = cluster_timing(cfg)
        assert code == 0
        assert set(table) == {"kmeans", "minibatch_kmeans"}
        for row in table.values():
            assert len(row["fit_seconds"]) == 2
            assert row["median_seconds"] is not None
        lines = (tmp_path / "out" / "cluster_time.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_method_failure_marks_row(self, tmp_path):
        doc = tiny_doc(tmp_path / "out", seeds=(1,), methods=("kmeans", "minibatch_kmeans"))
        doc["clustering"]["kmeans"] = {"k": 1000}
        cfg = validate_config(doc)
        code, table = cluster_timing(cfg)
        assert code == 3
        assert "k=1000" in table["kmeans"]["error"]
        assert table["minibatch_kmeans"]["error"] is None


class TestPresets:
    def test_readme_config_example_validates(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config format", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        validate_config(json.loads(example))

    def test_blobs_small_validates(self):
        cfg = validate_config(preset_config("blobs-small"))
        assert cfg.dataset["per_class"] == 600
        assert cfg.split["labels_per_class"] == 4

    def test_blobs_noisy_keeps_clean_geometry(self):
        doc = preset_config("blobs-noisy")
        assert doc["dataset"]["spread"] == 1.2
        assert doc["dataset"]["min_separation"] == 3.0

    def test_mnist_preset_needs_dir(self):
        with pytest.raises(ConfigError, match="mnist-dir"):
            preset_config("mnist-100")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("cifar")

    def test_timing_preset_scale(self):
        doc = preset_config("blobs-timing")
        assert doc["dataset"]["class_count"] * doc["dataset"]["per_class"] == 20000
        assert doc["dataset"]["dims"] == 50

    def test_mnist_preset_pipeline_on_synthetic_idx(self, tmp_path):
        # digit-free stand-in: 10 classes of 6x6 images, one bright pixel block
        # per class, written in the same binary layout the preset expects
        rng = np.random.default_rng(0)
        per_class = 40
        images = np.zeros((10 * per_class, 6, 6), dtype=np.uint8)
        labels = np.repeat(np.arange(10, dtype=np.uint8), per_class)
        for i, lab in enumerate(labels):
            images[i] = rng.integers(0, 30, size=(6, 6)).astype(np.uint8)
            images[i, lab // 4, lab % 4] = 220
        order = rng.permutation(len(labels))
        images, labels = images[order], labels[order]
        with open(tmp_path / "train-images-idx3-ubyte", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, len(labels), 6, 6))
            fh.write(images.tobytes())
        with open(tmp_path / "train-labels-idx1-ubyte", "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, len(labels)))
            fh.write(labels.tobytes())

        doc = preset_config("mnist-100", out_dir=str(tmp_path / "out"),
                            mnist_dir=str(tmp_path))
        doc["seeds"] = [1]
        doc["selftrain"]["rounds"] = 3
        doc["selftrain"]["schedule"] = {"initial_fraction": 0.3, "rounds": 2}
        doc["backbone"]["epochs"] = 40
        code, report = run(validate_config(doc))
        assert code == 0
        assert {c["method"] for c in report["cells"]} == {"st", "ist-kmeans"}
        for cell in report["cells"]:
            assert cell["final_accuracy"] >= 0.5


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from selftrain import *", namespace)
    assert set(selftrain.__all__) <= namespace.keys()


class TestBuildDataset:
    def test_blobs_seeded(self):
        spec = {"source": "blobs", "class_count": 2, "per_class": 5, "dims": 2,
                "spread": 1.0}
        a = build_dataset(spec, 1)
        b = build_dataset(spec, 1)
        assert np.array_equal(a.features, b.features)

    def test_max_rows_truncates(self):
        spec = {"source": "blobs", "class_count": 2, "per_class": 50, "dims": 2,
                "spread": 1.0, "max_rows": 30}
        assert build_dataset(spec, 0).n == 30

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_blobs_build_like_make_blobs(self, data):
        """The dataset counterpart of the sections test: no dataset default lives in bench."""
        keys = data.draw(st.fixed_dictionaries(
            {"class_count": st.integers(2, 5), "per_class": st.integers(1, 30),
             "dims": st.integers(1, 4), "spread": st.floats(0.1, 3.0) | st.integers(1, 3)},
            optional={"min_separation": st.none() | st.floats(0.1, 10.0)}))
        max_rows = data.draw(st.none() | st.integers(1, 200))
        seed = data.draw(st.integers(0, 1000))
        spec = {"source": "blobs", **keys, **({} if max_rows is None else {"max_rows": max_rows})}
        built = build_dataset(spec, seed)
        direct = make_blobs(**keys, seed=seed)
        for name in ("features", "labels", "ids"):
            assert getattr(built, name).tobytes() == getattr(direct, name)[:max_rows].tobytes()
        assert built.class_count == direct.class_count

    @staticmethod
    def counted_load_csv(monkeypatch) -> list:
        calls = []
        load_csv = bench.load_csv

        @functools.wraps(load_csv)  # the config is checked against its signature
        def counted(*args, **kwargs):
            calls.append(kwargs)
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(bench, "load_csv", counted)
        return calls

    @staticmethod
    def write_csv(path, rows: int):
        path.write_text("x,y,label\n" + "".join(
            f"{i % 7},{(i * 3) % 11 - i % 2},{i % 2}\n" for i in range(rows)))

    def test_csv_is_parsed_once_per_process(self, tmp_path, monkeypatch):
        calls = self.counted_load_csv(monkeypatch)
        self.write_csv(tmp_path / "data.csv", 60)
        doc = tiny_doc(tmp_path / "out", seeds=(1, 2))
        doc["dataset"] = {"source": "csv", "path": str(tmp_path / "data.csv"),
                          "label_column": "label"}
        code, report = run(validate_config(doc))
        assert code == 0 and len(report["cells"]) == 4
        assert len(calls) == 1

    def test_rewritten_csv_is_parsed_again(self, tmp_path, monkeypatch):
        calls = self.counted_load_csv(monkeypatch)
        path = tmp_path / "data.csv"
        spec = {"source": "csv", "path": str(path), "label_column": "label"}
        self.write_csv(path, 60)
        assert build_dataset(spec, 1).n == build_dataset(spec, 2).n == 60
        self.write_csv(path, 50)
        assert build_dataset(spec, 1).n == 50
        assert build_dataset(dict(spec, max_rows=10), 1).n == 10
        assert len(calls) == 2

    def test_cached_arrays_are_read_only(self, tmp_path):
        self.write_csv(tmp_path / "data.csv", 20)
        spec = {"source": "csv", "path": str(tmp_path / "data.csv"), "label_column": "label"}
        data = build_dataset(spec, 1)
        assert build_dataset(spec, 1) is data
        for array in (data.features, data.labels, data.ids):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


class TestCli:
    def write_config(self, tmp_path, doc=None):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc or tiny_doc(tmp_path / "out", seeds=(1,))))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", self.write_config(tmp_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"dataset": {"source": "nope"}}))
        assert main(["validate", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_and_preset(self, capsys):
        assert main(["run"]) == 2

    def test_run_writes_report(self, tmp_path, capsys):
        assert main(["run", self.write_config(tmp_path)]) == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_seed_override_changes_seed_set(self, tmp_path):
        assert main(["run", self.write_config(tmp_path),
                     "--seed-override", "7,8"]) == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert sorted({c["seed"] for c in doc["cells"]}) == [7, 8]

    def test_seed_override_is_validated(self, tmp_path, capsys):
        assert main(["validate", self.write_config(tmp_path),
                     "--seed-override", "4,4"]) == 2
        assert "$.seeds[1]" in capsys.readouterr().err

    def test_out_flag_overrides_directory(self, tmp_path):
        assert main(["run", self.write_config(tmp_path),
                     "--out", str(tmp_path / "elsewhere")]) == 0
        assert (tmp_path / "elsewhere" / "report.json").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_rejected_before_any_run(self, tmp_path, capsys, command,
                                                       workers):
        budgets = ["--budgets", "1"] if command == "sweep" else []
        assert main([command, *budgets, self.write_config(tmp_path),
                     "--workers", workers]) == 2
        assert f"--workers: must be >= 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_cli(self, tmp_path):
        assert main(["sweep", "--budgets", "1,3",
                     self.write_config(tmp_path)]) == 0
        assert (tmp_path / "out" / "sweep_merged.csv").exists()

    def test_sweep_bad_budgets(self, tmp_path, capsys):
        assert main(["sweep", "--budgets", "a,b",
                     self.write_config(tmp_path)]) == 2

    def test_sweep_infeasible_budget_fails_before_any_run(self, tmp_path, capsys):
        # 40 rows per class, 30 after the test split: budget 2 runs, budget 35 cannot
        assert main(["sweep", "--budgets", "2,35", self.write_config(tmp_path)]) == 2
        assert "$.split.labels_per_class: budget 35 infeasible" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_repeated_budget_rejected(self, tmp_path, capsys):
        assert main(["sweep", "--budgets", "2,2", self.write_config(tmp_path)]) == 2
        assert "--budgets[1]: duplicate 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cluster_time_cli(self, tmp_path, capsys):
        assert main(["cluster-time", self.write_config(tmp_path)]) == 0
        assert (tmp_path / "out" / "cluster_time.csv").exists()
        assert "kmeans" in capsys.readouterr().out
