import copy
import csv
import importlib.util
import io
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import selftrain
from selftrain import bench, clustering, training
from selftrain.classifiers import (ClassifierModel, RandomFeatureRidge, SoftmaxSGD,
                                   _softmax_into, top_class)
from selftrain.data import Dataset, UnlabeledSet, make_blobs, split_ssl
from selftrain.querylist import BatchSchedule
from selftrain.training import (PseudoPool, SelfTrainConfig, TrainingRoundError,
                                evaluate, ist_train, pseudo_error_rate,
                                pseudo_label_pool, st_train)
from test_shared_blocks import cpus


class TableClassifier(ClassifierModel):
    """Stub emitting a fixed probability row per integer feature value."""

    backbone = "stub"

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)
        self.class_count = self.table.shape[1]

    def fit(self, X, y, sample_weight=None):
        return self

    def predict_proba(self, X):
        idx = np.asarray(X)[:, 0].astype(int)
        return self.table[idx]


def blob_problem(seed=0, spread=0.5, per_class=60):
    ds = make_blobs(4, per_class, 2, spread, seed)
    return split_ssl(ds, 4, 0.25, seed)


class TestPseudoLabelPool:
    def make_pool(self, n):
        pool = PseudoPool(n)
        pool.admit(np.arange(n), 0)
        return pool

    def test_zero_threshold_selects_everyone(self):
        table = [[0.6, 0.4], [0.5, 0.5], [0.9, 0.1]]
        unlabeled = UnlabeledSet(np.arange(3, dtype=float)[:, None], np.arange(3))
        pool = self.make_pool(3)
        rows, labels = pseudo_label_pool(TableClassifier(table), pool, unlabeled, 0.0)
        assert rows.tolist() == [0, 1, 2]
        assert labels.tolist() == [0, 0, 0]

    def test_threshold_one_needs_exact_certainty(self):
        table = [[1.0, 0.0], [0.999, 0.001]]
        unlabeled = UnlabeledSet(np.arange(2, dtype=float)[:, None], np.arange(2))
        pool = self.make_pool(2)
        rows, _ = pseudo_label_pool(TableClassifier(table), pool, unlabeled, 1.0)
        assert rows.tolist() == [0]

    def test_threshold_out_of_range_rejected_in_config(self):
        with pytest.raises(ValueError):
            SelfTrainConfig(mode="st", rounds=1, confidence_threshold=1.5)

    def test_confidence_fixture_selects_first_and_third(self):
        table = [[0.99, 0.01], [0.80, 0.20], [0.97, 0.03]]
        unlabeled = UnlabeledSet(np.arange(3, dtype=float)[:, None],
                                 np.array([5, 6, 7]))
        pool = self.make_pool(3)
        rows, _ = pseudo_label_pool(TableClassifier(table), pool, unlabeled, 0.95)
        assert rows.tolist() == [0, 2]
        assert pool.selected is rows

    def test_rejected_members_still_refreshed(self):
        table = [[0.99, 0.01], [0.80, 0.20]]
        unlabeled = UnlabeledSet(np.arange(2, dtype=float)[:, None], np.arange(2))
        pool = self.make_pool(2)
        pseudo_label_pool(TableClassifier(table), pool, unlabeled, 0.95)
        assert pool.confidence[1] == pytest.approx(0.80)
        assert pool.labels[1] == 0

    def test_full_pool_scored_whole_in_row_order_of_ids(self):
        scored = []

        class Ridge(RandomFeatureRidge):
            def predict_proba_embedded(self, H, rows=None):
                scored.append(rows)
                return super().predict_proba_embedded(H, rows)

        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 2))
        ids = rng.permutation(100)[:40]  # the ids play no part in the selection
        model = Ridge(3, 2, hidden_width=8, seed=5).fit(X, rng.integers(0, 3, 40))
        unlabeled = UnlabeledSet(X, ids)
        H = model.embed(X)
        proba = RandomFeatureRidge.predict_proba_embedded(model, H)
        for admitted in (rng.permutation(40)[:25], np.arange(40)):
            pool = PseudoPool(40)
            pool.admit(admitted, 0)
            rows, labels = pseudo_label_pool(model, pool, unlabeled, 0.0, embedded=H)
            assert np.array_equal(rows, np.sort(admitted))
            assert np.array_equal(labels, proba[rows].argmax(axis=1))
            assert np.array_equal(pool.confidence[rows], proba[rows].max(axis=1))
        assert scored[0] is not None and scored[1] is None

    def test_empty_pool_is_empty_selection(self):
        unlabeled = UnlabeledSet(np.zeros((1, 1)), np.array([0]))
        rows, labels = pseudo_label_pool(TableClassifier([[1.0, 0.0]]),
                                         PseudoPool(unlabeled.n_u), unlabeled, 0.5)
        assert len(rows) == len(labels) == 0

    def test_pool_rejects_readmission(self):
        pool = PseudoPool(2)
        pool.admit([1], 0)
        with pytest.raises(ValueError, match="row 1 already admitted"):
            pool.admit([0, 1], 1)
        assert len(pool) == 1 and pool.admitted.tolist() == [-1, 0]

    def test_pool_rejects_duplicates_within_one_admission(self):
        pool = PseudoPool(3)
        with pytest.raises(ValueError, match="row 1 already admitted"):
            pool.admit([2, 1, 1], 0)
        assert len(pool) == 0

    @pytest.mark.parametrize("seed", range(40))
    def test_pool_names_the_first_offending_row(self, seed):
        # repeats within the admission and rows admitted before, mixed: the
        # message names the first row, in the order given, that is either
        rng = np.random.default_rng(seed)
        pool = PseudoPool(12)
        before = rng.choice(12, int(rng.integers(0, 4)), replace=False)
        pool.admit(before, 0)
        rows = rng.integers(0, 12, int(rng.integers(1, 10)))
        seen = set(before.tolist())
        first = None
        for r in rows.tolist():
            if r in seen:
                first = r
                break
            seen.add(r)
        if first is None:
            pool.admit(rows, 1)
            assert len(pool) == len(before) + len(rows)
        else:
            with pytest.raises(ValueError, match=f"^row {first} already admitted$"):
                pool.admit(rows, 1)
            assert len(pool) == len(before)

    def test_pool_rejects_unknown_id(self):
        pool = PseudoPool(3)
        for rows in ([3], [-1], [1, 9]):
            with pytest.raises(ValueError, match="is not an unlabeled row"):
                pool.admit(rows, 0)
        assert len(pool) == 0 and (pool.admitted == -1).all()

    def test_pool_over_other_unlabeled_ids_rejected(self):
        unlabeled = UnlabeledSet(np.arange(2, dtype=float)[:, None], np.array([0, 1]))
        pool = PseudoPool(3)
        pool.admit([0], 0)
        with pytest.raises(ValueError, match="pool covers 3 rows but the unlabeled set has 2"):
            pseudo_label_pool(TableClassifier([[1.0, 0.0]] * 2), pool, unlabeled, 0.5)


class DictPool:
    """A per-sample pool keyed by unlabeled row, one dict entry per member."""

    def __init__(self):
        self.admitted_round = {}
        self.labels = {}
        self.confidence = {}

    def admit(self, rows, round_index):
        for r in rows:
            assert int(r) not in self.admitted_round
            self.admitted_round[int(r)] = round_index


def reference_pseudo_label_pool(model, pool, unlabeled, confidence_threshold):
    if not pool.admitted_round:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rows = np.array(sorted(pool.admitted_round), dtype=np.int64)
    proba = model.predict_proba(unlabeled.features[rows])
    conf = proba.max(axis=1)
    labels = proba.argmax(axis=1)
    for i, row in enumerate(rows.tolist()):
        pool.labels[row] = int(labels[i])
        pool.confidence[row] = float(conf[i])
    stored_conf = np.array([pool.confidence[int(r)] for r in rows])
    stored_labels = np.array([pool.labels[int(r)] for r in rows], dtype=np.int64)
    keep = stored_conf >= confidence_threshold
    return rows[keep], stored_labels[keep]


def reference_pseudo_error_rate(pool, confidence_threshold, truth):
    if truth is None:
        return None
    selected = [r for r in sorted(pool.labels) if pool.confidence[r] >= confidence_threshold]
    if not selected:
        return None
    return sum(1 for r in selected if pool.labels[r] != truth[r]) / len(selected)


class TestArrayPoolMatchesDictReference:
    """The array pool against a dict version keyed by row, on random pools."""

    def random_table(self, rng, n, classes):
        table = rng.dirichlet(np.ones(classes), size=n)
        certain = rng.random(n) < 0.3
        table[certain] = np.eye(classes)[rng.integers(0, classes, int(certain.sum()))]
        return table

    def test_random_pools_over_rounds(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            n = int(rng.integers(1, 60))
            classes = int(rng.integers(2, 5))
            ids = rng.permutation(1000)[:n]  # unsorted unlabeled ids, unused by the pool
            truth = rng.integers(0, classes, n)
            unlabeled = UnlabeledSet(np.arange(n, dtype=float)[:, None], ids, truth)
            threshold = [0.0, 1.0, float(rng.uniform(0.3, 0.99))][trial % 3]
            pool, ref = PseudoPool(n), DictPool()
            waiting = list(rng.permutation(n))
            for t in range(int(rng.integers(1, 6))):
                batch = [waiting.pop() for _ in range(int(rng.integers(0, len(waiting) + 1)))]
                pool.admit(batch, t)
                ref.admit(batch, t)
                model = TableClassifier(self.random_table(rng, n, classes))
                got = pseudo_label_pool(model, pool, unlabeled, threshold)
                want = reference_pseudo_label_pool(model, ref, unlabeled, threshold)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype
                    assert np.array_equal(g, w)
                assert len(pool) == len(ref.admitted_round)
                for row, label in ref.labels.items():
                    assert pool.labels[row] == label
                    assert pool.confidence[row] == ref.confidence[row]
                assert np.count_nonzero(pool.labels >= 0) == len(ref.labels)
                for truth_arg in (truth, None):
                    assert pseudo_error_rate(pool, truth_arg) == \
                        reference_pseudo_error_rate(ref, threshold, truth_arg)


class TestEvaluate:
    def test_constant_majority_on_balanced_set(self):
        table = [[0.9, 0.05, 0.05]] * 6
        test = Dataset(np.arange(6, dtype=float)[:, None],
                       np.array([0, 0, 1, 1, 2, 2]), 3, np.arange(6))
        assert evaluate(TableClassifier(table), test) == pytest.approx(1 / 3)

    def test_perfect_oracle(self):
        table = np.eye(3)[[0, 1, 2, 0]]
        test = Dataset(np.arange(4, dtype=float)[:, None],
                       np.array([0, 1, 2, 0]), 3, np.arange(4))
        assert evaluate(TableClassifier(table), test) == 1.0

    def test_hand_counted_fixture(self):
        # rows 0..6 predicted correctly, rows 7..9 wrong -> 0.7
        preds = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
        truth = [0, 1, 0, 1, 0, 1, 0, 0, 1, 0]
        table = np.eye(2)[preds]
        test = Dataset(np.arange(10, dtype=float)[:, None],
                       np.array(truth), 2, np.arange(10))
        assert evaluate(TableClassifier(table), test) == pytest.approx(0.7)

    def test_cached_embedding_scores_like_raw_rows(self):
        labeled, _, test = blob_problem(seed=4, spread=1.5)
        model = RandomFeatureRidge(4, 2, hidden_width=16, seed=4).fit(
            labeled.features, labeled.labels)
        acc = float(np.mean(top_class(model.predict_proba(test.features))[1] == test.labels))
        assert acc < 1.0
        assert evaluate(model, test) == acc
        assert evaluate(model, test, model.embed(test.features)) == acc

    def test_empty_test_rejected(self):
        model = TableClassifier([[1.0, 0.0]])
        with pytest.raises(ValueError):
            evaluate(model, Dataset(np.zeros((1, 1)), None, None, np.array([0])))


class TestPseudoErrorRate:
    def labeled_pool(self, table, threshold, admitted=None):
        """A pool over ``table``'s rows, pseudo-labeled once at ``threshold``."""
        n = len(table)
        unlabeled = UnlabeledSet(np.arange(n, dtype=float)[:, None], np.arange(n))
        pool = PseudoPool(n)
        pool.admit(np.arange(n) if admitted is None else admitted, 0)
        pseudo_label_pool(TableClassifier(table), pool, unlabeled, threshold)
        return pool

    def test_all_correct(self):
        pool = self.labeled_pool(np.eye(2)[[0, 1, 1]], 0.5)
        assert pseudo_error_rate(pool, np.array([0, 1, 1])) == 0.0

    def test_empty_selection_is_none_not_zero(self):
        assert pseudo_error_rate(PseudoPool(2), np.array([0, 1])) is None  # never labeled
        pool = self.labeled_pool([[0.7, 0.3], [0.2, 0.8]], 0.9)
        assert pseudo_error_rate(pool, np.array([0, 1])) is None
        pool = self.labeled_pool([[0.7, 0.3], [0.2, 0.8]], 0.1)
        assert pseudo_error_rate(pool, None) is None

    def test_two_of_five_wrong(self):
        pool = self.labeled_pool(np.eye(2)[[0, 0, 1, 1, 1]], 0.5)
        truth = np.array([0, 1, 0, 1, 1])
        assert pseudo_error_rate(pool, truth) == pytest.approx(0.4)

    def test_counts_only_the_selected_rows(self):
        # row 1 is wrong but below the threshold; row 3 is wrong but outside the pool
        table = [[0.99, 0.01], [0.6, 0.4], [0.01, 0.99], [0.99, 0.01]]
        pool = self.labeled_pool(table, 0.9, admitted=[0, 1, 2])
        assert pool.selected.tolist() == [0, 2]
        assert pseudo_error_rate(pool, np.array([0, 1, 1, 1])) == 0.0
        assert pseudo_error_rate(pool, np.array([1, 1, 1, 1])) == 0.5


class TestSelfTrainConfig:
    def test_ist_requires_rounds_to_cover_schedule(self):
        with pytest.raises(ValueError, match="rounds"):
            SelfTrainConfig(mode="ist", rounds=3, schedule=BatchSchedule(0.2, 8))

    def test_rounds_default_is_schedule_plus_four(self):
        cfg = SelfTrainConfig(mode="ist", schedule=BatchSchedule(0.2, 8))
        assert cfg.rounds == 12
        assert SelfTrainConfig(mode="ist", rounds=10).rounds == 10

    def test_st_needs_explicit_rounds(self):
        with pytest.raises(ValueError, match="rounds must be set explicitly for st mode"):
            SelfTrainConfig(mode="st")


class TestStTrain:
    def test_single_round_is_supervised_only(self):
        labeled, unlabeled, test = blob_problem()
        backbone = RandomFeatureRidge(4, 2, hidden_width=64, seed=0)
        model, traj = st_train(labeled, unlabeled, test, backbone,
                               SelfTrainConfig(mode="st", rounds=1, seed=0))
        assert traj.rounds_completed == 1
        assert traj.pseudo_used == [0]
        assert traj.processed == [labeled.n_l]
        supervised = RandomFeatureRidge(4, 2, hidden_width=64, seed=0)
        supervised.fit(labeled.features, labeled.labels)
        assert np.array_equal(model.weights, supervised.weights)

    def test_processed_accounting_identity(self):
        labeled, unlabeled, test = blob_problem(seed=3)
        backbone = RandomFeatureRidge(4, 2, hidden_width=64, seed=3)
        _, traj = st_train(labeled, unlabeled, test, backbone,
                           SelfTrainConfig(mode="st", rounds=5, seed=3))
        for used, processed, pool in zip(traj.pseudo_used, traj.processed,
                                         traj.pool_size):
            assert processed == labeled.n_l + used
            assert pool == unlabeled.n_u

    def test_self_training_beats_supervised_on_blobs(self):
        gains = []
        for seed in range(5):
            labeled, unlabeled, test = blob_problem(seed=seed)
            backbone = SoftmaxSGD(4, 2, epochs=10, seed=seed)
            _, traj = st_train(labeled, unlabeled, test, backbone,
                               SelfTrainConfig(mode="st", rounds=6, seed=seed))
            gains.append(traj.final_accuracy - traj.accuracy[0])
        assert np.median(gains) >= 0.0

    def test_sample_ids_play_no_part(self):
        """Shuffling the unlabeled ids, with the rows left in place, changes nothing."""
        labeled, unlabeled, test = blob_problem(seed=0, spread=1.0)
        shuffled = UnlabeledSet(unlabeled.features,
                                np.random.default_rng(0).permutation(unlabeled.ids),
                                unlabeled.eval_labels())
        # SGD visits its rows in the order given, so a fit order keyed by id would show
        runs = [st_train(labeled, u, test, SoftmaxSGD(4, 2, epochs=5, seed=0),
                         SelfTrainConfig(mode="st", rounds=5, confidence_threshold=0.8,
                                         seed=0))
                for u in (unlabeled, shuffled)]
        (model_a, traj_a), (model_b, traj_b) = runs
        assert traj_a.deterministic_fields() == traj_b.deterministic_fields()
        assert np.array_equal(model_a.weights, model_b.weights)

    def test_divergence_carries_round_index_and_partial_trajectory(self):
        labeled, unlabeled, test = blob_problem(seed=1)
        backbone = SoftmaxSGD(4, 2, learning_rate=1e308, epochs=3, seed=1)
        with pytest.raises(TrainingRoundError) as err:
            st_train(labeled, unlabeled, test, backbone,
                     SelfTrainConfig(mode="st", rounds=4, seed=1))
        assert err.value.round_index == 0
        assert err.value.trajectory.failed_round == 0


class TestIstTrain:
    def test_pool_sizes_follow_partition(self):
        labeled, unlabeled, test = blob_problem(seed=2)
        cfg = SelfTrainConfig(mode="ist", rounds=6,
                              schedule=BatchSchedule(0.2, 3), seed=2)
        backbone = RandomFeatureRidge(4, 2, hidden_width=64, seed=2)
        _, traj = ist_train(labeled, unlabeled, test, backbone, cfg)
        n_u = unlabeled.n_u
        first = round(0.2 * n_u)
        assert traj.pool_size[0] == first
        assert traj.pool_size[-1] == n_u
        assert all(a <= b for a, b in zip(traj.pool_size, traj.pool_size[1:]))

    def test_clustering_runs_exactly_once(self):
        labeled, unlabeled, test = blob_problem(seed=4)
        for rounds in (4, 9):
            cfg = SelfTrainConfig(mode="ist", rounds=rounds,
                                  schedule=BatchSchedule(0.3, 3), seed=4)
            backbone = RandomFeatureRidge(4, 2, hidden_width=64, seed=4)
            before = clustering.fit_call_count()
            ist_train(labeled, unlabeled, test, backbone, cfg)
            assert clustering.fit_call_count() - before == 1

    def test_rounds_hold_no_cluster_model_or_query_list(self, monkeypatch):
        """Only the query list's rows outlive the set-up: the cluster model's
        and the query list's other per-row arrays are freed before round 0."""
        made, alive = [], []
        build = training.build_query_list

        def recorded(model, unlabeled):
            qlist = build(model, unlabeled)
            made.extend(weakref.ref(x) for x in (model, qlist, qlist.ids, qlist.distances))
            return qlist

        class Ridge(RandomFeatureRidge):
            def embed(self, *parts):
                alive.append([ref() is not None for ref in made])
                return super().embed(*parts)

        monkeypatch.setattr(training, "build_query_list", recorded)
        labeled, unlabeled, test = blob_problem(seed=2)
        cfg = SelfTrainConfig(mode="ist", rounds=4, schedule=BatchSchedule(0.2, 3), seed=2)
        _, traj = ist_train(labeled, unlabeled, test, Ridge(4, 2, hidden_width=16, seed=2), cfg)
        assert len(made) == 4 and alive[0] == [False] * 4
        assert traj.cluster["method"] == "kmeans" and traj.cluster_seconds > 0

    def test_easy_first_exposure(self):
        labeled, unlabeled, test = blob_problem(seed=5)
        cfg = SelfTrainConfig(mode="ist", rounds=5,
                              schedule=BatchSchedule(0.25, 4), seed=5)
        backbone = RandomFeatureRidge(4, 2, hidden_width=64, seed=5)

        from selftrain.data import standardize
        from selftrain.querylist import build_query_list, partition_batches
        scaled, _ = standardize(unlabeled.features)
        model = clustering.fit_cluster("kmeans", scaled, k=4, seed=5)
        qlist = build_query_list(model, unlabeled)
        batches = partition_batches(qlist, cfg.schedule)
        by_id = {e.sample_id: e.certainty for e in qlist.entries}
        member_ids = set()
        for t in range(len(batches) - 1):
            member_ids.update(batches[t])
            outside = set(qlist.sample_ids()) - member_ids
            if member_ids and outside:
                assert min(by_id[i] for i in member_ids) >= \
                    max(by_id[i] for i in outside)

    def test_work_reduction_versus_st(self):
        labeled, unlabeled, test = blob_problem(seed=6, spread=1.0)
        common = dict(rounds=8, confidence_threshold=0.9, seed=6)
        st_backbone = RandomFeatureRidge(4, 2, hidden_width=64, seed=6)
        _, t_st = st_train(labeled, unlabeled, test, st_backbone,
                           SelfTrainConfig(mode="st", **common))
        ist_backbone = RandomFeatureRidge(4, 2, hidden_width=64, seed=6)
        _, t_ist = ist_train(labeled, unlabeled, test, ist_backbone,
                             SelfTrainConfig(mode="ist",
                                             schedule=BatchSchedule(0.2, 5), **common))
        assert t_ist.total_processed <= t_st.total_processed

    def test_degenerate_schedule_equals_st(self):
        labeled, unlabeled, test = blob_problem(seed=7)
        for make in (lambda: RandomFeatureRidge(4, 2, hidden_width=64, seed=7),
                     lambda: SoftmaxSGD(4, 2, epochs=5, seed=7)):
            m_st, t_st = st_train(labeled, unlabeled, test, make(),
                                  SelfTrainConfig(mode="st", rounds=4, seed=7))
            m_ist, t_ist = ist_train(labeled, unlabeled, test, make(),
                                     SelfTrainConfig(mode="ist", rounds=4,
                                                     schedule=BatchSchedule(1.0, 0),
                                                     seed=7))
            assert t_st.deterministic_fields() == t_ist.deterministic_fields() \
                | {"mode": "st"}
            assert np.array_equal(m_st.weights, m_ist.weights)

    def test_no_label_leakage(self):
        labeled, unlabeled, test = blob_problem(seed=8)
        cfg = dict(mode="ist", rounds=5, schedule=BatchSchedule(0.3, 3), seed=8)
        with_truth = RandomFeatureRidge(4, 2, hidden_width=64, seed=8)
        _, traj_a = ist_train(labeled, unlabeled, test, with_truth,
                              SelfTrainConfig(**cfg))
        without_truth = RandomFeatureRidge(4, 2, hidden_width=64, seed=8)
        _, traj_b = ist_train(labeled, UnlabeledSet(unlabeled.features, unlabeled.ids), test,
                              without_truth, SelfTrainConfig(**cfg))
        assert np.array_equal(with_truth.weights, without_truth.weights)
        assert traj_a.accuracy == traj_b.accuracy
        assert all(e is None for e in traj_b.pseudo_error)
        assert any(e is not None for e in traj_a.pseudo_error)

    def test_full_reproducibility(self):
        labeled, unlabeled, test = blob_problem(seed=9)
        def run():
            cfg = SelfTrainConfig(mode="ist", rounds=5,
                                  schedule=BatchSchedule(0.25, 2), seed=9)
            backbone = SoftmaxSGD(4, 2, epochs=5, seed=9)
            return ist_train(labeled, unlabeled, test, backbone, cfg)[1]
        assert run().deterministic_fields() == run().deterministic_fields()

    def test_caller_cluster_config_left_unchanged(self):
        labeled, unlabeled, test = blob_problem(seed=12)
        for method in clustering.METHODS:
            cluster_cfg = clustering.CONFIGS[method](seed=12)
            before = copy.deepcopy(cluster_cfg)
            cfg = SelfTrainConfig(mode="ist", rounds=4, schedule=BatchSchedule(0.3, 3),
                                  cluster_method=method, cluster_config=cluster_cfg,
                                  seed=12)
            backbone = RandomFeatureRidge(4, 2, hidden_width=64, seed=12)
            ist_train(labeled, unlabeled, test, backbone, cfg)
            assert cfg.cluster_config is cluster_cfg
            assert cluster_cfg == before

    def test_every_clustering_method_drives_the_loop(self):
        labeled, unlabeled, test = blob_problem(seed=11, spread=0.6, per_class=100)
        for method in clustering.METHODS:
            cfg = SelfTrainConfig(mode="ist", rounds=5,
                                  schedule=BatchSchedule(0.3, 3),
                                  cluster_method=method, seed=11)
            backbone = RandomFeatureRidge(4, 2, hidden_width=64, seed=11)
            _, traj = ist_train(labeled, unlabeled, test, backbone, cfg)
            assert traj.rounds_completed == 5
            assert traj.pool_size[-1] == unlabeled.n_u
            assert traj.final_accuracy >= 0.9


class TestTrajectoryIO:
    def test_csv_round_trip(self):
        labeled, unlabeled, test = blob_problem(seed=10)
        backbone = RandomFeatureRidge(4, 2, hidden_width=64, seed=10)
        _, traj = st_train(labeled, unlabeled, test, backbone,
                           SelfTrainConfig(mode="st", rounds=3, seed=10))
        rows = list(csv.DictReader(io.StringIO(traj.to_csv_text())))
        assert [int(r["round"]) for r in rows] == list(range(traj.rounds_completed))
        assert [float(r["accuracy"]) for r in rows] == traj.accuracy
        assert [int(r["pool_size"]) for r in rows] == traj.pool_size
        assert [int(r["pseudo_used"]) for r in rows] == traj.pseudo_used
        assert [None if r["pseudo_error"] == "" else float(r["pseudo_error"])
                for r in rows] == traj.pseudo_error
        assert [int(r["processed"]) for r in rows] == traj.processed
        assert [float(r["cum_seconds"]) for r in rows] == traj.cum_seconds

    @pytest.mark.parametrize("mode", ["st", "ist"])
    def test_stage_timings_cover_each_round(self, mode):
        labeled, unlabeled, test = blob_problem(seed=12)
        backbone = RandomFeatureRidge(4, 2, hidden_width=64, seed=12)
        if mode == "st":
            _, traj = st_train(labeled, unlabeled, test, backbone,
                               SelfTrainConfig(mode="st", rounds=4, seed=12))
        else:
            _, traj = ist_train(labeled, unlabeled, test, backbone,
                                SelfTrainConfig(mode="ist", rounds=4,
                                                schedule=BatchSchedule(0.4, 2), seed=12))
        stages = ("fit_s", "predict_s", "select_s", "eval_s")
        per_round = np.array([getattr(traj, stage) for stage in stages]).T
        assert per_round.shape == (4, 4) and (per_round >= 0).all()
        assert per_round[0, 1] == per_round[0, 2] == 0.0  # round 0 fits and evaluates
        assert (per_round[1:, :] > 0).all()
        np.testing.assert_allclose(per_round.sum(axis=1),
                                   np.diff(traj.cum_seconds, prepend=0.0), atol=1e-3)

        rows = list(csv.DictReader(io.StringIO(traj.to_csv_text())))
        for stage in stages:
            assert [float(r[stage]) for r in rows] == getattr(traj, stage)
        assert traj.summary()["stage_seconds"] == {
            stage: sum(getattr(traj, stage)) for stage in stages}
        assert not set(stages) & set(traj.deterministic_fields())

    def test_summary_totals(self):
        labeled, unlabeled, test = blob_problem(seed=11)
        backbone = RandomFeatureRidge(4, 2, hidden_width=64, seed=11)
        _, traj = st_train(labeled, unlabeled, test, backbone,
                           SelfTrainConfig(mode="st", rounds=3, seed=11))
        doc = traj.summary()
        assert doc["final_accuracy"] == traj.accuracy[-1]
        assert doc["total_processed"] == sum(traj.processed)
        assert doc["rounds"] == 3
        assert doc["config"] == traj.config_echo
        assert (doc["config"]["mode"], doc["config"]["rounds"]) == ("st", 3)


class CountingBackbone(ClassifierModel):
    """Stub with the default identity ``embed``, recording every call to it.

    Each embed call is logged as (rows embedded, fits made before it). The
    stub's own predict_proba never embeds, so the log shows the loop's calls
    only. ``delay`` seconds are slept inside each embed.
    """

    backbone = "stub"

    def __init__(self, class_count, delay=0.0):
        self.class_count = class_count
        self.delay = delay
        self.embed_calls = []
        self.fits = 0

    def embed(self, *parts):
        time.sleep(self.delay)
        self.embed_calls.append((sum(len(X) for X in parts), self.fits))
        return super().embed(*parts)

    def fit(self, X, y, sample_weight=None):
        self.fits += 1
        return self

    def predict_proba(self, X):
        proba = np.zeros((len(X), self.class_count))
        proba[:, 0] = 1.0
        return proba


class SelectionCheckingBackbone(ClassifierModel):
    """Stub whose every refit checks its rows against ``pseudo_label_pool``.

    Its probabilities sharpen with each fit, so the rows clearing the
    threshold change from round to round. Inside ``fit_embedded``, before
    the fit counts, it asks ``pseudo_label_pool`` what the loop's pool
    selects now, and logs the rows and labels the loop gave it next to the
    ones that selection gives, and the weights the loop gave it.
    """

    backbone = "stub"

    def __init__(self, class_count, n_l, unlabeled, threshold):
        self.class_count = class_count
        self.n_l, self.unlabeled = n_l, unlabeled
        self.threshold = threshold
        self.pool = None
        self.fits = 0
        self.log = []

    def fit(self, X, y, sample_weight=None):
        self.fits += 1
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        scores = np.column_stack([X[:, 0], X[:, 1], -X[:, 0], -X[:, 1]])
        z = scores * (0.5 + self.fits)
        _softmax_into(z.T)
        return z

    def fit_embedded(self, H, y, sample_weight=None, rows=None):
        selected, labels = pseudo_label_pool(self, self.pool, self.unlabeled,
                                             self.threshold, embedded=H[self.n_l:])
        want = np.concatenate([np.arange(self.n_l), self.n_l + selected])
        self.log.append((len(selected), rows, want, y[self.n_l:], labels, sample_weight))
        return self.fit(H[rows], y, sample_weight)


class TestLoopFitsTheSelectedRows:
    @pytest.mark.parametrize("mode", ["st", "ist"])
    def test_rows_are_those_of_the_selected_ids(self, mode, monkeypatch):
        labeled, unlabeled, test = blob_problem(seed=3)
        order = np.random.default_rng(3).permutation(unlabeled.n_u)  # rows out of id order
        unlabeled = UnlabeledSet(unlabeled.features[order], unlabeled.ids[order],
                                 unlabeled.eval_labels()[order])
        backbone = SelectionCheckingBackbone(4, labeled.n_l, unlabeled, 0.9)

        class Pool(PseudoPool):
            def __init__(self, n_rows):
                super().__init__(n_rows)
                backbone.pool = self

        monkeypatch.setattr(training, "PseudoPool", Pool)
        if mode == "st":
            cfg = SelfTrainConfig(mode="st", rounds=5, confidence_threshold=0.9, seed=3)
            st_train(labeled, unlabeled, test, backbone, cfg)
        else:
            cfg = SelfTrainConfig(mode="ist", rounds=5, schedule=BatchSchedule(0.25, 3),
                                  confidence_threshold=0.9, seed=3)
            ist_train(labeled, unlabeled, test, backbone, cfg)
        assert len(backbone.log) == 4
        for used, rows, want_rows, y, labels, w in backbone.log:
            assert np.array_equal(rows, want_rows)
            assert np.array_equal(y, labels)
            assert w is None  # every row fits with unit weight
        # the selection moves, and is neither empty nor the whole pool
        used = [entry[0] for entry in backbone.log]
        assert len(set(used)) > 1 and 0 < min(used) and max(used) < unlabeled.n_u


class TestEmbedOncePerRun:
    def run(self, mode, backbone, seed=0):
        labeled, unlabeled, test = blob_problem(seed=seed)
        if mode == "st":
            _, traj = st_train(labeled, unlabeled, test, backbone,
                               SelfTrainConfig(mode="st", rounds=5, seed=seed))
        else:
            cfg = SelfTrainConfig(mode="ist", rounds=5, schedule=BatchSchedule(0.25, 3),
                                  seed=seed)
            _, traj = ist_train(labeled, unlabeled, test, backbone, cfg)
        return labeled, unlabeled, test, traj

    @pytest.mark.parametrize("mode", ["st", "ist"])
    def test_embed_called_once_before_the_rounds(self, mode):
        backbone = CountingBackbone(4)
        labeled, unlabeled, test, traj = self.run(mode, backbone)
        # the training rows, then the test rows, both before the first fit
        assert backbone.embed_calls == [(labeled.n_l + unlabeled.n_u, 0), (test.n, 0)]
        assert backbone.fits == traj.rounds_completed == 5

    @pytest.mark.parametrize("mode", ["st", "ist"])
    def test_ridge_embeds_only_test_rows_after_the_first_call(self, mode):
        calls = []

        class Ridge(RandomFeatureRidge):
            def embed(self, *parts):
                calls.append([len(X) for X in parts])
                return super().embed(*parts)

        labeled, unlabeled, test, traj = self.run(mode, Ridge(4, 2, hidden_width=16))
        assert traj.rounds_completed == 5
        # the training rows, as two parts never stacked, then the test rows,
        # before any fit; round 0's fit on the labeled rows alone embeds them;
        # no later round embeds
        assert calls == [[labeled.n_l, unlabeled.n_u], [test.n], [labeled.n_l]]

    def test_embedding_time_lands_in_round_zero(self):
        _, _, _, traj = self.run("st", CountingBackbone(4, delay=0.3))
        assert traj.cum_seconds[0] >= 0.3

    @pytest.mark.parametrize("method", ["kmeans", "minibatch_kmeans"])
    def test_an_embedding_that_starts_nothing_lands_in_round_zero(self, monkeypatch, method):
        """A backbone with the base class's embedding, which hands the block
        worker nothing, embeds after the cluster fit, in round 0's timed
        ``fit_s``, as ST does."""
        log = []
        fit = training.fit_cluster

        def logged_fit(*args, **kwargs):
            log.append("fit")
            return fit(*args, **kwargs)

        class Backbone(CountingBackbone):
            def embed(self, *parts):
                log.append("embed")
                return super().embed(*parts)

        monkeypatch.setattr(training, "fit_cluster", logged_fit)
        labeled, unlabeled, test = blob_problem(seed=0)
        cfg = SelfTrainConfig(mode="ist", rounds=5, schedule=BatchSchedule(0.25, 3),
                              cluster_method=method, seed=0)
        _, traj = ist_train(labeled, unlabeled, test, Backbone(4, delay=0.3), cfg)
        assert log == ["fit", "embed", "embed"]  # the training rows, then the test rows
        assert traj.fit_s[0] >= 0.6  # both embeddings, 0.3 s each

    def test_rounds_allocate_no_pool_sized_copy(self):
        ds = make_blobs(4, 2500, 2, 0.8, 7)
        labeled, unlabeled, test = split_ssl(ds, 4, 0.02, 7)
        width = 256
        cached = (labeled.n_l + unlabeled.n_u) * width * 8
        backbone = RandomFeatureRidge(4, 2, hidden_width=width, seed=7)
        backbone.block_rows = 512
        tracemalloc.start()
        try:
            st_train(labeled, unlabeled, test, backbone,
                     SelfTrainConfig(mode="st", rounds=4, confidence_threshold=0.0, seed=7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the cache plus block-sized buffers; one more pool-sized matrix (a
        # gathered or weighted copy, or the map recomputed) would double it
        assert peak < 1.5 * cached


def load_spans():
    """The benchmark's tracer module, loaded from this checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestEmbeddingBesideTheClusterFit:
    """IST fits its clusters first; round 0 then embeds the labeled and
    unlabeled rows, and the test rows, as ST's round 0 does."""

    def run(self, backbone, method="kmeans"):
        labeled, unlabeled, test = blob_problem(seed=2)
        cfg = SelfTrainConfig(mode="ist", rounds=5, schedule=BatchSchedule(0.25, 3),
                              cluster_method=method, seed=2)
        return labeled, unlabeled, test, ist_train(labeled, unlabeled, test, backbone, cfg)

    @pytest.mark.parametrize("kind", ["ridge", "sgd"])
    @pytest.mark.parametrize("method", clustering.METHODS)
    def test_caller_fits_run_beside_the_embedding(self, monkeypatch, method, kind):
        """Every method fits its clusters on the calling thread before both
        embeddings, and round 0's timed ``fit_s`` holds them, for both
        backbones."""
        log = []
        fit = training.fit_cluster

        def logged_fit(*args, **kwargs):
            log.append("fit")
            return fit(*args, **kwargs)

        base = RandomFeatureRidge if kind == "ridge" else SoftmaxSGD

        class Backbone(base):
            def embed(self, *parts):
                log.append([len(X) for X in parts])
                time.sleep(0.1)
                return super().embed(*parts)

        monkeypatch.setattr(training, "fit_cluster", logged_fit)
        labeled, unlabeled, test, (_, traj) = self.run(Backbone(4, 2, seed=2), method)
        assert traj.rounds_completed == 5
        # the training rows, as two parts, then the test rows
        assert log[:3] == ["fit", [labeled.n_l, unlabeled.n_u], [test.n]]
        assert traj.fit_s[0] >= 0.2  # both embeddings, 0.1 s each

    @pytest.mark.parametrize("where", ["start", "join"])
    def test_a_failing_embedding_fails_round_zero(self, where):
        """An embedding that fails in its input check (``start``), or after
        its blocks have run (``join``), fails round 0 after the fit."""
        backbone = RandomFeatureRidge(4, 3 if where == "start" else 2, hidden_width=64, seed=2)
        if where == "join":
            embed = backbone.embed

            def failing_embed(*parts):
                embed(*parts)
                raise ValueError("the embedding failed")

            backbone.embed = failing_embed
        with pytest.raises(TrainingRoundError) as err:
            self.run(backbone)
        traj = err.value.trajectory
        assert err.value.round_index == traj.failed_round == 0
        assert traj.rounds_completed == 0
        # the partial trajectory holds the cluster fit that ran before the embedding
        assert traj.cluster["method"] == "kmeans" and traj.cluster_seconds > 0
        want = "expected 3 input features" if where == "start" else "the embedding failed"
        assert want in traj.failure_message

    def test_no_traced_function_runs_on_the_worker(self, monkeypatch):
        """The benchmark's tracer assumes one thread: every function it wraps
        runs on the calling thread, also where the ridge shares its blocks
        with the worker."""
        cpus(monkeypatch, 2)
        spans = load_spans()
        threads = set()

        class Tracer(spans.Tracer):
            def span(self, name):
                threads.add(threading.get_ident())
                return super().span(name)

        config = bench.validate_config(bench.preset_config("blobs-small"))
        tracer = Tracer()
        spans.instrument(tracer, selftrain)
        try:
            for method in ("st", "kmeans", "minibatch_kmeans"):
                bench.execute_task(config, 1, method)
        finally:
            tracer.unwrap_all()
        names = {s.name for s in tracer.spans}
        assert {"clustering.fit", "classifiers.fit", "training.pseudo_label"} <= names
        assert threads == {threading.get_ident()}
