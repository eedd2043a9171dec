import copy
import itertools

import numpy as np
import pytest

from selftrain import clustering
from selftrain.clustering import (CONFIGS, METHODS, CFTree, ClusterModel, KMeansConfig,
                                  MeanShiftConfig, MiniBatchKMeansConfig, assign,
                                  estimate_bandwidth, fit_call_count, fit_cluster,
                                  kmeans_fit, meanshift_fit, minibatch_kmeans_fit)

FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])


def brute_force_best_2_partition(X):
    """Enumerate every assignment of the rows into two non-empty clusters."""
    best = (np.inf, None)
    for bits in itertools.product([0, 1], repeat=len(X)):
        bits = np.array(bits)
        if bits.min() == bits.max():
            continue
        inertia = 0.0
        for c in (0, 1):
            members = X[bits == c]
            inertia += ((members - members.mean(axis=0)) ** 2).sum()
        if inertia < best[0]:
            best = (inertia, bits)
    return best


def brute_force_nearest(X, centroids):
    assignments = np.empty(len(X), dtype=np.int64)
    distances = np.empty(len(X))
    for i, x in enumerate(X):
        d = np.array([np.sqrt(((x - c) ** 2).sum()) for c in centroids])
        assignments[i] = int(np.argmin(d))
        distances[i] = d[assignments[i]]
    return assignments, distances


class TestKMeans:
    def test_two_group_fixture_reaches_global_optimum(self):
        best_inertia, best_bits = brute_force_best_2_partition(FOUR_POINTS)
        assert best_inertia == pytest.approx(1.0)
        model = kmeans_fit(FOUR_POINTS, KMeansConfig(k=2, seed=0))
        assert model.inertia == pytest.approx(best_inertia, abs=1e-12)
        got = {tuple(np.flatnonzero(model.assignments == c)) for c in (0, 1)}
        want = {tuple(np.flatnonzero(best_bits == c)) for c in (0, 1)}
        assert got == want
        centroids = sorted(model.centroids.tolist())
        np.testing.assert_allclose(centroids, [[0.0, 0.5], [10.0, 0.5]])

    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 3))
        model = kmeans_fit(X, KMeansConfig(k=6, seed=1))
        assert model.inertia == pytest.approx(0.0, abs=1e-20)
        assert sorted(model.assignments.tolist()) == list(range(6))

    def test_k_one_is_column_means(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 4))
        model = kmeans_fit(X, KMeansConfig(k=1, seed=0))
        np.testing.assert_allclose(model.centroids[0], X.mean(axis=0), rtol=1e-12)
        assert model.assignments.tolist() == [0] * 25

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            X = rng.normal(size=(rng.integers(20, 60), rng.integers(2, 5)))
            model = kmeans_fit(X, KMeansConfig(k=int(rng.integers(2, 6)), seed=trial))
            hist = model.inertia_history
            assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))

    def test_converged_fit_is_a_fixed_point(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        cfg = KMeansConfig(k=4, seed=2)
        model = kmeans_fit(X, cfg)
        # one more mean + assignment pass moves inertia by less than TOL * inertia
        centroids = np.array([X[model.assignments == j].mean(axis=0)
                              if np.any(model.assignments == j) else model.centroids[j]
                              for j in range(4)])
        _, dist = brute_force_nearest(X, centroids)
        assert abs((dist ** 2).sum() - model.inertia) < clustering.TOL * model.inertia

    def test_empty_cluster_reseeded_keeps_k(self):
        # duplicate points force ties; k exceeds distinct locations
        X = np.array([[0.0, 0.0]] * 5 + [[5.0, 5.0]] * 5 + [[0.0, 5.0]])
        model = kmeans_fit(X, KMeansConfig(k=3, seed=7))
        assert model.k == 3
        assert len(set(model.assignments.tolist())) == 3

    def test_row_order_does_not_break_invariants(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 2))
        for perm_seed in range(3):
            perm = np.random.default_rng(perm_seed).permutation(40)
            model = kmeans_fit(X[perm], KMeansConfig(k=3, seed=0))
            model.validate(X[perm])
            a, d = brute_force_nearest(X[perm], model.centroids)
            assert np.array_equal(a, model.assignments)

    def test_needs_k_points(self):
        with pytest.raises(ValueError, match="at least"):
            kmeans_fit(np.ones((2, 2)), KMeansConfig(k=3))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 3))
        a = kmeans_fit(X, KMeansConfig(k=3, seed=4))
        b = kmeans_fit(X, KMeansConfig(k=3, seed=4))
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)

    def test_converged_false_when_max_iter_runs_out(self, monkeypatch):
        monkeypatch.setattr(clustering, "MAX_ITER", 1)
        X = np.random.default_rng(5).normal(size=(60, 3))
        model = kmeans_fit(X, KMeansConfig(k=4, seed=2))
        assert len(model.inertia_history) == 2
        assert model.inertia_history[1] < (1 - 1e-4) * model.inertia_history[0]
        assert model.converged is False

    def test_converged_true_when_tol_stops_lloyd(self):
        X = np.random.default_rng(5).normal(size=(60, 3))
        model = kmeans_fit(X, KMeansConfig(k=4, seed=2))
        assert model.converged is True


class TestMiniBatchKMeans:
    def test_full_batch_close_to_lloyd_on_fixture(self):
        cfg_mb = MiniBatchKMeansConfig(k=2, seed=3)
        cfg_km = KMeansConfig(k=2, seed=3)
        mb = minibatch_kmeans_fit(FOUR_POINTS, cfg_mb)
        km = kmeans_fit(FOUR_POINTS, cfg_km)
        assert mb.inertia <= km.inertia * 1.05

    def test_k_one_converges_to_column_means(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        model = minibatch_kmeans_fit(X, MiniBatchKMeansConfig(k=1, seed=0))
        np.testing.assert_allclose(model.centroids[0], X.mean(axis=0), atol=1e-3)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 4))
        a = minibatch_kmeans_fit(X, MiniBatchKMeansConfig(k=3, seed=5))
        b = minibatch_kmeans_fit(X, MiniBatchKMeansConfig(k=3, seed=5))
        assert np.array_equal(a.centroids, b.centroids)

    def test_model_invariants(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(120, 3))
        model = minibatch_kmeans_fit(X, MiniBatchKMeansConfig(k=4, seed=1))
        model.validate(X)
        a, _ = brute_force_nearest(X, model.centroids)
        assert np.array_equal(a, model.assignments)

    def test_converged_false_when_max_iter_runs_out(self, monkeypatch):
        monkeypatch.setattr(clustering, "MAX_ITER", 1)
        X = np.random.default_rng(8).normal(size=(120, 3))
        model = minibatch_kmeans_fit(X, MiniBatchKMeansConfig(k=4, seed=1))
        assert model.converged is False

    def test_converged_true_on_the_no_improvement_stop(self, monkeypatch):
        # batches much smaller than the data make the batch inertia stop improving
        monkeypatch.setattr(clustering, "BATCH_SIZE", 50)
        X = np.random.default_rng(8).normal(size=(1000, 3))
        model = minibatch_kmeans_fit(X, MiniBatchKMeansConfig(k=4, seed=1))
        assert model.converged is True

    def test_full_batch_stops_once_assignments_settle(self, monkeypatch):
        # a batch covering every row keeps the smoothed inertia falling, so the
        # no-improvement stop never fires; unchanged assignments end the fit
        passes = []
        nearest = clustering._nearest

        def counted(rows, centroids):
            passes.append(len(rows.X))
            return nearest(rows, centroids)

        monkeypatch.setattr(clustering, "_nearest", counted)
        X = np.random.default_rng(8).normal(size=(120, 3))
        model = minibatch_kmeans_fit(X, MiniBatchKMeansConfig(k=4, seed=1))
        assert model.converged is True
        assert len(passes) < 300
        model.validate(X)

    @pytest.mark.parametrize("seed, inertia_at_300_passes",
                             [(0, 165.69), (1, 151.69), (2, 167.75)])
    def test_full_batch_ends_at_member_means(self, seed, inertia_at_300_passes):
        # the running averages stop short of the means; the mean steps after
        # the settled pass reach them, below what 300 averaging passes gave
        X = np.random.default_rng(seed).normal(size=(120, 3))
        model = minibatch_kmeans_fit(X, MiniBatchKMeansConfig(k=4, seed=seed))
        means = np.array([X[model.assignments == j].mean(axis=0) for j in range(4)])
        np.testing.assert_array_equal(model.centroids, means)
        assert model.converged is True
        assert model.inertia <= inertia_at_300_passes


class TestEstimateBandwidth:
    def test_single_pair(self):
        assert estimate_bandwidth(np.array([[0.0], [1.0]]), 0.3) == pytest.approx(1.0)

    def test_homogeneous_under_scaling(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        bw = estimate_bandwidth(X, 0.3, subsample=100, seed=0)
        bw_scaled = estimate_bandwidth(2.5 * X, 0.3, subsample=100, seed=0)
        assert bw_scaled == pytest.approx(2.5 * bw, rel=1e-12)

    def test_matches_all_pairs_quantile_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((100, 2))
        pair_dists = [np.sqrt(((X[i] - X[j]) ** 2).sum())
                      for i in range(100) for j in range(i + 1, 100)]
        oracle = float(np.quantile(pair_dists, 0.3))
        got = estimate_bandwidth(X, 0.3, subsample=200, seed=0)
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            estimate_bandwidth(np.ones((5, 2)), 0.3)


class TestMeanShift:
    def test_two_groups_recovered(self):
        a = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
        b = np.array([[5.0, 5.0], [5.1, 5.0], [5.0, 5.1]])
        model = meanshift_fit(np.vstack([a, b]), MeanShiftConfig(bandwidth=1.0))
        assert model.k == 2
        modes = model.centroids[np.argsort(model.centroids[:, 0])]
        np.testing.assert_allclose(modes[0], a.mean(axis=0), atol=1e-2)
        np.testing.assert_allclose(modes[1], b.mean(axis=0), atol=1e-2)

    def test_single_point_is_fixed(self):
        model = meanshift_fit(np.array([[2.0, 3.0]]), MeanShiftConfig(bandwidth=1.0))
        assert model.k == 1
        np.testing.assert_allclose(model.centroids[0], [2.0, 3.0])

    def test_giant_bandwidth_single_mode(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 2))
        model = meanshift_fit(X, MeanShiftConfig(bandwidth=1000.0))
        assert model.k == 1

    def test_mode_count_bounded_and_merge_idempotent(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(25, 2))
        model = meanshift_fit(X, MeanShiftConfig(bandwidth=0.5))
        assert model.k <= len(X)
        # kept modes are pairwise farther apart than the merge radius
        merge_radius = 0.5 * 0.5
        for i in range(model.k):
            for j in range(i + 1, model.k):
                gap = np.sqrt(((model.centroids[i] - model.centroids[j]) ** 2).sum())
                assert gap > merge_radius

    def test_degenerate_estimation_surfaces(self):
        with pytest.raises(ValueError, match="identical"):
            meanshift_fit(np.ones((5, 2)), MeanShiftConfig())

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0])
    def test_bandwidth_must_be_positive(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            MeanShiftConfig(bandwidth=bandwidth)


class TestBirch:
    def test_full_absorption_single_entry(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        tree = CFTree(threshold=100.0, branching_factor=4, dim=3)
        for i in range(len(X)):
            tree.insert(X[i], i)
        entries = tree.leaf_entries()
        assert len(entries) == 1 and entries[0].point_ids == list(range(20))
        np.testing.assert_allclose(entries[0].centroid(), X.mean(axis=0), rtol=1e-9)

    def test_cf_entry_radius_hand_example(self):
        tree = CFTree(threshold=10.0, branching_factor=4, dim=1)
        tree.insert(np.array([0.0]), 0)
        tree.insert(np.array([2.0]), 1)
        entries = tree.leaf_entries()
        assert len(entries) == 1
        e = entries[0]
        assert e.count == 2 and e.ls.tolist() == [2.0] and e.ss == 4.0
        radius = np.sqrt(e.ss / e.count - (e.ls[0] / e.count) ** 2)
        assert radius == pytest.approx(1.0)

    def test_cf_statistics_match_sequential_recomputation(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            X = rng.normal(size=(rng.integers(30, 80), rng.integers(1, 4)))
            threshold = float(rng.uniform(0.2, 1.5))
            tree = CFTree(threshold, branching_factor=4, dim=X.shape[1])
            for i in range(len(X)):
                tree.insert(X[i], i)
            seen = []
            for entry in tree.leaf_entries():
                assert entry.count == len(entry.point_ids)
                ls = np.zeros(X.shape[1])
                ss = 0.0
                for pid in entry.point_ids:
                    ls = ls + X[pid]
                    ss = ss + float(X[pid] @ X[pid])
                assert np.array_equal(ls, entry.ls)
                assert ss == entry.ss
                seen.extend(entry.point_ids)
            assert sorted(seen) == list(range(len(X)))

    def test_capacity_splits_respect_branching_factor(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 2)) * 5
        tree = CFTree(threshold=0.1, branching_factor=5, dim=2)
        for i in range(len(X)):
            tree.insert(X[i], i)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert len(node.entries) <= 5
            if not node.is_leaf:
                stack.extend(e.child for e in node.entries)


class TestAssign:
    def test_centroid_maps_to_itself(self):
        model = kmeans_fit(FOUR_POINTS, KMeansConfig(k=2, seed=0))
        a, d = assign(model, model.centroids)
        assert a.tolist() == [0, 1]
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        model = ClusterModel("kmeans", np.array([[0.0], [2.0], [-2.0]]),
                             None, None, 0.0, 0.0)
        a, d = assign(model, np.array([[1.0], [-1.0]]))
        assert a.tolist() == [0, 0]
        np.testing.assert_allclose(d, [1.0, 1.0])

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            X = rng.normal(size=(20, 3))
            centroids = rng.normal(size=(4, 3))
            model = ClusterModel("kmeans", centroids, None, None, 0.0, 0.0)
            a, d = assign(model, X)
            ba, bd = brute_force_nearest(X, centroids)
            assert np.array_equal(a, ba)
            np.testing.assert_array_equal(d, bd)

    def test_dimension_mismatch(self):
        model = ClusterModel("kmeans", np.zeros((2, 3)), None, None, 0.0, 0.0)
        with pytest.raises(ValueError, match="mismatch"):
            assign(model, np.zeros((4, 2)))


class TestClusterModel:
    def test_invariants_after_every_fit(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(40, 2)) * 3
        fits = [
            kmeans_fit(X, KMeansConfig(k=3, seed=0)),
            minibatch_kmeans_fit(X, MiniBatchKMeansConfig(k=3, seed=0)),
            meanshift_fit(X, MeanShiftConfig(seed=0)),
        ]
        for model in fits:
            model.validate(X)
            assert model.fit_seconds >= 0.0
        assert fits[2].converged is None

    def test_corrupted_model_raises_value_error(self):
        X = np.random.default_rng(1).normal(size=(20, 2))
        model = kmeans_fit(X, KMeansConfig(k=2, seed=0))
        model.validate(X)
        out_of_range = ClusterModel(model.method, model.centroids,
                                    np.where(model.assignments == 0, 2, 1),
                                    model.distances, model.inertia, 0.0)
        with pytest.raises(ValueError, match="assignments"):
            out_of_range.validate()
        wrong_inertia = ClusterModel(model.method, model.centroids, model.assignments,
                                     model.distances, model.inertia * 1.5 + 1.0, 0.0)
        with pytest.raises(ValueError, match="inertia"):
            wrong_inertia.validate()


class TestDispatch:
    def test_fit_counter_counts_dispatches(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        before = fit_call_count()
        for method in METHODS:
            fit_cluster(method, X, k=2, seed=0)
        assert fit_call_count() - before == len(METHODS)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown clustering method"):
            fit_cluster("fuzzy_cmeans", np.ones((5, 2)))

    def test_k_fills_only_unset_counts_on_a_copy(self):
        X = np.random.default_rng(1).normal(size=(60, 2))
        for method in METHODS:
            cfg = CONFIGS[method](seed=0)
            before = copy.deepcopy(cfg)
            model = fit_cluster(method, X, cfg, k=3)
            assert cfg == before
            if hasattr(cfg, "k"):
                assert model.k == 3
        assert fit_cluster("kmeans", X, KMeansConfig(k=2, seed=0), k=3).k == 2
