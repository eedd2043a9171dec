import numpy as np
import pytest

from selftrain import clustering
from selftrain.clustering import ClusterModel, assign
from selftrain.data import UnlabeledSet
from selftrain.querylist import BatchSchedule, build_query_list, partition_batches
from selftrain.training import PseudoPool


def model_over(features, centroids, method="kmeans"):
    model = ClusterModel(method, np.asarray(centroids, dtype=float), None, None, 0.0, 0.0)
    a, d = assign(model, features)
    model.assignments, model.distances = a, d
    model.inertia = float((d * d).sum())
    return model


def random_case(rng):
    n = int(rng.integers(10, 60))
    dim = int(rng.integers(1, 4))
    k = int(rng.integers(1, 5))
    X = rng.normal(size=(n, dim)) * rng.uniform(0.5, 3.0)
    centroids = rng.normal(size=(k, dim)) * 2
    ids = rng.permutation(1000)[:n]
    unlabeled = UnlabeledSet(X, np.sort(ids))
    return model_over(unlabeled.features, centroids), unlabeled


class TestBuildQueryList:
    def test_single_centroid_orders_by_distance(self):
        X = np.array([[3.0], [0.0], [10.0]])
        unlabeled = UnlabeledSet(X, np.array([0, 1, 2]))
        qlist = build_query_list(model_over(X, [[0.0]]), unlabeled)
        # hand distances: id0 -> 3, id1 -> 0, id2 -> 10
        assert qlist.sample_ids() == [1, 0, 2]
        assert [e.distance for e in qlist.entries] == [0.0, 3.0, 10.0]

    def test_point_on_centroid_sorts_first(self):
        X = np.array([[5.0], [5.5]])
        unlabeled = UnlabeledSet(X, np.array([10, 11]))
        qlist = build_query_list(model_over(X, [[5.0]]), unlabeled)
        assert qlist.sample_ids()[0] == 10
        assert qlist.entries[0].distance == 0.0

    def test_distance_tie_breaks_to_lower_id(self):
        X = np.array([[1.0], [-1.0]])
        unlabeled = UnlabeledSet(X, np.array([7, 4]))
        qlist = build_query_list(model_over(X, [[0.0]]), unlabeled)
        assert qlist.sample_ids() == [4, 7]

    def test_certainty_is_negated_distance(self):
        rng = np.random.default_rng(0)
        model, unlabeled = random_case(rng)
        qlist = build_query_list(model, unlabeled)
        for e in qlist.entries:
            assert e.certainty == -e.distance

    def test_size_mismatch_rejected(self):
        X = np.array([[0.0], [1.0]])
        unlabeled = UnlabeledSet(X, np.array([0, 1]))
        short = model_over(np.array([[0.0]]), [[0.0]])
        with pytest.raises(ValueError, match="unlabeled"):
            build_query_list(short, unlabeled)

    def test_no_fit_happens_during_build(self):
        rng = np.random.default_rng(1)
        model, unlabeled = random_case(rng)
        before = clustering.fit_call_count()
        build_query_list(model, unlabeled)
        build_query_list(model, unlabeled)
        assert clustering.fit_call_count() == before

    def test_pure_function_identical_lists(self):
        rng = np.random.default_rng(2)
        model, unlabeled = random_case(rng)
        a = build_query_list(model, unlabeled)
        b = build_query_list(model, unlabeled)
        assert a.built_from == b.built_from
        for name in ("ids", "clusters", "distances", "certainties"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_per_cluster_rank_interleaves(self):
        # cluster 0 is tight, cluster 1 wide; global order would exhaust
        # cluster 0 first, rank order alternates between them
        X = np.array([[0.1], [0.2], [10.0 + 1.0], [10.0 + 2.0]])
        unlabeled = UnlabeledSet(X, np.array([0, 1, 2, 3]))
        model = model_over(X, [[0.0], [10.0]])
        global_ids = build_query_list(model, unlabeled, "global").sample_ids()
        rank_ids = build_query_list(model, unlabeled, "per_cluster_rank").sample_ids()
        assert global_ids == [0, 1, 2, 3]
        assert rank_ids == [0, 2, 1, 3]

    def test_unknown_norm_rejected(self):
        rng = np.random.default_rng(3)
        model, unlabeled = random_case(rng)
        with pytest.raises(ValueError, match="certainty_norm"):
            build_query_list(model, unlabeled, "softmax")


class TestPartitionBatches:
    def make_list(self, n):
        X = np.arange(n, dtype=float).reshape(-1, 1)
        unlabeled = UnlabeledSet(X, np.arange(n))
        return build_query_list(model_over(X, [[0.0]]), unlabeled)

    def test_equal_growth_sizes(self):
        qlist = self.make_list(10)
        batches = partition_batches(qlist, BatchSchedule(0.2, 4, "equal"))
        assert [len(b) for b in batches] == [2, 2, 2, 2, 2]

    def test_rounding_remainder_goes_last(self):
        qlist = self.make_list(10)
        batches = partition_batches(qlist, BatchSchedule(0.25, 3, "equal"))
        assert [len(b) for b in batches] == [3, 2, 2, 3]

    def test_degenerate_schedule_is_single_batch(self):
        qlist = self.make_list(7)
        batches = partition_batches(qlist, BatchSchedule(1.0, 0))
        assert len(batches) == 1
        assert batches[0] == qlist.sample_ids()

    def test_geometric_growth_doubles(self):
        qlist = self.make_list(100)
        batches = partition_batches(qlist, BatchSchedule(0.3, 3, "geometric"))
        # 70 remaining split 1:2:4 -> 10, 20, then the rest
        assert [len(b) for b in batches] == [30, 10, 20, 40]

    def test_concatenation_equals_list(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            model, unlabeled = random_case(rng)
            qlist = build_query_list(model, unlabeled)
            schedule = BatchSchedule(float(rng.uniform(0.05, 1.0)),
                                     int(rng.integers(0, 6)),
                                     rng.choice(["equal", "geometric"]))
            batches = partition_batches(qlist, schedule)
            assert len(batches) == schedule.rounds + 1
            flat = [i for b in batches for i in b]
            assert flat == qlist.sample_ids()

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            BatchSchedule(0.0, 4)
        with pytest.raises(ValueError):
            BatchSchedule(0.5, -1)
        with pytest.raises(ValueError):
            BatchSchedule(0.5, 4, "cubic")


class TestPoolAt:
    """The pseudo-label pool after round t, admitting batch t at round t as IST does."""

    def setup_method(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        unlabeled = UnlabeledSet(X, np.arange(10))
        qlist = build_query_list(model_over(X, [[0.0]]), unlabeled)
        self.batches = partition_batches(qlist, BatchSchedule(0.2, 4))
        self.pool = PseudoPool(unlabeled.ids)
        self.members = []
        for t, batch in enumerate(self.batches):
            self.pool.admit(batch, t)
            self.members.append(set(self.pool.ids[self.pool.member_rows()].tolist()))

    def test_base_case(self):
        assert self.members[0] == set(self.batches[0])

    def test_growth_matches_batch_sizes(self):
        for t in range(1, 5):
            assert len(self.members[t]) - len(self.members[t - 1]) == len(self.batches[t])

    def test_final_pool_is_everything(self):
        assert self.members[4] == set(range(10))
        assert len(self.pool) == 10

    def test_monotone(self):
        for t in range(1, 5):
            assert self.members[t - 1] <= self.members[t]


class TestOrderingProperties:
    """Randomized checks over generated cluster models."""

    def test_sorted_ties_partition_and_easy_first(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            model, unlabeled = random_case(rng)
            qlist = build_query_list(model, unlabeled)

            certs = [e.certainty for e in qlist.entries]
            assert all(certs[i] >= certs[i + 1] for i in range(len(certs) - 1))
            for i in range(len(certs) - 1):
                if certs[i] == certs[i + 1]:
                    assert qlist.entries[i].sample_id < qlist.entries[i + 1].sample_id
            assert sorted(qlist.sample_ids()) == sorted(unlabeled.ids.tolist())

            schedule = BatchSchedule(float(rng.uniform(0.1, 0.9)),
                                     int(rng.integers(1, 5)))
            batches = partition_batches(qlist, schedule)
            flat = [i for b in batches for i in b]
            assert flat == qlist.sample_ids()
            assert len(set(flat)) == len(flat)

            by_id = {e.sample_id: e.distance for e in qlist.entries}
            for t in range(len(batches) - 1):
                if batches[t] and batches[t + 1]:
                    easy = max(by_id[i] for i in batches[t])
                    hard = min(by_id[i] for i in batches[t + 1])
                    assert easy <= hard

    def test_argsort_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            model, unlabeled = random_case(rng)
            qlist = build_query_list(model, unlabeled)
            scaled = ClusterModel(model.method, model.centroids, model.assignments,
                                  model.distances * 3.7, model.inertia, 0.0)
            qlist_scaled = build_query_list(scaled, unlabeled)
            assert qlist.sample_ids() == qlist_scaled.sample_ids()
            schedule = BatchSchedule(0.3, 3)
            assert partition_batches(qlist, schedule) == \
                partition_batches(qlist_scaled, schedule)
