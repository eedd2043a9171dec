import struct

import numpy as np
import pytest

from selftrain.data import (Dataset, LabeledSet, UnlabeledSet, apply_standardize,
                            blob_centroids, load_csv, load_idx, make_blobs, split_ssl,
                            standardize)


def write_idx_pair(tmp_path, images, labels, prefix=""):
    """Build a tiny big-endian IDX image/label file pair byte by byte."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / f"{prefix}images-idx3-ubyte"
    lab_path = tmp_path / f"{prefix}labels-idx1-ubyte"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(labels.tobytes())
    return str(img_path), str(lab_path)


class TestLoadCsv:
    def test_feature_only_file(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("a,b\n1,2\n3,4\n5,6\n")
        ds = load_csv(str(p))
        assert ds.n == 3 and ds.dim == 2
        assert ds.labels is None
        assert ds.ids.tolist() == [0, 1, 2]

    def test_nan_cell_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        lines = ["x,y"] + [f"{i},{i}" for i in range(5)] + ["NaN,9", "7,7"]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="row 5"):
            load_csv(str(p))

    def test_class_count_is_max_label_plus_one(self, tmp_path):
        p = tmp_path / "labeled.csv"
        p.write_text("x,label\n0.1,0\n0.2,1\n0.3,2\n0.4,1\n")
        ds = load_csv(str(p), label_column="label")
        assert ds.class_count == max(0, 1, 2, 1) + 1 == 3
        assert ds.labels.tolist() == [0, 1, 2, 1]

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 1"):
            load_csv(str(p))

    def test_unparsable_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "text.csv"
        p.write_text("a,b\n1,2\n1,oops\n")
        with pytest.raises(ValueError, match=r"row 1, column 'b'"):
            load_csv(str(p))

    def test_negative_label_rejected(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("x,label\n1,-1\n")
        with pytest.raises(ValueError, match="negative label"):
            load_csv(str(p), label_column="label")


class TestLoadIdx:
    def test_fixture_round_trip(self, tmp_path):
        images = np.array([[[0, 255], [128, 64]],
                           [[255, 255], [0, 0]]], dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [3, 7])
        ds = load_idx(img, lab)
        assert ds.n == 2 and ds.dim == 4
        np.testing.assert_allclose(ds.features[0],
                                   [0.0, 1.0, 128 / 255, 64 / 255])
        np.testing.assert_allclose(ds.features[1], [1.0, 1.0, 0.0, 0.0])
        assert ds.labels.tolist() == [3, 7]
        assert ds.class_count == 8

    def test_label_magic_as_images_rejected(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        with pytest.raises(ValueError, match="magic"):
            load_idx(lab, lab)

    def test_count_mismatch_rejected(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        _, lab = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 1],
                                prefix="other-")
        with pytest.raises(ValueError, match="does not match"):
            load_idx(img, lab)

    def test_truncated_file_rejected(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        data = open(img, "rb").read()
        short = tmp_path / "short-idx3-ubyte"
        short.write_bytes(data[:-3])
        with pytest.raises(ValueError, match="truncated"):
            load_idx(str(short), lab)


class TestMakeBlobs:
    def test_counts_and_label_blocks(self):
        ds = make_blobs(2, 5, 2, 1.0, 7)
        assert ds.n == 10 and ds.class_count == 2
        assert ds.labels.tolist() == [0] * 5 + [1] * 5

    def test_same_seed_bit_identical(self):
        a = make_blobs(3, 20, 4, 0.7, 99)
        b = make_blobs(3, 20, 4, 0.7, 99)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_nearest_generating_centroid_recovers_labels(self):
        # brute-force nearest-centroid evaluation against the generator layout
        ds = make_blobs(3, 100, 2, 0.5, 1)
        centroids = blob_centroids(3, 2, 0.5, 1)
        correct = 0
        for x, y in zip(ds.features, ds.labels):
            dists = [np.sqrt(((x - c) ** 2).sum()) for c in centroids]
            correct += int(np.argmin(dists) == y)
        assert correct / ds.n >= 0.99

    def test_minimum_separation_honored(self):
        for sep, spread in [(None, 0.5), (3.0, 1.2)]:
            cents = blob_centroids(4, 2, spread, 11, sep)
            want = 6 * spread if sep is None else sep
            d = np.sqrt(((cents[:, None] - cents[None]) ** 2).sum(-1))
            d[np.diag_indices(4)] = np.inf
            assert d.min() == pytest.approx(want)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_blobs(1, 5, 2, 1.0, 0)
        with pytest.raises(ValueError):
            make_blobs(2, 5, 2, -1.0, 0)


class TestSplitSsl:
    def test_count_arithmetic(self):
        ds = make_blobs(10, 100, 2, 0.5, 3)
        labeled, unlabeled, test = split_ssl(ds, 4, 0.2, 5)
        assert labeled.n_l == 40
        assert unlabeled.n_u == 760
        assert test.n == 200

    def test_same_seed_same_partition(self):
        ds = make_blobs(4, 50, 2, 0.5, 3)
        a = split_ssl(ds, 4, 0.25, 8)
        b = split_ssl(ds, 4, 0.25, 8)
        assert np.array_equal(a[0].ids, b[0].ids)
        assert np.array_equal(a[1].ids, b[1].ids)
        assert np.array_equal(a[2].ids, b[2].ids)

    def test_partition_is_exhaustive_and_disjoint(self):
        ds = make_blobs(5, 30, 3, 0.5, 2)
        for seed in range(5):
            labeled, unlabeled, test = split_ssl(ds, 3, 0.3, seed)
            chunks = [labeled.ids, unlabeled.ids, test.ids]
            merged = np.concatenate(chunks)
            assert len(np.unique(merged)) == len(merged) == ds.n
            assert set(merged.tolist()) == set(ds.ids.tolist())

    def test_oversized_budget_names_class(self):
        ds = make_blobs(3, 10, 2, 0.5, 4)
        with pytest.raises(ValueError, match="class 0"):
            split_ssl(ds, 50, 0.2, 0)

    def test_unlabeled_hides_labels_from_training_api(self):
        ds = make_blobs(3, 30, 2, 0.5, 5)
        _, unlabeled, _ = split_ssl(ds, 2, 0.2, 0)
        assert not hasattr(unlabeled, "labels")
        hidden = unlabeled.eval_labels()
        assert hidden is not None and len(hidden) == unlabeled.n_u
        assert UnlabeledSet(unlabeled.features, unlabeled.ids).eval_labels() is None


class TestStandardize:
    def test_constant_column_floored_to_zero_output(self):
        X = np.array([[1.0, 5.0], [1.0, 7.0], [1.0, 9.0]])
        Z, stats = standardize(X)
        assert np.all(Z[:, 0] == 0.0)
        assert stats.scale[0] == 1e-8

    def test_two_point_column_exact(self):
        # population std of {-1, 1} is exactly 1, mean 0
        Z, stats = standardize(np.array([[-1.0], [1.0]]))
        assert stats.mean[0] == 0.0 and stats.scale[0] == 1.0
        assert Z.tolist() == [[-1.0], [1.0]]

    def test_apply_on_fit_matches_fit_output(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 2.5, size=(40, 5))
        Z, stats = standardize(X)
        np.testing.assert_array_equal(apply_standardize(stats, X), Z)

    def test_fit_columns_centered_and_unit_scale(self):
        rng = np.random.default_rng(1)
        X = rng.normal(-2.0, 4.0, size=(100, 3))
        Z, _ = standardize(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        _, stats = standardize(np.ones((4, 3)))
        with pytest.raises(ValueError, match="mismatch"):
            apply_standardize(stats, np.ones((4, 2)))

    def test_held_out_distances_follow_the_fitted_metric(self):
        # distances after apply_standardize must equal the scale-weighted
        # metric of the fitted stats, so fit and apply agree on ordering
        rng = np.random.default_rng(2)
        train = rng.normal(size=(50, 4))
        held = rng.normal(size=(20, 4))
        _, stats = standardize(train)
        Z = apply_standardize(stats, held)
        via_transform = [((Z[i] - Z[j]) ** 2).sum()
                         for i in range(20) for j in range(i + 1, 20)]
        via_metric = [(((held[i] - held[j]) / stats.scale) ** 2).sum()
                      for i in range(20) for j in range(i + 1, 20)]
        np.testing.assert_allclose(via_transform, via_metric, rtol=1e-9)
        assert np.argsort(via_transform).tolist() == np.argsort(via_metric).tolist()


class TestDatasetInvariants:
    def test_ids_stable_through_views(self):
        ds = make_blobs(3, 20, 2, 0.5, 6)
        sub = ds.take(np.array([5, 17, 40]))
        assert sub.ids.tolist() == [5, 17, 40]
        assert np.array_equal(sub.features[0], ds.features[5])

    def test_labels_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 2)), np.array([0, 5]), 2, np.array([0, 1]))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset(np.ones((2, 2)), None, None, np.array([1, 1]))

    @pytest.mark.parametrize("ids", [
        [7, 7, 3, 5, 9],           # at the first position
        [3, 5, 9, 2, 9],           # at the last position
        [9, 1, 4, 1, 8],           # unsorted, apart from each other
        [-3, 0, -7, 2, -3],        # negative
        [-1, 5, 0, 2, 1],          # negative and unique: accepted
        [4, 3, 2, 1, 0],           # unsorted and unique: accepted
    ])
    def test_duplicates_found_anywhere_in_any_order(self, ids):
        features = np.ones((len(ids), 2))
        if len(set(ids)) == len(ids):
            assert Dataset(features, None, None, np.array(ids)).ids.tolist() == ids
        else:
            with pytest.raises(ValueError, match="ids must be unique"):
                Dataset(features, None, None, np.array(ids))

    def test_features_are_immutable(self):
        ds = make_blobs(2, 4, 2, 0.5, 0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_unlabeled_requires_rows(self):
        with pytest.raises(ValueError):
            UnlabeledSet(np.empty((0, 2)), np.empty(0, dtype=int))

    @pytest.mark.parametrize("features, ids, needle", [
        ([[np.nan, 1.0], [2.0, 3.0]], [5, 6], "non-finite"),
        ([[np.inf, 1.0], [2.0, 3.0]], [5, 6], "non-finite"),
        ([[0.0, 1.0], [2.0, 3.0]], [5, 5], "ids must be unique"),
        ([[0.0, 1.0], [2.0, 3.0]], [5], "ids length"),
    ])
    def test_unlabeled_set_checks_rows_like_a_dataset(self, features, ids, needle):
        with pytest.raises(ValueError, match=needle):
            UnlabeledSet(np.array(features), np.array(ids))

    @pytest.mark.parametrize("labels, ids, needle", [
        ([0, 1, 1], [0, 1], "labels length"),
        ([0, 1], [0, 1, 2], "ids length"),
        ([0, 1], [4, 4], "ids must be unique"),
        ([0, -1], [0, 1], r"labels must lie in \[0, class_count\)"),
        ([0, 2], [0, 1], r"labels must lie in \[0, class_count\)"),
    ])
    def test_labeled_set_checks_rows_like_a_dataset(self, labels, ids, needle):
        with pytest.raises(ValueError, match=needle):
            LabeledSet(np.ones((2, 2)), np.array(labels), np.array(ids), 2)
