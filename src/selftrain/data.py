"""Dataset loading, synthesis, standardization, and semi-supervised splits."""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

SCALE_FLOOR = 1e-8

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus optional integer labels and stable row ids."""

    features: np.ndarray
    labels: np.ndarray | None
    class_count: int | None
    ids: np.ndarray

    def __post_init__(self):
        feats = _readonly(np.asarray(self.features, dtype=np.float64))
        ids = _readonly(np.asarray(self.ids, dtype=np.int64))
        if feats.ndim != 2 or feats.shape[1] < 1:
            raise ValueError("features must be a 2-D matrix with at least one column")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")
        if len(ids) != len(feats):
            raise ValueError("ids length does not match row count")
        # ids that already increase, as every loader and split gives them, skip the sort
        ordered = ids if np.all(ids[1:] > ids[:-1]) else np.sort(ids)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("ids must be unique")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "ids", ids)
        if self.labels is not None:
            labels = _readonly(np.asarray(self.labels, dtype=np.int64))
            if len(labels) != len(feats):
                raise ValueError("labels length does not match row count")
            if self.class_count is None or self.class_count < 2:
                raise ValueError("class_count must be >= 2 when labels are present")
            if labels.size and (labels.min() < 0 or labels.max() >= self.class_count):
                raise ValueError("labels must lie in [0, class_count)")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row-subset view preserving labels and original ids."""
        idx = np.asarray(indices, dtype=np.int64)
        labels = self.labels[idx] if self.labels is not None else None
        return Dataset(self.features[idx], labels, self.class_count, self.ids[idx])

    def head(self, max_rows: int | None) -> "Dataset":
        """The first ``max_rows`` rows; every row when ``max_rows`` is None."""
        if max_rows is not None and max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        return self if max_rows is None or self.n <= max_rows else self.take(np.arange(max_rows))


@dataclass(frozen=True)
class LabeledSet:
    """Rows with visible labels (the supervised part of a split)."""

    features: np.ndarray
    labels: np.ndarray
    ids: np.ndarray
    class_count: int

    def __post_init__(self):
        checked = Dataset(self.features, self.labels, self.class_count, self.ids)
        for name in ("features", "labels", "ids"):
            object.__setattr__(self, name, getattr(checked, name))
        if self.n_l < 1:
            raise ValueError("labeled set must contain at least one row")

    @property
    def n_l(self) -> int:
        return self.features.shape[0]


class UnlabeledSet:
    """Rows whose labels are hidden from training.

    Ground-truth labels, when known, are retained only for diagnostics and
    are reachable solely through :meth:`eval_labels`. No training-facing
    accessor exposes them.
    """

    def __init__(self, features: np.ndarray, ids: np.ndarray,
                 eval_labels: np.ndarray | None = None):
        checked = Dataset(features, None, None, ids)
        self.features, self.ids = checked.features, checked.ids
        if self.features.shape[0] < 1:
            raise ValueError("unlabeled set must contain at least one row")
        if eval_labels is not None:
            eval_labels = _readonly(np.asarray(eval_labels, dtype=np.int64))
            if len(eval_labels) != len(self.ids):
                raise ValueError("eval label length does not match row count")
        self._eval_labels = eval_labels

    @property
    def n_u(self) -> int:
        return self.features.shape[0]

    def eval_labels(self) -> np.ndarray | None:
        """Hidden ground truth for diagnostics only; never feed to training."""
        return self._eval_labels


@dataclass(frozen=True)
class StandardizationStats:
    """Per-feature mean and floored population standard deviation."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _readonly(self.mean))
        object.__setattr__(self, "scale", _readonly(self.scale))
        if np.any(self.scale < SCALE_FLOOR):
            raise ValueError(f"scale entries must be >= {SCALE_FLOOR}")


def load_csv(path: str, label_column: str | None = None) -> Dataset:
    """Load a header-first CSV of finite reals, optionally with an integer label column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if label_column is not None and label_column not in header:
            raise ValueError(f"{path}: label column {label_column!r} not in header")
        label_idx = header.index(label_column) if label_column is not None else None
        feat_cols = [i for i in range(len(header)) if i != label_idx]

        rows, labels = [], []
        for r, rec in enumerate(reader):
            if len(rec) != len(header):
                raise ValueError(f"{path}: row {r} has {len(rec)} fields, expected {len(header)}")
            feats = []
            for i in feat_cols:
                try:
                    v = float(rec[i])
                except ValueError:
                    raise ValueError(
                        f"{path}: row {r}, column {header[i]!r}: cannot parse {rec[i]!r} as a real number"
                    ) from None
                if not np.isfinite(v):
                    raise ValueError(f"{path}: row {r}, column {header[i]!r}: non-finite value {rec[i]!r}")
                feats.append(v)
            rows.append(feats)
            if label_idx is not None:
                raw = rec[label_idx].strip()
                try:
                    lab = int(raw)
                except ValueError:
                    raise ValueError(
                        f"{path}: row {r}, column {header[label_idx]!r}: cannot parse {raw!r} as an integer label"
                    ) from None
                if lab < 0:
                    raise ValueError(f"{path}: row {r}, column {header[label_idx]!r}: negative label {lab}")
                labels.append(lab)

    if not rows:
        raise ValueError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=np.float64)
    ids = np.arange(len(rows), dtype=np.int64)
    if label_idx is None:
        return Dataset(features, None, None, ids)
    label_arr = np.asarray(labels, dtype=np.int64)
    return Dataset(features, label_arr, int(label_arr.max()) + 1, ids)


def _read_exact(fh, count: int, path: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise ValueError(f"{path}: truncated file (wanted {count} bytes, got {len(buf)})")
    return buf


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load a big-endian IDX image/label file pair into flattened [0,1] pixels."""
    with open(images_path, "rb") as fh:
        magic, n_img, n_rows, n_cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path))
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(
                f"{images_path}: bad magic 0x{magic:08x}, expected image magic 0x{IDX_IMAGE_MAGIC:08x}"
            )
        pixels = _read_exact(fh, n_img * n_rows * n_cols, images_path)
    with open(labels_path, "rb") as fh:
        magic, n_lab = struct.unpack(">II", _read_exact(fh, 8, labels_path))
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(
                f"{labels_path}: bad magic 0x{magic:08x}, expected label magic 0x{IDX_LABEL_MAGIC:08x}"
            )
        raw_labels = _read_exact(fh, n_lab, labels_path)

    if n_img != n_lab:
        raise ValueError(f"image count {n_img} does not match label count {n_lab}")
    features = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
    features = features.reshape(n_img, n_rows * n_cols)
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    return Dataset(features, labels, int(labels.max()) + 1, np.arange(n_img, dtype=np.int64))


def _draw_centroids(rng: np.random.Generator, class_count: int, dims: int,
                    min_separation: float) -> np.ndarray:
    raw = rng.standard_normal((class_count, dims))
    diffs = raw[:, None, :] - raw[None, :, :]
    pair_dist = np.sqrt((diffs ** 2).sum(-1))
    pair_dist[np.diag_indices(class_count)] = np.inf
    closest = pair_dist.min()
    if closest <= 0:
        raise ValueError("degenerate centroid draw; try another seed")
    return raw * (min_separation / closest)


def blob_centroids(class_count: int, dims: int, spread: float, seed: int,
                   min_separation: float | None = None) -> np.ndarray:
    """The exact centroid layout :func:`make_blobs` uses for these parameters."""
    if min_separation is None:
        min_separation = 6.0 * spread
    return _draw_centroids(np.random.default_rng(seed), class_count, dims,
                           min_separation)


def make_blobs(class_count: int, per_class: int, dims: int, spread: float,
               seed: int, min_separation: float | None = None) -> Dataset:
    """Generate isotropic Gaussian class blobs with well-separated centroids.

    Centroid layout is drawn from the seed and rescaled so the minimum
    pairwise centroid distance equals ``min_separation`` (default
    ``6 * spread``, which keeps classes nearly non-overlapping). Passing a
    smaller separation while keeping the spread produces deliberately
    overlapping classes.
    """
    if class_count < 2:
        raise ValueError("class_count must be >= 2")
    if per_class < 1 or dims < 1:
        raise ValueError("per_class and dims must be >= 1")
    if spread <= 0:
        raise ValueError("spread must be > 0")
    if min_separation is None:
        min_separation = 6.0 * spread
    if min_separation <= 0:
        raise ValueError("min_separation must be > 0")

    rng = np.random.default_rng(seed)
    centroids = _draw_centroids(rng, class_count, dims, min_separation)
    labels = np.repeat(np.arange(class_count, dtype=np.int64), per_class)
    noise = rng.standard_normal((class_count * per_class, dims))
    features = centroids[labels] + spread * noise
    return Dataset(features, labels, class_count, np.arange(len(labels), dtype=np.int64))


def split_ssl(dataset: Dataset, labels_per_class: int, test_fraction: float,
              seed: int) -> tuple[LabeledSet, UnlabeledSet, Dataset]:
    """Partition into a stratified test set, a per-class labeled budget, and the unlabeled rest.

    The three returned index sets are pairwise disjoint and together cover
    every row of the input. Unlabeled rows keep their ground truth only in
    the diagnostics store of :class:`UnlabeledSet`.
    """
    if dataset.labels is None:
        raise ValueError("split_ssl requires a labeled dataset")
    if labels_per_class < 1:
        raise ValueError("labels_per_class must be >= 1")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")

    rng = np.random.default_rng(seed)
    test_idx, labeled_idx, unlabeled_idx = [], [], []
    for c in range(dataset.class_count):
        members = np.flatnonzero(dataset.labels == c)
        if members.size == 0:
            raise ValueError(f"class {c} has no rows")
        members = members[rng.permutation(members.size)]
        n_test = int(members.size * test_fraction + 0.5)
        rest = members.size - n_test
        if rest < labels_per_class:
            raise ValueError(
                f"class {c} has only {rest} rows after the test split, "
                f"need {labels_per_class} labeled"
            )
        test_idx.append(members[:n_test])
        labeled_idx.append(members[n_test:n_test + labels_per_class])
        unlabeled_idx.append(members[n_test + labels_per_class:])

    test_idx = np.sort(np.concatenate(test_idx))
    labeled_idx = np.sort(np.concatenate(labeled_idx))
    unlabeled_idx = np.sort(np.concatenate(unlabeled_idx))
    if unlabeled_idx.size == 0:
        raise ValueError("split leaves no unlabeled rows")

    labeled = LabeledSet(dataset.features[labeled_idx], dataset.labels[labeled_idx],
                         dataset.ids[labeled_idx], dataset.class_count)
    unlabeled = UnlabeledSet(dataset.features[unlabeled_idx], dataset.ids[unlabeled_idx],
                             eval_labels=dataset.labels[unlabeled_idx])
    test = dataset.take(test_idx)
    return labeled, unlabeled, test


def standardize(train_features: np.ndarray) -> tuple[np.ndarray, StandardizationStats]:
    """Fit per-feature mean/scale on the given matrix and return the transformed copy."""
    X = np.asarray(train_features, dtype=np.float64)
    # X.mean(0), X.std(0) and (X - mean) / scale bit for bit, by np.std's own
    # steps on one buffer, with the mean taken once
    n = np.intp(len(X))
    mean = np.add.reduce(X, axis=0) / n
    out = np.subtract(X, mean)
    np.square(out, out=out)
    scale = np.maximum(np.sqrt(np.add.reduce(out, axis=0) / n), SCALE_FLOOR)
    np.subtract(X, mean, out=out)
    out /= scale
    return out, StandardizationStats(mean, scale)


def apply_standardize(stats: StandardizationStats, features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != stats.mean.shape[0]:
        raise ValueError(
            f"dimension mismatch: stats cover {stats.mean.shape[0]} features, "
            f"matrix has {X.shape[1] if X.ndim == 2 else '?'}"
        )
    return (X - stats.mean) / stats.scale
