"""Bit-exactness of the passes that hold the short axis contiguous.

The softmax over the classes and the k-means kernels reduce across a short
axis: a probability row's classes, a point's columns. ``classifiers`` and
``clustering`` now hold that axis as contiguous rows: the ridge scores into a
class-major buffer, and a k-means fit takes one column-major copy of its
rows. The sums across the axis are left folds (``clustering._column_sum``).

The references below are the row-major code these replaced, kept verbatim
but for the row sum, which is the same left fold, read by columns of a
row-major array: the ridge's probabilities and the k-means and mini-batch
k-means fits with their kernels. Their results must agree byte for byte.
``tests/test_column_kernels.py`` checks ``_column_sum`` itself.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selftrain import classifiers, clustering
from selftrain.classifiers import RandomFeatureRidge, top_class
from selftrain.clustering import (BATCH_SIZE, MAX_ITER, MAX_NO_IMPROVE, NARROW_CHUNK,
                                  TOL, WIDE_CHUNK, ClusterModel, KMeansConfig,
                                  MiniBatchKMeansConfig, _column_argmin, kmeans_fit,
                                  minibatch_kmeans_fit)
from selftrain.data import make_blobs

from test_column_kernels import same_bits  # tobytes() gives C order whatever the layout


# ---- the row-major code the class-major probabilities replaced ----------------

_NARROW = 8


def reference_row_sum(a):
    out = a[:, 0] + 0.0  # a fold from +0.0, which turns -0.0 into +0.0
    for c in range(1, a.shape[1]):
        out += a[:, c]
    return out


def reference_row_max(a):
    top = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(top, a[:, j], out=top)
    return top


def reference_softmax_into(z):
    z -= reference_row_max(z)[:, None]
    np.exp(z, out=z)
    z /= reference_row_sum(z)[:, None]
    return z


def reference_scores(model, H, rows=None):
    if model.weights is None:
        raise ValueError("model is not fitted")
    H, rows = model._checked(H, rows)
    scores = np.empty((len(H) if rows is None else len(rows), model.class_count))
    step = max(1, classifiers.SCORE_BLOCK // (8 * model.hidden_width))
    for start, stop, Hb in model._blocks(H, rows, step):
        np.matmul(Hb, model.weights, out=scores[start:stop])
    return scores


def reference_predict_proba_embedded(model, H, rows=None):
    scores = reference_scores(model, H, rows)
    scores /= model.temperature
    return reference_softmax_into(scores)


# ---- the k-means code that read rows row-major ---------------------------------

def reference_nearest(X, centroids):
    n, d = X.shape
    assignments = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.float64)
    if d < _NARROW:
        for start in range(0, n, NARROW_CHUNK):
            cols = X[start:start + NARROW_CHUNK].T.copy()  # (d, rows): each column contiguous
            block = np.empty((len(centroids), cols.shape[1]))
            for j, c in enumerate(centroids):
                np.square(cols[0] - c[0], out=block[j])
                for i in range(1, d):
                    block[j] += np.square(cols[i] - c[i])
            a, best = _column_argmin(block)
            assignments[start:start + NARROW_CHUNK] = a
            distances[start:start + NARROW_CHUNK] = np.sqrt(best)
        return assignments, distances

    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    slack = 8.0 * (d + 2) * np.finfo(np.float64).eps
    c_slack = slack * c_sq
    tiny = np.finfo(np.float64).tiny
    minus_2ct = -2.0 * centroids.T
    diff = np.empty((min(WIDE_CHUNK, n), d))  # reused: a fresh array per chunk costs page faults
    for start in range(0, n, WIDE_CHUNK):
        rows = X[start:start + WIDE_CHUNK]
        r = np.arange(len(rows))
        p = rows @ minus_2ct
        p += c_sq
        a = p.argmin(axis=1)
        # p_l - e_l > p_j + e_j for l != j, the row's share of both e moved right
        x_slack = slack * np.einsum("ij,ij->i", rows, rows) + tiny
        upper = p[r, a] + c_slack[a] + 2.0 * x_slack
        p -= c_slack
        p[r, a] = np.inf
        runner_up = p[r, p.argmin(axis=1)]
        unsure = np.flatnonzero(~(runner_up > upper))
        if len(unsure):
            sub = rows[unsure]
            exact = np.empty((len(unsure), len(centroids)))
            for j, c in enumerate(centroids):
                exact[:, j] = ((sub - c) ** 2).sum(1)
            a[unsure] = exact.argmin(axis=1)
        sq = np.subtract(rows, centroids[a], out=diff[:len(rows)])
        np.square(sq, out=sq)
        sq = sq.sum(1)
        assignments[start:start + WIDE_CHUNK] = a
        distances[start:start + WIDE_CHUNK] = np.sqrt(sq)
    return assignments, distances


def reference_init_centroids(X, k, rng):
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    sq = np.empty_like(X)  # reused for every seed's squared differences

    def sq_dists(c):
        np.subtract(X, c, out=sq)
        np.square(sq, out=sq)
        return reference_row_sum(sq)

    centroids[0] = X[rng.integers(n)]
    closest = sq_dists(centroids[0])
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[j] = X[idx]
        np.minimum(closest, sq_dists(centroids[j]), out=closest)
    return centroids


def reference_member_sums(X, assignments, k):
    counts = np.bincount(assignments, minlength=k)
    d = X.shape[1]
    if 1 < d < _NARROW:
        sums = np.empty((k, d))
        for c in range(d):
            sums[:, c] = np.bincount(assignments, weights=X[:, c], minlength=k)
        return sums, counts
    sums = np.zeros((k, d))
    for j in np.flatnonzero(counts):
        sums[j] = X[assignments == j].sum(axis=0)
    return sums, counts


def reference_mean_update(X, assignments, distances, centroids):
    sums, counts = reference_member_sums(X, assignments, centroids.shape[0])
    new = centroids.copy()
    filled = counts > 0
    new[filled] = sums[filled] / counts[filled, None]
    if not filled.all():
        taken = distances.copy()
        for j in np.flatnonzero(~filled):
            far = int(np.argmax(taken))
            new[j] = X[far]
            taken[far] = -1.0
    return new


def reference_kmeans_fit(X, cfg):
    t0 = time.perf_counter()
    X = np.asarray(X, dtype=np.float64)
    if cfg.k is None:
        raise ValueError("k is unresolved; set KMeansConfig.k")
    k = cfg.k
    if X.shape[0] < k:
        raise ValueError(f"need at least k={k} points, got {X.shape[0]}")
    rng = np.random.default_rng(cfg.seed)

    centroids = reference_init_centroids(X, k, rng)
    assignments, distances = reference_nearest(X, centroids)
    inertia = float(np.sum(distances * distances))
    history = [inertia]
    converged = False
    for _ in range(MAX_ITER):
        centroids = reference_mean_update(X, assignments, distances, centroids)
        assignments, distances = reference_nearest(X, centroids)
        new_inertia = float(np.sum(distances * distances))
        history.append(new_inertia)
        improvement = inertia - new_inertia
        converged = inertia <= 0 or improvement <= TOL * inertia
        inertia = new_inertia
        if converged:
            break

    return ClusterModel("kmeans", centroids, assignments, distances, inertia,
                        time.perf_counter() - t0, history, converged)


def reference_minibatch_kmeans_fit(X, cfg):
    t0 = time.perf_counter()
    X = np.asarray(X, dtype=np.float64)
    if cfg.k is None:
        raise ValueError("k is unresolved; set KMeansConfig.k")
    k = cfg.k
    n = X.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    rng = np.random.default_rng(cfg.seed)

    centroids = reference_init_centroids(X, k, rng)
    counts = np.zeros(k, dtype=np.float64)
    batch = min(BATCH_SIZE, n)
    smoothed = None
    best = np.inf
    stale = 0
    converged = False
    previous = None
    for _ in range(MAX_ITER):
        idx = rng.choice(n, size=batch, replace=False) if batch < n else np.arange(n)
        rows = X[idx]
        a, d = reference_nearest(rows, centroids)
        if batch == n and previous is not None and np.array_equal(a, previous):
            converged = True
            break
        previous = a
        mse = float(np.mean(d * d))
        smoothed = mse if smoothed is None else 0.7 * smoothed + 0.3 * mse

        sums, members = reference_member_sums(rows, a, k)
        hit = members > 0
        centroids[hit] = ((counts[hit, None] * centroids[hit] + sums[hit])
                          / (counts[hit] + members[hit])[:, None])
        counts += members

        if smoothed < best:
            best = smoothed
            stale = 0
        else:
            stale += 1
            if stale >= MAX_NO_IMPROVE:
                converged = True
                break

    if batch == n and converged:
        # the running averages have settled every row's assignment; mean
        # steps move each centroid to the mean of its members, until no row
        # changes cluster (one step alone can still move rows)
        for _ in range(MAX_ITER):
            centroids = reference_mean_update(X, a, d, centroids)
            moved = a
            a, d = reference_nearest(X, centroids)
            if np.array_equal(a, moved):
                break
        else:
            converged = False
    assignments, distances = reference_nearest(X, centroids)
    inertia = float(np.sum(distances * distances))
    return ClusterModel("minibatch_kmeans", centroids, assignments, distances, inertia,
                        time.perf_counter() - t0, converged=converged)


# ---- class-major probabilities -------------------------------------------------

@st.composite
def scored_rows(draw):
    return {
        "class_count": draw(st.sampled_from([2, 4, 7, 8, 10, 16, 130])),
        "width": draw(st.integers(1, 24)),
        "n": draw(st.integers(1, 300)),
        "block": draw(st.sampled_from([1, 7, 64, None])),
        # 1e3 / temperature puts exp's argument far below its underflow
        "magnitude": draw(st.sampled_from([1.0, 30.0, 1e3])),
        "ties": draw(st.booleans()),
        "share": draw(st.sampled_from([0.1, 0.6, 1.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scored_rows())
def test_class_major_probabilities_match_the_row_major_ones(case):
    rng = np.random.default_rng(case["seed"])
    C, width, n = case["class_count"], case["width"], case["n"]
    model = RandomFeatureRidge(C, 3, hidden_width=width, seed=case["seed"] % 1000)
    H = model.embed(rng.normal(size=(n, 3)) * 2.0)
    weights = rng.normal(size=(width, C)) * case["magnitude"] / np.sqrt(width)
    if case["ties"]:
        # equal weight columns give equal scores, and exactly tied probabilities
        weights[:, rng.integers(C, size=C // 2)] = weights[:, rng.integers(C, size=C // 2)]
        weights[:, -1] = weights[:, 0]
    model.weights = weights
    members = np.sort(rng.choice(n, max(1, round(case["share"] * n)), replace=False))
    with pytest.MonkeyPatch.context() as mp:
        if case["block"] is not None:
            mp.setattr(classifiers, "SCORE_BLOCK", case["block"] * 8 * width)
        for rows in (None, members, rng.permutation(members)):
            got = model.predict_proba_embedded(H, rows)
            want = reference_predict_proba_embedded(model, H, rows)
            assert same_bits(got, want)
            assert got.T.flags.c_contiguous  # each class's column is contiguous
            conf, label = top_class(got)
            assert same_bits(conf, want.max(axis=1))
            assert np.array_equal(label, want.argmax(axis=1))


def test_softmax_and_sgd_probabilities_stay_row_major():
    rng = np.random.default_rng(3)
    for C in (3, 10, 130):
        logits = rng.normal(size=(50, C)) * 40.0
        got = logits.copy()
        classifiers._softmax_into(got.T)  # over the classes of a row-major array
        assert got.flags.c_contiguous
        assert same_bits(got, reference_softmax_into(logits.copy()))
        model = classifiers.SoftmaxSGD(C, 4, seed=1)
        model.weights = rng.normal(size=(4, C))
        model.bias = rng.normal(size=C)
        X = rng.normal(size=(50, 4))
        got = model.predict_proba(X)
        assert got.flags.c_contiguous
        assert same_bits(got, reference_softmax_into(X @ model.weights + model.bias))


# ---- k-means on column-major rows ----------------------------------------------

FITS = [(kmeans_fit, reference_kmeans_fit, KMeansConfig),
        (minibatch_kmeans_fit, reference_minibatch_kmeans_fit, MiniBatchKMeansConfig)]


@pytest.mark.parametrize("d", [2, 7, 8, 50, 130])
@pytest.mark.parametrize("per_class", [30, 400])  # full batches, then sampled ones
@pytest.mark.parametrize("fit, reference, config", FITS,
                         ids=["kmeans", "minibatch_kmeans"])
def test_fits_match_the_row_major_fits(d, per_class, fit, reference, config):
    X = make_blobs(5, per_class, d, 1.5, seed=d).features
    for seed in (1, 1001, 2001):
        got = fit(X, config(k=5, seed=seed))
        want = reference(X, config(k=5, seed=seed))
        assert same_bits(got.centroids, want.centroids)
        assert same_bits(got.assignments, want.assignments)
        assert same_bits(got.distances, want.distances)
        assert got.inertia == want.inertia
        assert got.inertia_history == want.inertia_history
        assert got.converged == want.converged


@pytest.mark.parametrize("d", [2, 7, 8, 50, 130])
def test_kernels_match_the_row_major_kernels(d):
    # chunks short enough that the rows span several, with the last one partial
    rng = np.random.default_rng(d)
    X = rng.normal(size=(333, d)) * 10.0 ** rng.integers(-3, 4, d)
    rows = clustering._Rows(X)
    for k in (1, 4, 11):
        centroids = reference_init_centroids(X, k, np.random.default_rng(k))
        assert same_bits(clustering._init_centroids(rows, k, np.random.default_rng(k)),
                         centroids)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "NARROW_CHUNK", 100)
            mp.setattr(clustering, "WIDE_CHUNK", 100)
            got = clustering._nearest(rows, centroids)
        want = reference_nearest(X, centroids)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        a = rng.integers(0, k, len(X))
        a[a == k - 1] = 0  # the last cluster goes empty and is reseeded
        for g, w in zip(clustering._member_sums(rows, a, k), reference_member_sums(X, a, k)):
            assert same_bits(g, w)
        assert same_bits(clustering._mean_update(rows, a, want[1], centroids),
                         reference_mean_update(X, a, want[1], centroids))
