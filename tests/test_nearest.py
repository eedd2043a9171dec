"""Property tests: the gram-identity nearest centroid against the broadcast cube.

``clustering._nearest`` takes each chunk's argmin from one GEMM, certifies it
against a round-off bound and rechecks the uncertain rows exactly. The
reference below is the plain broadcast over a ``(rows, k, d)`` difference
cube. Assignments and distances must agree bit for bit, ties to the lowest
centroid index included, and so must every fit built on ``_nearest``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selftrain import clustering
from selftrain.clustering import (ClusterModel, KMeansConfig, MeanShiftConfig,
                                  MiniBatchKMeansConfig, assign, kmeans_fit,
                                  meanshift_fit, minibatch_kmeans_fit)
from selftrain.data import make_blobs

from test_column_kernels import reference_init_centroids, reference_mean_update

DEFAULT_CHUNK = 2048  # rows per pass on rows of 8 or more columns
NARROW_CHUNK = 8192  # and on narrower rows


def reference_nearest(X, centroids, chunk=256):
    """The broadcast-cube nearest centroid: exact, ties to the lowest index."""
    n = X.shape[0]
    assignments = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.float64)
    for start in range(0, n, chunk):
        rows = X[start:start + chunk]
        d2 = ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
        a = np.argmin(d2, axis=1)
        assignments[start:start + chunk] = a
        distances[start:start + chunk] = np.sqrt(d2[np.arange(len(rows)), a])
    return assignments, distances


def assert_bit_equal(got, want):
    assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@st.composite
def nearest_cases(draw):
    # narrow rows, below 8 columns, take their own kernels
    d = draw(st.integers(1, 12) | st.integers(1, 100))
    chunk = draw(st.sampled_from([1, 5, 64, DEFAULT_CHUNK, None]))
    rows = chunk or (NARROW_CHUNK if d < 8 else DEFAULT_CHUNK)
    return {
        "chunk": chunk,
        "n": draw(st.sampled_from([0, 1, rows - 1, rows, rows + 1, 2 * rows + 3])),
        "d": d,
        "k": draw(st.integers(1, 40)),
        # a dyadic grid makes midpoints and their distances exact ties
        "grid": draw(st.booleans()),
        "log2_scale": draw(st.integers(-20, 20)),  # about 1e-6 to 1e6
        "log10_offset": draw(st.sampled_from([None, 3, 5, 8])),
        "duplicates": draw(st.integers(0, 3)),
        "on_centroids": draw(st.integers(0, 3)),
        "midpoints": draw(st.integers(0, 3)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def make_case(case):
    rng = np.random.default_rng(case["seed"])
    n, d, k = case["n"], case["d"], case["k"]
    scale = 2.0 ** case["log2_scale"]
    if case["grid"]:
        # even integers times the scale: sums, halves and differences are exact
        centroids = 2.0 * rng.integers(-8, 9, (k, d)) * scale
        X = rng.integers(-16, 17, (n, d)) * scale
    else:
        centroids = rng.normal(size=(k, d)) * scale
        X = rng.normal(size=(n, d)) * scale
    if case["log10_offset"] is not None:
        # common offset on unit-spread data; a power of two keeps the grid exact
        offset = 2.0 ** np.ceil(np.log2(10.0 ** case["log10_offset"] * scale))
        centroids += offset
        X += offset
    for _ in range(case["duplicates"] if k > 1 else 0):
        centroids[rng.integers(k)] = centroids[rng.integers(k)]
    for _ in range(case["on_centroids"] if n else 0):
        X[rng.integers(n)] = centroids[rng.integers(k)]
    for _ in range(case["midpoints"] if n and k > 1 else 0):
        i, j = rng.choice(k, 2, replace=False)
        X[rng.integers(n)] = (centroids[i] + centroids[j]) * 0.5
    return X, centroids


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nearest_cases())
def test_nearest_and_assign_match_the_broadcast_cube(case):
    X, centroids = make_case(case)
    want = reference_nearest(X, centroids)
    assert_bit_equal(clustering._nearest(X, centroids, chunk=case["chunk"]), want)
    model = ClusterModel("kmeans", centroids, None, None, 0.0, 0.0)
    assert_bit_equal(assign(model, X), want)


def test_large_common_offset_needs_the_exact_recheck():
    rng = np.random.default_rng(5)
    centroids = rng.normal(size=(10, 50)) + 1e8
    X = rng.normal(size=(3 * DEFAULT_CHUNK + 5, 50)) + 1e8
    want = reference_nearest(X, centroids)
    # the gram identity alone cancels catastrophically here ...
    gram = (centroids * centroids).sum(1) - 2.0 * (X @ centroids.T)
    assert np.mean(gram.argmin(1) != want[0]) > 0.5
    # ... so only the exact recheck of uncertain rows gives the right answer
    assert_bit_equal(clustering._nearest(X, centroids), want)


@pytest.fixture(scope="module")
def blobs():
    """(rows, k, mean-shift bandwidth): 50-D blobs, and 2-D ones with a noise band
    between classes, whose rows take the narrow kernels."""
    return [(make_blobs(10, 300, 50, 1.0, seed=4, min_separation=12.0).features, 10, 9.0),
            (make_blobs(4, 1500, 2, 1.2, seed=4, min_separation=3.0).features, 4, 1.0)]


FITS = {
    "kmeans": lambda X, k, bw: kmeans_fit(X, KMeansConfig(k=k, seed=3)),
    "minibatch_kmeans": lambda X, k, bw: minibatch_kmeans_fit(
        X, MiniBatchKMeansConfig(k=k, seed=3)),
    "meanshift": lambda X, k, bw: meanshift_fit(X, MeanShiftConfig(bandwidth=bw, seed=3)),
}


@pytest.mark.parametrize("method", sorted(FITS))
def test_fits_match_the_broadcast_cube_end_to_end(blobs, method, monkeypatch):
    got = [FITS[method](*case) for case in blobs]
    monkeypatch.setattr(clustering, "_nearest", reference_nearest)
    monkeypatch.setattr(clustering, "_mean_update", reference_mean_update)
    monkeypatch.setattr(clustering, "_init_centroids", reference_init_centroids)
    want = [FITS[method](*case) for case in blobs]
    for g, w in zip(got, want):
        assert g.k >= 2
        assert g.centroids.tobytes() == w.centroids.tobytes()
        assert np.array_equal(g.assignments, w.assignments)
        assert g.distances.tobytes() == w.distances.tobytes()
        assert g.inertia == w.inertia
        assert g.inertia_history == w.inertia_history
        assert g.converged == w.converged
