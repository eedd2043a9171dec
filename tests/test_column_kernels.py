"""Bit-exactness of the k-means kernels that work by column passes on narrow rows.

Below 8 columns, ``clustering`` replaces numpy's per-row reductions by
passes over the columns: a left fold for ``sum(axis=1)``, a strict-``<``
fold for ``argmin(axis=0)``, and a weighted ``bincount`` per column for each
cluster's member sums. Each must equal what it replaces bit for bit, so the
references below are the row-wise code the fits used before, kept here.
Widths on both sides of 8 are drawn, since the kernels switch there.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from selftrain import clustering


def reference_member_sums(X, assignments, k):
    counts = np.bincount(assignments, minlength=k)
    sums = np.zeros((k, X.shape[1]))
    for j in np.flatnonzero(counts):
        sums[j] = X[assignments == j].sum(axis=0)
    return sums, counts


def reference_mean_update(X, assignments, distances, centroids):
    k = centroids.shape[0]
    new = centroids.copy()
    counts = np.bincount(assignments, minlength=k)
    for j in range(k):
        if counts[j] > 0:
            new[j] = X[assignments == j].mean(axis=0)
    if np.any(counts == 0):
        taken = distances.copy()
        for j in np.flatnonzero(counts == 0):
            far = int(np.argmax(taken))
            new[j] = X[far]
            taken[far] = -1.0
    return new


def reference_init_centroids(X, k, rng):
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    centroids[0] = X[rng.integers(n)]
    closest = ((X - centroids[0]) ** 2).sum(-1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[j] = X[idx]
        closest = np.minimum(closest, ((X - centroids[j]) ** 2).sum(-1))
    return centroids


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


@st.composite
def matrices(draw, max_width=16, top=300):
    """Rows of mixed magnitude, from subnormal to ``10**top``, with signed zeros."""
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, max_width))
    low, high = sorted(draw(st.lists(st.sampled_from([-320, -300, -8, 0, 8, top]),
                                     min_size=2, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(low, high, (n, d))
    zeros = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    X[zeros] = np.copysign(0.0, rng.normal(size=(n, d)))[zeros]
    return X, rng


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
def test_row_sum_is_numpys_sum(case):
    X, _ = case
    assert same_bits(clustering._row_sum(X), X.sum(axis=1))
    with np.errstate(over="ignore"):
        squares = X * X
    assert same_bits(clustering._row_sum(squares), squares.sum(axis=1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_column_argmin_is_numpys_argmin(k, m, seed):
    # a small integer grid makes ties common; argmin takes the lowest index
    p = np.random.default_rng(seed).integers(-3, 4, (k, m)) * 0.5
    a, least = clustering._column_argmin(p)
    assert np.array_equal(a, p.argmin(axis=0))
    assert same_bits(least, p.min(axis=0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices(max_width=12), st.integers(1, 12))
def test_member_sums_are_the_masked_sums(case, k):
    X, rng = case
    assignments = rng.integers(0, k, len(X))
    sums, counts = clustering._member_sums(X, assignments, k)
    want_sums, want_counts = reference_member_sums(X, assignments, k)
    assert same_bits(sums, want_sums)
    assert same_bits(counts, want_counts)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices(max_width=12), st.integers(1, 12))
def test_mean_update_matches_the_reference(case, k):
    X, rng = case
    # k above the row count, or a draw that misses a cluster, leaves clusters empty
    assignments = rng.integers(0, k, len(X))
    distances = rng.random(len(X))
    centroids = rng.normal(size=(k, X.shape[1]))
    got = clustering._mean_update(X, assignments, distances, centroids)
    assert same_bits(got, reference_mean_update(X, assignments, distances, centroids))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices(max_width=12, top=100), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_init_centroids_matches_the_reference(case, k, seed):
    X, _ = case  # squares stay finite; those of subnormals vanish, as can their total
    got = clustering._init_centroids(X, k, np.random.default_rng(seed))
    want = reference_init_centroids(X, k, np.random.default_rng(seed))
    assert same_bits(got, want)
