"""Bit-exactness of the k-means kernels that work by column passes.

``clustering`` replaces numpy's per-row reductions by passes over the
columns: ``_column_sum``, a left fold from +0.0, for sums across a row at
every width, a strict-``<`` fold for ``argmin(axis=0)``, and on narrow rows
a weighted ``bincount`` per column for each cluster's member sums. The sum
is checked against the fold written out, the others against the row-wise
code the fits used before, kept here. Widths on both sides of 8 are drawn,
since the kernels switch there, and for the sum and k-means++ widths up to
300; k-means++ is also checked up to 784 columns.

The nearest centroid on narrow rows is the brute force computed by the same
two folds, so its exactness rests on numpy summing fewer than 8 elements one
by one onto +0.0, which ``test_row_sum_is_numpys_sum`` checks for the numpy
in use.
"""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
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


def left_fold(a):
    """Each row of ``a`` summed from +0.0, one column after another."""
    return reduce(np.add, a.T, 0.0)


def reference_init_centroids(X, k, rng):
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    centroids[0] = X[rng.integers(n)]
    closest = left_fold((X - centroids[0]) ** 2)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[j] = X[idx]
        closest = np.minimum(closest, left_fold((X - centroids[j]) ** 2))
    return centroids


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


@st.composite
def matrices(draw, max_width=16, top=300):
    """Rows of mixed magnitude, from subnormal to ``10**top``, with signed zeros.

    Past 16 columns, widths up to 16 stay as likely as wider ones."""
    n = draw(st.integers(1, 300))
    widths = st.integers(1, max_width)
    d = draw(widths if max_width <= 16 else st.integers(1, 16) | widths)
    low, high = sorted(draw(st.lists(st.sampled_from([-320, -300, -8, 0, 8, top]),
                                     min_size=2, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(low, high, (n, d))
    zeros = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    X[zeros] = np.copysign(0.0, rng.normal(size=(n, d)))[zeros]
    return X, rng


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices(max_width=300))
def test_column_sum_is_a_left_fold(case):
    X, _ = case
    X = np.vstack([X, np.full(X.shape[1], -0.0)])  # a fold from +0.0 sums -0.0s to +0.0
    with np.errstate(over="ignore"):
        squares = X * X
    for a in (X, squares):
        want = left_fold(a)
        assert same_bits(clustering._column_sum(np.ascontiguousarray(a.T)), want)
        assert same_bits(clustering._column_sum(a.T), want)  # strided rows, as SGD's z.T
        assert same_bits(clustering._column_sum(iter(a.T)), want)  # rows drawn one by one


def test_column_sum_folds_at_every_width():
    # each width from 1 to 300 and a few past it, with rows of -0.0
    rng = np.random.default_rng(0)
    for d in [*range(1, 301), 512, 784, 1000, 1500]:
        X = rng.normal(size=(5, d)) * 10.0 ** rng.integers(-8, 9, (5, d))
        X[0] = -0.0
        X[1, ::2] = -0.0
        want = left_fold(X)
        assert not np.signbit(want[0])
        assert same_bits(clustering._column_sum(np.ascontiguousarray(X.T)), want), d
        assert same_bits(clustering._column_sum(X.T), want), d


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices(max_width=7))
def test_row_sum_is_numpys_sum(case):
    """Below 8 columns numpy sums a row one element after another onto +0.0,
    so there the fold is numpy's own sum, which the narrow nearest centroid
    and criterion 5b's brute force rely on."""
    X, _ = case
    with np.errstate(over="ignore"):
        squares = X * X
    for a in (X, squares):
        assert same_bits(clustering._column_sum(a.T), a.sum(axis=1))


@pytest.mark.parametrize("d", [1, 7, 8, 9, 50, 129, 784])
def test_squared_distances_fold_the_squares_over_the_columns(d):
    """k-means++ forms each column's squared differences in one reused row;
    their sum is one fold over all d columns."""
    rng = np.random.default_rng(d)
    X = rng.normal(size=(257, d)) * 10.0 ** rng.integers(-3, 4, d)
    cols = np.ascontiguousarray(X.T)
    for centre in (X[3], rng.normal(size=d)):
        got = clustering._squared_distances(cols, centre, np.empty(len(X)))
        want = 0.0
        for c in range(d):
            want = want + (cols[c] - centre[c]) ** 2
        assert same_bits(got, want)


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
    sums, counts = clustering._member_sums(clustering._Rows(X), assignments, k)
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
    got = clustering._mean_update(clustering._Rows(X), assignments, distances, centroids)
    assert same_bits(got, reference_mean_update(X, assignments, distances, centroids))


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 127, 128, 129, 136, 257, 784])
def test_init_centroids_match_the_reference_at_every_width(d):
    """k-means++ folds its squared differences over the columns at every width."""
    rng = np.random.default_rng(d)
    X = rng.normal(size=(201, d)) * 10.0 ** rng.integers(-3, 4, d)
    for k in (1, 5):
        got = clustering._init_centroids(clustering._Rows(X), k, np.random.default_rng(k))
        assert same_bits(got, reference_init_centroids(X, k, np.random.default_rng(k)))


def test_init_centroids_hold_no_buffer_of_every_column():
    """The squared differences are formed a column at a time, so the traced
    peak of k-means++ on wide rows stays far below one (d, n) buffer."""
    X = np.random.default_rng(5).normal(size=(4000, 784))
    rows = clustering._Rows(X)
    tracemalloc.start()
    try:
        clustering._init_centroids(rows, 3, np.random.default_rng(5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * X.nbytes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices(max_width=300, top=100), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_init_centroids_matches_the_reference(case, k, seed):
    X, _ = case  # squares stay finite; those of subnormals vanish, as can their total
    got = clustering._init_centroids(clustering._Rows(X), k, np.random.default_rng(seed))
    want = reference_init_centroids(X, k, np.random.default_rng(seed))
    assert same_bits(got, want)
