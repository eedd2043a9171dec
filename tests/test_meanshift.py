"""Bit-exactness of mean shift's neighbourhood kernel against a reference loop.

``meanshift_fit`` finds each seed's neighbourhood in reused buffers. The
reference below takes the distinct seeds (by their bytes, in order of first
occurrence) 256 at a time, forms fresh gram-identity distances and a 0/1
weight matrix per chunk, and sums every row of it; every moving seed is
shifted and every mode's support counted that way. Their results must agree
byte for byte.

A row's result can depend on how many rows its product has, and OpenBLAS can
set the last bit of a product's last few rows by their place, so the
reference forms the same products as the fit, each seed in the same place.
These tests check that the fit does so, for the BLAS in use.

Every product runs on the calling thread, in the fit's one set of buffers.
The tests that take the ``path`` fixture run once in a process without a
block worker and once beside a live one, forced by patching the CPU count
the worker checks, and the fit must leave that worker idle.
"""

import time
import tracemalloc

import numpy as np
import pytest

from selftrain import blocks, clustering
from selftrain.clustering import (MAX_ITER, MERGE_TOL, SHIFT_SUBSAMPLE, SUBSAMPLE,
                                  ClusterModel, MeanShiftConfig, _nearest, _Rows,
                                  estimate_bandwidth, meanshift_fit)
from selftrain.data import make_blobs

from test_shared_blocks import cpus  # starts the block worker, or keeps it off


def reference_sq_dists_to(rows, X):
    d2 = (rows * rows).sum(1)[:, None] + (X * X).sum(1)[None, :] - 2.0 * (rows @ X.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def reference_meanshift_fit(X, cfg):
    t0 = time.perf_counter()
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 1:
        raise ValueError("need at least one point")
    bandwidth = cfg.bandwidth
    if bandwidth is None:
        bandwidth = estimate_bandwidth(X, 0.3, SUBSAMPLE, cfg.seed)

    rng = np.random.default_rng(cfg.seed)
    if n > SHIFT_SUBSAMPLE:
        seeds = X[rng.choice(n, size=SHIFT_SUBSAMPLE, replace=False)].copy()
    else:
        seeds = X.copy()

    stop = 1e-3 * bandwidth
    active = np.ones(len(seeds), dtype=bool)
    for _ in range(MAX_ITER):
        if not active.any():
            break
        moving = np.flatnonzero(active)
        hits, sums = reference_counts(seeds[moving], X, bandwidth)
        means = seeds[moving].copy()
        nz = hits > 0
        means[nz] = sums[nz] / hits[nz, None]
        moved = np.sqrt(((means - seeds[moving]) ** 2).sum(-1))
        seeds[moving] = means
        active[moving] = moved >= stop

    centroids = reference_merge_modes(seeds, X, bandwidth)
    assignments, distances = _nearest(_Rows(X), centroids)
    inertia = float(np.sum(distances * distances))
    return ClusterModel("meanshift", centroids, assignments, distances, inertia,
                        time.perf_counter() - t0)


def reference_estimate_bandwidth(X, quantile, subsample, seed):
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n > subsample:
        X = X[np.random.default_rng(seed).choice(n, size=subsample, replace=False)]
        n = subsample
    dists = []
    for i in range(0, n, 256):
        rows = X[i:i + 256]
        d2 = reference_sq_dists_to(rows, X)
        for r in range(len(rows)):
            dists.append(np.sqrt(d2[r, i + r + 1:]))
    flat = np.concatenate(dists)
    bw = float(np.quantile(flat, quantile))
    if bw == 0.0:
        bw = float(flat[flat > 0].min())
    return bw


def reference_merge_modes(modes, X, bandwidth):
    support, _ = reference_counts(modes, X, bandwidth)
    order = np.lexsort((np.arange(len(modes)), -support))
    radius = MERGE_TOL * bandwidth
    kept = []
    for i in order:
        m = modes[i]
        if all(np.sqrt(((m - c) ** 2).sum()) > radius for c in kept):
            kept.append(m)
    return np.asarray(kept)


def reference_distinct(rows):
    """Index of each distinct row's first occurrence, told apart by bytes, and
    each row's index into them."""
    seen = {}
    inverse = np.array([seen.setdefault(row.tobytes(), len(seen)) for row in rows])
    return np.unique(inverse, return_index=True)[1], inverse


def reference_counts(seeds, X, bandwidth):
    """Neighbour counts and sums of the distinct seeds, 256 at a time, every
    row of a chunk summed."""
    first, inverse = reference_distinct(seeds)
    hits = np.empty(len(first), dtype=np.int64)
    sums = np.empty((len(first), seeds.shape[1]))
    for start in range(0, len(first), 256):
        chunk = seeds[first[start:start + 256]]
        within = reference_sq_dists_to(chunk, X) <= bandwidth * bandwidth
        hits[start:start + 256] = within.sum(axis=1)
        sums[start:start + 256] = within.astype(np.float64) @ X
    return hits[inverse], sums[inverse]


def assert_same_fit(X, bandwidth, seed=0):
    got = meanshift_fit(X, MeanShiftConfig(bandwidth=bandwidth, seed=seed))
    want = reference_meanshift_fit(X, MeanShiftConfig(bandwidth=bandwidth, seed=seed))
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert np.array_equal(got.assignments, want.assignments)
    assert got.distances.tobytes() == want.distances.tobytes()
    assert got.inertia == want.inertia
    return got


def repeated_rows(n, d, distinct, seed):
    """n rows drawn from ``distinct`` rows, so identical seeds exist from pass 1."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(distinct, d)) * 2.0
    return base[rng.integers(distinct, size=n)]


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 513, SHIFT_SUBSAMPLE])
@pytest.mark.parametrize("d", [2, 5, 50])
def test_duplicated_rows_collapse_at_pass_one(n, d):
    # seed counts on both sides of a multiple of 256, and one seed; about a
    # seventh of them distinct, so every pass forms a single product
    X = repeated_rows(n, d, max(1, n // 7), seed=n + d)
    for bandwidth in (0.5, 3.0):
        assert_same_fit(X, bandwidth)


@pytest.fixture(scope="module")
def wide_rows():
    """50-D blobs with more rows than mean shift takes seeds from."""
    X = make_blobs(10, 150, 50, 1.0, seed=7).features
    assert len(X) > SHIFT_SUBSAMPLE
    return X


def test_wide_rows_at_the_estimated_bandwidth(wide_rows):
    assert assert_same_fit(wide_rows, None, seed=1).k == 1


def test_wide_rows_at_a_bandwidth_that_finds_several_modes(wide_rows):
    assert assert_same_fit(wide_rows, 6.0, seed=1).k > 1


def test_rows_that_differ_only_in_the_sign_of_a_zero():
    base = np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0], [0.0, -0.0, 5.0], [0.0, 0.0, 5.0]])
    X = base[np.arange(300) % 4]
    first, inverse = clustering._distinct(X)
    assert list(first) == [0, 1, 2, 3]
    assert np.array_equal(inverse, np.arange(300) % 4)
    for bandwidth in (0.1, 4.0):
        assert_same_fit(X, bandwidth)


def rows_without_a_neighbour():
    # Near 1e7 per column the gram identity's round-off dwarfs a bandwidth of
    # 0.5, so a far row misses even itself unless that rounds to <= 0; far
    # rows that do not miss are drawn again. The first product's one near
    # row, c, is then its only seed with neighbours, and the second product
    # has neighbours for 8 of its 99 seeds; both sum every row, so a far
    # seed's sum is zero. The near rows are c and c +- four offsets, so c's
    # first mean is within the stop of c and is its mode; the others reach
    # it a pass later. Each far row's neighbourhood turns on its last bit,
    # which a BLAS may set by the row's place in a product, so the near rows
    # that collapse come after every far row of their product and move no
    # far row's place.
    rng = np.random.default_rng(3)

    def far(k):
        return 1e7 + rng.normal(size=(k, 50)) * 1e3

    c = rng.normal(size=50) * 0.02
    offsets = rng.normal(size=(4, 50)) * 0.02
    X = np.vstack([far(255), c, far(91), c + offsets, c - offsets])
    far_rows = np.r_[0:255, 256:347]
    for _ in range(200):
        hits, _ = reference_counts(X, X, 0.5)
        again = far_rows[hits[far_rows] > 0]
        if not len(again):
            break
        X[again] = far(len(again))
    assert np.count_nonzero(hits[:256]) == 1 and np.count_nonzero(hits[256:]) == 8
    return X, len(far_rows)


def test_seeds_without_a_neighbour_stay_where_they_are():
    X, far = rows_without_a_neighbour()
    model = assert_same_fit(X, 0.5)
    assert model.k == far + 1


@pytest.mark.parametrize("n", [3, 256, 257, 504, 700])
def test_counts_and_sums_match_the_chunked_products(n):
    # copies of 5 rows, then n // 2 distinct ones: at most 3 distinct seeds,
    # 133 in one product, 257 whose last is alone in its product and taken
    # by matrix-vector products, and a full product beside a short one
    rng = np.random.default_rng(n)
    X = rng.normal(size=(400, 20)) * 3.0
    seeds = np.vstack([repeated_rows(n - n // 2, 20, 5, seed=n),
                       X[rng.choice(400, size=n // 2, replace=False)]])
    want_hits, want_sums = reference_counts(seeds, X, 18.0)
    assert np.median(want_hits) > 20  # sums of many rows, whose order shows
    hoods = clustering._Neighbourhoods(X, 18.0, len(seeds))
    hits, sums = hoods.count(seeds, sums=True)
    assert np.array_equal(hits, want_hits)
    assert sums.tobytes() == want_sums.tobytes()
    assert np.array_equal(hoods.count(seeds), want_hits)


@pytest.mark.parametrize("quantile", [0.01, 0.3, 1.0])
def test_bandwidth_estimate_matches_the_concatenated_rows(wide_rows, quantile):
    # 2 rows, a few, one chunk and a bit, and a subsample of the wide rows;
    # many copies of one row make the 0.01 quantile 0, so its fallback runs
    rng = np.random.default_rng(4)
    cases = [rng.normal(size=(2, 3)), rng.normal(size=(9, 50)), rng.normal(size=(300, 5)),
             np.vstack([np.zeros((200, 4)), rng.normal(size=(40, 4))]), wide_rows]
    for X in cases:
        want = reference_estimate_bandwidth(X, quantile, SUBSAMPLE, 1)
        assert estimate_bandwidth(X, quantile, SUBSAMPLE, 1) == want
    assert reference_estimate_bandwidth(cases[3], 0.01, SUBSAMPLE, 1) > 0.0


@pytest.mark.parametrize("d", [2, 5, 50])
def test_merge_decides_modes_at_the_radius_as_the_loop_did(d):
    # modes within a few ulps of the merge radius from the first one, which
    # every other mode meets first: a distance summed in another order than
    # the loop's would merge some of them differently
    rng = np.random.default_rng(d)
    bandwidth = 2.0
    radius = MERGE_TOL * bandwidth
    centre = rng.normal(size=d)
    u = rng.normal(size=(600, d))
    u /= np.sqrt((u * u).sum(1))[:, None]
    scale = radius * (1.0 + np.finfo(float).eps * rng.integers(-4, 5, 600))
    modes = np.vstack([centre, centre + u * scale[:, None]])
    # one point, within the bandwidth of every mode: all supports tie at 1
    want = reference_merge_modes(modes, centre[None], bandwidth)
    got = clustering._merge_modes(modes, np.ones(len(modes), dtype=np.int64), bandwidth)
    assert got.tobytes() == want.tobytes()
    assert 1 < len(got) < len(modes)  # some merged, some kept


@pytest.mark.parametrize("bandwidth", [0.5, 2.0, 6.0])
def test_merge_of_repeated_modes_matches_the_walk_over_every_mode(bandwidth):
    # 1,000 modes drawn from 8, two of which differ only in the sign of a
    # zero: told apart by their bytes, each is visited, and the later one
    # met merges into the earlier, as the reference's walk over every mode
    # merges it
    rng = np.random.default_rng(11)
    base = np.vstack([[-0.0, 1.0, 2.0], [0.0, 1.0, 2.0], rng.normal(size=(6, 3)) * 3.0])
    modes = base[rng.integers(len(base), size=1000)]
    assert len(clustering._distinct(modes)[0]) == len(base)
    X = rng.normal(size=(300, 3)) * 3.0
    support = clustering._Neighbourhoods(X, bandwidth, len(modes)).count(modes)
    got = clustering._merge_modes(modes, support, bandwidth)
    assert got.tobytes() == reference_merge_modes(modes, X, bandwidth).tobytes()


@pytest.fixture(params=["inline", "shared"])
def path(request, monkeypatch):
    """A process without a block worker, or with a live one that never rests;
    the test must hand that worker nothing."""
    cpus(monkeypatch, 2 if request.param == "shared" else 1)
    worker, handed = blocks._block_worker(), []
    if worker is not None:
        submit = worker.executor.submit

        def recorded(*args, **kwargs):
            handed.append(args)
            return submit(*args, **kwargs)

        monkeypatch.setattr(worker.executor, "submit", recorded)
    yield request.param
    assert handed == []


def clustered_rows(n, seed):
    """``n`` rows around four 6-D centres, far apart against the unit noise."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(4, 6)) * 8.0
    return centres[np.arange(n) % 4] + rng.normal(size=(n, 6))


# the estimated bandwidth, one that finds the four clusters, and one within
# which every row lies, so that every seed's first mean is the same row
BANDWIDTHS = {"auto": None, "modes": 4.0, "collapse": 1e3}


@pytest.mark.parametrize("bandwidth", list(BANDWIDTHS))
@pytest.mark.parametrize("n", [1, 255, 256, 257, 3 * 256 + 7, SHIFT_SUBSAMPLE])
def test_fits_on_both_paths(path, n, bandwidth):
    # every row seeds: one product, products of 256 rows with and without a
    # short one, and the short one alone or beside full ones
    X = clustered_rows(n, seed=n)
    if n == 1 and bandwidth == "auto":
        with pytest.raises(ValueError, match="at least two points"):
            meanshift_fit(X, MeanShiftConfig(seed=0))
        return
    model = assert_same_fit(X, BANDWIDTHS[bandwidth])
    if bandwidth == "collapse":
        assert model.k == 1
    elif bandwidth == "modes" and n > 4:
        assert model.k == 4


@pytest.mark.parametrize("n", [257, SHIFT_SUBSAMPLE])
@pytest.mark.parametrize("d", [2, 50])
def test_duplicated_seeds_on_both_paths(path, n, d):
    X = repeated_rows(n, d, max(1, n // 7), seed=n + d)
    for bandwidth in (0.5, 3.0):
        assert_same_fit(X, bandwidth)


def test_seeds_without_a_neighbour_on_both_paths(path):
    X, far = rows_without_a_neighbour()
    assert assert_same_fit(X, 0.5).k == far + 1


@pytest.mark.parametrize("n", [257, 700])
def test_counts_and_sums_on_both_paths(path, n):
    # 133 distinct seeds, one product, at 257; 355, two products, at 700
    rng = np.random.default_rng(n)
    X = rng.normal(size=(400, 20)) * 3.0
    seeds = np.vstack([repeated_rows(n - n // 2, 20, 5, seed=n),
                       X[rng.choice(400, size=n // 2, replace=False)]])
    want_hits, want_sums = reference_counts(seeds, X, 18.0)
    hoods = clustering._Neighbourhoods(X, 18.0, len(seeds))
    hits, sums = hoods.count(seeds, sums=True)
    assert np.array_equal(hits, want_hits)
    assert sums.tobytes() == want_sums.tobytes()


@pytest.mark.parametrize("n", [1, 256, 700, SHIFT_SUBSAMPLE])
def test_products_form_no_row_beyond_the_distinct_seeds(monkeypatch, path, n):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(400, 6)) * 3.0
    # copies of 40 rows, then up to 400 distinct ones: 1, 167, 390 and 440
    # distinct seeds, so one product of one row, one product, and a full
    # product beside a short one
    seeds = np.vstack([repeated_rows(n - n // 2, 6, 40, seed=n),
                       X[rng.choice(400, size=min(n // 2, 400), replace=False)]])
    seeds = seeds[rng.permutation(len(seeds))]
    rows = []
    within = clustering._Neighbourhoods._within

    def patched(self, m):
        rows.append(m)
        return within(self, m)

    monkeypatch.setattr(clustering._Neighbourhoods, "_within", patched)
    hoods = clustering._Neighbourhoods(X, 9.0, len(seeds))
    distinct = len(reference_distinct(seeds)[0])
    for sums in (False, True):
        rows.clear()
        hoods.count(seeds, sums=sums)
        assert sum(rows) == distinct
        assert max(rows) <= 256


def test_a_fit_makes_one_product_set(monkeypatch, path, wide_rows):
    made = []
    init = clustering._Products.__init__

    def recorded(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(clustering._Products, "__init__", recorded)
    assert meanshift_fit(wide_rows, MeanShiftConfig(bandwidth=6.0, seed=1)).k > 1
    assert len(made) == 1


def test_the_fit_allocates_no_bool_matrix_of_the_products_shape(path):
    # The fit's one set holds a float64 (256, n) product; a (256, n) bool
    # matrix beside it would add an eighth. Everything else the fit allocates
    # on rows this narrow stays well under that eighth.
    n = 20_000
    X = clustered_rows(n, seed=5)
    product = 256 * n * 8
    tracemalloc.start()
    try:
        model = meanshift_fit(X, MeanShiftConfig(bandwidth=1e3, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.k == 1
    assert product <= peak < product + 256 * n
