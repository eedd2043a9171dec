"""Centroid-style clustering backends sharing one model interface.

Three methods are implemented: Lloyd k-means, mini-batch k-means and
flat-kernel mean shift. Each fit returns a :class:`ClusterModel` whose
per-point centroid distances downstream code uses as a certainty score.
Further methods can be plugged in by producing a ClusterModel with
synthesized per-cluster centroids.

All distances are plain Euclidean in whatever feature space the caller
supplies; this module never rescales its input.

A k-means fit takes one column-major copy of its rows (``_Rows``), so the
passes that reduce across a row's few columns read each column as a
contiguous row: the k-means++ distances, the nearest centroid and, on narrow
rows, the cluster sums. Rows assigned only once (``assign``, a mini-batch
sample, mean shift's final assignment) are read through the transposed view
instead, uncopied. Sums across columns are left folds over them
(``_column_sum``), the one order of such sums in this package. k-means++
forms each column's squared differences as the fold reaches it, and so
holds no ``(d, n)`` buffer.

Mean shift finds neighbourhoods by one product per 256 distinct seeds, taken
in order of first occurrence. A row's result can depend on how many rows its
product has, so these shapes are part of the fit's order, and a reference
must form the same products (``_Neighbourhoods``). The products run one
after another on the calling thread, in one set of buffers (``_Products``),
which costs ``256 * n * 8`` bytes for n rows, 36.8 MB on 17,960 rows; a fit
holds that one set and frees it when it returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

_FIT_CALLS = 0  # counts top-level fit_cluster dispatches, for instrumentation

# Fixed settings of the fits; a config sets only the cluster count or bandwidth.
MAX_ITER = 300  # passes of Lloyd's, mini-batch or mean-shift iteration, at most
TOL = 1e-4  # Lloyd's stops once a pass improves inertia by at most this share
BATCH_SIZE = 256  # rows per mini-batch
MAX_NO_IMPROVE = 10  # mini-batches without a better smoothed inertia before a stop
MERGE_TOL = 0.5  # modes closer than this many bandwidths merge
SUBSAMPLE = 1000  # rows whose pairwise distances estimate the bandwidth
SHIFT_SUBSAMPLE = 1000  # rows that seed mean shift
SHIFT_CHUNK = 256  # mean-shift seeds whose neighbourhoods one product finds
SHIFT_BLOCK = 1 << 16  # distances mean shift thresholds at a time, about half an L2 cache
NARROW_CHUNK = 8192  # rows per nearest-centroid pass on rows under 8 columns
WIDE_CHUNK = 2048  # and on wider rows


@dataclass
class ClusterModel:
    """Fitted clustering: centroids plus per-point assignment and distance.

    ``inertia_history`` records the inertia after every assignment pass for
    iterative fits (k-means). ``converged`` says whether an iterative fit
    stopped on its own criterion (True) or ran out of ``MAX_ITER`` (False);
    it is None for mean shift. ``bandwidth`` is the one a mean shift fit
    used, given or estimated; it is None for the k-means fits. All three are
    diagnostic.
    """

    method: str
    centroids: np.ndarray
    assignments: np.ndarray | None
    distances: np.ndarray | None
    inertia: float
    fit_seconds: float
    inertia_history: list[float] = field(default_factory=list)
    converged: bool | None = None
    bandwidth: float | None = None

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def diagnostics(self) -> dict:
        """Method, k, ``converged``, the number of Lloyd passes (k-means only) and
        the bandwidth (mean shift only)."""
        passes = len(self.inertia_history) - 1 if self.method == "kmeans" else None
        return {"method": self.method, "k": self.k, "converged": self.converged,
                "lloyd_passes": passes, "bandwidth": self.bandwidth}

    def validate(self, X: np.ndarray | None = None) -> None:
        """Check the structural invariants; raises ValueError on violation."""
        if self.assignments is None or self.distances is None:
            raise ValueError("cluster model carries no assignments or distances")
        if self.assignments.min() < 0 or self.assignments.max() >= self.k:
            raise ValueError(f"assignments fall outside [0, {self.k})")
        if not self.inertia >= 0:
            raise ValueError(f"negative inertia {self.inertia}")
        recomputed = float(np.sum(self.distances * self.distances))
        if not abs(recomputed - self.inertia) <= 1e-6 * max(recomputed, 1e-300):
            raise ValueError(f"inertia {self.inertia} does not match the "
                             f"squared distances' sum {recomputed}")
        if X is not None:
            ref = np.sqrt(((X - self.centroids[self.assignments]) ** 2).sum(-1))
            if not np.max(np.abs(ref - self.distances)) <= 1e-9:
                raise ValueError("distances do not match the assigned centroids")



@dataclass
class KMeansConfig:
    k: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class MiniBatchKMeansConfig(KMeansConfig):
    """Mini-batch k-means takes the k-means options."""


@dataclass
class MeanShiftConfig:
    bandwidth: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0 when given")


# Each method's config class; its field defaults are the method's defaults.
CONFIGS = {"kmeans": KMeansConfig, "minibatch_kmeans": MiniBatchKMeansConfig,
           "meanshift": MeanShiftConfig}
METHODS = tuple(CONFIGS)


def _sq_dists_to(rows: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Squared distances from each row to every point of X, via the gram identity.

    Its one caller is :func:`estimate_bandwidth`. Avoids materializing a
    (rows, n, d) cube; tiny negative round-off is clipped. Each value carries
    round-off up to about ``d * eps`` times ``|row|^2 + |x|^2``, which is fine
    for neighborhood thresholding. Mean shift thresholds the same values in
    reused buffers (:class:`_Neighbourhoods`). Where the exact argmin
    matters, :func:`_nearest` certifies the gram identity's answer on rows of
    8 or more columns and rechecks the rows it cannot.
    """
    d2 = (rows * rows).sum(1)[:, None] + (X * X).sum(1)[None, :] - 2.0 * (rows @ X.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


# numpy sums a contiguous row of fewer than 8 elements one by one onto +0.0,
# so below 8 columns a left fold is numpy's own sum (criterion 5b's brute
# force) and the nearest centroid needs no GEMM.
_NARROW = 8


def _column_sum(rows) -> np.ndarray:
    """The elementwise sum of ``rows``, a 2-D array or any iterable of equal 1-D
    arrays, as a left fold: ``((rows[0] + 0.0) + rows[1]) + ...``.

    This is the order of every sum across a short axis here: the softmax's
    sum over the class rows and k-means++'s sum over the columns. Each step
    is one pass over a whole row, contiguous when the rows are. Starting from
    the first row plus +0.0 turns -0.0 into +0.0, as a fold from +0.0 does.
    A row need stay valid only until the next is drawn, so the rows can be
    formed one at a time in one buffer.
    """
    rows = iter(rows)
    out = next(rows) + 0.0
    for row in rows:
        out += row
    return out


def _column_argmin(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``p.argmin(axis=0)`` and ``p.min(axis=0)`` by a strict-``<`` fold over p's rows.

    Ties go to the lowest index, as with argmin. A NaN in a column makes its
    minimum NaN, as with min, but takes the index only from row 0, whereas
    argmin takes the first NaN; callers pass finite values.
    """
    a = np.zeros(p.shape[1], dtype=np.int64)
    best = p[0].copy()
    for j in range(1, len(p)):
        # a < j, so the maximum sets a to j exactly where p_j < best
        np.maximum(a, j * (p[j] < best), out=a)
        np.minimum(best, p[j], out=best)
    return a, best


def _slack(d: int) -> float:
    """``_nearest``'s round-off bound on rows of ``d`` columns, per unit of ``|x|^2 + |c|^2``."""
    return 8.0 * (d + 2) * np.finfo(np.float64).eps


class _Rows:
    """The rows of one fit, held row-major (``X``) and column-major (``cols``),
    so that a pass over columns reads contiguous memory.

    ``cols`` is ``X.T`` copied once when the rows are ``reused``, as a fit's
    are on every pass; rows assigned once keep the transposed view, since
    the copy costs more than the one pass saves. On rows of 8 or more
    columns ``x_slack`` holds each row's share of ``_nearest``'s round-off
    bound, also taken once.
    """

    def __init__(self, X: np.ndarray, reused: bool = True):
        self.X = X
        self.cols = np.ascontiguousarray(X.T) if reused else X.T
        d = X.shape[1]
        self.x_slack = None
        if d >= _NARROW:
            self.x_slack = (_slack(d) * np.einsum("ij,ij->i", X, X)
                            + np.finfo(np.float64).tiny)


def _nearest(rows: _Rows, centroids: np.ndarray):
    """Nearest centroid per row, ties to the lowest centroid index.

    Exactness contract: assignments and distances are bit-identical to the
    brute force ``d2 = ((rows[:, None, :] - centroids[None]) ** 2).sum(-1)``,
    ``a = argmin(d2, 1)``, ``sqrt(d2[i, a[i]])``, ties included. On rows
    narrower than 8 columns the contract covers finite input only.

    Rows narrower than 8 columns take the brute force itself: each centroid's
    row of a ``(k, rows)`` block folds ``(col - c) ** 2`` over the columns
    from left to right, each column read as a contiguous row of ``cols``,
    which below 8 columns is numpy's own sum bit for bit (see ``_NARROW``; a
    square is never -0.0, so the fold may start from the first), and
    ``_column_argmin`` gives the argmin and its value, whose root is the
    distance. Unlike argmin's, its fold lets no NaN win.

    Wider rows cost one GEMM per chunk, ``(k, d)`` by the chunk's ``(d, rows)``
    columns. The gram identity gives ``p = |c|^2 - 2 x.c``, the squared
    distance less the row's own ``|x|^2`` (the same for every centroid), and
    its argmin ``j``. With ``s = |x|^2 + |c|^2`` and ``u = eps / 2``, in
    whatever order the BLAS sums:

    - ``|c|^2`` errs by at most ``d u |c|^2`` and ``2 x.c`` by at most
      ``2 d u |x||c| <= d u s``; the final addition adds ``u |p| <= 2 u s``;
      so ``p`` is within ``(d + 1) eps s`` of its exact value;
    - the brute force's squared distance (a rounded difference, squared,
      summed over ``d`` terms) is within ``(d + 2) u D`` of the exact ``D``,
      and ``D <= 2 s``, so within ``(d + 2) eps s``.

    Less ``|x|^2``, the brute force's value is within ``2 (d + 2) eps s`` of
    ``p``. The bound ``e = 8 (d + 2) eps s`` (``_slack``) leaves a factor of
    four for second-order terms, for the computed norms inside ``s`` and for
    the rounding of the check itself; the smallest normal float added on top
    covers underflow, where each operation errs by at most half a subnormal
    instead. A row is certain when every other centroid's ``p - e`` lies
    strictly above ``p_j + e_j``: then ``j`` is the brute force's unique
    minimum.

    The rows left (near-ties, duplicate centroids, a large common offset
    that the identity cancels, NaN) get exact squared distances to every
    centroid and their argmin. Every row's distance is then recomputed
    exactly as ``sqrt(((x - c_j) ** 2).sum())``, the brute force's own sum
    over the contiguous last axis.
    """
    X, cols = rows.X, rows.cols
    n, d = X.shape
    k = len(centroids)
    assignments = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.float64)
    if d < _NARROW:
        block = np.empty((k, min(NARROW_CHUNK, n)))  # reused, as diff is below
        term = np.empty(block.shape[1])
        for start in range(0, n, NARROW_CHUNK):
            stop = min(start + NARROW_CHUNK, n)
            b, t = block[:, :stop - start], term[:stop - start]
            for j, c in enumerate(centroids):
                np.square(np.subtract(cols[0, start:stop], c[0], out=b[j]), out=b[j])
                for i in range(1, d):
                    b[j] += np.square(np.subtract(cols[i, start:stop], c[i], out=t), out=t)
            a, best = _column_argmin(b)
            assignments[start:stop] = a
            distances[start:stop] = np.sqrt(best)
        return assignments, distances

    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    c_slack = _slack(d) * c_sq
    minus_2c = -2.0 * centroids
    diff = np.empty((min(WIDE_CHUNK, n), d))  # reused: a fresh array per chunk costs page faults
    for start in range(0, n, WIDE_CHUNK):
        stop = min(start + WIDE_CHUNK, n)
        r = np.arange(stop - start)
        p = minus_2c @ cols[:, start:stop]
        p += c_sq[:, None]
        a, best = _column_argmin(p)
        # p_l - e_l > p_j + e_j for l != j, the row's share of both e moved right
        upper = best + c_slack[a] + 2.0 * rows.x_slack[start:stop]
        p -= c_slack[:, None]
        p[a, r] = np.inf
        unsure = np.flatnonzero(~(p.min(axis=0) > upper))
        chunk = X[start:stop]
        if len(unsure):
            sub = chunk[unsure]
            exact = np.empty((len(unsure), k))
            for j, c in enumerate(centroids):
                exact[:, j] = ((sub - c) ** 2).sum(1)
            a[unsure] = exact.argmin(axis=1)
        sq = np.subtract(chunk, centroids[a], out=diff[:len(chunk)])
        np.square(sq, out=sq)
        assignments[start:stop] = a
        distances[start:stop] = np.sqrt(sq.sum(1))
    return assignments, distances


def assign(model: ClusterModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map rows of X onto the model's centroids; both must be finite."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.centroids.shape[1]:
        raise ValueError(
            f"dimension mismatch: model has {model.centroids.shape[1]} features, "
            f"input has {X.shape[1] if X.ndim == 2 else '?'}"
        )
    # the fits see only rows a Dataset has checked; rows from outside come through here
    if not (np.isfinite(X).all() and np.isfinite(model.centroids).all()):
        raise ValueError("rows and centroids must be finite")
    return _nearest(_Rows(X, reused=False), model.centroids)


def _squared_distances(cols: np.ndarray, centre: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Each row's squared distance to ``centre``, ``_column_sum`` of the squared
    differences over the columns ``cols`` (``X.T``).

    Each column's squares are formed in the one reused row ``buf`` just before
    the fold adds them, so no ``(d, n)`` buffer is held.
    """
    return _column_sum(np.square(np.subtract(col, c, out=buf), out=buf)
                       for col, c in zip(cols, centre))


def _init_centroids(rows: _Rows, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++: each seed drawn in proportion to squared distance from the chosen set.

    A seed's squared distances come from ``_squared_distances``, which holds
    two rows of n: the reused row of one column's squared differences and
    the running sum.
    """
    X, cols = rows.X, rows.cols
    n, d = X.shape
    centroids = np.empty((k, d), dtype=np.float64)
    buf = np.empty(n)  # one column's squared differences
    centroids[0] = X[rng.integers(n)]
    closest = _squared_distances(cols, centroids[0], buf)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[j] = X[idx]
        np.minimum(closest, _squared_distances(cols, centroids[j], buf), out=closest)
    return centroids


def _member_sums(rows: _Rows, assignments: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's member count and the sum of its rows, ``X[assignments == j].sum(0)``.

    On narrow rows of 2 to 7 columns one weighted ``bincount`` per column
    adds each cluster's members in row order onto +0.0, as numpy's sum over
    the masked rows does, bit for bit. A single column is summed pairwise by
    numpy, and on wide rows the masks cost less, so both keep them.
    """
    counts = np.bincount(assignments, minlength=k)
    X = rows.X
    d = X.shape[1]
    if 1 < d < _NARROW:
        sums = np.empty((k, d))
        for c in range(d):
            sums[:, c] = np.bincount(assignments, weights=rows.cols[c], minlength=k)
        return sums, counts
    sums = np.zeros((k, d))
    for j in np.flatnonzero(counts):
        sums[j] = X[assignments == j].sum(axis=0)
    return sums, counts


def _mean_update(rows: _Rows, assignments: np.ndarray, distances: np.ndarray,
                 centroids: np.ndarray) -> np.ndarray:
    """Cluster-mean step; empty clusters are reseeded at the farthest point."""
    sums, counts = _member_sums(rows, assignments, centroids.shape[0])
    new = centroids.copy()
    filled = counts > 0
    new[filled] = sums[filled] / counts[filled, None]
    if not filled.all():
        taken = distances.copy()
        for j in np.flatnonzero(~filled):
            far = int(np.argmax(taken))
            new[j] = rows.X[far]
            taken[far] = -1.0
    return new


def kmeans_fit(X: np.ndarray, cfg: KMeansConfig) -> ClusterModel:
    """Lloyd's algorithm from a k-means++ init."""
    t0 = time.perf_counter()
    X = np.asarray(X, dtype=np.float64)
    if cfg.k is None:
        raise ValueError("k is unresolved; set KMeansConfig.k")
    k = cfg.k
    if X.shape[0] < k:
        raise ValueError(f"need at least k={k} points, got {X.shape[0]}")
    rng = np.random.default_rng(cfg.seed)

    rows = _Rows(X)
    centroids = _init_centroids(rows, k, rng)
    assignments, distances = _nearest(rows, centroids)
    inertia = float(np.sum(distances * distances))
    history = [inertia]
    converged = False
    for _ in range(MAX_ITER):
        centroids = _mean_update(rows, assignments, distances, centroids)
        assignments, distances = _nearest(rows, centroids)
        new_inertia = float(np.sum(distances * distances))
        history.append(new_inertia)
        improvement = inertia - new_inertia
        converged = inertia <= 0 or improvement <= TOL * inertia
        inertia = new_inertia
        if converged:
            break

    return ClusterModel("kmeans", centroids, assignments, distances, inertia,
                        time.perf_counter() - t0, history, converged)


def minibatch_kmeans_fit(X: np.ndarray, cfg: MiniBatchKMeansConfig) -> ClusterModel:
    """Mini-batch k-means with per-center 1/count step sizes.

    Within one batch the sequential per-sample updates for a center telescope
    to ``(count * center + batch_sum) / (count + batch_members)``, which is
    what gets applied. Stops once the smoothed per-point batch inertia fails
    to improve for ``MAX_NO_IMPROVE`` consecutive batches, or, when a batch is
    every row (so that inertia keeps falling), once a pass changes no assignment;
    that fit then ends, as Lloyd's does, at the means of its clusters' members.
    """
    t0 = time.perf_counter()
    X = np.asarray(X, dtype=np.float64)
    if cfg.k is None:
        raise ValueError("k is unresolved; set KMeansConfig.k")
    k = cfg.k
    n = X.shape[0]
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    rng = np.random.default_rng(cfg.seed)

    every = _Rows(X)
    centroids = _init_centroids(every, k, rng)
    counts = np.zeros(k, dtype=np.float64)
    batch = min(BATCH_SIZE, n)
    smoothed = None
    best = np.inf
    stale = 0
    converged = False
    previous = None
    for _ in range(MAX_ITER):
        rows = (_Rows(X[rng.choice(n, size=batch, replace=False)], reused=False)
                if batch < n else every)
        a, d = _nearest(rows, centroids)
        if batch == n and previous is not None and np.array_equal(a, previous):
            converged = True
            break
        previous = a
        mse = float(np.mean(d * d))
        smoothed = mse if smoothed is None else 0.7 * smoothed + 0.3 * mse

        sums, members = _member_sums(rows, a, k)
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
            centroids = _mean_update(every, a, d, centroids)
            moved = a
            a, d = _nearest(every, centroids)
            if np.array_equal(a, moved):
                break
        else:
            converged = False
    assignments, distances = _nearest(every, centroids)
    inertia = float(np.sum(distances * distances))
    return ClusterModel("minibatch_kmeans", centroids, assignments, distances, inertia,
                        time.perf_counter() - t0, converged=converged)


def estimate_bandwidth(X: np.ndarray, quantile: float = 0.3, subsample: int = SUBSAMPLE,
                       seed: int = 0) -> float:
    """Quantile of pairwise Euclidean distances over a subsample of rows."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two points to estimate a bandwidth")
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    if n > subsample:
        rng = np.random.default_rng(seed)
        X = X[rng.choice(n, size=subsample, replace=False)]
        n = subsample

    # the distances above the diagonal go, row by row, into one array that the
    # quantile partitions in place. A list of row arrays, its concatenation and
    # the quantile's copy took 14.8 MB against 10 MB on 1,000 rows, and the
    # allocator kept about 5 MB of it resident beside mean shift's products
    flat = np.empty(n * (n - 1) // 2)
    at = 0
    for i in range(0, n, 256):
        rows = X[i:i + 256]
        d2 = _sq_dists_to(rows, X)
        for r in range(len(rows)):
            row = d2[r, i + r + 1:]
            np.sqrt(row, out=flat[at:at + len(row)])
            at += len(row)
    if flat.size == 0 or flat.max() == 0.0:
        raise ValueError("all points identical; bandwidth is undefined")
    bw = float(np.quantile(flat, quantile, overwrite_input=True))
    if bw == 0.0:
        bw = float(flat[flat > 0].min())
    return bw


def _distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each distinct row's first occurrence, in order, and each row's
    index into them. Rows are told apart by their bytes, so -0.0 is not +0.0."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


class _Products:
    """The buffers of mean shift's neighbourhood products: seed rows,
    the product G, whose rows then hold the 0/1 weights of the sums, and a
    few in-cache rows of S with a bool mask of their shape."""

    def __init__(self, rows: int, X: np.ndarray):
        n, d = X.shape
        self.a = np.empty((rows, d))
        self.g = np.empty((rows, n))
        self.s = np.empty((min(rows, max(1, SHIFT_BLOCK // n)), n))
        self.mask = np.empty(self.s.shape, dtype=bool)


class _Neighbourhoods:
    """Flat-kernel neighbourhoods in X of seed rows: how many rows of X lie
    within the bandwidth of each seed, and their sum.

    Identical seeds have identical neighbourhoods, so a ``count`` call takes
    the distinct seeds (by their bytes, in order of first occurrence) and
    forms one product for each ``SHIFT_CHUNK`` of them. The reference takes
    each such chunk and forms ``within = _sq_dists_to(chunk, X) <=
    bandwidth ** 2``, its row counts and ``within.astype(float) @ X`` over
    every row, so a seed without a neighbour gets a zero sum. Here ``|x|^2``
    is computed once, and each product runs in one set of buffers reused
    across products (``_Products``): ``G = chunk @ X.T``, then, a few rows at
    a time, ``G *= 2``, ``S = |s|^2 + |x|^2``, ``S -= G`` and ``S <=
    bandwidth ** 2`` are the reference's operations on the same operands in
    the same order (its clip of S to 0 cannot change a ``<=`` test against a
    positive square). Each row's neighbours are counted from that small
    mask, and G's buffer then holds the 0/1 weights of the sum. S and the
    mask hold only those few rows, which stay in cache.

    A reference must form the same products, not merely the same rows: a
    row's result can depend on how many rows its product has. numpy forms a
    single row as a matrix-vector product, and a BLAS gives small products
    kernels of their own and splits them over threads by their size. With
    OpenBLAS 0.3.31 at one thread, sums over 1,000 rows of 50 columns
    differed in products of up to 20 rows, and over 2-D rows in products of
    up to 255. A
    row's place among the rows of one product may set its last bit too;
    that moves a fit only where such a bit decides whether a point lies
    within the bandwidth.

    The products run one after another on the calling thread, in one set of
    buffers. It holds ``SHIFT_CHUNK`` rows of float64 for G, so it costs
    ``256 * len(X) * 8`` bytes (36.8 MB on 17,960 rows) plus the seeds,
    ``256 * d * 8``, and is freed with the fit.
    """

    def __init__(self, X: np.ndarray, bandwidth: float, seeds: int):
        self.X = X
        self.x_sq = (X * X).sum(1)
        self.bw_sq = bandwidth * bandwidth
        self.buf = _Products(min(SHIFT_CHUNK, seeds), X)

    def _within(self, m: int) -> np.ndarray:
        """The neighbour counts of the ``m`` seeds in ``self.buf.a``; its ``g``
        then holds their masks as 0/1 weights in its first ``m`` rows."""
        buf = self.buf
        seeds = buf.a[:m]
        np.matmul(seeds, self.X.T, out=buf.g[:m])
        s_sq = (seeds * seeds).sum(1)
        counts = np.empty(m, dtype=np.int64)
        step = len(buf.s)
        for lo in range(0, m, step):  # a few rows at a time, so that S stays in cache
            g = buf.g[lo:min(lo + step, m)]
            s, mask = buf.s[:len(g)], buf.mask[:len(g)]
            g *= 2.0
            np.add(s_sq[lo:lo + len(g), None], self.x_sq, out=s)
            s -= g
            np.less_equal(s, self.bw_sq, out=mask)
            # row by row: along an axis, count_nonzero sums the mask
            # as integers, about three times as slow
            counts[lo:lo + len(g)] = [np.count_nonzero(row) for row in mask]
            np.copyto(g, mask)
        return counts

    def count(self, seeds: np.ndarray, sums: bool = False):
        """Each seed's neighbour count and, with ``sums``, its neighbours' sum
        (zero for a seed without a neighbour)."""
        first, inverse = _distinct(seeds)
        hits = np.empty(len(first), dtype=np.int64)
        total = np.empty((len(first), seeds.shape[1])) if sums else None
        buf = self.buf
        for lo in range(0, len(first), SHIFT_CHUNK):
            rows = slice(lo, lo + SHIFT_CHUNK)
            take = first[rows]
            # mode="clip" writes straight into buf.a; "raise" would buffer a copy
            np.take(seeds, take, axis=0, out=buf.a[:len(take)], mode="clip")
            hits[rows] = self._within(len(take))
            if sums:
                np.matmul(buf.g[:len(take)], self.X, out=total[rows])
        return (hits[inverse], total[inverse]) if sums else hits[inverse]


def meanshift_fit(X: np.ndarray, cfg: MeanShiftConfig) -> ClusterModel:
    """Flat-kernel mean shift: iterate seeds to local neighborhood means, then merge modes."""
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

    hoods = _Neighbourhoods(X, bandwidth, len(seeds))
    stop = 1e-3 * bandwidth
    active = np.ones(len(seeds), dtype=bool)
    for _ in range(MAX_ITER):
        moving = np.flatnonzero(active)
        if not len(moving):
            break
        rows = seeds[moving]
        hits, sums = hoods.count(rows, sums=True)
        means = rows.copy()
        nz = hits > 0
        means[nz] = sums[nz] / hits[nz, None]
        moved = np.sqrt(((means - rows) ** 2).sum(-1))
        seeds[moving] = means
        active[moving] = moved >= stop

    centroids = _merge_modes(seeds, hoods.count(seeds), bandwidth)
    assignments, distances = _nearest(_Rows(X, reused=False), centroids)
    inertia = float(np.sum(distances * distances))
    return ClusterModel("meanshift", centroids, assignments, distances, inertia,
                        time.perf_counter() - t0, bandwidth=float(bandwidth))


def _merge_modes(modes: np.ndarray, support: np.ndarray, bandwidth: float) -> np.ndarray:
    """Suppress near-duplicate modes, keeping better-supported ones first.

    Greedy by descending neighborhood ``support`` (ties by index), so the
    kept set is pairwise farther apart than ``MERGE_TOL * bandwidth`` and
    re-merging it is a no-op. A mode with the bytes of one met earlier in
    that order lies within the radius of what kept or merged that one, so it
    is not visited.
    """
    order = np.lexsort((np.arange(len(modes)), -support))
    order = order[_distinct(modes[order])[0]]
    radius = MERGE_TOL * bandwidth
    kept = np.empty_like(modes)
    diff = np.empty_like(modes)
    k = 0
    for i in order:
        m = modes[i]
        # numpy sums each contiguous row of diff as it sums a lone row
        sq = np.square(np.subtract(m, kept[:k], out=diff[:k]), out=diff[:k]).sum(1)
        if (np.sqrt(sq) > radius).all():
            kept[k] = m
            k += 1
    return kept[:k].copy()


class _CFEntry:
    """One clustering feature: running count, linear sum, squared-norm sum."""

    __slots__ = ("count", "ls", "ss", "point_ids", "child")

    def __init__(self, dim: int, child: "_CFNode | None" = None):
        self.count = 0
        self.ls = np.zeros(dim, dtype=np.float64)
        self.ss = 0.0
        self.point_ids: list[int] = []
        self.child = child

    def centroid(self) -> np.ndarray:
        return self.ls / self.count

    def absorb(self, x: np.ndarray, pid: int | None) -> None:
        self.count += 1
        self.ls = self.ls + x
        self.ss = self.ss + float(x @ x)
        if pid is not None:
            self.point_ids.append(pid)

    def radius_if_absorbed(self, x: np.ndarray) -> float:
        n = self.count + 1
        ls = self.ls + x
        ss = self.ss + float(x @ x)
        c = ls / n
        return float(np.sqrt(max(ss / n - float(c @ c), 0.0)))

    def add_entry(self, other: "_CFEntry") -> None:
        self.count += other.count
        self.ls = self.ls + other.ls
        self.ss = self.ss + other.ss


class _CFNode:
    __slots__ = ("entries", "is_leaf")

    def __init__(self, is_leaf: bool):
        self.entries: list[_CFEntry] = []
        self.is_leaf = is_leaf


class CFTree:
    """Single-pass BIRCH clustering-feature tree. No fit uses it; it is kept as
    the structure whose CF sums acceptance criterion 5c checks bit for bit."""

    def __init__(self, threshold: float, branching_factor: int, dim: int):
        self.threshold = threshold
        self.branching = branching_factor
        self.dim = dim
        self.root = _CFNode(is_leaf=True)

    def insert(self, x: np.ndarray, pid: int) -> None:
        split = self._insert(self.root, x, pid)
        if split is not None:
            self.root = _CFNode(is_leaf=False)
            self.root.entries = list(split)

    def _insert(self, node: _CFNode, x: np.ndarray, pid: int):
        if node.is_leaf:
            if node.entries:
                d2 = np.array([((e.centroid() - x) ** 2).sum() for e in node.entries])
                best = node.entries[int(np.argmin(d2))]
                if best.radius_if_absorbed(x) <= self.threshold:
                    best.absorb(x, pid)
                    return None
            fresh = _CFEntry(self.dim)
            fresh.absorb(x, pid)
            node.entries.append(fresh)
        else:
            d2 = np.array([((e.centroid() - x) ** 2).sum() for e in node.entries])
            chosen = node.entries[int(np.argmin(d2))]
            split = self._insert(chosen.child, x, pid)
            if split is None:
                chosen.absorb(x, None)
                return None
            node.entries.remove(chosen)
            node.entries.extend(split)
        if len(node.entries) > self.branching:
            return self._split(node)
        return None

    def _split(self, node: _CFNode):
        """Farthest-pair seeding; each entry joins the nearer seed's half."""
        cents = np.array([e.centroid() for e in node.entries])
        d2 = ((cents[:, None, :] - cents[None, :, :]) ** 2).sum(-1)
        i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
        halves = (_CFNode(node.is_leaf), _CFNode(node.is_leaf))
        for idx, e in enumerate(node.entries):
            side = 0 if d2[idx, i] <= d2[idx, j] else 1
            halves[side].entries.append(e)
        if not halves[1].entries:
            halves[1].entries.append(halves[0].entries.pop())
        summaries = []
        for half in halves:
            s = _CFEntry(self.dim, child=half)
            for e in half.entries:
                s.add_entry(e)
            summaries.append(s)
        return tuple(summaries)

    def leaf_entries(self) -> list[_CFEntry]:
        out: list[_CFEntry] = []
        stack = [self.root]
        while stack:
            node = stack.pop(0)
            if node.is_leaf:
                out.extend(node.entries)
            else:
                stack = [e.child for e in node.entries] + stack
        return out


def fit_cluster(method: str, X: np.ndarray, cfg=None, k: int | None = None,
                seed: int = 0) -> ClusterModel:
    """Dispatch a fit by method tag. Every call is counted for instrumentation.

    Without ``cfg`` the method's defaults are used. ``k`` fills the cluster
    count the config leaves unset, on a copy: this is the one place that
    default is resolved.
    """
    global _FIT_CALLS
    _FIT_CALLS += 1
    if method not in CONFIGS:
        raise ValueError(f"unknown clustering method {method!r}; implemented: {METHODS}")
    if cfg is None:
        cfg = CONFIGS[method](seed=seed)
    if k is not None and getattr(cfg, "k", "absent") is None:
        cfg = replace(cfg, k=k)
    fit = {"kmeans": kmeans_fit, "minibatch_kmeans": minibatch_kmeans_fit,
           "meanshift": meanshift_fit}[method]
    return fit(X, cfg)


def fit_call_count() -> int:
    return _FIT_CALLS
