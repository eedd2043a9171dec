"""Centroid-style clustering backends sharing one model interface.

Three methods are implemented: Lloyd k-means, mini-batch k-means and
flat-kernel mean shift. Each fit returns a :class:`ClusterModel` whose
per-point centroid distances downstream code uses as a certainty score.
Further methods can be plugged in by producing a ClusterModel with
synthesized per-cluster centroids.

All distances are plain Euclidean in whatever feature space the caller
supplies; this module never rescales its input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

_FIT_CALLS = 0  # counts top-level fit_cluster dispatches, for instrumentation


@dataclass
class ClusterModel:
    """Fitted clustering: centroids plus per-point assignment and distance.

    ``inertia_history`` records the inertia after every assignment pass for
    iterative fits (k-means). ``converged`` says whether an iterative fit
    stopped on its own criterion (True) or ran out of ``max_iter`` (False);
    it is None for mean shift. Both are diagnostic.
    """

    method: str
    centroids: np.ndarray
    assignments: np.ndarray | None
    distances: np.ndarray | None
    inertia: float
    fit_seconds: float
    inertia_history: list[float] = field(default_factory=list)
    converged: bool | None = None

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def diagnostics(self) -> dict:
        """Method, k, ``converged`` and, for k-means, the number of Lloyd passes."""
        passes = len(self.inertia_history) - 1 if self.method == "kmeans" else None
        return {"method": self.method, "k": self.k, "converged": self.converged,
                "lloyd_passes": passes}

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
    max_iter: int = 300
    tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")


@dataclass
class MiniBatchKMeansConfig(KMeansConfig):
    batch_size: int = 256
    max_no_improve: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_no_improve < 1:
            raise ValueError("max_no_improve must be >= 1")


@dataclass
class MeanShiftConfig:
    bandwidth: float | None = None
    merge_tol: float = 0.5
    max_iter: int = 300
    subsample: int = 1000
    shift_subsample: int | None = 1000
    seed: int = 0

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0 when given")
        if self.merge_tol <= 0:
            raise ValueError("merge_tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.subsample < 2:
            raise ValueError("subsample must be >= 2")
        if self.shift_subsample is not None and self.shift_subsample < 1:
            raise ValueError("shift_subsample must be >= 1 when given")


# Each method's config class; its field defaults are the method's defaults.
CONFIGS = {"kmeans": KMeansConfig, "minibatch_kmeans": MiniBatchKMeansConfig,
           "meanshift": MeanShiftConfig}
METHODS = tuple(CONFIGS)


def _sq_dists_to(rows: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Squared distances from each row to every point of X, via the gram identity.

    Avoids materializing a (rows, n, d) cube; tiny negative round-off is
    clipped. Each value carries round-off up to about ``d * eps`` times
    ``|row|^2 + |x|^2``, which is fine for neighborhood thresholding. Where
    the exact argmin matters, :func:`_nearest` certifies the gram identity's
    answer against that bound and rechecks the rows it cannot certify.
    """
    d2 = (rows * rows).sum(1)[:, None] + (X * X).sum(1)[None, :] - 2.0 * (rows @ X.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


# Rows narrower than this many columns are reduced by passes over their
# columns. numpy sums fewer than 8 elements one by one onto +0.0 and from 8
# on switches to an 8-way unrolled pairwise sum, so only below 8 is a left
# fold over the columns its bit-exact twin.
_NARROW = 8


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` bit for bit; a left fold over the columns of narrow rows."""
    if a.shape[1] >= _NARROW:
        return a.sum(axis=1)
    out = a[:, 0] + 0.0  # numpy starts from +0.0, which turns -0.0 into +0.0
    for c in range(1, a.shape[1]):
        out += a[:, c]
    return out


def _column_argmin(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``p.argmin(axis=0)`` and ``p.min(axis=0)`` by a strict-``<`` fold over p's rows.

    Ties go to the lowest index, as with argmin. Where a column holds NaN the
    minimum is NaN and the index is not argmin's.
    """
    a = np.zeros(p.shape[1], dtype=np.int64)
    best = p[0].copy()
    for j in range(1, len(p)):
        # a < j, so the maximum sets a to j exactly where p_j < best
        np.maximum(a, j * (p[j] < best), out=a)
        np.minimum(best, p[j], out=best)
    return a, best


def _nearest(X: np.ndarray, centroids: np.ndarray, chunk: int | None = None):
    """Nearest centroid per row, ties to the lowest centroid index.

    Exactness contract: assignments and distances are bit-identical to the
    brute force ``d2 = ((rows[:, None, :] - centroids[None]) ** 2).sum(-1)``,
    ``a = argmin(d2, 1)``, ``sqrt(d2[i, a[i]])``, ties included.

    Each chunk costs one GEMM. The gram identity gives ``p = |c|^2 - 2 x.c``,
    the squared distance less the row's own ``|x|^2`` (the same for every
    centroid), and its argmin ``j``. With ``s = |x|^2 + |c|^2`` and
    ``u = eps / 2``, in whatever order the BLAS sums:

    - ``|c|^2`` errs by at most ``d u |c|^2`` and ``2 x.c`` by at most
      ``2 d u |x||c| <= d u s``; the final addition adds ``u |p| <= 2 u s``;
      so ``p`` is within ``(d + 1) eps s`` of its exact value;
    - the brute force's squared distance (a rounded difference, squared,
      summed over ``d`` terms) is within ``(d + 2) u D`` of the exact ``D``,
      and ``D <= 2 s``, so within ``(d + 2) eps s``.

    Less ``|x|^2``, the brute force's value is within ``2 (d + 2) eps s`` of
    ``p``. The bound ``e = 8 (d + 2) eps s`` leaves a factor of four for
    second-order terms, for the computed norms inside ``s`` and for the
    rounding of the check itself; the smallest normal float added on top
    covers underflow, where each operation errs by at most half a subnormal
    instead. A row is certain when every other centroid's ``p - e`` lies
    strictly above ``p_j + e_j``: then ``j`` is the brute force's unique
    minimum.

    The rows left (near-ties, duplicate centroids, a large common offset
    that the identity cancels, NaN) get exact squared distances to every
    centroid and their argmin. Every row's distance is then recomputed
    exactly as ``sqrt(((x - c_j) ** 2).sum())``, the brute force's own sum
    over the contiguous last axis.

    Width rule: rows narrower than 8 columns go by passes over columns, as
    numpy's per-row reductions over 2 to 4 elements cost more in overhead
    than in arithmetic. The candidate is a strict-``<`` fold over the ``k``
    centroid columns of ``p`` (ties to the lowest index). The certificate's
    runner-up, the least ``p - e`` but for the winner's, comes from a fold
    that keeps the two least values: the second where the winner's is the
    least, else the least. The distance gathers the assigned centroid one
    column at a time and sums the squares by a left fold. Below 8 columns
    that fold is numpy's own sum bit for bit (see ``_row_sum``); from 8 on
    numpy sums pairwise, so rows that wide keep the row-wise kernels, which
    also cost less there. The certificate and the exact recheck are the
    same at every width. ``chunk`` rows go per pass; by default 8,192
    narrow or 2,048 wide rows.
    """
    n, d = X.shape
    narrow = d < _NARROW
    if chunk is None:
        chunk = 8192 if narrow else 2048
    assignments = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.float64)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    slack = 8.0 * (d + 2) * np.finfo(np.float64).eps
    c_slack = slack * c_sq
    tiny = np.finfo(np.float64).tiny
    if not narrow:
        minus_2ct = -2.0 * centroids.T
        diff = np.empty((min(chunk, n), d))  # reused: a fresh array per chunk costs page faults
    for start in range(0, n, chunk):
        rows = X[start:start + chunk]
        if narrow:
            p = (-2.0 * centroids) @ rows.T  # (k, rows): a centroid's column is one row
            p += c_sq[:, None]
            a, best = _column_argmin(p)
            x_slack = slack * _row_sum(rows * rows) + tiny
            e_a = c_slack.take(a)
            upper = best + e_a + 2.0 * x_slack
            q = p - c_slack[:, None]
            least, second = q[0].copy(), np.full(len(rows), np.inf)
            for j in range(1, len(q)):
                np.minimum(second, np.maximum(least, q[j]), out=second)
                np.minimum(least, q[j], out=least)
            runner_up = np.where(best - e_a == least, second, least)
        else:
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
        if narrow:
            sq = np.zeros(len(rows))  # numpy's sum starts from +0.0 too
            for c in range(d):
                gap = rows[:, c] - centroids[:, c].take(a)
                sq += gap * gap
        else:
            sq = np.subtract(rows, centroids[a], out=diff[:len(rows)])
            np.square(sq, out=sq)
            sq = sq.sum(1)
        assignments[start:start + chunk] = a
        distances[start:start + chunk] = np.sqrt(sq)
    return assignments, distances


def assign(model: ClusterModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map rows of X onto the model's centroids."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.centroids.shape[1]:
        raise ValueError(
            f"dimension mismatch: model has {model.centroids.shape[1]} features, "
            f"input has {X.shape[1] if X.ndim == 2 else '?'}"
        )
    return _nearest(X, model.centroids)


def _init_centroids(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++: each seed drawn in proportion to squared distance from the chosen set."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    sq = np.empty_like(X)  # reused for every seed's squared differences

    def sq_dists(c: np.ndarray) -> np.ndarray:
        np.subtract(X, c, out=sq)
        np.square(sq, out=sq)
        return _row_sum(sq)

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


def _member_sums(X: np.ndarray, assignments: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's member count and the sum of its rows, ``X[assignments == j].sum(0)``.

    On narrow rows of 2 to 7 columns one weighted ``bincount`` per column
    adds each cluster's members in row order onto +0.0, as numpy's sum over
    the masked rows does, bit for bit. A single column is summed pairwise by
    numpy, and on wide rows the masks cost less, so both keep them.
    """
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


def _mean_update(X: np.ndarray, assignments: np.ndarray, distances: np.ndarray,
                 centroids: np.ndarray) -> np.ndarray:
    """Cluster-mean step; empty clusters are reseeded at the farthest point."""
    sums, counts = _member_sums(X, assignments, centroids.shape[0])
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

    centroids = _init_centroids(X, k, rng)
    assignments, distances = _nearest(X, centroids)
    inertia = float(np.sum(distances * distances))
    history = [inertia]
    converged = False
    for _ in range(cfg.max_iter):
        centroids = _mean_update(X, assignments, distances, centroids)
        assignments, distances = _nearest(X, centroids)
        new_inertia = float(np.sum(distances * distances))
        history.append(new_inertia)
        improvement = inertia - new_inertia
        converged = inertia <= 0 or improvement <= cfg.tol * inertia
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
    to improve for ``max_no_improve`` consecutive batches, or, when a batch is
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

    centroids = _init_centroids(X, k, rng)
    counts = np.zeros(k, dtype=np.float64)
    batch = min(cfg.batch_size, n)
    smoothed = None
    best = np.inf
    stale = 0
    converged = False
    previous = None
    for _ in range(cfg.max_iter):
        idx = rng.choice(n, size=batch, replace=False) if batch < n else np.arange(n)
        rows = X[idx]
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
            if stale >= cfg.max_no_improve:
                converged = True
                break

    if batch == n and converged:
        # the running averages have settled every row's assignment; mean
        # steps move each centroid to the mean of its members, until no row
        # changes cluster (one step alone can still move rows)
        for _ in range(cfg.max_iter):
            centroids = _mean_update(X, a, d, centroids)
            moved = a
            a, d = _nearest(X, centroids)
            if np.array_equal(a, moved):
                break
        else:
            converged = False
    assignments, distances = _nearest(X, centroids)
    inertia = float(np.sum(distances * distances))
    return ClusterModel("minibatch_kmeans", centroids, assignments, distances, inertia,
                        time.perf_counter() - t0, converged=converged)


def estimate_bandwidth(X: np.ndarray, quantile: float = 0.3, subsample: int = 1000,
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

    dists = []
    for i in range(0, n, 256):
        rows = X[i:i + 256]
        d2 = _sq_dists_to(rows, X)
        for r in range(len(rows)):
            dists.append(np.sqrt(d2[r, i + r + 1:]))
    flat = np.concatenate(dists) if dists else np.empty(0)
    if flat.size == 0 or flat.max() == 0.0:
        raise ValueError("all points identical; bandwidth is undefined")
    bw = float(np.quantile(flat, quantile))
    if bw == 0.0:
        bw = float(flat[flat > 0].min())
    return bw


def meanshift_fit(X: np.ndarray, cfg: MeanShiftConfig) -> ClusterModel:
    """Flat-kernel mean shift: iterate seeds to local neighborhood means, then merge modes."""
    t0 = time.perf_counter()
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 1:
        raise ValueError("need at least one point")
    bandwidth = cfg.bandwidth
    if bandwidth is None:
        bandwidth = estimate_bandwidth(X, 0.3, cfg.subsample, cfg.seed)

    rng = np.random.default_rng(cfg.seed)
    if cfg.shift_subsample is not None and n > cfg.shift_subsample:
        seeds = X[rng.choice(n, size=cfg.shift_subsample, replace=False)].copy()
    else:
        seeds = X.copy()

    stop = 1e-3 * bandwidth
    active = np.ones(len(seeds), dtype=bool)
    for _ in range(cfg.max_iter):
        if not active.any():
            break
        moving = np.flatnonzero(active)
        for start in range(0, len(moving), 256):
            sel = moving[start:start + 256]
            d2 = _sq_dists_to(seeds[sel], X)
            within = d2 <= bandwidth * bandwidth
            hits = within.sum(axis=1)
            means = seeds[sel].copy()
            nz = hits > 0
            means[nz] = (within[nz].astype(np.float64) @ X) / hits[nz, None]
            moved = np.sqrt(((means - seeds[sel]) ** 2).sum(-1))
            seeds[sel] = means
            active[sel] = moved >= stop

    centroids = _merge_modes(seeds, X, bandwidth, cfg.merge_tol)
    assignments, distances = _nearest(X, centroids)
    inertia = float(np.sum(distances * distances))
    return ClusterModel("meanshift", centroids, assignments, distances, inertia,
                        time.perf_counter() - t0)


def _merge_modes(modes: np.ndarray, X: np.ndarray, bandwidth: float,
                 merge_tol: float) -> np.ndarray:
    """Suppress near-duplicate modes, keeping better-supported ones first.

    Greedy by descending neighborhood support (ties by index), so the kept
    set is pairwise farther apart than ``merge_tol * bandwidth`` and
    re-merging it is a no-op.
    """
    support = np.empty(len(modes), dtype=np.int64)
    for start in range(0, len(modes), 256):
        d2 = _sq_dists_to(modes[start:start + 256], X)
        support[start:start + 256] = (d2 <= bandwidth * bandwidth).sum(axis=1)
    order = np.lexsort((np.arange(len(modes)), -support))
    radius = merge_tol * bandwidth
    kept: list[np.ndarray] = []
    for i in order:
        m = modes[i]
        if all(np.sqrt(((m - c) ** 2).sum()) > radius for c in kept):
            kept.append(m)
    return np.asarray(kept)


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
