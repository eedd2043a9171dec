"""Workload configs for the benchmark, generated from a seed.

Each workload is a plain selftrain config document; the program sees only
that document. ``scale`` shrinks the row count for the smoke test and
leaves every other setting as the full workload has it.
"""

from __future__ import annotations

SCHEDULE = {"initial_fraction": 0.2, "rounds": 8, "growth": "equal"}

# Data seeds per run, for ST cells and for each IST method. Cell times
# follow the data (pseudo-labels selected, k-means iterations), so a run
# averages over several seeds; one cycle over them fits in a 50 s run.
# ST on sgd-784d varies most with the seed and costs least, so it gets more
# seeds than IST there.
SEEDS_PER_RUN = {"pool-2d": (6, 6), "ridge-50d": (5, 5), "sgd-784d": (4, 2)}

# Why each workload exists; BENCHMARK.json carries the same reasons.
WHY = {
    "pool-2d": "100k 2-D rows with a narrow ridge: per-sample pool and query-list "
               "bookkeeping dominates, and IST beats ST on the noise band",
    "ridge-50d": "blobs-timing preset: the ridge feature map over the pool dominates; "
                 "kmeans, minibatch_kmeans and meanshift give the cluster-time order. "
                 "Replaces sgd-784d, too noisy run to run",
    "sgd-784d": "MNIST-shaped 784-D blobs: k-means nearest-centroid dominates IST, "
                "the SGD batch loop dominates ST, data generation dominates setup",
}

# The workloads BENCHMARK.json gates. sgd-784d still runs by hand, but its
# 784-D, memory-bound cells drift with the load on a shared host: whole runs
# on the same code spread 17-27 % (IQR over median of run_s), past its bound.
BENCHMARKED = ("pool-2d", "ridge-50d")


def _blobs(class_count: int, per_class: int, dims: int, spread: float,
           min_separation: float | None, scale: float) -> dict:
    doc = {"source": "blobs", "class_count": class_count,
           "per_class": max(20, int(per_class * scale)), "dims": dims, "spread": spread}
    if min_separation is not None:
        doc["min_separation"] = min_separation
    return doc


def cell_order(name: str, seed: int, methods: list[str]) -> list[tuple[int, str]]:
    """The (data seed, method) cells of one run: ``seed`` first, then seeds 1000 apart."""
    st_seeds, ist_seeds = SEEDS_PER_RUN[name]
    order = []
    for i in range(max(st_seeds, ist_seeds)):
        s = seed + 1000 * i
        order += [(s, "st")] if i < st_seeds else []
        order += [(s, m) for m in methods] if i < ist_seeds else []
    return order


def make_config(name: str, seed: int, scale: float = 1.0) -> dict:
    """The config document of workload ``name`` for one seed."""
    if name == "pool-2d":
        return {
            "dataset": _blobs(4, 25000, 2, 1.2, 3.0, scale),
            "split": {"labels_per_class": 4, "test_fraction": 0.25},
            "backbone": {"kind": "random_feature_ridge", "hidden_width": 64,
                         "ridge_lambda": 1e-2, "temperature": 0.2},
            "selftrain": {"rounds": 12, "confidence_threshold": 0.95,
                          "schedule": dict(SCHEDULE)},
            "clustering": {"methods": ["kmeans"]},
            "seeds": [seed],
        }
    if name == "ridge-50d":
        return {
            "dataset": _blobs(10, 2000, 50, 1.0, None, scale),
            "split": {"labels_per_class": 4, "test_fraction": 0.1},
            "backbone": {"kind": "random_feature_ridge"},
            "selftrain": {"rounds": 9, "schedule": dict(SCHEDULE)},
            "clustering": {"methods": ["kmeans", "minibatch_kmeans", "meanshift"]},
            "seeds": [seed],
        }
    if name == "sgd-784d":
        return {
            "dataset": _blobs(10, 2000, 784, 1.0, 14.0, scale),
            "split": {"labels_per_class": 10, "test_fraction": 0.2},
            "backbone": {"kind": "softmax_sgd", "learning_rate": 0.03,
                         "batch_size": 64, "epochs": 10},
            "selftrain": {"rounds": 12, "confidence_threshold": 0.95,
                          "schedule": dict(SCHEDULE)},
            "clustering": {"methods": ["kmeans"]},
            "seeds": [seed],
        }
    raise ValueError(f"unknown workload {name!r}; known: {sorted(WHY)}")
