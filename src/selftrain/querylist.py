"""Certainty-sorted query list over the unlabeled set and its batch partition.

The list is built exactly once from a fitted cluster model; every batch is a
contiguous slice of it, so earlier batches always hold the easier (closer to
a centroid) samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clustering import ClusterModel
from .data import UnlabeledSet

CERTAINTY_NORMS = ("global", "per_cluster_rank")


@dataclass(frozen=True)
class CertaintyEntry:
    sample_id: int
    cluster: int
    distance: float
    certainty: float


@dataclass(frozen=True, eq=False)
class QueryList:
    """Unlabeled samples in query order, most certain first, as parallel arrays.

    Position ``i`` of ``ids``, ``clusters``, ``distances`` and ``certainties``
    describes the ``i``-th sample to query; treat the arrays as read-only.
    ``entries`` materializes one :class:`CertaintyEntry` per sample on first
    access, for inspection only.
    """

    ids: np.ndarray
    clusters: np.ndarray
    distances: np.ndarray
    certainties: np.ndarray
    built_from: str

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def entries(self) -> tuple[CertaintyEntry, ...]:
        return tuple(map(CertaintyEntry, self.ids.tolist(), self.clusters.tolist(),
                         self.distances.tolist(), self.certainties.tolist()))

    def sample_ids(self) -> list[int]:
        return self.ids.tolist()


@dataclass(frozen=True)
class BatchSchedule:
    """How the sorted list is cut: an initial fraction plus T follow-up batches."""

    initial_fraction: float = 0.2
    rounds: int = 8
    growth: str = "equal"

    def __post_init__(self):
        if not 0.0 < self.initial_fraction <= 1.0:
            raise ValueError("initial_fraction must be in (0, 1]")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.growth not in ("equal", "geometric"):
            raise ValueError(f"unknown growth {self.growth!r}")


def build_query_list(model: ClusterModel, unlabeled: UnlabeledSet,
                     certainty_norm: str = "global") -> QueryList:
    """Sort the unlabeled ids by certainty, most certain first.

    ``global`` ranks by raw centroid distance across all clusters;
    ``per_cluster_rank`` ranks by within-cluster distance rank scaled by
    cluster size, which interleaves clusters of unequal spread. Ties break
    toward the lower sample id either way.
    """
    if certainty_norm not in CERTAINTY_NORMS:
        raise ValueError(f"unknown certainty_norm {certainty_norm!r}")
    if model.assignments is None or model.distances is None:
        raise ValueError("cluster model carries no assignments; fit or assign it first")
    if len(model.assignments) != unlabeled.n_u:
        raise ValueError(
            f"cluster model covers {len(model.assignments)} rows but the unlabeled "
            f"set has {unlabeled.n_u}; fit the model on exactly the unlabeled rows"
        )

    ids = unlabeled.ids
    clusters = np.asarray(model.assignments, dtype=np.int64)
    distances = np.asarray(model.distances, dtype=np.float64)

    if certainty_norm == "global":
        certainty = -distances
    else:
        certainty = np.empty(unlabeled.n_u, dtype=np.float64)
        for c in np.unique(clusters):
            members = np.flatnonzero(clusters == c)
            order = np.lexsort((ids[members], distances[members]))
            ranks = np.empty(len(members), dtype=np.float64)
            ranks[order] = np.arange(len(members), dtype=np.float64)
            certainty[members] = -ranks / len(members)

    order = np.lexsort((ids, -certainty))
    return QueryList(ids[order], clusters[order], distances[order],
                     certainty[order], model.method)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def partition_batches(qlist: QueryList, schedule: BatchSchedule) -> list[list[int]]:
    """Cut the list into T+1 contiguous batches; rounding leftovers land on the last one.

    Each batch is a list of sample ids sliced from ``qlist.ids``: a list, not
    an array, so batches test truth and compare equal the way sequences do.
    """
    n = len(qlist)
    t_rounds = schedule.rounds
    if t_rounds == 0:
        return [qlist.sample_ids()]

    first = min(_round_half_up(schedule.initial_fraction * n), n)
    remaining = n - first
    if schedule.growth == "equal":
        weights = [1.0] * t_rounds
    else:
        weights = [2.0 ** t for t in range(t_rounds)]
    total_w = sum(weights)
    sizes = [first]
    used = 0
    for t in range(t_rounds - 1):
        s = int(remaining * weights[t] / total_w)
        sizes.append(s)
        used += s
    sizes.append(remaining - used)

    cuts = np.cumsum(sizes)[:-1]
    return [batch.tolist() for batch in np.split(qlist.ids, cuts)]
