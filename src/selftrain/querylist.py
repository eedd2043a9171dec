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

@dataclass(frozen=True)
class CertaintyEntry:
    sample_id: int
    cluster: int
    distance: float
    certainty: float


@dataclass(frozen=True, eq=False)
class QueryList:
    """Unlabeled samples in query order, most certain first, as parallel arrays.

    Position ``i`` of ``rows``, ``ids``, ``clusters`` and ``distances``
    describes the ``i``-th sample to query: ``rows`` holds its unlabeled row,
    the index a run uses, and ``ids`` its sample id. A sample's certainty is
    minus its distance. Treat the arrays as read-only. ``entries``
    materializes one :class:`CertaintyEntry` per sample on first access, for
    inspection only.
    """

    rows: np.ndarray
    ids: np.ndarray
    clusters: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def entries(self) -> tuple[CertaintyEntry, ...]:
        return tuple(map(CertaintyEntry, self.ids.tolist(), self.clusters.tolist(),
                         self.distances.tolist(), (-self.distances).tolist()))

    def sample_ids(self) -> list[int]:
        return self.ids.tolist()


@dataclass(frozen=True)
class BatchSchedule:
    """How the sorted list is cut: an initial fraction plus T equal follow-up batches."""

    initial_fraction: float = 0.2
    rounds: int = 8
    growth: str = "equal"

    def __post_init__(self):
        if not 0.0 < self.initial_fraction <= 1.0:
            raise ValueError("initial_fraction must be in (0, 1]")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.growth != "equal":
            raise ValueError(f"unknown growth {self.growth!r}")


def build_query_list(model: ClusterModel, unlabeled: UnlabeledSet) -> QueryList:
    """Sort the unlabeled ids by certainty, most certain first.

    A sample's certainty is minus its distance to its assigned centroid, so
    the list runs from the nearest sample to the farthest across all
    clusters. Ties break toward the lower sample id.
    """
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
    order = np.lexsort((ids, distances))
    return QueryList(order, ids[order], clusters[order], distances[order])


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def partition_batches(qlist: QueryList, schedule: BatchSchedule) -> list[list[int]]:
    """Cut the list into T+1 contiguous batches; rounding leftovers land on the last one.

    Each batch is a list of sample ids sliced from ``qlist.ids``: a list, not
    an array, so batches test truth and compare equal the way sequences do.
    A run admits ``qlist.rows`` cut at the same lengths.
    """
    n = len(qlist)
    t_rounds = schedule.rounds
    if t_rounds == 0:
        return [qlist.sample_ids()]

    first = min(_round_half_up(schedule.initial_fraction * n), n)
    cuts = first + (n - first) // t_rounds * np.arange(t_rounds)
    return [batch.tolist() for batch in np.split(qlist.ids, cuts)]
