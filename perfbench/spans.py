"""Spans around the calls one selftrain module makes into the next.

The traced run replaces those functions, for its own duration, with
wrappers that record a span per call. A span has a name ``<layer>.<what>``,
start and end times, its parent span and the cell it belongs to, plus the
counts taken at that boundary (rows, clusters found, entries, ...). Self
time is a span's duration minus the time its direct children cover; calls
are single-threaded, so children never overlap.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LAYERS = ("data", "clustering", "querylist", "classifiers", "training", "bench")


@dataclass
class Span:
    id: int
    name: str
    cell: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``wrap`` installs a traced replacement."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cell = ""
        self._open: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, self.cell, parent, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``counts(args, result)`` returns a dict merged into the span's counts.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if counts is not None:
                    s.counts.update(counts(args, result))
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    covered = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def _pool_counts(args, result) -> dict:
    # pseudo_label_pool(model, pool, unlabeled, ...) -> (ids, labels, weights)
    return {"predicted": len(args[1]), "selected": len(result[0])}


def _cluster_counts(args, result) -> dict:
    counts = {"method": args[0], "k": int(result.k)}
    if result.method == "kmeans":
        counts["iters"] = len(result.inertia_history) - 1
    return counts


def _rows(args, result) -> dict:
    return {"rows": len(args[1])}


def instrument(tracer: Tracer, selftrain) -> None:
    """Wrap each call one module makes into another (and the loop's own stages)."""
    bench, training, classifiers = selftrain.bench, selftrain.training, selftrain.classifiers
    tracer.wrap(bench, "make_blobs", "data.build")
    tracer.wrap(bench, "split_ssl", "data.split")
    tracer.wrap(bench, "standardize", "data.standardize")
    tracer.wrap(bench, "apply_standardize", "data.standardize")
    for loop in ("st_train", "ist_train"):
        tracer.wrap(bench, loop, "training.loop",
                    lambda args, result: {"rounds": result[1].rounds_completed})
    tracer.wrap(training, "standardize", "data.standardize")
    tracer.wrap(training, "fit_cluster", "clustering.fit", _cluster_counts)
    tracer.wrap(training, "build_query_list", "querylist.build",
                lambda args, result: {"entries": len(result)})
    tracer.wrap(training, "partition_batches", "querylist.partition")
    tracer.wrap(training, "pseudo_label_pool", "training.pseudo_label", _pool_counts)
    tracer.wrap(training, "evaluate", "training.eval")
    tracer.wrap(training, "pseudo_error_rate", "training.pseudo_error")
    for cls in (classifiers.RandomFeatureRidge, classifiers.SoftmaxSGD):
        tracer.wrap(cls, "fit", "classifiers.fit", _rows)
        tracer.wrap(cls, "predict_proba", "classifiers.predict", _rows)


def to_json_doc(spans: list[Span]) -> list[dict]:
    selfs = self_times(spans)
    return [{**asdict(s), "self": selfs[s.id]} for s in spans]
