"""Self-training loops: the classical all-at-once variant and the incremental
variant that feeds certainty-ordered batches into a growing pseudo-label pool.

Both loops share one round structure. Round 0 fits on the labeled data only;
every later round predicts over the current pool, keeps members whose
confidence clears the threshold, refits on labeled + selected pseudo-labeled
rows, and evaluates. The backbone embeds the labeled and unlabeled rows, and
the test rows, once, at the start of the timed loop, after IST's cluster
fit. Rounds fit, score and evaluate on those caches, so a backbone that
updates its fit from the last one (the ridge) pays per round for the rows
that changed. Once every unlabeled row is in the pool, the pool is scored as
a whole rather than gathered. Inside a run an unlabeled sample is known by
its row alone: the pool, the query list's batches and the selection all hold
rows. The incremental loop clusters the unlabeled data exactly once up front
to build its query list. Every fitted row, labeled or pseudo-labeled, has
unit weight.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .classifiers import ClassifierModel, top_class
from .clustering import fit_cluster
from .data import Dataset, LabeledSet, UnlabeledSet, standardize
from .querylist import BatchSchedule, build_query_list, partition_batches


class TrainingRoundError(RuntimeError):
    """Backbone failure mid-run; carries the round index and partial trajectory."""

    def __init__(self, round_index: int, trajectory: "TrainingTrajectory", cause: str):
        super().__init__(f"backbone failed at round {round_index}: {cause}")
        self.round_index = round_index
        self.trajectory = trajectory


@dataclass
class SelfTrainConfig:
    """One run's self-training settings.

    An IST config left without ``rounds`` gets ``schedule.rounds + 4``; an ST
    config must set ``rounds``.
    """

    mode: str = "st"
    rounds: int | None = None
    confidence_threshold: float = 0.95
    schedule: BatchSchedule | None = None
    cluster_method: str | None = None
    cluster_config: object | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("st", "ist"):
            raise ValueError(f"mode must be 'st' or 'ist', got {self.mode!r}")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in [0, 1]")
        if self.mode == "ist":
            if self.schedule is None:
                self.schedule = BatchSchedule()
            if self.cluster_method is None:
                self.cluster_method = "kmeans"
            if self.rounds is None:
                self.rounds = self.schedule.rounds + 4
        if self.rounds is None:
            raise ValueError("rounds must be set explicitly for st mode")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.mode == "ist" and self.rounds < self.schedule.rounds + 1:
            raise ValueError(
                f"ist needs rounds >= schedule.rounds + 1 = {self.schedule.rounds + 1} "
                f"so every batch gets admitted"
            )


class PseudoPool:
    """Monotonically growing set of unlabeled rows eligible for pseudo-labeling.

    Rows are the pool's only index: ``admitted`` holds the round each
    unlabeled row joined (-1 while outside), ``labels`` its current
    pseudo-label (-1 before the first prediction) and ``confidence`` the
    matching confidence (NaN before it). ``selected`` holds the rows that
    cleared the threshold at the last pseudo-labeling, in ascending order
    (none before it).
    """

    def __init__(self, n_rows: int):
        self.admitted = np.full(n_rows, -1, dtype=np.int64)
        self.labels = np.full(n_rows, -1, dtype=np.int64)
        self.confidence = np.full(n_rows, np.nan)
        self.selected = np.empty(0, dtype=np.intp)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def admit(self, rows, round_index: int) -> None:
        rows = np.asarray(rows, dtype=np.intp)
        outside = (rows < 0) | (rows >= len(self.admitted))
        if outside.any():
            raise ValueError(f"row {int(rows[outside][0])} is not an unlabeled row")
        repeat = self.admitted[rows] >= 0
        ordered = np.sort(rows)
        if (ordered[1:] == ordered[:-1]).any():
            # a stable sort keeps equal rows in their given order: all but the first repeat
            order = np.argsort(rows, kind="stable")
            repeat[order[1:][rows[order[1:]] == rows[order[:-1]]]] = True
        if repeat.any():
            raise ValueError(f"row {int(rows[repeat][0])} already admitted")
        self.admitted[rows] = round_index
        self._size += len(rows)

    def member_rows(self) -> np.ndarray:
        """The admitted rows, in ascending order."""
        return np.flatnonzero(self.admitted >= 0)


STAGES = ("fit_s", "predict_s", "select_s", "eval_s")


@dataclass
class TrainingTrajectory:
    """Per-round record of one training run plus totals.

    ``cum_seconds`` accumulates loop time (embed + fit + predict + evaluate);
    clustering time is kept apart in ``cluster_seconds`` so reports can
    isolate it the way the benchmark tables do, and ``cluster`` holds the
    fit's diagnostics (:meth:`ClusterModel.diagnostics`; None for ST). Each
    round's loop time is split into four stages, which together cover it:

    - ``fit_s``: refitting the backbone (in round 0 also embedding the
      labeled, unlabeled and test rows);
    - ``predict_s``: scoring the pool and refreshing its pseudo-labels;
    - ``select_s``: admitting the round's batch and gathering the selected
      rows and labels;
    - ``eval_s``: the pseudo-label error and the test accuracy.
    """

    mode: str
    seed: int
    accuracy: list[float] = field(default_factory=list)
    pool_size: list[int] = field(default_factory=list)
    pseudo_used: list[int] = field(default_factory=list)
    pseudo_error: list[float | None] = field(default_factory=list)
    processed: list[int] = field(default_factory=list)
    cum_seconds: list[float] = field(default_factory=list)
    fit_s: list[float] = field(default_factory=list)
    predict_s: list[float] = field(default_factory=list)
    select_s: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    cluster_seconds: float = 0.0
    cluster: dict | None = None
    failed_round: int | None = None
    failure_message: str | None = None
    config_echo: dict = field(default_factory=dict)

    @property
    def rounds_completed(self) -> int:
        return len(self.accuracy)

    @property
    def final_accuracy(self) -> float | None:
        return self.accuracy[-1] if self.accuracy else None

    @property
    def total_processed(self) -> int:
        return int(sum(self.processed))

    @property
    def total_seconds(self) -> float:
        loop = self.cum_seconds[-1] if self.cum_seconds else 0.0
        return loop + self.cluster_seconds

    def deterministic_fields(self) -> dict:
        """Everything except wall-clock timing; the unit of reproducibility checks."""
        return {
            "mode": self.mode,
            "seed": self.seed,
            "accuracy": list(self.accuracy),
            "pool_size": list(self.pool_size),
            "pseudo_used": list(self.pseudo_used),
            "pseudo_error": list(self.pseudo_error),
            "processed": list(self.processed),
            "failed_round": self.failed_round,
        }

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["round", "accuracy", "pool_size", "pseudo_used",
                         "pseudo_error", "processed", "cum_seconds", *STAGES])
        for t in range(self.rounds_completed):
            err = self.pseudo_error[t]
            writer.writerow([t, repr(self.accuracy[t]), self.pool_size[t],
                             self.pseudo_used[t], "" if err is None else repr(err),
                             self.processed[t], repr(self.cum_seconds[t]),
                             *(repr(getattr(self, stage)[t]) for stage in STAGES)])
        return buf.getvalue()

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "final_accuracy": self.final_accuracy,
            "rounds": self.rounds_completed,
            "total_processed": self.total_processed,
            "total_seconds": self.total_seconds,
            "cluster_seconds": self.cluster_seconds,
            "cluster": self.cluster,
            "stage_seconds": {stage: sum(getattr(self, stage)) for stage in STAGES},
            "failed_round": self.failed_round,
            "failure_message": self.failure_message,
            "config": self.config_echo,
        }


def pseudo_label_pool(model: ClassifierModel, pool: PseudoPool, unlabeled: UnlabeledSet,
                      confidence_threshold: float, embedded: np.ndarray | None = None):
    """Predict over the pool and keep members clearing the confidence threshold.

    Pool labels and confidences are refreshed from the current model on every
    call, including for members that fall below the threshold. A member's
    label is its top class, ties going to the lowest class index, and its
    confidence that class's probability.
    Members are scored from ``embedded``, which is
    ``model.embed(unlabeled.features)`` and is computed here when not given;
    when every row is a member, the whole of it is scored, without gathering.
    Returns the selected rows in ascending order, so downstream training sees
    a canonical row order, and their labels; the rows are also left in
    ``pool.selected``.
    """
    if len(pool.admitted) != unlabeled.n_u:
        raise ValueError(f"pool covers {len(pool.admitted)} rows but the unlabeled set "
                         f"has {unlabeled.n_u}")
    # a whole pool is scored and written by whole arrays
    whole = len(pool) == unlabeled.n_u
    members = slice(None) if whole else pool.member_rows()
    if len(pool):
        if embedded is None:
            embedded = model.embed(unlabeled.features)
        conf, labels = top_class(
            model.predict_proba_embedded(embedded, None if whole else members))
        pool.labels[members] = labels
        pool.confidence[members] = conf

    # rows outside the pool keep a NaN confidence, which clears no threshold
    selected = pool.selected = np.flatnonzero(pool.confidence >= confidence_threshold)
    return selected, pool.labels[selected]


def evaluate(model: ClassifierModel, test: Dataset,
             embedded: np.ndarray | None = None) -> float:
    """Fraction of argmax predictions matching ground truth.

    Rows are scored from ``embedded``, which is ``model.embed(test.features)``
    and is computed here when not given.
    """
    if test.n == 0:
        raise ValueError("test set is empty")
    if test.labels is None:
        raise ValueError("test set has no labels")
    if embedded is None:
        embedded = model.embed(test.features)
    predicted = top_class(model.predict_proba_embedded(embedded))[1]
    return float(np.mean(predicted == test.labels))


def pseudo_error_rate(pool: PseudoPool, truth: np.ndarray | None) -> float | None:
    """Share of the selected pseudo-labels disagreeing with hidden ground truth.

    The selection is the one the last pseudo-labeling left in
    ``pool.selected``; ``truth`` holds the true label of each unlabeled row.
    Diagnostic only. Returns None when truth is unavailable or nothing is
    selected, to keep 'no data' distinct from 'no errors'.
    """
    selected = pool.selected
    if truth is None or len(selected) == 0:
        return None
    return int(np.count_nonzero(pool.labels[selected] != truth[selected])) / len(selected)


def _config_echo(cfg: SelfTrainConfig) -> dict:
    echo = {
        "mode": cfg.mode,
        "rounds": cfg.rounds,
        "confidence_threshold": cfg.confidence_threshold,
        "seed": cfg.seed,
        "cluster_method": cfg.cluster_method,
    }
    if cfg.schedule is not None:
        echo["schedule"] = asdict(cfg.schedule)
    if cfg.cluster_config is not None:
        echo["cluster_config"] = asdict(cfg.cluster_config)
    return echo


def _run_rounds(labeled: LabeledSet, unlabeled: UnlabeledSet, test: Dataset,
                backbone: ClassifierModel, cfg: SelfTrainConfig, batches: list[np.ndarray],
                cluster_seconds: float = 0.0,
                cluster: dict | None = None) -> tuple[ClassifierModel, TrainingTrajectory]:
    """Train over a pool that admits the unlabeled rows of ``batches[t]`` at round t.

    ``cluster_seconds`` and ``cluster`` are the time and the diagnostics
    (:meth:`ClusterModel.diagnostics`) of IST's clustering, which the
    trajectory records; 0 and None for ST.
    """
    traj = TrainingTrajectory(mode=cfg.mode, seed=cfg.seed)
    traj.cluster_seconds, traj.cluster = cluster_seconds, cluster
    traj.config_echo = _config_echo(cfg)
    truth = unlabeled.eval_labels()
    n_l = labeled.n_l
    pool = PseudoPool(unlabeled.n_u)
    pool.admit(batches[0], 0)
    start = clock = time.perf_counter()
    laps = dict.fromkeys(STAGES, 0.0)

    def lap(stage: str):
        """Charge the time since the previous lap to ``stage``."""
        nonlocal clock
        now = time.perf_counter()
        laps[stage] += now - clock
        clock = now

    def record(acc: float, used: int, err: float | None):
        lap("eval_s")
        traj.accuracy.append(acc)
        traj.pool_size.append(len(pool))
        traj.pseudo_used.append(used)
        traj.pseudo_error.append(err)
        traj.processed.append(n_l + used)
        traj.cum_seconds.append(clock - start)
        for stage in STAGES:
            getattr(traj, stage).append(laps[stage])
            laps[stage] = 0.0

    try:
        # the frozen per-row features, once per run: rounds index into them
        H = backbone.embed(labeled.features, unlabeled.features)
        H_test = backbone.embed(test.features)
        backbone.fit(labeled.features, labeled.labels)
    except ValueError as exc:
        traj.failed_round, traj.failure_message = 0, str(exc)
        raise TrainingRoundError(0, traj, str(exc)) from exc
    lap("fit_s")
    record(evaluate(backbone, test, H_test), 0, None)

    for t in range(1, cfg.rounds):
        if t < len(batches):
            pool.admit(batches[t], t)
        lap("select_s")
        sel_rows, sel_labels = pseudo_label_pool(backbone, pool, unlabeled,
                                                 cfg.confidence_threshold, embedded=H[n_l:])
        lap("predict_s")
        rows = np.concatenate([np.arange(n_l), n_l + sel_rows])
        y = np.concatenate([labeled.labels, sel_labels])
        lap("select_s")
        try:
            backbone.fit_embedded(H, y, rows=rows)
        except ValueError as exc:
            traj.failed_round, traj.failure_message = t, str(exc)
            raise TrainingRoundError(t, traj, str(exc)) from exc
        lap("fit_s")
        record(evaluate(backbone, test, H_test), len(sel_rows), pseudo_error_rate(pool, truth))

    return backbone, traj


def st_train(labeled: LabeledSet, unlabeled: UnlabeledSet, test: Dataset,
             backbone: ClassifierModel,
             cfg: SelfTrainConfig) -> tuple[ClassifierModel, TrainingTrajectory]:
    """Classical self-training: the whole unlabeled set is the pool from the start."""
    if cfg.mode != "st":
        raise ValueError("st_train requires cfg.mode == 'st'")
    return _run_rounds(labeled, unlabeled, test, backbone, cfg, [np.arange(unlabeled.n_u)])


def ist_train(labeled: LabeledSet, unlabeled: UnlabeledSet, test: Dataset,
              backbone: ClassifierModel,
              cfg: SelfTrainConfig) -> tuple[ClassifierModel, TrainingTrajectory]:
    """Incremental self-training: cluster once, order by certainty, admit in batches.

    Initialization standardizes the unlabeled features, fits the configured
    clustering method a single time, builds the query list, and partitions it;
    batch 0 seeds the pool. Batch t is admitted at round t until the schedule
    is exhausted, after which the pool stays complete and training continues.
    The pool admits the query list's rows, cut where the id batches are.
    The fit runs before round 0 embeds any row, so the embedding is never
    held beside the fit's buffers.
    """
    if cfg.mode != "ist":
        raise ValueError("ist_train requires cfg.mode == 'ist'")
    return _run_rounds(labeled, unlabeled, test, backbone, cfg,
                       *_query_batches(labeled.class_count, unlabeled, cfg))


def _query_batches(class_count: int, unlabeled: UnlabeledSet, cfg: SelfTrainConfig):
    """IST's batches of unlabeled rows, and its clustering's time and diagnostics.

    The cluster model and the query list go out of scope on return, so the
    rounds hold none of their per-row arrays: only the query list's rows,
    which the batches view.
    """
    # the standardized copy lives only as long as the fit
    model = fit_cluster(cfg.cluster_method, standardize(unlabeled.features)[0],
                        cfg.cluster_config, k=class_count, seed=cfg.seed)
    qlist = build_query_list(model, unlabeled)
    sizes = [len(batch) for batch in partition_batches(qlist, cfg.schedule)]
    batches = np.split(qlist.rows, np.cumsum(sizes)[:-1])
    return batches, model.fit_seconds, model.diagnostics()
