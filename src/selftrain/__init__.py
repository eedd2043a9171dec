"""Self-training and incremental self-training for semi-supervised learning."""

from .classifiers import ClassifierModel, RandomFeatureRidge, SoftmaxSGD
from .clustering import (ClusterModel, KMeansConfig, MeanShiftConfig, MiniBatchKMeansConfig,
                         assign, estimate_bandwidth, fit_cluster, kmeans_fit, meanshift_fit,
                         minibatch_kmeans_fit)
from .data import (Dataset, LabeledSet, StandardizationStats, UnlabeledSet,
                   apply_standardize, blob_centroids, load_csv, load_idx, make_blobs,
                   split_ssl, standardize)
from .querylist import (BatchSchedule, CertaintyEntry, QueryList, build_query_list,
                        partition_batches)
from .training import (PseudoPool, SelfTrainConfig, TrainingRoundError,
                       TrainingTrajectory, evaluate, ist_train, pseudo_error_rate,
                       pseudo_label_pool, st_train)

__version__ = "0.1.0"

__all__ = [
    "ClassifierModel", "RandomFeatureRidge", "SoftmaxSGD",
    "ClusterModel", "KMeansConfig", "MeanShiftConfig", "MiniBatchKMeansConfig",
    "assign", "estimate_bandwidth",
    "fit_cluster", "kmeans_fit", "meanshift_fit", "minibatch_kmeans_fit",
    "Dataset", "LabeledSet", "StandardizationStats", "UnlabeledSet",
    "apply_standardize", "blob_centroids", "load_csv", "load_idx", "make_blobs",
    "split_ssl", "standardize",
    "BatchSchedule", "CertaintyEntry", "QueryList", "build_query_list",
    "partition_batches",
    "PseudoPool", "SelfTrainConfig", "TrainingRoundError", "TrainingTrajectory",
    "evaluate", "ist_train", "pseudo_error_rate", "pseudo_label_pool", "st_train",
]
