"""Cross-scale attention multi-instance learning on multi-scale patch
embeddings: synthetic data, clustering and bagging, the model zoo,
training, evaluation statistics, and attention map rendering."""

from .clustering import (
    Bag,
    ClusterModel,
    assemble_bag,
    cluster_dataset,
    kmeans,
)
from .data import (
    Dataset,
    PatientRecord,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_train_test,
)
from .evaluation import auc, average_precision, bootstrap_test, delong_test, evaluate
from .models import (
    AttentionRecord,
    ModelConfig,
    ModelParams,
    init_params,
    train_step,
)
from .training import TrainConfig, make_splits, train_all, train_one_split

__all__ = [
    "AttentionRecord",
    "Bag",
    "ClusterModel",
    "Dataset",
    "ModelConfig",
    "ModelParams",
    "PatientRecord",
    "SyntheticSpec",
    "TrainConfig",
    "assemble_bag",
    "auc",
    "average_precision",
    "bootstrap_test",
    "cluster_dataset",
    "delong_test",
    "evaluate",
    "generate_synthetic",
    "init_params",
    "kmeans",
    "load_dataset",
    "make_splits",
    "save_dataset",
    "split_train_test",
    "train_all",
    "train_one_split",
    "train_step",
]
