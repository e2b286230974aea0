"""Cross-scale attention multi-instance learning on multi-scale patch
embeddings: synthetic data, clustering and bagging, the model zoo,
training, evaluation statistics, and attention map rendering."""

from .autodiff import Tensor, backward
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
    CrossScaleAttentionOutput,
    ModelConfig,
    ModelParams,
    cross_scale_attention,
    forward_bag,
    init_params,
    instance_pool,
    mi_fcn_encode,
    nll_loss,
    train_step,
)
from .training import TrainConfig, make_splits, train_all, train_one_split

__all__ = [
    "AttentionRecord",
    "Bag",
    "ClusterModel",
    "CrossScaleAttentionOutput",
    "Dataset",
    "ModelConfig",
    "ModelParams",
    "PatientRecord",
    "SyntheticSpec",
    "Tensor",
    "TrainConfig",
    "assemble_bag",
    "auc",
    "average_precision",
    "backward",
    "bootstrap_test",
    "cluster_dataset",
    "cross_scale_attention",
    "delong_test",
    "evaluate",
    "forward_bag",
    "generate_synthetic",
    "init_params",
    "instance_pool",
    "kmeans",
    "load_dataset",
    "make_splits",
    "mi_fcn_encode",
    "nll_loss",
    "save_dataset",
    "split_train_test",
    "train_all",
    "train_one_split",
    "train_step",
]
