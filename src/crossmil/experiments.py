"""End-to-end pipeline drivers shared by the scripts and the acceptance
suite: train a variant, evaluate it, sweep bag sizes."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .clustering import ClusterModel
from .data import Dataset
from .evaluation import EvalReport, ScoredPatient, evaluate
from .models import ModelConfig
from .training import TrainConfig, TrainedModel, train_all


def train_and_evaluate(
    train_dataset: Dataset,
    test_dataset: Dataset,
    cluster_model: ClusterModel,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> tuple[EvalReport, list[ScoredPatient], list[TrainedModel]]:
    models = train_all(train_dataset, cluster_model, train_cfg, model_cfg)
    report, scored = evaluate(
        [m.params for m in models], test_dataset, cluster_model, bag_size=train_cfg.bag_size
    )
    return report, scored, models


def bag_size_ablation(
    train_dataset: Dataset,
    test_dataset: Dataset,
    cluster_model: ClusterModel,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    bag_sizes: tuple[int, ...] = (1, 8, 16, 64),
) -> list[dict]:
    """Retrain and evaluate at each bag size; rows mirror the report CSV."""
    rows = []
    for b in bag_sizes:
        cfg_b = replace(train_cfg, bag_size=b)
        report, _, _ = train_and_evaluate(
            train_dataset, test_dataset, cluster_model, model_cfg, cfg_b
        )
        rows.append(
            {"bag_size": b, "auc": report.auc, "ap": report.ap, "accuracy": report.accuracy}
        )
    return rows


def write_ablation_csv(rows: list[dict], path: str | Path) -> Path:
    path = Path(path)
    lines = ["bag_size,auc,ap,accuracy"]
    for r in rows:
        lines.append(f"{r['bag_size']},{r['auc']!r},{r['ap']!r},{r['accuracy']!r}")
    path.write_text("\n".join(lines) + "\n")
    return path
