#!/usr/bin/env python3
"""Fusion-variant comparison on planted-signal data: cross-scale attention
against single-scale, add, concat, joint instance pooling, and gated
pooling, with DeLong and bootstrap tests against the cross-scale model.
The CSV is the table ``crossmil compare`` writes, with cs-attn as reference.

Usage: python scripts/variant_comparison.py [--out runs/variants.csv] [--seed 0]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crossmil.clustering import cluster_dataset
from crossmil.data import SyntheticSpec, generate_synthetic, split_train_test
from crossmil.evaluation import comparison_table
from crossmil.experiments import train_and_evaluate
from crossmil.models import ModelConfig
from crossmil.training import TrainConfig

VARIANTS = [
    ("cs-attn", dict(fusion="cross_scale_attention")),
    ("single-20x", dict(fusion="single_scale", scale_index=0)),
    ("single-10x", dict(fusion="single_scale", scale_index=1)),
    ("single-5x", dict(fusion="single_scale", scale_index=2)),
    ("add-fusion", dict(fusion="add")),
    ("concat-fusion", dict(fusion="concat")),
    ("pool-joint", dict(fusion="instance_pool")),
    ("gated-pool", dict(fusion="instance_pool", pooling="gated")),
]


def run(out: Path, seed: int) -> None:
    spec = SyntheticSpec(
        n_patients_per_class=40, n_locations=36, dim=32, informative_scale=0,
        signal_fraction=0.5, signal_strength=1.0, noise_level=0.2, seed=seed,
    )
    train, test = split_train_test(generate_synthetic(spec), 12)
    cluster_model = cluster_dataset(train, "5x", 8, seed=seed)
    train_cfg = TrainConfig(epochs=15, learning_rate=1e-3, bag_size=8, n_splits=2, seed=seed)

    score_sets = []
    for name, overrides in VARIANTS:
        cfg = ModelConfig(embed_dim=32, encoder_dim=64, attention_hidden=32,
                          n_clusters=8, n_scales=3, **overrides)
        report, scored, _ = train_and_evaluate(train, test, cluster_model, cfg, train_cfg)
        score_sets.append((name, np.array([s.score for s in scored])))
        labels = np.array([s.label for s in scored])
        print(f"{name:>14}  auc={report.auc:.4f}  ap={report.ap:.4f}  acc={report.accuracy:.4f}")

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(comparison_table(score_sets, labels, "cs-attn", seed=seed))
    print(f"\nwrote {out}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=Path("runs/variants.csv"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run(args.out, args.seed)
