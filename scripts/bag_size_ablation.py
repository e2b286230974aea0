#!/usr/bin/env python3
"""Bag-size sweep: retrain the cross-scale attention model at several bag
sizes on one synthetic dataset and tabulate test metrics.

Usage: python scripts/bag_size_ablation.py [--out runs/bag_sizes.csv] [--seed 0]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crossmil.clustering import cluster_dataset
from crossmil.data import SyntheticSpec, generate_synthetic, split_train_test
from crossmil.experiments import bag_size_ablation, write_ablation_csv
from crossmil.models import ModelConfig
from crossmil.training import TrainConfig


def run(out: Path, seed: int, bag_sizes: tuple[int, ...]) -> None:
    spec = SyntheticSpec(
        n_patients_per_class=30, n_locations=36, dim=32,
        signal_fraction=0.5, signal_strength=1.0, noise_level=0.2, seed=seed,
    )
    train, test = split_train_test(generate_synthetic(spec), 10)
    cluster_model = cluster_dataset(train, "5x", 8, seed=seed)
    model_cfg = ModelConfig(embed_dim=32, encoder_dim=64, attention_hidden=32,
                            n_clusters=8, n_scales=3)
    train_cfg = TrainConfig(epochs=15, learning_rate=1e-3, n_splits=2, seed=seed)
    rows = bag_size_ablation(train, test, cluster_model, model_cfg, train_cfg, bag_sizes)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_ablation_csv(rows, out)
    for row in rows:
        print(f"bag_size={row['bag_size']:>3}  auc={row['auc']:.4f}  "
              f"ap={row['ap']:.4f}  acc={row['accuracy']:.4f}")
    print(f"\nwrote {out}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=Path("runs/bag_sizes.csv"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bag-sizes", type=int, nargs="+", default=[1, 8, 16, 64])
    args = parser.parse_args()
    run(args.out, args.seed, tuple(args.bag_sizes))
