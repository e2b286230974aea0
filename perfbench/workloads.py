"""Benchmark workloads: one crossmil config each, plus the checks it carries.

Every workload runs the full six-stage pipeline with the default model
widths (L=64, D=32) and cross-scale attention fusion. They differ in
which layer dominates the wall time, so that a change to one layer shows
on one workload and is predicted to leave another unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # train-signal carries the acceptance-suite floors (c05 AUC, c06 localization)
    signal_checks: bool = False

    @property
    def data(self) -> dict:
        return self.config["data"]

    @property
    def train(self) -> dict:
        return self.config["train"]

    @property
    def n_train_patients(self) -> int:
        return 2 * self.data["n_train_per_class"]

    @property
    def n_test_patients(self) -> int:
        return 2 * self.data["n_test_per_class"]

    @property
    def n_test_locations(self) -> int:
        return self.n_test_patients * self.data["n_locations"]

    @property
    def adam_steps(self) -> int:
        """Adam steps the train stage takes: one per training bag per epoch.

        The validation slices partition the training patients, so each
        patient trains in n_splits - 1 splits (in the single split when
        n_splits is 1).
        """
        splits = self.train["n_splits"]
        per_epoch = self.n_train_patients * max(splits - 1, 1)
        return self.train["epochs"] * per_epoch


def _config(data: dict, cluster: dict, train: dict, model: dict | None = None) -> dict:
    return {
        "data": {
            "dim": 32,
            "n_scales": 3,
            "informative_scale": 0,
            "signal_fraction": 0.5,
            "signal_strength": 1.0,
            "noise_level": 0.2,
            "n_prototypes": 8,
            **data,
        },
        "cluster": {"scale": "5x", "k": 8, **cluster},
        "model": {
            "fusion": "cross_scale_attention",
            "attention_sharing": "shared",
            "attention_activation": "relu",
            "encoder_dim": 64,
            "attention_hidden": 32,
            "pooling": "plain",
            "scale_index": None,
            **(model or {}),
        },
        "train": {"learning_rate": 1e-3, "bag_resample": True, **train},
        "eval": {"mode": "ensemble", "n_bootstrap": 1000},
        "render": {"cell_size": 256.0},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-signal",
            why="acceptance signal-run shape; the per-instance autodiff tape in training dominates",
            config=_config(
                data={"n_train_per_class": 40, "n_test_per_class": 60, "n_locations": 50},
                cluster={},
                train={"epochs": 10, "bag_size": 8, "n_splits": 2},
            ),
            signal_checks=True,
        ),
        Workload(
            name="infer-dense",
            why="bag 64 over many test patients; forward-only eval and attention maps dominate",
            config=_config(
                data={"n_train_per_class": 6, "n_test_per_class": 10, "n_locations": 100},
                cluster={},
                train={"epochs": 1, "bag_size": 64, "n_splits": 2},
            ),
        ),
        # Runs by hand only; BENCHMARK.json leaves it out because its
        # sub-second stages spread past any allowed bound on a machine
        # whose speed switches between two modes (see README.md).
        Workload(
            name="wide-ingest",
            why="2048-wide embeddings; CSV write and re-parse plus multi-scale k-means dominate",
            config=_config(
                data={"n_train_per_class": 4, "n_test_per_class": 2, "n_locations": 32, "dim": 2048},
                cluster={"scale": "multi"},
                train={"epochs": 1, "bag_size": 32, "n_splits": 2},
            ),
        ),
    )
}
