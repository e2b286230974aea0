#!/usr/bin/env python3
"""Digests of the training outputs of every model variant, for pinning
output bits across code changes.

Each of the 40 fusion x pooling x sharing x activation variants trains at
bags 1 and 8 on one tiny planted-signal dataset, two splits, two epochs,
at the acceptance gradient suite's widths (c01), in sequence, in this
process. Each of the 80 runs gets one sha256 over, per split, the
checkpoint bytes, the loss-curve bytes and the selection epoch. One more
run trains one variant with fixed bags (``bag_resample=False``), and one
digest covers the whole output tree of ``scripts/run_pipeline.py`` at
seed 0, which trains its splits in forked workers. The digests depend on
numpy's and BLAS's rounding, so they are printed with an environment
key: the numpy version, the BLAS library and version, and the OpenBLAS
core its kernels were picked for (``OPENBLAS_CORETYPE`` pins it). Run on
one BLAS thread.

Prints one JSON object: {"environment": key, "digests": {case: sha256}}.

Usage, in the environment of the recorded digests and of their test:

    OPENBLAS_NUM_THREADS=1 OPENBLAS_CORETYPE=Haswell python scripts/output_digests.py
"""

import contextlib
import ctypes
import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crossmil.checkpoint import save_checkpoint
from crossmil.clustering import cluster_dataset
from crossmil.data import SyntheticSpec, generate_synthetic
from crossmil.models import ACTIVATIONS, FUSIONS, POOLINGS, SHARINGS, ModelConfig
from crossmil.training import TrainConfig, make_splits, train_one_split, write_loss_curves
from run_pipeline import run as run_pipeline

BAG_SIZES = (1, 8)
C01_WIDTHS = dict(embed_dim=4, encoder_dim=3, attention_hidden=2)


def blas_environment() -> str:
    """numpy's version, then the name, version and core of the OpenBLAS
    library loaded into this process ("unknown" where none is found)."""
    blas = core = "unknown"
    maps = Path("/proc/self/maps")  # the libraries this process has loaded, on Linux
    lines = maps.read_text().splitlines() if maps.exists() else []
    for path in sorted({line.split()[-1] for line in lines if "openblas" in line}):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            if hasattr(lib, f"{prefix}_get_config{suffix}"):
                config, corename = (getattr(lib, f"{prefix}_get_{what}{suffix}") for what in ("config", "corename"))
                config.argtypes = corename.argtypes = []
                config.restype = corename.restype = ctypes.c_char_p
                blas, core = f"{prefix} {config().split()[1].decode()}", corename().decode()
    return f"numpy {np.__version__}; {blas}; core {core}"


def run_digest(
    dataset, cluster_model, splits, model_cfg: ModelConfig, bag_size: int, tmp: Path, bag_resample: bool = True
) -> str:
    """One sha256 over each split's checkpoint, loss curves and selection epoch."""
    train_cfg = TrainConfig(
        epochs=2, learning_rate=1e-2, bag_size=bag_size, n_splits=len(splits), seed=0, bag_resample=bag_resample
    )
    digest = hashlib.sha256()
    for split_id, split in enumerate(splits):
        model = train_one_split(dataset, split, cluster_model, train_cfg, model_cfg, split_id=split_id)
        digest.update(save_checkpoint(model.params, tmp / "model.ckpt").read_bytes())
        digest.update(write_loss_curves(model, tmp / "curves.csv").read_bytes())
        digest.update(f"{model.selection_epoch}\n".encode())
    return digest.hexdigest()


def tree_digest(root: Path) -> str:
    """One sha256 over the relative path, size and bytes of every file under
    ``root``, in path order."""
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\n{len(data)}\n".encode())
        digest.update(data)
    return digest.hexdigest()


def main() -> None:
    spec = SyntheticSpec(n_patients_per_class=4, n_locations=12, dim=C01_WIDTHS["embed_dim"], seed=0)
    dataset = generate_synthetic(spec)
    cluster_model = cluster_dataset(dataset, "5x", 4, seed=0)
    splits = make_splits(dataset, 2, seed=0)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fusion, pooling, sharing, activation in itertools.product(FUSIONS, POOLINGS, SHARINGS, ACTIVATIONS):
            cfg = ModelConfig(
                fusion=fusion, pooling=pooling, attention_sharing=sharing,
                attention_activation=activation, n_clusters=4, n_scales=spec.n_scales,
                scale_index=1 if fusion == "single_scale" else None, **C01_WIDTHS,
            )
            for bag_size in BAG_SIZES:
                case = f"{fusion}/{pooling}/{sharing}/{activation}/bag{bag_size}"
                digests[case] = run_digest(dataset, cluster_model, splits, cfg, bag_size, Path(tmp))
        cfg = ModelConfig(
            fusion="cross_scale_attention", pooling="plain", attention_sharing="shared",
            attention_activation="relu", n_clusters=4, n_scales=spec.n_scales, **C01_WIDTHS,
        )
        digests["cross_scale_attention/plain/shared/relu/bag8/fixed_bags"] = run_digest(
            dataset, cluster_model, splits, cfg, 8, Path(tmp), bag_resample=False
        )
        # the demo narrates its CLI steps; this script's stdout is its JSON alone
        with contextlib.redirect_stdout(sys.stderr):
            run_pipeline(Path(tmp) / "pipeline", 0)
        digests["run_pipeline/seed0"] = tree_digest(Path(tmp) / "pipeline")
    print(json.dumps({"environment": blas_environment(), "digests": digests}, indent=1))


if __name__ == "__main__":
    main()
