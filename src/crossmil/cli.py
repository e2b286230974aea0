"""Operator-facing command surface.

One JSON config file drives a run; unknown keys are rejected, every
command checks the whole config before it reads or writes anything, and
every command archives the resolved config next to its outputs, so
(config, seed) fully determines all output bytes.

Exit codes: 0 success, 2 configuration/contract error or out of memory,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

from .attention_maps import (
    aggregate_records,
    geometry_for,
    normalize_per_scale,
    render_heatmaps,
    write_heatmap,
    write_records_csv,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .clustering import ClusterModel, cluster_dataset, load_cluster_model, save_cluster_model
from .data import Dataset, SyntheticSpec, generate_synthetic, load_dataset, save_dataset, split_train_test
from .errors import ConfigError, CrossmilError, check_choice, check_int, check_real, read_text
from .evaluation import (
    EVAL_MODES,
    comparison_table,
    evaluate,
    read_scores,
    write_curves,
    write_report,
    write_scores,
)
from .models import ModelConfig, ModelParams, attention_records, check_instance_shape
from .training import TrainConfig, train_all, write_loss_curves


def _defaults(cls, *derived: str) -> dict:
    """A config object's field defaults, less the fields a command derives."""
    return {f.name: f.default for f in fields(cls) if f.name not in derived}


DEFAULT_CONFIG = {
    "seed": 0,
    "data": {
        "n_train_per_class": 10,
        "n_test_per_class": 5,
        **_defaults(SyntheticSpec, "n_patients_per_class", "seed"),
    },
    "cluster": {"scale": "5x", "k": 8},
    "model": _defaults(ModelConfig, "embed_dim", "n_clusters", "n_scales"),
    "train": _defaults(TrainConfig, "seed"),
    "eval": {"mode": "ensemble", "n_bootstrap": 1000},
    "render": {"cell_size": 256.0},
}


def load_config(path: str | None) -> dict:
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is None:
        return config
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        user = json.loads(read_text(p, ConfigError))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    for key, value in user.items():
        if key == "seed":
            config["seed"] = value
            continue
        if key not in config:
            raise ConfigError(f"unknown config section {key!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be an object")
        for sub, subval in value.items():
            if sub not in config[key]:
                raise ConfigError(f"unknown config key {key}.{sub}")
            config[key][sub] = subval
    return config


def _check_config(config: dict) -> None:
    """Check every section, whichever command runs, before anything is read
    or written. The dataset fixes the model's scale count, so ``train``
    checks ``model.scale_index`` against it."""
    check_int("seed", config["seed"], 0)
    synthetic_spec(config)
    train_config(config)
    _in_section("model", ModelConfig, **config["model"], n_scales=sys.maxsize)
    check_int("cluster.k", config["cluster"]["k"], 1)
    scale = config["cluster"]["scale"]
    if isinstance(scale, bool) or not isinstance(scale, (str, int)):
        raise ConfigError(f"cluster.scale must be a string or an integer, got {scale!r}")
    check_int("eval.n_bootstrap", config["eval"]["n_bootstrap"], 100)
    check_choice("eval.mode", config["eval"]["mode"], EVAL_MODES)
    check_real("render.cell_size", config["render"]["cell_size"], 0, open_low=True)


def _in_section(section: str, make, **values):
    """``make(**values)``; a ConfigError names its field as ``section.field``."""
    try:
        return make(**values)
    except ConfigError as e:
        raise ConfigError(f"{section}.{e}") from None


def _run_config(args) -> dict:
    """The command's config: its file over the defaults, then ``--seed``, checked."""
    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    _check_config(config)
    return config


def write_resolved_config(config: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n"
    )


def synthetic_spec(config: dict) -> SyntheticSpec:
    data = dict(config["data"])
    for key in ("n_train_per_class", "n_test_per_class"):
        check_int(f"data.{key}", data[key], 1)
    n_patients = data.pop("n_train_per_class") + data.pop("n_test_per_class")
    return _in_section(
        "data", SyntheticSpec, **data, n_patients_per_class=n_patients, seed=config["seed"]
    )


def model_config(config: dict, dataset: Dataset, n_clusters: int) -> ModelConfig:
    derived = dict(embed_dim=dataset.dim, n_clusters=n_clusters, n_scales=dataset.n_scales)
    return _in_section("model", ModelConfig, **config["model"], **derived)


def train_config(config: dict) -> TrainConfig:
    return _in_section("train", TrainConfig, **config["train"], seed=config["seed"])


def _load_checkpoints(ckpt_dir: Path) -> list[ModelParams]:
    """The checkpoint_split<digits>.bin files of a directory, in split order.

    All must hold the same model config.
    """
    numbered = []
    for path in ckpt_dir.glob("checkpoint_split*.bin"):
        match = re.fullmatch(r"checkpoint_split(\d+)\.bin", path.name)
        if match is None:
            raise ConfigError(f"{path}: not a checkpoint_split<digits>.bin name")
        numbered.append((int(match.group(1)), path))
    if not numbered:
        raise ConfigError(f"no checkpoints found in {ckpt_dir}")
    paths = [path for _, path in sorted(numbered)]
    models = [load_checkpoint(p) for p in paths]
    for path, params in zip(paths[1:], models[1:]):
        if params.config != models[0].config:
            raise ConfigError(f"{paths[0]} and {path} hold different model configs")
    return models


def _data_and_cluster(args) -> tuple[Dataset, ClusterModel]:
    """The dataset and cluster model; the model's scale index must hold its label there."""
    dataset, cluster = load_dataset(args.data), load_cluster_model(args.cluster)
    s = cluster.scale_index
    if s is not None and dataset.scale_labels[s : s + 1] != (cluster.clustering_scale,):
        raise ConfigError(
            f"the cluster model clusters scale {cluster.clustering_scale!r} at index {s}, "
            f"but the dataset's scales are {dataset.scale_labels}"
        )
    return dataset, cluster


def _archive_model(config: dict, cfg: ModelConfig, k: int) -> None:
    """Replace the config file's model section and cluster k with what a stage used."""
    config["model"] = {key: getattr(cfg, key) for key in config["model"]}
    config["cluster"]["k"] = k


def cmd_gen_data(args) -> int:
    config = _run_config(args)
    out = Path(args.out_dir)
    spec = synthetic_spec(config)
    dataset = generate_synthetic(spec)
    train, test = split_train_test(dataset, config["data"]["n_test_per_class"])
    write_resolved_config(config, out)
    train_manifest = save_dataset(train, out / "train")
    test_manifest = save_dataset(test, out / "test")
    print(train_manifest)
    print(test_manifest)
    return 0


def cmd_cluster(args) -> int:
    config = _run_config(args)
    dataset = load_dataset(args.data)
    model = cluster_dataset(
        dataset, config["cluster"]["scale"], config["cluster"]["k"], seed=config["seed"]
    )
    out = Path(args.out_dir)
    write_resolved_config(config, out)
    print(save_cluster_model(model, out / "cluster_model.json"))
    return 0


def cmd_train(args) -> int:
    config = _run_config(args)
    tcfg = train_config(config)
    dataset, cluster = _data_and_cluster(args)
    cfg = model_config(config, dataset, cluster.k)
    models = train_all(dataset, cluster, tcfg, cfg)
    out = Path(args.out_dir)
    write_resolved_config(config, out)
    for m in models:
        save_checkpoint(m.params, out / f"checkpoint_split{m.split_id:02d}.bin")
        write_loss_curves(m, out / f"loss_split{m.split_id:02d}.csv")
    print(out)
    return 0


def cmd_eval(args) -> int:
    config = _run_config(args)
    dataset, cluster = _data_and_cluster(args)
    models = _load_checkpoints(Path(args.ckpt_dir))
    report, scored = evaluate(
        models,
        dataset,
        cluster,
        bag_size=config["train"]["bag_size"],
        seed=config["seed"],
        mode=config["eval"]["mode"],
    )
    out = Path(args.out_dir)
    _archive_model(config, models[0].config, cluster.k)
    write_resolved_config(config, out)
    write_report(report, out / "report.txt")
    write_curves(report, out)
    write_scores(scored, out / "scores.csv")
    print(out / "report.txt")
    return 0


def cmd_compare(args) -> int:
    config = _run_config(args)
    entries = []
    for item in args.scores:
        name, sep, path = item.partition("=")
        if not (sep and name):
            raise ConfigError(f"--scores expects NAME=PATH, got {item!r}")
        entries.append((name, *read_scores(path)))
    if len(entries) < 2:
        raise ConfigError("compare needs at least two --scores entries")
    base_name, base_ids, base_labels, _ = entries[0]
    for name, ids, labels, _ in entries:
        if ids != base_ids or (labels != base_labels).any():
            raise ConfigError(f"score set {name!r} covers different patients than {base_name!r}")
    table = comparison_table(
        [(name, scores) for name, _, _, scores in entries],
        base_labels,
        args.ref if args.ref is not None else base_name,
        n_boot=config["eval"]["n_bootstrap"],
        seed=config["seed"],
    )
    out = Path(args.out_dir)
    write_resolved_config(config, out)
    path = out / "comparison.csv"
    path.write_text(table)
    print(path)
    return 0


def cmd_attn_map(args) -> int:
    config = _run_config(args)
    dataset = load_dataset(args.data)
    models = _load_checkpoints(Path(args.ckpt_dir))
    by_id = {p.patient_id: p for p in dataset}
    wanted = args.patients.split(",") if args.patients is not None else list(by_id)
    if "" in wanted:
        raise ConfigError(f"--patients has an empty patient id: {args.patients!r}")
    unknown = [pid for pid in wanted if pid not in by_id]
    if unknown:
        raise ConfigError(f"patient(s) not in this dataset: {', '.join(map(repr, unknown))}")
    repeated = [pid for pid, n in Counter(wanted).items() if n > 1]
    if repeated:
        raise ConfigError(f"patient(s) repeated in --patients: {', '.join(map(repr, repeated))}")
    cfg = models[0].config
    if cfg.fusion != "cross_scale_attention":
        raise ConfigError(f"the {cfg.fusion} model in {args.ckpt_dir} has no cross-scale attention")
    check_instance_shape(dataset.n_scales, dataset.dim, cfg)
    patients = [by_id[pid] for pid in wanted]
    geometries = [geometry_for(p.xy, config["render"]["cell_size"]) for p in patients]
    out = Path(args.out_dir)
    _archive_model(config, cfg, cfg.n_clusters)
    write_resolved_config(config, out)
    maps = []
    for p, geometry in zip(patients, geometries):
        per_model = [attention_records(dataset, params, patients=[p.patient_id]) for params in models]
        scores = normalize_per_scale(aggregate_records(per_model))
        for heatmap in render_heatmaps(p.xy, scores, geometry, dataset.scale_labels):
            write_heatmap(heatmap, out / f"{p.patient_id}_scale-{heatmap.scale_label}.pgm")
        maps.append((p, scores))
    write_records_csv(maps, out / "attention_records.csv")
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossmil",
        description="Cross-scale attention MIL pipeline: synthetic data, clustering, "
        "training, evaluation, attention maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, cluster=False, ckpt=False):
        p.add_argument("--config", help="JSON config file (defaults applied underneath)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out-dir", required=True)
        if data:
            p.add_argument("--data", required=True, help="dataset manifest.json")
        if cluster:
            p.add_argument("--cluster", required=True, help="cluster_model.json")
        if ckpt:
            p.add_argument("--ckpt-dir", required=True, help="directory with checkpoint_split*.bin")

    p = sub.add_parser("gen-data", help="generate a synthetic train/test dataset pair")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("cluster", help="fit phenotype k-means on a dataset")
    common(p, data=True)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("train", help="train one model variant over all splits")
    common(p, data=True, cluster=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a test dataset with trained checkpoints")
    common(p, data=True, cluster=True, ckpt=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare", help="pairwise significance tests over score CSVs")
    common(p)
    p.add_argument("--scores", action="append", required=True, metavar="NAME=PATH")
    p.add_argument("--ref", help="reference model name (default: first)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("attn-map", help="render per-scale attention heatmaps")
    common(p, data=True, ckpt=True)
    p.add_argument("--patients", help="comma-separated patient ids (default: all)")
    p.set_defaults(fn=cmd_attn_map)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CrossmilError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
