import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossmil.checkpoint import load_checkpoint, save_checkpoint
from crossmil.cli import _load_checkpoints, main, model_config
from crossmil.clustering import cluster_dataset, load_cluster_model, save_cluster_model
from crossmil.data import SyntheticSpec, generate_synthetic, load_dataset
from crossmil.evaluation import evaluate, write_scores
from crossmil.models import ModelParams, attention_records, init_params

TINY = {
    "data": {
        "n_train_per_class": 4,
        "n_test_per_class": 2,
        "n_locations": 9,
        "dim": 8,
    },
    "cluster": {"k": 3},
    "model": {"encoder_dim": 8, "attention_hidden": 4},
    "train": {"epochs": 2, "learning_rate": 1e-3, "bag_size": 4, "n_splits": 2},
    "eval": {"n_bootstrap": 200},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY))
    c = str(config)
    assert main(["gen-data", "--config", c, "--out-dir", str(root / "data"), "--seed", "3"]) == 0
    assert main([
        "cluster", "--config", c, "--data", str(root / "data/train/manifest.json"),
        "--out-dir", str(root / "clust"), "--seed", "3",
    ]) == 0
    assert main([
        "train", "--config", c, "--data", str(root / "data/train/manifest.json"),
        "--cluster", str(root / "clust/cluster_model.json"),
        "--out-dir", str(root / "ckpt"), "--seed", "3",
    ]) == 0
    return root, c


def model_variant(root, name, **model):
    """A config file: TINY with the model section's keys set."""
    path = root / f"{name}.json"
    path.write_text(json.dumps({**TINY, "model": {**TINY["model"], **model}}))
    return str(path)


@pytest.fixture(scope="module")
def concat_ckpt(workspace):
    root, _ = workspace
    out = root / "ckpt_concat"
    assert main([
        "train", "--config", model_variant(root, "concat", fusion="concat"),
        "--data", str(root / "data/train/manifest.json"),
        "--cluster", str(root / "clust/cluster_model.json"), "--out-dir", str(out), "--seed", "3",
    ]) == 0
    return out


def run_eval(root, c, ckpt_dir, out, cluster=None):
    return main([
        "eval", "--config", c, "--data", str(root / "data/test/manifest.json"),
        "--cluster", str(cluster or root / "clust/cluster_model.json"),
        "--ckpt-dir", str(ckpt_dir), "--out-dir", str(out), "--seed", "3",
    ])


class TestGenData:
    def test_writes_both_classes_and_three_scales(self, workspace):
        root, _ = workspace
        manifest = json.loads((root / "data/train/manifest.json").read_text())
        labels = {e["label"] for e in manifest["patients"]}
        assert labels == {0, 1}
        assert all(e["n_scales"] == 3 for e in manifest["patients"])
        assert all(e["scale_labels"] == ["20x", "10x", "5x"] for e in manifest["patients"])

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        root, c = workspace
        assert main(["gen-data", "--config", c, "--out-dir", str(tmp_path / "again"), "--seed", "3"]) == 0
        for sub in ("train", "test"):
            first = sorted((root / "data" / sub).iterdir())
            second = sorted((tmp_path / "again" / sub).iterdir())
            assert [f.name for f in first] == [f.name for f in second]
            for f1, f2 in zip(first, second):
                assert f1.read_bytes() == f2.read_bytes()

    def test_default_resolved_config_is_pinned(self, tmp_path):
        # the defaults come from the config objects' field defaults, so a changed
        # field default shows here as a changed archive
        assert main(["gen-data", "--out-dir", str(tmp_path / "d"), "--seed", "0"]) == 0
        assert (tmp_path / "d/resolved_config.json").read_bytes() == (
            b'{\n'
            b'  "cluster": {\n'
            b'    "k": 8,\n'
            b'    "scale": "5x"\n'
            b'  },\n'
            b'  "data": {\n'
            b'    "dim": 32,\n'
            b'    "informative_scale": 0,\n'
            b'    "n_locations": 25,\n'
            b'    "n_prototypes": 8,\n'
            b'    "n_scales": 3,\n'
            b'    "n_test_per_class": 5,\n'
            b'    "n_train_per_class": 10,\n'
            b'    "noise_level": 0.2,\n'
            b'    "signal_fraction": 0.5,\n'
            b'    "signal_strength": 1.0\n'
            b'  },\n'
            b'  "eval": {\n'
            b'    "mode": "ensemble",\n'
            b'    "n_bootstrap": 1000\n'
            b'  },\n'
            b'  "model": {\n'
            b'    "attention_activation": "relu",\n'
            b'    "attention_hidden": 32,\n'
            b'    "attention_sharing": "shared",\n'
            b'    "encoder_dim": 64,\n'
            b'    "fusion": "cross_scale_attention",\n'
            b'    "pooling": "plain",\n'
            b'    "scale_index": null\n'
            b'  },\n'
            b'  "render": {\n'
            b'    "cell_size": 256.0\n'
            b'  },\n'
            b'  "seed": 0,\n'
            b'  "train": {\n'
            b'    "bag_resample": true,\n'
            b'    "bag_size": 8,\n'
            b'    "epochs": 100,\n'
            b'    "learning_rate": 0.0001,\n'
            b'    "n_splits": 10\n'
            b'  }\n'
            b'}\n'
        )

    def test_invalid_signal_fraction_exits_2_naming_field(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"data": {"signal_fraction": 0.0}}))
        code = main(["gen-data", "--config", str(config), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "signal_fraction" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"data": {"typo_key": 1}}))
        assert main(["gen-data", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        assert "typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n_locations", "n_train_per_class", "n_prototypes"])
    def test_unaddressable_dataset_size_exits_2_writing_nothing(self, tmp_path, capsys, key):
        # 10**30 locations or prototypes once ended in numpy's raw ValueError,
        # and 10**30 patients per class generated patients until killed
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": {key: 10**30}}))
        out = tmp_path / "out"
        assert main(["gen-data", "--config", str(config), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        if key == "n_prototypes":
            assert "data.n_prototypes, n_scales and dim give" in err
        else:
            assert "data.n_patients_per_class, n_locations, n_scales and dim give" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_out_of_memory_exits_2_writing_nothing(self, tmp_path, capsys, monkeypatch):
        # an addressable size larger than memory fails in numpy's allocation
        message = "Unable to allocate 72.8 TiB for an array with shape (10000000000000,)"

        def generate_synthetic(spec):
            raise MemoryError(message)

        monkeypatch.setattr("crossmil.cli.generate_synthetic", generate_synthetic)
        out = tmp_path / "out"
        assert main(["gen-data", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"
        assert not out.exists()


# every command's required arguments; none of the paths exist
COMMAND_ARGS = {
    "gen-data": [],
    "cluster": ["--data", "none/manifest.json"],
    "train": ["--data", "none/manifest.json", "--cluster", "none.json"],
    "eval": ["--data", "none/manifest.json", "--cluster", "none.json", "--ckpt-dir", "none"],
    "compare": ["--scores", "a=none.csv", "--scores", "b=none.csv"],
    "attn-map": ["--data", "none/manifest.json", "--ckpt-dir", "none"],
}


class TestConfigChecks:
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_negative_seed_exits_2_for_every_command(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--out-dir", str(out), "--seed", "-1", *COMMAND_ARGS[command]]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, named", [
        (None, "seed", "x", "seed"),
        (None, "seed", True, "seed"),
        (None, "seed", 1.0, "seed"),
        ("eval", "n_bootstrap", "500", "eval.n_bootstrap"),
        ("eval", "n_bootstrap", 500.0, "eval.n_bootstrap"),
        ("eval", "n_bootstrap", True, "eval.n_bootstrap"),
        ("eval", "n_bootstrap", 99, "eval.n_bootstrap"),
        ("eval", "mode", "pooled", "eval.mode"),
        ("cluster", "k", "3", "cluster.k"),
        ("cluster", "k", 0, "cluster.k"),
        ("cluster", "k", True, "cluster.k"),
        ("cluster", "k", 2.0, "cluster.k"),
        ("cluster", "scale", True, "cluster.scale"),
        ("cluster", "scale", 2.0, "cluster.scale"),
        ("data", "dim", "8", "data.dim"),
        ("data", "n_locations", 9.0, "data.n_locations"),
        ("data", "signal_strength", "1", "data.signal_strength"),
        ("data", "noise_level", math.nan, "data.noise_level"),
        ("data", "n_test_per_class", True, "data.n_test_per_class"),
        ("data", "n_train_per_class", "4", "data.n_train_per_class"),
        ("render", "cell_size", "x", "render.cell_size"),
        ("render", "cell_size", 0, "render.cell_size"),
        ("render", "cell_size", -256, "render.cell_size"),
        ("render", "cell_size", None, "render.cell_size"),
        ("render", "cell_size", True, "render.cell_size"),
        ("model", "scale_index", 1, "model.scale_index"),
        ("model", "fusion", "cs-attn", "model.fusion"),
        ("train", "epochs", "10", "train.epochs"),
    ])
    @pytest.mark.parametrize("command", ["gen-data", "compare"])
    def test_mistyped_value_exits_2_naming_it(self, tmp_path, capsys, command, section, key, value, named):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value} if section is None else {section: {key: value}}))
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--out-dir", str(out), *COMMAND_ARGS[command]]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestCluster:
    def test_non_finite_embedding_exits_2_naming_patient(self, workspace, tmp_path, capsys):
        import shutil

        root, c = workspace
        data = tmp_path / "train"
        shutil.copytree(root / "data/train", data)
        table = np.load(data / "pos001.npy")
        table[3, -1] = np.nan
        np.save(data / "pos001.npy", table)
        code = main([
            "cluster", "--config", c, "--data", str(data / "manifest.json"),
            "--out-dir", str(tmp_path / "clust"), "--seed", "3",
        ])
        assert code == 2
        assert "pos001: row 3" in capsys.readouterr().err
        assert not (tmp_path / "clust/cluster_model.json").exists()

    def test_permuted_rows_exit_2_naming_patient_and_row_writing_nothing(
        self, workspace, tmp_path, capsys
    ):
        root, c = workspace
        data = tmp_path / "train"
        shutil.copytree(root / "data/train", data)
        table = np.load(data / "pos001.npy")
        np.save(data / "pos001.npy", table[[*range(3), 6, 7, 8, 3, 4, 5, *range(9, len(table))]])
        before = sorted(tmp_path.rglob("*"))
        code = main([
            "cluster", "--config", c, "--data", str(data / "manifest.json"),
            "--out-dir", str(tmp_path / "clust"), "--seed", "3",
        ])
        assert code == 2
        assert "pos001: row 6 (location 1, scale 0) is out of place" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_malformed_ground_truth_exits_2_naming_the_file(self, workspace, tmp_path, capsys):
        root, c = workspace
        data = tmp_path / "train"
        shutil.copytree(root / "data/train", data)
        assert (data / "signal_locations.json").exists()
        (data / "signal_locations.json").write_text("{oops")
        code = main([
            "cluster", "--config", c, "--data", str(data / "manifest.json"),
            "--out-dir", str(tmp_path / "clust"), "--seed", "3",
        ])
        assert code == 2
        assert "signal_locations.json: not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "clust/cluster_model.json").exists()

    @pytest.mark.parametrize("key", ["dim", "file", "patient_id"])
    def test_manifest_entry_missing_key_exits_2_naming_it(self, workspace, tmp_path, capsys, key):
        import shutil

        root, c = workspace
        data = tmp_path / "train"
        shutil.copytree(root / "data/train", data)
        manifest = json.loads((data / "manifest.json").read_text())
        del manifest["patients"][2][key]
        (data / "manifest.json").write_text(json.dumps(manifest))
        code = main([
            "cluster", "--config", c, "--data", str(data / "manifest.json"),
            "--out-dir", str(tmp_path / "clust"), "--seed", "3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert ("entry 2" if key == "patient_id" else manifest["patients"][2]["patient_id"]) in err


class TestTrain:
    def test_one_checkpoint_and_curve_per_split(self, workspace):
        root, _ = workspace
        assert len(list((root / "ckpt").glob("checkpoint_split*.bin"))) == 2
        assert len(list((root / "ckpt").glob("loss_split*.csv"))) == 2
        assert (root / "ckpt/resolved_config.json").exists()

    @pytest.mark.parametrize("fusion", ["cross_scale_attention", "concat", "add"])
    def test_fusion_modes_accepted(self, workspace, tmp_path, fusion):
        root, _ = workspace
        code = main([
            "train", "--config", model_variant(tmp_path, fusion, fusion=fusion),
            "--data", str(root / "data/train/manifest.json"),
            "--cluster", str(root / "clust/cluster_model.json"),
            "--out-dir", str(tmp_path / fusion), "--seed", "3",
        ])
        assert code == 0
        assert load_checkpoint(tmp_path / fusion / "checkpoint_split00.bin").config.fusion == fusion

    def test_scale_index_beyond_the_datasets_scales_exits_2(self, workspace, tmp_path, capsys):
        root, _ = workspace
        code = main([
            "train", "--config", model_variant(tmp_path, "s3", fusion="single_scale", scale_index=3),
            "--data", str(root / "data/train/manifest.json"),
            "--cluster", str(root / "clust/cluster_model.json"),
            "--out-dir", str(tmp_path / "out"), "--seed", "3",
        ])
        assert code == 2
        assert "model.scale_index must be < n_scales = 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cluster_model_of_another_width_exits_2_writing_nothing(
        self, workspace, tmp_path, capsys
    ):
        root, c = workspace
        wider = generate_synthetic(SyntheticSpec(n_patients_per_class=2, n_locations=9, dim=16))
        cluster = save_cluster_model(cluster_dataset(wider, "5x", 3), tmp_path / "wide.json")
        code = main([
            "train", "--config", c, "--data", str(root / "data/train/manifest.json"),
            "--cluster", str(cluster), "--out-dir", str(tmp_path / "out"), "--seed", "3",
        ])
        assert code == 2
        assert "clustering features have width 8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_more_splits_than_patients_exits_2_writing_nothing(self, workspace, tmp_path, capsys):
        root, _ = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY, "train": {**TINY["train"], "n_splits": 10}}))
        code = main([
            "train", "--config", str(config), "--data", str(root / "data/train/manifest.json"),
            "--cluster", str(root / "clust/cluster_model.json"),
            "--out-dir", str(tmp_path / "out"), "--seed", "3",
        ])
        assert code == 2
        assert "8 patients cannot fill 10 validation sets" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("bag_resample", "false"), ("epochs", "10")])
    def test_mistyped_train_key_exits_2_naming_it(self, workspace, tmp_path, capsys, key, value):
        root, _ = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY, "train": {**TINY["train"], key: value}}))
        code = main([
            "train", "--config", str(config), "--data", str(root / "data/train/manifest.json"),
            "--cluster", str(root / "clust/cluster_model.json"),
            "--out-dir", str(tmp_path / "out"), "--seed", "3",
        ])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_dataset_exits_2(self, workspace, tmp_path):
        root, c = workspace
        code = main([
            "train", "--config", c, "--data", str(tmp_path / "nope/manifest.json"),
            "--cluster", str(root / "clust/cluster_model.json"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2


class TestEval:
    def test_report_fields_populated(self, workspace, tmp_path):
        root, c = workspace
        out = tmp_path / "eval"
        code = main([
            "eval", "--config", c, "--data", str(root / "data/test/manifest.json"),
            "--cluster", str(root / "clust/cluster_model.json"),
            "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(out), "--seed", "3",
        ])
        assert code == 0
        report = dict(
            line.split("=") for line in (out / "report.txt").read_text().splitlines()
        )
        for key in ("auc", "ap", "accuracy"):
            assert 0.0 <= float(report[key]) <= 1.0
        assert (out / "roc.csv").read_text().startswith("fpr,tpr")
        assert (out / "pr.csv").read_text().startswith("recall,precision")
        assert (out / "scores.csv").exists()

    def test_cluster_model_of_other_width_exits_2(self, workspace, tmp_path, capsys):
        root, c = workspace
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({**TINY, "data": {**TINY["data"], "dim": 16}}))
        assert main(["gen-data", "--config", str(wide), "--out-dir", str(tmp_path / "d16")]) == 0
        assert main([
            "cluster", "--config", str(wide), "--data", str(tmp_path / "d16/train/manifest.json"),
            "--out-dir", str(tmp_path / "clust16"),
        ]) == 0
        code = main([
            "eval", "--config", c, "--data", str(root / "data/test/manifest.json"),
            "--cluster", str(tmp_path / "clust16/cluster_model.json"),
            "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(tmp_path / "out"), "--seed", "3",
        ])
        assert code == 2
        assert "width 8" in capsys.readouterr().err

    def test_concat_checkpoints_evaluate_without_model_flags(self, workspace, concat_ckpt, tmp_path):
        root, c = workspace
        assert run_eval(root, c, concat_ckpt, tmp_path / "eval") == 0
        # the model built from the training config, with its checkpointed values
        config = json.loads((concat_ckpt / "resolved_config.json").read_text())
        test = load_dataset(root / "data/test/manifest.json")
        cluster = load_cluster_model(root / "clust/cluster_model.json")
        cfg = model_config(config, test, cluster.k)
        assert cfg.fusion == "concat"
        models = []
        for path in sorted(concat_ckpt.glob("checkpoint_split*.bin")):
            models.append(ModelParams(cfg, load_checkpoint(path).flat))
        _, scored = evaluate(models, test, cluster, bag_size=4, seed=3)
        expected = write_scores(scored, tmp_path / "expected.csv")
        assert (tmp_path / "eval/scores.csv").read_bytes() == expected.read_bytes()

    def test_resolved_config_archives_the_checkpoints_model(self, workspace, concat_ckpt, tmp_path):
        root, c = workspace
        assert run_eval(root, c, concat_ckpt, tmp_path / "eval") == 0
        archived = json.loads((tmp_path / "eval/resolved_config.json").read_text())
        trained = json.loads((concat_ckpt / "resolved_config.json").read_text())
        assert archived["model"]["fusion"] == "concat"
        assert archived["model"] == trained["model"]
        assert archived["cluster"]["k"] == 3

    def test_single_scale_checkpoints_evaluate_without_model_flags(self, workspace, tmp_path):
        root, c = workspace
        assert main([
            "train", "--config", model_variant(tmp_path, "s2", fusion="single_scale", scale_index=2),
            "--data", str(root / "data/train/manifest.json"),
            "--cluster", str(root / "clust/cluster_model.json"), "--out-dir", str(tmp_path / "t"),
            "--seed", "3",
        ]) == 0
        assert run_eval(root, c, tmp_path / "t", tmp_path / "eval") == 0
        assert (tmp_path / "eval/scores.csv").exists()

    @pytest.mark.parametrize("flag", [["--fusion", "concat"], ["--scale-index", "1"]])
    def test_model_flags_are_rejected(self, workspace, tmp_path, flag):
        root, c = workspace
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--config", c, "--data", str(root / "data/train/manifest.json"),
                "--cluster", str(root / "clust/cluster_model.json"),
                "--out-dir", str(tmp_path / "out"), *flag,
            ])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_cluster_model_with_other_k_exits_2(self, workspace, tmp_path, capsys):
        root, c = workspace
        config = tmp_path / "k4.json"
        config.write_text(json.dumps({**TINY, "cluster": {"k": 4}}))
        assert main([
            "cluster", "--config", str(config), "--data", str(root / "data/train/manifest.json"),
            "--out-dir", str(tmp_path / "clust4"), "--seed", "3",
        ]) == 0
        code = run_eval(root, c, root / "ckpt", tmp_path / "out", tmp_path / "clust4/cluster_model.json")
        assert code == 2
        assert "model has 3 clusters, cluster model has 4" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_2_naming_it(self, workspace, tmp_path, capsys):
        root, c = workspace
        ckpt = tmp_path / "ckpt"
        shutil.copytree(root / "ckpt", ckpt)
        path = ckpt / "checkpoint_split01.bin"
        path.write_bytes(path.read_bytes()[:200])
        assert run_eval(root, c, ckpt, tmp_path / "out") == 2
        assert str(path) in capsys.readouterr().err

    def test_checkpoint_name_without_split_number_exits_2(self, workspace, tmp_path, capsys):
        root, c = workspace
        ckpt = tmp_path / "ckpt"
        shutil.copytree(root / "ckpt", ckpt)
        shutil.copy(ckpt / "checkpoint_split01.bin", ckpt / "checkpoint_split01-old.bin")
        assert run_eval(root, c, ckpt, tmp_path / "out") == 2
        assert "checkpoint_split01-old.bin" in capsys.readouterr().err

    def test_checkpoints_of_different_configs_exit_2_naming_both(
        self, workspace, concat_ckpt, tmp_path, capsys
    ):
        root, c = workspace
        ckpt = tmp_path / "ckpt"
        shutil.copytree(root / "ckpt", ckpt)
        shutil.copy(concat_ckpt / "checkpoint_split00.bin", ckpt / "checkpoint_split02.bin")
        assert run_eval(root, c, ckpt, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "checkpoint_split00.bin" in err and "checkpoint_split02.bin" in err

    def test_checkpoints_load_in_split_number_order(self, workspace, tmp_path):
        root, _ = workspace
        cfg = load_checkpoint(root / "ckpt/checkpoint_split00.bin").config
        for split in (10, 9, 100):
            save_checkpoint(init_params(cfg, seed=split), tmp_path / f"checkpoint_split{split}.bin")
        loaded = _load_checkpoints(tmp_path)
        for params, split in zip(loaded, (9, 10, 100), strict=True):
            expected = init_params(cfg, seed=split)
            np.testing.assert_array_equal(params.layers.classifier[0], expected.layers.classifier[0])

    def test_eval_without_checkpoints_exits_2(self, workspace, tmp_path):
        root, c = workspace
        code = main([
            "eval", "--config", c, "--data", str(root / "data/test/manifest.json"),
            "--cluster", str(root / "clust/cluster_model.json"),
            "--ckpt-dir", str(tmp_path / "empty"), "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2


class TestCompare:
    def test_two_variant_table(self, workspace, tmp_path):
        root, c = workspace
        eval_a = tmp_path / "eval_a"
        main([
            "eval", "--config", c, "--data", str(root / "data/test/manifest.json"),
            "--cluster", str(root / "clust/cluster_model.json"),
            "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(eval_a), "--seed", "3",
        ])
        out = tmp_path / "cmp"
        code = main([
            "compare", "--config", c, "--out-dir", str(out), "--seed", "3",
            "--scores", f"cs-attn={eval_a}/scores.csv",
            "--scores", f"again={eval_a}/scores.csv",
        ])
        assert code == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "model,auc,ap,acc,p_auc_vs_ref,p_ap_vs_ref"
        assert len(lines) == 3
        # identical scores against the reference: both tests give p = 1
        again = lines[2].split(",")
        assert float(again[4]) == 1.0 and float(again[5]) == 1.0

    def test_differing_score_sets_give_the_pinned_table(self, tmp_path):
        # tied scores, and p-values away from 1, so the bootstrap kernels are exercised
        labels = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1]
        sets = {
            "a": [0.9, 0.8, 0.8, 0.55, 0.3, 0.6, 0.2, 0.2, 0.1, 0.45, 0.8, 0.7],
            "b": [0.6, 0.4, 0.7, 0.55, 0.5, 0.5, 0.3, 0.65, 0.1, 0.45, 0.2, 0.4],
        }
        argv = []
        for name, scores in sets.items():
            rows = [f"p{i:02d},{y},{s!r},{int(s >= 0.5)}" for i, (y, s) in enumerate(zip(labels, scores))]
            path = tmp_path / f"{name}.csv"
            path.write_text("patient_id,label,score,predicted\n" + "\n".join(rows) + "\n")
            argv += ["--scores", f"{name}={path}"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"eval": {"n_bootstrap": 200}}))
        out = tmp_path / "cmp"
        code = main([
            "compare", "--config", str(config), "--out-dir", str(out), "--seed", "3",
            "--ref", "b", *argv,
        ])
        assert code == 0
        assert (out / "comparison.csv").read_text() == (
            "model,auc,ap,acc,p_auc_vs_ref,p_ap_vs_ref\n"
            "a,0.8055555555555556,0.78015873015873,0.75,0.7581111558634999,0.77\n"
            "b,0.7361111111111112,0.736111111111111,0.6666666666666666,,\n"
        )

    def test_single_entry_rejected(self, workspace, tmp_path):
        _, c = workspace
        code = main([
            "compare", "--config", c, "--out-dir", str(tmp_path),
            "--scores", "only=/nonexistent.csv",
        ])
        assert code in (2, 3)

    @pytest.mark.parametrize("item", ["=SCORES", "SCORES"])
    def test_entry_without_a_name_exits_2_writing_nothing(self, workspace, tmp_path, capsys, item):
        root, c = workspace
        scores = str(root / "scores.csv")
        code = main([
            "compare", "--config", c, "--out-dir", str(tmp_path / "cmp"),
            "--scores", item.replace("SCORES", scores), "--scores", f"b={scores}",
        ])
        assert code == 2
        assert "expects NAME=PATH" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_repeated_names_exit_2_writing_nothing(self, workspace, tmp_path, capsys):
        root, c = workspace
        eval_a = tmp_path / "eval_a"
        assert main([
            "eval", "--config", c, "--data", str(root / "data/test/manifest.json"),
            "--cluster", str(root / "clust/cluster_model.json"),
            "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(eval_a), "--seed", "3",
        ]) == 0
        scores = eval_a / "scores.csv"
        code = main([
            "compare", "--config", c, "--out-dir", str(tmp_path / "cmp"),
            "--scores", f"a={scores}", "--scores", f"a={scores}", "--scores", f"b={scores}",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "repeated: 'a'" in err and "'b'" not in err
        assert not (tmp_path / "cmp").exists()


class TestAttnMap:
    def test_images_per_patient_per_scale(self, workspace, tmp_path):
        root, c = workspace
        out = tmp_path / "maps"
        code = main([
            "attn-map", "--config", c, "--data", str(root / "data/test/manifest.json"),
            "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(out), "--seed", "3",
            "--patients", "pos004,neg004",
        ])
        assert code == 0
        for pid in ("pos004", "neg004"):
            for scale in ("20x", "10x", "5x"):
                assert (out / f"{pid}_scale-{scale}.pgm").exists()
        assert (out / "attention_records.csv").exists()

    def test_concat_model_has_no_attention(self, workspace, concat_ckpt, tmp_path, capsys):
        root, c = workspace
        code = main([
            "attn-map", "--config", c, "--data", str(root / "data/test/manifest.json"),
            "--ckpt-dir", str(concat_ckpt), "--out-dir", str(tmp_path / "maps"),
        ])
        assert code == 2
        assert "no cross-scale attention" in capsys.readouterr().err
        assert not (tmp_path / "maps").exists()

    def test_dataset_of_another_dim_exits_2_writing_nothing(self, workspace, tmp_path, capsys):
        root, _ = workspace
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({**TINY, "data": {**TINY["data"], "dim": 16}}))
        assert main(["gen-data", "--config", str(config), "--out-dir", str(tmp_path / "d")]) == 0
        code = main([
            "attn-map", "--config", str(config), "--data", str(tmp_path / "d/test/manifest.json"),
            "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(tmp_path / "maps"),
        ])
        assert code == 2
        assert "embeddings have dim 16, config expects 8" in capsys.readouterr().err
        assert not (tmp_path / "maps").exists()

    def test_model_comes_from_the_checkpoints_not_the_config(self, workspace, tmp_path):
        root, c = workspace
        other = tmp_path / "other.json"
        other.write_text(json.dumps({
            **TINY, "cluster": {"k": 5}, "model": {"encoder_dim": 16, "attention_hidden": 4},
        }))
        outputs = []
        for tag, config in (("train_config", c), ("other_config", str(other))):
            out = tmp_path / tag
            assert main([
                "attn-map", "--config", config, "--data", str(root / "data/test/manifest.json"),
                "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(out), "--seed", "3",
            ]) == 0
            outputs.append((out / "attention_records.csv").read_bytes())
            archived = json.loads((out / "resolved_config.json").read_text())
            assert archived["model"]["encoder_dim"] == 8 and archived["cluster"]["k"] == 3
        assert outputs[0] == outputs[1]

    def test_unknown_patient_named_in_error(self, workspace, tmp_path, capsys):
        root, c = workspace
        code = main([
            "attn-map", "--config", c, "--data", str(root / "data/test/manifest.json"),
            "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(tmp_path / "maps"),
            "--patients", "pos000",  # training patient, absent from the test set
        ])
        assert code == 2
        assert "pos000" in capsys.readouterr().err

    def test_records_csv_parses_to_the_model_mean_normalized_per_scale(self, workspace, tmp_path):
        root, c = workspace
        out = tmp_path / "maps"
        assert main([
            "attn-map", "--config", c, "--data", str(root / "data/test/manifest.json"),
            "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(out), "--seed", "3",
        ]) == 0
        header, *lines = (out / "attention_records.csv").read_text().splitlines()
        assert header == "patient_id,location_id,x,y,a_0,a_1,a_2"
        rows = [line.split(",") for line in lines]
        dataset = load_dataset(root / "data/test/manifest.json")
        models = _load_checkpoints(root / "ckpt")
        assert len(models) == 2
        start = 0
        for p in dataset:
            block = rows[start:start + len(p.location_ids)]
            start += len(block)
            assert [r[0] for r in block] == [p.patient_id] * len(p.location_ids)
            assert [int(r[1]) for r in block] == p.location_ids.tolist()
            np.testing.assert_array_equal([[float(v) for v in r[2:4]] for r in block], p.xy)
            raw = np.array([
                [r.scores for r in attention_records(dataset, params, [p.patient_id])]
                for params in models
            ])
            mean = raw.mean(axis=0)
            lo, hi = mean.min(axis=0), mean.max(axis=0)
            assert (hi > lo).all()
            expected = (mean - lo) / (hi - lo)
            np.testing.assert_array_equal([[float(v) for v in r[4:]] for r in block], expected)
        assert start == len(rows)

    @pytest.mark.parametrize("cell_size", [1e-300, 0.001])
    def test_too_fine_a_cell_size_exits_2_writing_nothing(self, workspace, tmp_path, capsys, cell_size):
        root, _ = workspace
        config = tmp_path / "fine.json"
        config.write_text(json.dumps({**TINY, "render": {"cell_size": cell_size}}))
        code = main([
            "attn-map", "--config", str(config), "--data", str(root / "data/test/manifest.json"),
            "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(tmp_path / "maps"),
        ])
        assert code == 2
        assert "render.cell_size" in capsys.readouterr().err
        assert not (tmp_path / "maps").exists()

    def test_repeated_patient_exits_2_writing_nothing(self, workspace, tmp_path, capsys):
        root, c = workspace
        code = main([
            "attn-map", "--config", c, "--data", str(root / "data/test/manifest.json"),
            "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(tmp_path / "maps"),
            "--patients", "pos004,neg004,pos004",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "repeated" in err and "pos004" in err and "neg004" not in err
        assert not (tmp_path / "maps").exists()

    @pytest.mark.parametrize("patients", ["", "pos004,", ",pos004", "pos004,,neg004"])
    def test_empty_patient_id_exits_2_writing_nothing(self, workspace, tmp_path, capsys, patients):
        root, c = workspace
        code = main([
            "attn-map", "--config", c, "--data", str(root / "data/test/manifest.json"),
            "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(tmp_path / "maps"),
            "--patients", patients,
        ])
        assert code == 2
        assert f"empty patient id: {patients!r}" in capsys.readouterr().err
        assert not (tmp_path / "maps").exists()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        root, c = workspace
        outputs = []
        for tag in ("m1", "m2"):
            out = tmp_path / tag
            assert main([
                "attn-map", "--config", c, "--data", str(root / "data/test/manifest.json"),
                "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(out), "--seed", "3",
                "--patients", "pos004",
            ]) == 0
            outputs.append(
                {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            )
        assert outputs[0] == outputs[1]


# (command, malformed input, fragment of the error): a manifest edit sets a
# key of the first patient, a negative one, of the named split; a scores
# row replaces the second row of a valid scores file.
MALFORMED_INPUTS = [
    ("attn-map", ("test", "patient_id", "../evil"), "entry 0: patient_id"),
    ("eval", ("test", "patient_id", "a,b"), "entry 0: patient_id"),
    ("train", ("train", "patient_id", 7), "entry 0: patient_id"),
    ("cluster", ("train", "patient_id", "a\nb"), "entry 0: patient_id"),
    ("cluster", ("train", "label", True), "neg000: label"),
    ("cluster", ("train", "file", 7), "neg000: file"),
    ("cluster", ("train", "file", "neg000.csv"), "patient neg000: neg000.csv is not a .npy file"),
    ("cluster", ("train", "dim", "8"), "neg000: dim"),
    ("cluster", ("train", "n_locations", "9"), "neg000: n_locations"),
    ("cluster", ("train", "n_scales", True), "neg000: n_scales"),
    ("cluster", ("train", "scale_labels", ["20x", "10x", "5/x"]), "neg000: a scale label"),
    ("attn-map", ("test", "scale_labels", ["20x", "20x", "5x"]), "scale_labels repeat a label"),
    ("compare", "p01,0", "line 3: has 2 fields"),
    ("compare", "p01,x,0.5,1", "line 3: label 'x'"),
    ("compare", "p01,0,abc,0", "line 3: could not convert"),
]


@pytest.mark.parametrize("command, malformed, named", MALFORMED_INPUTS)
def test_malformed_input_exits_2_writing_nothing(
    workspace, tmp_path, capsys, command, malformed, named
):
    root, c = workspace
    out = tmp_path / "out"
    if command == "compare":
        good = tmp_path / "good.csv"
        good.write_text("patient_id,label,score,predicted\np00,1,0.9,1\np01,0,0.2,0\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(good.read_text().replace("p01,0,0.2,0", malformed))
        argv = ["--scores", f"a={good}", "--scores", f"b={bad}"]
    else:
        split, key, value = malformed
        data = tmp_path / split
        shutil.copytree(root / "data" / split, data)
        doc = json.loads((data / "manifest.json").read_text())
        assert doc["patients"][0]["label"] == 0
        doc["patients"][0][key] = value
        (data / "manifest.json").write_text(json.dumps(doc))
        argv = ["--data", str(data / "manifest.json")]
        if command in ("train", "eval"):
            argv += ["--cluster", str(root / "clust/cluster_model.json")]
        if command in ("eval", "attn-map"):
            argv += ["--ckpt-dir", str(root / "ckpt")]
    before = sorted(tmp_path.rglob("*"))
    code = main([command, "--config", c, "--out-dir", str(out), "--seed", "3", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cluster_model_of_another_scale_exits_2_writing_nothing(
    workspace, tmp_path, capsys, command
):
    """A cluster model fitted on 5x, index 0 of a dataset whose scales run
    (5x, 10x, 20x), applied to gen-data's (20x, 10x, 5x) data."""
    root, c = workspace
    flipped = tmp_path / "flipped"
    shutil.copytree(root / "data/train", flipped)
    doc = json.loads((flipped / "manifest.json").read_text())
    for entry in doc["patients"]:
        entry["scale_labels"] = ["5x", "10x", "20x"]
    (flipped / "manifest.json").write_text(json.dumps(doc))
    clust = tmp_path / "clust"
    assert main([
        "cluster", "--config", c, "--data", str(flipped / "manifest.json"), "--out-dir", str(clust),
    ]) == 0
    cluster = json.loads((clust / "cluster_model.json").read_text())
    assert (cluster["clustering_scale"], cluster["scale_index"]) == ("5x", 0)
    split = "train" if command == "train" else "test"
    argv = ["--data", str(root / "data" / split / "manifest.json"),
            "--cluster", str(clust / "cluster_model.json")]
    if command == "eval":
        argv += ["--ckpt-dir", str(root / "ckpt")]
    before = sorted(tmp_path.rglob("*"))
    code = main([command, "--config", c, "--out-dir", str(tmp_path / "out"), "--seed", "3", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "scale '5x' at index 0" in err and "('20x', '10x', '5x')" in err
    assert sorted(tmp_path.rglob("*")) == before


# each dataset-reading command and the step that does its bulk allocation
OUT_OF_MEMORY_STEPS = {
    "cluster": "cluster_dataset",
    "train": "train_all",
    "eval": "evaluate",
    "attn-map": "geometry_for",
}


@pytest.mark.parametrize("command", sorted(OUT_OF_MEMORY_STEPS))
def test_out_of_memory_in_a_command_exits_2_writing_nothing(
    workspace, tmp_path, capsys, monkeypatch, command
):
    root, c = workspace
    message = "Unable to allocate 9.1 TiB for an array with shape (1250000000000,)"

    def step(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(f"crossmil.cli.{OUT_OF_MEMORY_STEPS[command]}", step)
    argv = ["--data", str(root / "data/test/manifest.json")]
    if command in ("train", "eval"):
        argv += ["--cluster", str(root / "clust/cluster_model.json")]
    if command in ("eval", "attn-map"):
        argv += ["--ckpt-dir", str(root / "ckpt")]
    out = tmp_path / "out"
    assert main([command, "--config", c, "--out-dir", str(out), "--seed", "3", *argv]) == 2
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["manifest", "cluster model", "config", "scores"])
def test_input_that_is_not_utf8_exits_2_naming_the_file(workspace, tmp_path, capsys, case):
    """A \\xff byte appended to one text input of the command that reads it."""
    root, c = workspace
    manifest, cluster = tmp_path / "train/manifest.json", tmp_path / "cluster_model.json"
    config, scores = tmp_path / "config.json", tmp_path / "scores.csv"
    shutil.copytree(root / "data/train", tmp_path / "train")
    shutil.copy(root / "clust/cluster_model.json", cluster)
    shutil.copy(c, config)
    scores.write_text("patient_id,label,score,predicted\np00,1,0.9,1\np01,0,0.2,0\n")
    shutil.copy(scores, f"{scores}.good")
    command, bad, argv = {
        "manifest": ("cluster", manifest, ["--data", str(manifest)]),
        "cluster model": ("train", cluster, ["--data", str(manifest), "--cluster", str(cluster)]),
        "config": ("gen-data", config, []),
        "scores": ("compare", scores, ["--scores", f"a={scores}.good", "--scores", f"b={scores}"]),
    }[case]
    bad.write_bytes(bad.read_bytes() + b"\xff")
    before = sorted(tmp_path.rglob("*"))
    code = main([command, "--config", str(config), "--out-dir", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("top", [[], "x", 1, None, True])
@pytest.mark.parametrize("case", ["config", "manifest", "signal locations", "cluster model"])
def test_json_input_that_is_not_an_object_exits_2_writing_nothing(
    workspace, tmp_path, capsys, case, top
):
    """Each JSON input of the command that reads it, its whole text one
    JSON value that is not an object."""
    root, c = workspace
    manifest, cluster = tmp_path / "train/manifest.json", tmp_path / "cluster_model.json"
    config = tmp_path / "config.json"
    shutil.copytree(root / "data/train", tmp_path / "train")
    shutil.copy(root / "clust/cluster_model.json", cluster)
    shutil.copy(c, config)
    command, bad, argv = {
        "config": ("gen-data", config, []),
        "manifest": ("cluster", manifest, ["--data", str(manifest)]),
        "signal locations": (
            "cluster", tmp_path / "train/signal_locations.json", ["--data", str(manifest)]
        ),
        "cluster model": ("train", cluster, ["--data", str(manifest), "--cluster", str(cluster)]),
    }[case]
    assert bad.exists()
    bad.write_text(json.dumps(top))
    before = sorted(tmp_path.rglob("*"))
    code = main([command, "--config", str(config), "--out-dir", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


# Runs gen-data -> cluster -> train -> attn-map in one child process.
PIPELINE_CHILD = """
import sys
from crossmil.cli import main
config, out = sys.argv[1], sys.argv[2]
common = ["--config", config, "--seed", "5"]
steps = [
    ["gen-data", *common, "--out-dir", out + "/data"],
    ["cluster", *common, "--data", out + "/data/train/manifest.json", "--out-dir", out + "/clust"],
    ["train", *common, "--data", out + "/data/train/manifest.json",
     "--cluster", out + "/clust/cluster_model.json", "--out-dir", out + "/ckpt"],
    ["attn-map", *common, "--data", out + "/data/test/manifest.json",
     "--ckpt-dir", out + "/ckpt", "--out-dir", out + "/maps"],
]
for argv in steps:
    if main(argv) != 0:
        sys.exit(argv[0] + " failed")
"""


@pytest.mark.parametrize(
    "variant",
    [{}, {"attention_sharing": "per_scale", "attention_activation": "tanh", "pooling": "gated"}],
    ids=["default", "per_scale-tanh-gated"],
)
def test_outputs_identical_across_blas_thread_counts(tmp_path, variant):
    # widths and bags of 96 make the encoder matmuls (96, 64) @ (64, 96) and
    # (96, 96) @ (96, 96), above the size at which BLAS splits work over threads
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"n_train_per_class": 4, "n_test_per_class": 1, "n_locations": 96, "dim": 64},
        "cluster": {"k": 4},
        "model": {"encoder_dim": 96, "attention_hidden": 32, **variant},
        "train": {"epochs": 2, "learning_rate": 1e-3, "bag_size": 96, "n_splits": 2},
    }))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        child = subprocess.run(
            [sys.executable, "-c", PIPELINE_CHILD, str(config), str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert child.returncode == 0, child.stderr
        files = sorted(out.glob("ckpt/checkpoint_split*.bin"))
        files.append(out / "maps/attention_records.csv")
        outputs[threads] = {f.relative_to(out).as_posix(): f.read_bytes() for f in files}
    assert len(outputs["1"]) == 3
    assert outputs["1"] == outputs["2"]
    trained = load_checkpoint(sorted(tmp_path.glob("threads1/ckpt/checkpoint_split*.bin"))[0])
    assert all(getattr(trained.config, key) == value for key, value in variant.items())


# Runs `crossmil train` in a child process, on one CPU or on all usable ones.
TRAIN_CHILD = """
import os
import sys
from crossmil.cli import main
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two usable CPUs for a second training worker",
)
def test_outputs_identical_across_worker_counts(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **TINY,
        "data": {"n_train_per_class": 5, "n_test_per_class": 1, "n_locations": 12, "dim": 8},
        "train": {"epochs": 3, "learning_rate": 1e-3, "bag_size": 4, "n_splits": 3},
    }))
    common = ["--config", str(config), "--seed", "6"]
    train = str(tmp_path / "data/train/manifest.json")
    clust = str(tmp_path / "clust/cluster_model.json")
    assert main(["gen-data", *common, "--out-dir", str(tmp_path / "data")]) == 0
    assert main(["cluster", *common, "--data", train, "--out-dir", str(tmp_path / "clust")]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {}
    for cpus in ("one", "all"):
        out = tmp_path / cpus
        argv = ["train", *common, "--data", train, "--cluster", clust, "--out-dir", str(out)]
        child = subprocess.run(
            [sys.executable, "-c", TRAIN_CHILD, cpus, *argv],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert child.returncode == 0, child.stderr
        files = sorted([*out.glob("checkpoint_split*.bin"), *out.glob("loss_split*.csv")])
        outputs[cpus] = {f.name: f.read_bytes() for f in files}
    assert len(outputs["one"]) == 6
    assert outputs["one"] == outputs["all"]
