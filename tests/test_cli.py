import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import to_csv_store

from crossmil.checkpoint import load_checkpoint, save_checkpoint
from crossmil.cli import _load_checkpoints, main, model_config
from crossmil.clustering import load_cluster_model
from crossmil.data import load_dataset
from crossmil.evaluation import evaluate, write_scores
from crossmil.models import init_params

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


@pytest.fixture(scope="module")
def concat_ckpt(workspace):
    root, c = workspace
    out = root / "ckpt_concat"
    assert main([
        "train", "--config", c, "--data", str(root / "data/train/manifest.json"),
        "--cluster", str(root / "clust/cluster_model.json"),
        "--out-dir", str(out), "--seed", "3", "--fusion", "concat",
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

    @pytest.mark.parametrize("fusion", ["cs-attn", "concat", "add"])
    def test_fusion_flags_accepted(self, workspace, tmp_path, fusion):
        root, c = workspace
        code = main([
            "train", "--config", c, "--data", str(root / "data/train/manifest.json"),
            "--cluster", str(root / "clust/cluster_model.json"),
            "--out-dir", str(tmp_path / fusion), "--seed", "3", "--fusion", fusion,
        ])
        assert code == 0

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
        # what `eval --fusion concat` computed when the config came from flags
        config = json.loads((concat_ckpt / "resolved_config.json").read_text())
        test = load_dataset(root / "data/test/manifest.json")
        cluster = load_cluster_model(root / "clust/cluster_model.json")
        cfg = model_config(config, test, cluster.k)
        assert cfg.fusion == "concat"
        models = []
        for path in sorted(concat_ckpt.glob("checkpoint_split*.bin")):
            params = init_params(cfg, seed=0)
            params.load_values(load_checkpoint(path).copy_values())
            models.append(params)
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
            "train", "--config", c, "--data", str(root / "data/train/manifest.json"),
            "--cluster", str(root / "clust/cluster_model.json"), "--out-dir", str(tmp_path / "t"),
            "--seed", "3", "--fusion", "single-scale", "--scale-index", "2",
        ]) == 0
        assert run_eval(root, c, tmp_path / "t", tmp_path / "eval") == 0
        assert (tmp_path / "eval/scores.csv").exists()

    @pytest.mark.parametrize("flag", [["--fusion", "concat"], ["--scale-index", "1"]])
    def test_model_flags_are_train_only(self, workspace, tmp_path, flag):
        root, c = workspace
        with pytest.raises(SystemExit) as exc:
            main([
                "eval", "--config", c, "--data", str(root / "data/test/manifest.json"),
                "--cluster", str(root / "clust/cluster_model.json"),
                "--ckpt-dir", str(root / "ckpt"), "--out-dir", str(tmp_path / "out"), *flag,
            ])
        assert exc.value.code == 2

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
            np.testing.assert_array_equal(params["classifier.w"].data, expected["classifier.w"].data)

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

    def test_single_entry_rejected(self, workspace, tmp_path):
        _, c = workspace
        code = main([
            "compare", "--config", c, "--out-dir", str(tmp_path),
            "--scores", "only=/nonexistent.csv",
        ])
        assert code in (2, 3)


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

    def test_concat_model_has_no_attention(self, workspace, tmp_path, capsys):
        root, c = workspace
        concat_dir = tmp_path / "concat_ckpt"
        main([
            "train", "--config", c, "--data", str(root / "data/train/manifest.json"),
            "--cluster", str(root / "clust/cluster_model.json"),
            "--out-dir", str(concat_dir), "--seed", "3", "--fusion", "concat",
        ])
        config = tmp_path / "concat.json"
        doc = json.loads((concat_dir / "resolved_config.json").read_text())
        config.write_text(json.dumps(doc))
        code = main([
            "attn-map", "--config", str(config),
            "--data", str(root / "data/test/manifest.json"),
            "--ckpt-dir", str(concat_dir), "--out-dir", str(tmp_path / "maps"),
        ])
        assert code == 2
        assert "no cross-scale attention" in capsys.readouterr().err

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


def test_csv_dataset_and_its_npy_twin_give_identical_outputs(workspace, tmp_path):
    root, c = workspace
    shutil.copytree(root / "data", tmp_path / "csv")
    for part in ("train", "test"):
        to_csv_store(tmp_path / "csv" / part / "manifest.json")
    assert {f.suffix for f in (tmp_path / "csv/train").iterdir()} == {".csv", ".json"}
    trees = {}
    for store, data in (("npy", root / "data"), ("csv", tmp_path / "csv")):
        out = tmp_path / f"out_{store}"
        common = ["--config", c, "--seed", "3"]
        train, test = str(data / "train/manifest.json"), str(data / "test/manifest.json")
        clust, ckpt = str(out / "cluster/cluster_model.json"), str(out / "train")
        for argv in (
            ["cluster", "--data", train, "--out-dir", str(out / "cluster")],
            ["train", "--data", train, "--cluster", clust, "--out-dir", ckpt],
            ["eval", "--data", test, "--cluster", clust, "--ckpt-dir", ckpt,
             "--out-dir", str(out / "eval")],
            ["attn-map", "--data", test, "--ckpt-dir", ckpt, "--out-dir", str(out / "maps")],
        ):
            assert main([*argv, *common]) == 0
        files = [f for f in out.rglob("*") if f.is_file()]
        trees[store] = {f.relative_to(out).as_posix(): f.read_bytes() for f in files}
    assert len(trees["npy"]) > 10
    assert trees["csv"] == trees["npy"]


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
