"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The signal-recovery spec
(criteria 5-7) is E=32, S=3, signal at one scale with strength 5x the
noise level, half the locations planted, 40 train patients per class,
50 locations, bag size 8, k=8 clusters.
"""

import json
import math
import time

import numpy as np
import pytest

from crossmil.cli import main
from crossmil.clustering import cluster_dataset, kmeans
from crossmil.data import SyntheticSpec, generate_synthetic, split_train_test
from crossmil.errors import ContractError
from crossmil.evaluation import (
    _structural_components,
    auc,
    average_precision,
    delong_test,
)
from crossmil.experiments import bag_size_ablation, train_and_evaluate, write_ablation_csv
from crossmil.models import (
    ModelConfig,
    ModelParams,
    _attend,
    _attend_backward,
    _classify,
    _classify_backward,
    _encode,
    _encode_backward,
    _fuse_scales,
    _nll,
    _nll_backward,
    _pool,
    _pool_backward,
    attention_records,
    init_params,
)
from crossmil.training import TrainConfig
from helpers import central_difference, param_views, relative_error

SIGNAL_SEEDS = (0, 1, 2)


def _pass(criterion, detail):
    print(f"\n[criterion {criterion:2d}] PASS: {detail}")


@pytest.fixture(scope="module")
def signal_runs():
    """Trained cross-scale attention models on the separable spec, 3 seeds."""
    runs = []
    for seed in SIGNAL_SEEDS:
        start = time.perf_counter()
        spec = SyntheticSpec(
            n_patients_per_class=55, n_locations=50, dim=32, n_scales=3,
            informative_scale=0, signal_fraction=0.5,
            signal_strength=1.0, noise_level=0.2, seed=seed,
        )
        train, test = split_train_test(generate_synthetic(spec), 15)
        cluster_model = cluster_dataset(train, "5x", 8, seed=seed)
        model_cfg = ModelConfig(
            embed_dim=32, encoder_dim=64, attention_hidden=32,
            n_clusters=8, n_scales=3,
        )
        train_cfg = TrainConfig(
            epochs=20, learning_rate=1e-3, bag_size=8, n_splits=2, seed=seed
        )
        report, _, models = train_and_evaluate(
            train, test, cluster_model, model_cfg, train_cfg
        )
        runs.append(
            dict(
                seed=seed, spec=spec, train=train, test=test,
                cluster_model=cluster_model, model_cfg=model_cfg,
                train_cfg=train_cfg, report=report, models=models,
                elapsed=time.perf_counter() - start,
            )
        )
    return runs


def test_c01_gradient_suite_all_layers_20_seeds():
    """Each layer's backward kernel against central differences of its
    forward kernel, for every parameter the layer reads."""
    start = time.perf_counter()
    worst = 0.0

    def error(params, prefix, loss, backward):
        """Worst relative error over the parameters named ``prefix``...
        between the slots ``backward(slots)`` writes and central
        differences of ``loss()``."""
        grad = ModelParams(params.config, np.zeros_like(params.flat))
        backward(grad.layers)
        values, slots = param_views(params), param_views(grad)
        names = [n for n in params.names() if n.startswith(prefix)]
        numeric = central_difference(loss, [values[n] for n in names])
        return max(relative_error(slots[n], num) for n, num in zip(names, numeric))

    for seed in range(20):
        rng = np.random.default_rng(seed)

        # MI-FCN encoder
        cfg = ModelConfig(embed_dim=4, encoder_dim=3, attention_hidden=2,
                          n_clusters=2, n_scales=3)
        params = init_params(cfg, seed=seed)
        enc = params.layers.encoder
        # one draw each, fed to every scale's encoder
        x = np.tile(rng.uniform(-2, 2, (4, 1)), (3, 1, 1))
        probe = np.tile(rng.uniform(-1, 1, (3, 1)), (3, 1, 1))
        worst = max(worst, error(
            params, "encoder",
            lambda: float((_encode(x, enc)[0] * probe).sum()),
            lambda slots: _encode_backward(probe, x, _encode(x, enc)[1], enc, slots.encoder),
        ))

        # cross-scale attention, all four design variants
        for sharing in ("shared", "per_scale"):
            for activation in ("tanh", "relu"):
                vcfg = ModelConfig(
                    embed_dim=4, encoder_dim=3, attention_hidden=2, n_clusters=2,
                    n_scales=3, attention_sharing=sharing,
                    attention_activation=activation,
                )
                vparams = init_params(vcfg, seed=seed + 100)
                attn, tanh = vparams.layers.attention, activation == "tanh"
                fs = rng.uniform(-2, 2, (3, 3, 1))
                vprobe = rng.uniform(-1, 1, (3, 1))

                def attn_loss():
                    return float((_fuse_scales(fs, _attend(fs, *attn, tanh)[0]) * vprobe).sum())

                def attn_backward(slots):
                    saved = _attend(fs, *attn, tanh)
                    _attend_backward(vprobe, fs, saved, attn, tanh, slots.attention)

                worst = max(worst, error(vparams, "attn", attn_loss, attn_backward))

        # attention pooling, plain and gated
        for pooling in ("plain", "gated"):
            pcfg = ModelConfig(embed_dim=4, encoder_dim=3, attention_hidden=2,
                               n_clusters=2, n_scales=3, pooling=pooling)
            pparams = init_params(pcfg, seed=seed + 200)
            pool = pparams.layers.pool
            items = np.hstack([rng.uniform(-2, 2, (3, 1)) for _ in range(4)])
            pprobe = rng.uniform(-1, 1, (3, 1))
            one_pool = np.ones((1, 4), dtype=bool)

            def pool_loss():
                return float((_pool(items, one_pool, *pool)[0] * pprobe).sum())

            def pool_backward(slots):
                saved = _pool(items, one_pool, *pool)[1:]
                _pool_backward(pprobe, items, saved, pool, slots.pool)

            worst = max(worst, error(pparams, "pool", pool_loss, pool_backward))

        # classifier head through log-softmax and NLL
        ccfg = ModelConfig(embed_dim=4, encoder_dim=3, attention_hidden=2,
                           n_clusters=2, n_scales=3)
        cparams = init_params(ccfg, seed=seed + 300)
        clf = cparams.layers.classifier
        z = rng.uniform(-2, 2, (2 * 3, 1))
        label = int(rng.integers(2))
        pooled = z.reshape(2, 3).T.copy()  # the (F, K) pools whose column z is

        def clf_loss():
            return float(_nll(_classify(pooled, clf)[0], label)[0])

        def clf_backward(slots):
            saved = _classify(pooled, clf)
            g = _nll_backward(np.ones(()), _nll(saved[0], label)[1])
            _classify_backward(g, saved, pooled.shape, clf, slots.classifier)

        worst = max(worst, error(cparams, "classifier", clf_loss, clf_backward))

    elapsed = time.perf_counter() - start
    assert worst <= 1e-4, f"worst relative gradient error {worst}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    _pass(1, f"worst relative gradient error {worst:.2e} across 20 seeds in {elapsed:.1f}s")


def test_c02_attention_scores_normalize():
    cfg = ModelConfig(embed_dim=8, encoder_dim=6, attention_hidden=4,
                      n_clusters=2, n_scales=3)
    params = init_params(cfg, seed=7)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        scores = _attend(rng.uniform(-2, 2, (3, 6, 1)), *params.layers.attention, False)[0]
        worst = max(worst, abs(scores.sum() - 1.0))
        assert (scores > 0).all()
    assert worst <= 1e-9

    param_views(params)["attn.w"][...] = np.zeros((4, 1))
    for _ in range(100):
        scores = _attend(rng.uniform(-2, 2, (3, 6, 1)), *params.layers.attention, False)[0]
        assert np.abs(scores - 1.0 / 3.0).max() <= 1e-12
    _pass(2, f"1000 instances sum to 1 within {worst:.1e}; zero kernel is uniform to 1e-12")


def test_c03_metric_oracles():
    rng = np.random.default_rng(33)

    def pair_counting(scores, labels):
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum(1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg)
        return wins / (len(pos) * len(neg))

    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        scores = rng.uniform(0, 1, size=n)
        if checked % 2 == 0:
            scores = np.round(scores, 1)  # heavy ties half the time
        assert auc(scores, labels) == pair_counting(scores, labels)
        checked += 1

    assert average_precision([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(5 / 6, abs=1e-15)
    assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert average_precision(np.linspace(1, 0.1, 8), [0] * 7 + [1]) == pytest.approx(1 / 8)

    def psi(x, y):
        return 1.0 if x > y else (0.5 if x == y else 0.0)

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 13))
        labels = np.r_[1, 0, rng.integers(0, 2, n - 2)]
        scores = np.round(rng.uniform(0, 1, n), 1)
        v10, v01, auc_value = _structural_components(scores.astype(float), labels)
        pos, neg = scores[labels == 1], scores[labels == 0]
        v10_oracle = np.array([np.mean([psi(p, q) for q in neg]) for p in pos])
        v01_oracle = np.array([np.mean([psi(p, q) for p in pos]) for q in neg])
        worst = max(
            worst,
            np.abs(v10 - v10_oracle).max(),
            np.abs(v01 - v01_oracle).max(),
            abs(auc_value - v10_oracle.mean()),
        )
    assert worst <= 1e-12
    _pass(3, f"AUC exact on 500 instances; AP cases exact; DeLong components within {worst:.1e}")


def test_c04_null_behavior():
    # no planted signal: interpret the band as holding for the mean AUC
    # over the 5 seeds (a single 20v20 test split has null sd ~0.09)
    aucs = []
    for seed in range(5):
        spec = SyntheticSpec(
            n_patients_per_class=32, n_locations=12, dim=16,
            signal_strength=0.0, noise_level=0.2, seed=seed,
        )
        train, test = split_train_test(generate_synthetic(spec), 20)
        cluster_model = cluster_dataset(train, "5x", 8, seed=seed)
        model_cfg = ModelConfig(embed_dim=16, encoder_dim=32, attention_hidden=16,
                                n_clusters=8, n_scales=3)
        train_cfg = TrainConfig(epochs=10, learning_rate=1e-3, bag_size=8,
                                n_splits=2, seed=seed)
        report, _, _ = train_and_evaluate(train, test, cluster_model, model_cfg, train_cfg)
        aucs.append(report.auc)
    mean_auc = float(np.mean(aucs))
    assert 0.35 <= mean_auc <= 0.65, f"null AUCs {aucs}"

    rng = np.random.default_rng(0)
    labels = np.r_[np.ones(20, dtype=int), np.zeros(20, dtype=int)]
    scores = rng.uniform(0, 1, 40)
    self_test = delong_test(scores, scores, labels)
    assert self_test.p_value == 1.0 and self_test.z == 0.0
    _pass(4, f"mean null AUC {mean_auc:.3f} over 5 seeds (per-seed {np.round(aucs, 3)}); "
             "DeLong self-comparison p=1")


def test_c05_signal_recovery(signal_runs):
    for run in signal_runs:
        assert run["report"].auc >= 0.95, f"seed {run['seed']}: AUC {run['report'].auc}"
        assert run["elapsed"] < 300.0, f"seed {run['seed']}: {run['elapsed']:.0f}s"
    aucs = [round(r["report"].auc, 4) for r in signal_runs]
    times = [round(r["elapsed"], 1) for r in signal_runs]
    _pass(5, f"test AUC {aucs} over 3 seeds, {times}s per seed")


def test_c06_scale_localization(signal_runs):
    informative = signal_runs[0]["spec"].informative_scale
    hits = 0
    summaries = []
    for run in signal_runs:
        test = run["test"]
        positives = [p.patient_id for p in test if p.label == 1]
        planted = {
            (p.patient_id, loc) for p in test if p.label == 1 for loc in p.signal_locations
        }
        per_model = []
        for model in run["models"]:
            records = attention_records(test, model.params, patients=positives)
            rows = [r.scores for r in records if (r.patient_id, r.location_id) in planted]
            per_model.append(np.mean(rows, axis=0))
        means = np.mean(per_model, axis=0)
        others = [means[s] for s in range(3) if s != informative]
        ok = means[informative] > 1 / 3 + 0.10 and all(means[informative] > o for o in others)
        hits += ok
        summaries.append(np.round(means, 3).tolist())
    assert hits >= 2, f"localization held in only {hits}/3 seeds: {summaries}"
    _pass(6, f"planted-scale attention means {summaries}; localized in {hits}/3 seeds")


def test_c07_ordering_reproduction(signal_runs):
    informative = signal_runs[0]["spec"].informative_scale
    noninformative = [s for s in range(3) if s != informative]
    baseline_aucs = {f"single{s}": [] for s in noninformative}
    baseline_aucs.update({"concat": [], "add": []})
    for run in signal_runs:
        variants = [(f"single{s}", "single_scale", s) for s in noninformative]
        variants += [("concat", "concat", None), ("add", "add", None)]
        for name, fusion, scale_index in variants:
            cfg = ModelConfig(
                embed_dim=32, encoder_dim=64, attention_hidden=32, n_clusters=8,
                n_scales=3, fusion=fusion, scale_index=scale_index,
            )
            report, _, _ = train_and_evaluate(
                run["train"], run["test"], run["cluster_model"], cfg, run["train_cfg"]
            )
            baseline_aucs[name].append(report.auc)

    cs_mean = float(np.mean([r["report"].auc for r in signal_runs]))
    means = {name: float(np.mean(v)) for name, v in baseline_aucs.items()}
    for s in noninformative:
        assert cs_mean >= means[f"single{s}"] + 0.15, (
            f"single-scale {s}: {means[f'single{s}']:.3f} vs cross-scale {cs_mean:.3f}"
        )
    assert cs_mean >= means["concat"] - 0.02
    assert cs_mean >= means["add"] - 0.02
    _pass(7, f"cross-scale mean AUC {cs_mean:.3f} vs " +
             ", ".join(f"{k}={v:.3f}" for k, v in means.items()))


def test_c08_bag_size_ablation_harness(tmp_path):
    spec = SyntheticSpec(n_patients_per_class=7, n_locations=9, dim=8, seed=2)
    train, test = split_train_test(generate_synthetic(spec), 3)
    cluster_model = cluster_dataset(train, "5x", 3, seed=2)
    model_cfg = ModelConfig(embed_dim=8, encoder_dim=8, attention_hidden=4,
                            n_clusters=3, n_scales=3)
    train_cfg = TrainConfig(epochs=2, learning_rate=1e-3, bag_size=8, n_splits=2, seed=2)
    rows = bag_size_ablation(
        train, test, cluster_model, model_cfg, train_cfg, bag_sizes=(1, 8, 16, 64)
    )
    path = write_ablation_csv(rows, tmp_path / "bag_sizes.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "bag_size,auc,ap,accuracy"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "8", "16", "64"]
    assert all(0.0 <= float(line.split(",")[1]) <= 1.0 for line in lines[1:])
    _pass(8, f"bag sizes 1/8/16/64 completed; CSV at {path.name}")


def test_c09_pipeline_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"n_train_per_class": 4, "n_test_per_class": 2, "n_locations": 9, "dim": 8},
        "cluster": {"k": 3},
        "model": {"encoder_dim": 8, "attention_hidden": 4},
        "train": {"epochs": 2, "learning_rate": 1e-3, "bag_size": 4, "n_splits": 2},
    }))
    outputs = []
    for tag in ("run1", "run2"):
        base = tmp_path / tag
        c = str(config)
        assert main(["gen-data", "--config", c, "--out-dir", str(base / "data"), "--seed", "4"]) == 0
        assert main(["cluster", "--config", c, "--data", str(base / "data/train/manifest.json"),
                     "--out-dir", str(base / "clust"), "--seed", "4"]) == 0
        assert main(["train", "--config", c, "--data", str(base / "data/train/manifest.json"),
                     "--cluster", str(base / "clust/cluster_model.json"),
                     "--out-dir", str(base / "ckpt"), "--seed", "4"]) == 0
        assert main(["eval", "--config", c, "--data", str(base / "data/test/manifest.json"),
                     "--cluster", str(base / "clust/cluster_model.json"),
                     "--ckpt-dir", str(base / "ckpt"), "--out-dir", str(base / "eval"),
                     "--seed", "4"]) == 0
        assert main(["attn-map", "--config", c, "--data", str(base / "data/test/manifest.json"),
                     "--ckpt-dir", str(base / "ckpt"), "--out-dir", str(base / "maps"),
                     "--seed", "4"]) == 0
        tree = {
            str(f.relative_to(base)): f.read_bytes()
            for f in sorted(base.rglob("*")) if f.is_file()
        }
        outputs.append(tree)
    assert outputs[0].keys() == outputs[1].keys()
    diffs = [name for name in outputs[0] if outputs[0][name] != outputs[1][name]]
    assert not diffs, f"outputs differ: {diffs}"
    _pass(9, f"{len(outputs[0])} output files byte-identical across reruns "
             "(checkpoints, curves, reports, heatmaps)")


def test_c10_kmeans_contracts():
    rng = np.random.default_rng(99)
    for trial in range(100):
        n = int(rng.integers(10, 50))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(6, n)))
        x = rng.uniform(-3, 3, size=(n, d))
        hist = kmeans(x, k, seed=trial).sse_history
        assert all(later <= earlier + 1e-9 for earlier, later in zip(hist, hist[1:])), (
            f"trial {trial}: SSE increased"
        )

    blob_a = rng.normal([0, 0, 0], 0.05, size=(25, 3))
    blob_b = rng.normal([8, 8, 8], 0.05, size=(25, 3))
    result = kmeans(np.vstack([blob_a, blob_b]), k=2, seed=1)
    assert len(set(result.labels[:25])) == 1
    assert len(set(result.labels[25:])) == 1
    assert set(result.labels[:25]) != set(result.labels[25:])
    _pass(10, "SSE non-increasing on 100 random datasets; two-blob recovery exact")
