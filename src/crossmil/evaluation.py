"""Metrics, curves, split-ensemble scoring, and model-comparison tests.

AUC follows Mann-Whitney semantics (ties count one half); the paired
AUC comparison uses midrank structural components, and the metric
comparison uses a class-stratified bootstrap of the score vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import ClusterModel, assemble_bag, cluster_members, patient_rng
from .data import Dataset
from .errors import ConfigError, ContractError, MetricError
from .models import ModelParams, forward_bag


def _validate_scores(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ContractError(f"scores and labels must be 1-d and aligned, got {s.shape}, {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise ContractError("labels must be 0/1")
    return s, y.astype(np.int64)


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    order = np.argsort(x, kind="stable")
    z = x[order]
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i
        while j < len(x) and z[j] == z[i]:
            j += 1
        ranks[i:j] = 0.5 * (i + j - 1) + 1.0
        i = j
    out = np.empty(len(x), dtype=np.float64)
    out[order] = ranks
    return out


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative (ties half)."""
    s, y = _validate_scores(scores, labels)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC needs both classes present")
    ranks = _midranks(s)
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def average_precision(scores, labels) -> float:
    """Step-interpolated area under the precision-recall curve, ties grouped."""
    s, y = _validate_scores(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise MetricError("average precision needs at least one positive")
    tp, fp = _threshold_counts(s, y)
    recall = tp / n_pos
    terms = np.diff(recall, prepend=0.0) * (tp / (tp + fp))
    # a running sum adds the terms in threshold order, as a loop would
    return float(np.cumsum(terms)[-1])


def _threshold_counts(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (tp, fp) at each distinct score, scores descending."""
    order = np.argsort(-s, kind="stable")
    ranked = s[order]
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))  # last of each tie group
    tp = np.cumsum(y[order])[ends]
    return tp, ends + 1 - tp


def roc_points(scores, labels) -> list[tuple[float, float]]:
    s, y = _validate_scores(scores, labels)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("ROC needs both classes present")
    tp, fp = _threshold_counts(s, y)
    return [(0.0, 0.0), *zip((fp / n_neg).tolist(), (tp / n_pos).tolist())]


def pr_points(scores, labels) -> list[tuple[float, float]]:
    s, y = _validate_scores(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise MetricError("PR curve needs at least one positive")
    tp, fp = _threshold_counts(s, y)
    return list(zip((tp / n_pos).tolist(), (tp / (tp + fp)).tolist()))


@dataclass(frozen=True)
class DelongResult:
    auc_a: float
    auc_b: float
    z: float
    p_value: float
    degenerate: bool = False


def _structural_components(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Placement values per positive (V10) and per negative (V01), plus AUC."""
    pos, neg = s[y == 1], s[y == 0]
    m, n = len(pos), len(neg)
    tz = _midranks(np.concatenate([pos, neg]))
    tx = _midranks(pos)
    ty = _midranks(neg)
    v10 = (tz[:m] - tx) / n
    v01 = 1.0 - (tz[m:] - ty) / m
    return v10, v01, float(v10.mean())


def delong_test(scores_a, scores_b, labels) -> DelongResult:
    """Paired comparison of two AUCs over the same patients."""
    sa, y = _validate_scores(scores_a, labels)
    sb, y2 = _validate_scores(scores_b, labels)
    if not np.array_equal(y, y2):
        raise ContractError("both models must be scored on the same labels")
    if y.sum() == 0 or y.sum() == len(y):
        raise MetricError("DeLong test needs both classes present")
    v10a, v01a, auc_a = _structural_components(sa, y)
    v10b, v01b, auc_b = _structural_components(sb, y)
    m, n = len(v10a), len(v01a)
    s10 = np.cov(np.stack([v10a, v10b]), ddof=1) if m > 1 else np.zeros((2, 2))
    s01 = np.cov(np.stack([v01a, v01b]), ddof=1) if n > 1 else np.zeros((2, 2))
    cov = s10 / m + s01 / n
    var = cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1]
    if var <= 0.0:
        if auc_a == auc_b:
            return DelongResult(auc_a, auc_b, 0.0, 1.0)
        return DelongResult(auc_a, auc_b, math.inf, 0.0, degenerate=True)
    z = (auc_a - auc_b) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return DelongResult(auc_a, auc_b, z, p)


_METRICS = {"auc": auc, "ap": average_precision}


def bootstrap_test(scores_a, scores_b, labels, metric="ap", n_boot: int = 1000, seed: int = 0) -> float:
    """Two-tailed p-value for a paired metric difference under
    class-stratified resampling of patients."""
    if n_boot < 100:
        raise ContractError(f"n_boot must be >= 100, got {n_boot}")
    fn = _METRICS[metric] if isinstance(metric, str) else metric
    sa, y = _validate_scores(scores_a, labels)
    sb, y2 = _validate_scores(scores_b, labels)
    if not np.array_equal(y, y2):
        raise ContractError("both models must be scored on the same labels")
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    rng = np.random.default_rng(seed)
    diffs = np.empty(n_boot)
    for i in range(n_boot):
        idx = np.concatenate(
            [rng.choice(pos, size=len(pos)), rng.choice(neg, size=len(neg))]
        )
        diffs[i] = fn(sa[idx], y[idx]) - fn(sb[idx], y[idx])
    frac_le = max(int((diffs <= 0).sum()), 1) / n_boot
    frac_ge = max(int((diffs >= 0).sum()), 1) / n_boot
    return min(1.0, 2.0 * min(frac_le, frac_ge))


@dataclass(frozen=True)
class PairwiseTest:
    model_a: str
    model_b: str
    p_auc: float
    p_ap: float
    n_bootstrap: int
    seed: int


def compare_models(
    name_a: str, scores_a, name_b: str, scores_b, labels,
    n_boot: int = 1000, seed: int = 0,
) -> PairwiseTest:
    return PairwiseTest(
        name_a,
        name_b,
        p_auc=delong_test(scores_a, scores_b, labels).p_value,
        p_ap=bootstrap_test(scores_a, scores_b, labels, metric="ap", n_boot=n_boot, seed=seed),
        n_bootstrap=n_boot,
        seed=seed,
    )


@dataclass(frozen=True)
class ScoredPatient:
    patient_id: str
    label: int
    score: float  # P(class=1), averaged over split models
    predicted: int

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ContractError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class EvalReport:
    auc: float
    ap: float
    accuracy: float
    roc_curve: tuple[tuple[float, float], ...]
    pr_curve: tuple[tuple[float, float], ...]
    n_pos: int
    n_neg: int


def score_patients(
    models: list[ModelParams],
    dataset: Dataset,
    cluster_model: ClusterModel,
    bag_size: int = 8,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Per-model P(class=1) for every patient; bags are fixed by the eval seed.

    Each model runs with its own config. Returns (scores[model, patient],
    labels, patient_ids).
    """
    if not models:
        raise ConfigError("no trained models to evaluate")
    for params in models:
        if params.config.n_clusters != cluster_model.k:
            raise ConfigError(
                f"model has {params.config.n_clusters} clusters, "
                f"cluster model has {cluster_model.k}"
            )
    bags = {
        p.patient_id: assemble_bag(
            p,
            cluster_members(p, cluster_model.label(p), cluster_model.k),
            bag_size,
            patient_rng((seed,), p.patient_id),
        )
        for p in dataset
    }
    ids = [p.patient_id for p in dataset]
    labels = np.array([p.label for p in dataset], dtype=np.int64)
    scores = np.empty((len(models), len(ids)))
    for mi, params in enumerate(models):
        for pi, pid in enumerate(ids):
            log_probs = forward_bag(bags[pid], params)
            scores[mi, pi] = math.exp(float(log_probs.data.reshape(-1)[1]))
    return scores, labels, ids


def report_from_scores(scores, labels) -> EvalReport:
    s, y = _validate_scores(scores, labels)
    predicted = (s >= 0.5).astype(np.int64)
    return EvalReport(
        auc=auc(s, y),
        ap=average_precision(s, y),
        accuracy=float((predicted == y).mean()),
        roc_curve=tuple(roc_points(s, y)),
        pr_curve=tuple(pr_points(s, y)),
        n_pos=int(y.sum()),
        n_neg=int(len(y) - y.sum()),
    )


def evaluate(
    models: list[ModelParams],
    dataset: Dataset,
    cluster_model: ClusterModel,
    bag_size: int = 8,
    seed: int = 0,
    mode: str = "ensemble",
) -> tuple[EvalReport, list[ScoredPatient]]:
    """Score the test set and compute metrics.

    ``ensemble`` (default) averages P(class=1) over the split models and
    reports metrics of the pooled scores; ``per_split`` reports the mean
    of per-model metrics (scores still come back pooled).
    """
    if mode not in ("ensemble", "per_split"):
        raise ConfigError(f"mode must be 'ensemble' or 'per_split', got {mode!r}")
    per_model, labels, ids = score_patients(models, dataset, cluster_model, bag_size, seed)
    pooled = per_model.mean(axis=0)
    scored = [
        ScoredPatient(pid, int(lab), float(sc), int(sc >= 0.5))
        for pid, lab, sc in zip(ids, labels, pooled)
    ]
    if mode == "ensemble":
        return report_from_scores(pooled, labels), scored
    reports = [report_from_scores(per_model[i], labels) for i in range(len(models))]
    mean_report = EvalReport(
        auc=float(np.mean([r.auc for r in reports])),
        ap=float(np.mean([r.ap for r in reports])),
        accuracy=float(np.mean([r.accuracy for r in reports])),
        roc_curve=tuple(roc_points(pooled, labels)),
        pr_curve=tuple(pr_points(pooled, labels)),
        n_pos=reports[0].n_pos,
        n_neg=reports[0].n_neg,
    )
    return mean_report, scored


# --- file outputs ----------------------------------------------------------


def write_report(report: EvalReport, path: str | Path) -> Path:
    path = Path(path)
    lines = [
        f"auc={report.auc!r}",
        f"ap={report.ap!r}",
        f"accuracy={report.accuracy!r}",
        f"n_pos={report.n_pos}",
        f"n_neg={report.n_neg}",
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_curves(report: EvalReport, out_dir: str | Path) -> tuple[Path, Path]:
    out = Path(out_dir)
    roc = out / "roc.csv"
    roc.write_text(
        "fpr,tpr\n" + "".join(f"{f!r},{t!r}\n" for f, t in report.roc_curve)
    )
    pr = out / "pr.csv"
    pr.write_text(
        "recall,precision\n" + "".join(f"{r!r},{p!r}\n" for r, p in report.pr_curve)
    )
    return roc, pr


def write_scores(scored: list[ScoredPatient], path: str | Path) -> Path:
    path = Path(path)
    lines = ["patient_id,label,score,predicted"]
    lines += [f"{s.patient_id},{s.label},{s.score!r},{s.predicted}" for s in scored]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_scores(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "patient_id,label,score,predicted":
        raise ContractError(f"{path}: not a scores CSV")
    ids, labels, scores = [], [], []
    for line in lines[1:]:
        pid, lab, sc, _ = line.split(",")
        ids.append(pid)
        labels.append(int(lab))
        scores.append(float(sc))
    return ids, np.asarray(labels, dtype=np.int64), np.asarray(scores)
