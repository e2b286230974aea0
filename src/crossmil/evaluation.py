"""Metrics, curves, split-ensemble scoring, and model-comparison tests.

AUC follows Mann-Whitney semantics (ties count one half); the paired
AUC comparison uses midrank structural components, and the metric
comparison uses a class-stratified bootstrap of the score vectors.

AUC, AP and the curves come from row-wise kernels over the tie groups of
the scores: cumulative (tp, n) counts at each group's end, one row per
weighting of the patients. A 1-d metric is the one-row case with unit
weights. The bootstrap scores its replicates a block at a time, each row
a replicate's multiplicities, with the block's size capped so memory does
not grow with the replicate count. Its random stream is unchanged: per
replicate, one draw for the positives and then one for the negatives.
Every replicate's value is bit-identical to scoring its resampled
vectors one by one, because the AP terms are summed in threshold order
(absent groups add 0.0) and the AUC rank sums are exact half-integers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import ClusterModel, assemble_bag, patient_rng
from .data import Dataset
from .errors import ConfigError, ContractError, FormatError, MetricError, check_choice, read_text
from .models import ModelParams, forward_bags

EVAL_MODES = ("ensemble", "per_split")


def _validate_scores(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ContractError(f"scores and labels must be 1-d and aligned, got {s.shape}, {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise ContractError("labels must be 0/1")
    if np.isnan(s).any():
        # NaN has no place in a ranking; sorts would put it at one end or the other
        raise ContractError("scores must not be NaN")
    return s, y.astype(np.int64)


def _tie_groups(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable descending order of ``s`` and the last position of each tie group in it."""
    order = np.argsort(-s, kind="stable")
    ranked = s[order]
    last = np.ones(len(s), dtype=bool)
    last[:-1] = ranked[1:] != ranked[:-1]
    return order, np.flatnonzero(last)


def _group_counts(groups, y: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise cumulative (tp, n) at the end of each tie group, scores descending.

    ``groups`` is ``_tie_groups`` of the scores and ``weights[r, i]`` is how
    often patient ``i`` occurs in row ``r``, so a resampled replicate is
    counted without sorting it. A group absent from a row adds nothing.
    """
    order, ends = groups
    w = weights[:, order]
    tp = np.cumsum(w * y[order], axis=1)[:, ends]
    n = np.cumsum(w, axis=1)[:, ends]
    return tp, n


def _group_midranks(n: np.ndarray) -> np.ndarray:
    """Ascending 1-based midrank of each tie group, from descending cumulative counts.

    Midranks are half-integers, so sums of them are exact in any order.
    """
    size = np.diff(n, axis=-1, prepend=0)
    return (n[..., -1:] - n) + 0.5 * (size + 1)


def _auc_rows(tp: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Row-wise AUC from ``_group_counts``: the Mann-Whitney rank sum."""
    n_pos, n_neg = tp[:, -1], n[:, -1] - tp[:, -1]
    rank_sum = (_group_midranks(n) * np.diff(tp, axis=1, prepend=0)).sum(axis=1)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _ap_rows(tp: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Row-wise step-interpolated AP from ``_group_counts``."""
    recall = tp / tp[:, -1:]
    # a group absent from a row repeats the recall before it: its term is 0.0
    terms = np.diff(recall, axis=1, prepend=0.0) * (tp / np.maximum(n, 1))
    # a running sum adds the terms in threshold order, as a loop would, and
    # adding 0.0 leaves it unchanged
    return np.cumsum(terms, axis=1)[:, -1]


def _one_row(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_group_counts`` of one unresampled score vector."""
    return _group_counts(_tie_groups(s), y, np.ones((1, len(s)), dtype=np.int64))


def _require_classes(metric: str, y: np.ndarray) -> None:
    n_pos = int(y.sum())
    if metric == "auc" and n_pos in (0, len(y)):
        raise MetricError("AUC needs both classes present")
    if metric == "ap" and n_pos == 0:
        raise MetricError("average precision needs at least one positive")


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    order, ends = _tie_groups(x)
    n = ends + 1
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat(_group_midranks(n), np.diff(n, prepend=0))
    return ranks


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative (ties half)."""
    s, y = _validate_scores(scores, labels)
    _require_classes("auc", y)
    return float(_auc_rows(*_one_row(s, y))[0])


def average_precision(scores, labels) -> float:
    """Step-interpolated area under the precision-recall curve, ties grouped."""
    s, y = _validate_scores(scores, labels)
    _require_classes("ap", y)
    return float(_ap_rows(*_one_row(s, y))[0])


def _threshold_counts(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (tp, fp) at each distinct score, scores descending."""
    tp, n = _one_row(s, y)
    return tp[0], n[0] - tp[0]


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
        return DelongResult(auc_a, auc_b, math.inf, 0.0)
    z = (auc_a - auc_b) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return DelongResult(auc_a, auc_b, z, p)


# Resampled patients scored at once. It bounds the working set of a block
# (a few int64 and float64 arrays of this many elements) whatever n_boot is.
_BLOCK_ELEMENTS = 8192


def _replicate_diffs(sa, sb, y, metric: str, n_boot: int, seed: int) -> np.ndarray:
    """metric(a) - metric(b) on each of ``n_boot`` class-stratified replicates."""
    _require_classes(metric, y)
    # patients reordered positives first, so a replicate's draws index them directly
    patients = np.concatenate([np.flatnonzero(y == 1), np.flatnonzero(y == 0)])
    n_pos, n = int(y.sum()), len(y)
    y = y[patients]
    groups_a, groups_b = _tie_groups(sa[patients]), _tie_groups(sb[patients])
    kernel = _auc_rows if metric == "auc" else _ap_rows
    rng = np.random.default_rng(seed)
    rows = max(1, _BLOCK_ELEMENTS // n)
    diffs = np.empty(n_boot)
    for start in range(0, n_boot, rows):
        block = min(rows, n_boot - start)
        draws = np.empty((block, n), dtype=np.int64)
        for r in range(block):
            draws[r, :n_pos] = rng.integers(0, n_pos, size=n_pos)
            draws[r, n_pos:] = rng.integers(0, n - n_pos, size=n - n_pos)
        draws[:, n_pos:] += n_pos
        draws += np.arange(block)[:, None] * n
        weights = np.bincount(draws.ravel(), minlength=block * n).reshape(block, n)
        diffs[start:start + block] = (
            kernel(*_group_counts(groups_a, y, weights))
            - kernel(*_group_counts(groups_b, y, weights))
        )
    return diffs


def bootstrap_test(scores_a, scores_b, labels, metric="ap", n_boot: int = 1000, seed: int = 0) -> float:
    """Two-tailed p-value for a paired metric difference under
    class-stratified resampling of patients.

    Each replicate draws the positives, then the negatives, with
    replacement. Replicates are scored a block at a time by the row-wise
    kernels; every replicate's difference equals that of scoring its
    resampled vectors one by one with ``auc`` or ``average_precision``.
    """
    if metric not in ("auc", "ap"):
        raise ContractError(f"metric must be 'auc' or 'ap', got {metric!r}")
    if isinstance(n_boot, bool) or not isinstance(n_boot, (int, np.integer)) or n_boot < 100:
        raise ContractError(f"n_boot must be an integer >= 100, got {n_boot!r}")
    sa, y = _validate_scores(scores_a, labels)
    sb, y2 = _validate_scores(scores_b, labels)
    if not np.array_equal(y, y2):
        raise ContractError("both models must be scored on the same labels")
    diffs = _replicate_diffs(sa, sb, y, metric, n_boot, seed)
    frac_le = max(int((diffs <= 0).sum()), 1) / n_boot
    frac_ge = max(int((diffs >= 0).sum()), 1) / n_boot
    return min(1.0, 2.0 * min(frac_le, frac_ge))


@dataclass(frozen=True)
class ScoredPatient:
    patient_id: str
    label: int
    score: float  # P(class=1), averaged over split models

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ContractError(f"score must be in [0, 1], got {self.score}")

    @property
    def predicted(self) -> int:
        return int(self.score >= 0.5)


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
    bags = [
        assemble_bag(p, cluster_model.label(p), bag_size, patient_rng((seed,), p.patient_id))
        for p in dataset
    ]
    ids = [p.patient_id for p in dataset]
    labels = np.array([p.label for p in dataset], dtype=np.int64)
    scores = np.empty((len(models), len(ids)))
    for mi, params in enumerate(models):
        # math.exp, not np.exp: the two may round differently
        scores[mi] = [math.exp(lp) for lp in forward_bags(bags, params)[:, 1].tolist()]
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


def comparison_table(
    score_sets: list[tuple[str, np.ndarray]],
    labels,
    reference: str,
    n_boot: int = 1000,
    seed: int = 0,
) -> str:
    """The comparison CSV: one row per named score set, in the order given.

    Each row has the set's AUC, AP and accuracy on ``labels``; each row
    but the reference's adds the DeLong (AUC) and bootstrap (AP) p-values
    against it, and the reference's p-value fields are empty.
    """
    names = [name for name, _ in score_sets]
    repeated = [name for name, n in Counter(names).items() if n > 1]
    if repeated:
        raise ConfigError(f"score set name(s) repeated: {', '.join(map(repr, repeated))}")
    if reference not in names:
        raise ConfigError(f"reference {reference!r} is not among the score sets {names}")
    ref_scores = dict(score_sets)[reference]
    lines = ["model,auc,ap,acc,p_auc_vs_ref,p_ap_vs_ref"]
    for name, scores in score_sets:
        report = report_from_scores(scores, labels)
        p_auc = p_ap = ""
        if name != reference:
            p_auc = repr(delong_test(scores, ref_scores, labels).p_value)
            p_ap = repr(bootstrap_test(scores, ref_scores, labels, "ap", n_boot, seed))
        lines.append(f"{name},{report.auc!r},{report.ap!r},{report.accuracy!r},{p_auc},{p_ap}")
    return "\n".join(lines) + "\n"


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
    check_choice("mode", mode, EVAL_MODES)
    per_model, labels, ids = score_patients(models, dataset, cluster_model, bag_size, seed)
    pooled = per_model.mean(axis=0)
    scored = [
        ScoredPatient(pid, int(lab), float(sc)) for pid, lab, sc in zip(ids, labels, pooled)
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
    lines = read_text(Path(path)).splitlines()
    if not lines or lines[0] != "patient_id,label,score,predicted":
        raise ContractError(f"{path}: not a scores CSV")
    ids, labels, scores = [], [], []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            if len(fields) != 4:
                raise ValueError(f"has {len(fields)} fields, expected 4")
            pid, lab, sc, _ = fields
            if lab not in ("0", "1"):
                raise ValueError(f"label {lab!r} is not 0 or 1")
            score = float(sc)
        except ValueError as e:
            raise FormatError(f"{path}: line {number}: {e}") from None
        ids.append(pid)
        labels.append(int(lab))
        scores.append(score)
    return ids, np.asarray(labels, dtype=np.int64), np.asarray(scores)
