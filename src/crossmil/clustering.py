"""Phenotype clustering and cluster-balanced bag assembly.

Locations are grouped by k-means over their embeddings (a single scale
or all scales concatenated). A cluster model is its centroids: each
location's cluster is its nearest centroid, worked out per patient when
needed. Bags then draw locations evenly from the clusters so every
phenotype pattern is represented per patient.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, PatientRecord
from .errors import ConfigError, ContractError, FormatError

MULTI_SCALE = "multi"


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    sse_history: tuple[float, ...]
    n_iter: int


def _sq_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (
        (x * x).sum(axis=1)[:, None]
        - 2.0 * x @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = _sq_distances(x, centroids[:1]).min(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centroids[j] = x[idx]
        d2 = np.minimum(d2, _sq_distances(x, centroids[j : j + 1])[:, 0])
    return centroids


def kmeans(
    vectors: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-7,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding.

    Empty clusters are re-seeded to the point farthest from its current
    centroid, which keeps the within-cluster SSE non-increasing.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        raise ContractError(f"kmeans expects an (n, d) array, got shape {x.shape}")
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if k > x.shape[0]:
        raise ContractError(f"k={k} exceeds the number of vectors ({x.shape[0]})")

    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(x, k, rng)
    sse_history: list[float] = []
    labels = np.zeros(x.shape[0], dtype=np.int64)
    for it in range(max_iter):
        d2 = _sq_distances(x, centroids)
        labels = d2.argmin(axis=1)
        point_d2 = d2[np.arange(x.shape[0]), labels]
        for c in range(k):
            if not np.any(labels == c):
                far = int(point_d2.argmax())
                centroids[c] = x[far]
                labels[far] = c
                point_d2[far] = 0.0
        sse_history.append(float(point_d2.sum()))
        new_centroids = np.empty_like(centroids)
        for c in range(k):
            new_centroids[c] = x[labels == c].mean(axis=0)
        shift = np.linalg.norm(new_centroids - centroids, axis=1).max()
        centroids = new_centroids
        if shift < tol:
            break
    return KMeansResult(centroids, labels, tuple(sse_history), len(sse_history))


def _features(emb: np.ndarray, scale_index: int | None) -> np.ndarray:
    """(n, d) clustering features: one scale's rows, or all S scales side by side."""
    if scale_index is None:
        return emb.reshape(len(emb), -1)
    return np.ascontiguousarray(emb[:, scale_index])


@dataclass(frozen=True, eq=False)
class ClusterModel:
    k: int
    centroids: np.ndarray  # (k, d)
    clustering_scale: str  # a scale label, or "multi"
    scale_index: int | None  # None when clustering_scale == "multi"

    def label(self, patient: PatientRecord) -> np.ndarray:
        """Nearest-centroid cluster of each of the patient's locations, shape (n,)."""
        n_scales = patient.emb.shape[1]
        if self.scale_index is not None and self.scale_index >= n_scales:
            raise ConfigError(
                f"patient {patient.patient_id}: the cluster model uses scale index "
                f"{self.scale_index}, the patient has {n_scales} scales"
            )
        x = _features(patient.emb, self.scale_index)
        if x.shape[1] != self.centroids.shape[1]:
            raise ConfigError(
                f"patient {patient.patient_id}: clustering features have width {x.shape[1]}, "
                f"the cluster model's centroids have width {self.centroids.shape[1]}"
            )
        return _sq_distances(x, self.centroids).argmin(axis=1)


def _resolve_scale_choice(dataset: Dataset, scale_choice) -> tuple[str, int | None]:
    if scale_choice == MULTI_SCALE:
        return MULTI_SCALE, None
    if isinstance(scale_choice, int):
        if not 0 <= scale_choice < dataset.n_scales:
            raise ContractError(f"scale index {scale_choice} not in [0, {dataset.n_scales})")
        return dataset.scales[scale_choice].label, scale_choice
    for s in dataset.scales:
        if s.label == scale_choice:
            return s.label, s.index
    raise ContractError(
        f"unknown scale {scale_choice!r}; expected one of "
        f"{[s.label for s in dataset.scales] + [MULTI_SCALE]}"
    )


def cluster_dataset(dataset: Dataset, scale_choice, k: int, seed: int = 0) -> ClusterModel:
    """Fit k-means centroids on the chosen scale's features of every location."""
    label, scale_index = _resolve_scale_choice(dataset, scale_choice)
    if not len(dataset):
        raise ContractError("no vectors to cluster (empty dataset)")
    x = np.concatenate([_features(p.emb, scale_index) for p in dataset])
    return ClusterModel(k, kmeans(x, k, seed=seed).centroids, label, scale_index)


# cluster_model.json: {"k": int, "clustering_scale": label or "multi",
#                      "scale_index": int or null, "centroids": [[float] * d] * k}


def save_cluster_model(model: ClusterModel, path: str | Path) -> Path:
    path = Path(path)
    doc = {
        "k": model.k,
        "clustering_scale": model.clustering_scale,
        "scale_index": model.scale_index,
        "centroids": model.centroids.tolist(),
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def load_cluster_model(path: str | Path) -> ClusterModel:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"cluster model file is not valid JSON: {e}") from e
    try:
        k, scale, scale_index = doc["k"], doc["clustering_scale"], doc["scale_index"]
        centroids = np.asarray(doc["centroids"], dtype=np.float64)
    except KeyError as e:
        raise FormatError(f"cluster model file is missing key {e}") from e
    except ValueError as e:  # ragged rows or non-numeric entries
        raise FormatError(f"cluster model centroids are not an array of numbers: {e}") from e
    if centroids.ndim != 2 or len(centroids) != k or not np.isfinite(centroids).all():
        raise FormatError(
            f"cluster model centroids must be a finite ({k}, d) array, got shape {centroids.shape}"
        )
    multi = scale == MULTI_SCALE
    if not (scale_index is None if multi else isinstance(scale_index, int) and scale_index >= 0):
        raise FormatError(
            f"cluster model scale_index {scale_index!r} does not fit clustering_scale {scale!r}"
        )
    return ClusterModel(k, centroids, scale, scale_index)


@dataclass(frozen=True, eq=False)
class Bag:
    """Cluster-balanced sample of one patient's locations."""

    patient: PatientRecord
    index: np.ndarray  # (bag_size,) positions into the patient's arrays
    clusters: np.ndarray  # (bag_size,) cluster of each picked location

    @property
    def patient_id(self) -> str:
        return self.patient.patient_id

    @property
    def label(self) -> int:
        return self.patient.label


def patient_rng(seed_parts: tuple[int, ...], patient_id: str) -> np.random.Generator:
    """Per-patient stream derived from run seeds plus a stable id hash."""
    return np.random.default_rng([*seed_parts, zlib.crc32(patient_id.encode())])


def cluster_members(
    patient: PatientRecord, clusters: np.ndarray, k: int
) -> tuple[tuple[int, ...], ...]:
    """Each of the k clusters' location indices, ascending; ``clusters[i]``
    is location i's cluster. A patient's clusters do not change between
    its bags, so callers build this once per patient for ``assemble_bag``.
    """
    if clusters.shape != (len(patient.emb),) or not (0 <= clusters.min() and clusters.max() < k):
        raise ContractError(
            f"patient {patient.patient_id}: need one cluster in [0, {k}) per location, "
            f"got shape {clusters.shape}"
        )
    return tuple(tuple(np.flatnonzero(clusters == c).tolist()) for c in range(k))


def assemble_bag(
    patient: PatientRecord,
    members: tuple[tuple[int, ...], ...],
    bag_size: int,
    rng: np.random.Generator,
) -> Bag:
    """Draw ``bag_size`` of the patient's locations, spread evenly over the
    k phenotype clusters; ``members[c]`` lists cluster c's locations (see
    ``cluster_members``).

    Target quota is bag_size/k per cluster; quotas of clusters this
    patient does not populate are redistributed round-robin. When
    bag_size < k, that many distinct populated clusters are chosen
    uniformly, one location each. Sampling is without replacement until
    the patient's locations run out.
    """
    if bag_size < 1:
        raise ContractError(f"bag_size must be >= 1, got {bag_size}")
    k = len(members)
    if sum(map(len, members)) != len(patient.emb):
        raise ContractError(
            f"patient {patient.patient_id}: cluster members hold "
            f"{sum(map(len, members))} locations, the patient has {len(patient.emb)}"
        )
    populated = [c for c in range(k) if members[c]]

    quotas = np.zeros(k, dtype=np.int64)
    if bag_size >= k:
        quotas[:] = bag_size // k
        extra = bag_size % k
        if extra:
            quotas[rng.permutation(k)[:extra]] += 1
    else:
        chosen = rng.choice(populated, size=min(bag_size, len(populated)), replace=False)
        quotas[chosen] = 1
        leftover = bag_size - len(chosen)
        for i in range(leftover):
            quotas[populated[i % len(populated)]] += 1

    # round-robin redistribution of quotas stuck on unpopulated clusters
    empty = [c for c in range(k) if not members[c]]
    stranded = int(quotas[empty].sum())
    quotas[empty] = 0
    for i in range(stranded):
        quotas[populated[i % len(populated)]] += 1

    remaining = {c: list(members[c]) for c in populated}
    picked: list[int] = []
    picked_clusters: list[int] = []
    for c in populated:
        take = min(int(quotas[c]), len(remaining[c]))
        if take:
            sel = rng.choice(len(remaining[c]), size=take, replace=False)
            for j in np.sort(sel)[::-1].tolist():
                picked.append(remaining[c].pop(j))
            picked_clusters += [c] * take
    # shortfall: keep cycling populated clusters that still have locations
    while len(picked) < bag_size and any(remaining.values()):
        for c in populated:
            if len(picked) == bag_size:
                break
            if remaining[c]:
                j = int(rng.integers(len(remaining[c])))
                picked.append(remaining[c].pop(j))
                picked_clusters.append(c)
    # patient has fewer locations than bag_size: top up with replacement
    while len(picked) < bag_size:
        c = populated[int(rng.integers(len(populated)))]
        picked.append(members[c][int(rng.integers(len(members[c])))])
        picked_clusters.append(c)

    return Bag(
        patient, np.array(picked, dtype=np.int64), np.array(picked_clusters, dtype=np.int64)
    )
