"""Phenotype clustering and cluster-balanced bag assembly.

Locations are grouped by k-means over their embeddings (a single scale
or all scales concatenated). A cluster model is its centroids: each
location's cluster is its nearest centroid, worked out per patient when
needed. Each bag is dealt round-robin over the clusters a patient
populates, so every phenotype pattern it shows is represented evenly.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, PatientRecord
from .errors import ConfigError, ContractError, FormatError, read_text

MULTI_SCALE = "multi"
# k-means stops after _MAX_ITER Lloyd iterations, or once no centroid moves _TOL
_MAX_ITER = 100
_TOL = 1e-7


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray
    labels: np.ndarray
    sse_history: tuple[float, ...]  # one entry per Lloyd iteration

    @property
    def n_iter(self) -> int:
        return len(self.sse_history)


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


def kmeans(vectors: np.ndarray, k: int, seed: int = 0) -> KMeansResult:
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
    for it in range(_MAX_ITER):
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
        if shift < _TOL:
            break
    return KMeansResult(centroids, labels, tuple(sse_history))


def _features(emb: np.ndarray, scale_index: int | None) -> np.ndarray:
    """(n, d) clustering features: one scale's rows, or all S scales side by side."""
    if scale_index is None:
        return emb.reshape(len(emb), -1)
    return np.ascontiguousarray(emb[:, scale_index])


@dataclass(frozen=True, eq=False)
class ClusterModel:
    centroids: np.ndarray  # (k, d)
    clustering_scale: str  # a scale label, or "multi"
    scale_index: int | None  # None when clustering_scale == "multi"

    @property
    def k(self) -> int:
        return len(self.centroids)

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
    labels = dataset.scale_labels
    if isinstance(scale_choice, int):
        if not 0 <= scale_choice < len(labels):
            raise ContractError(f"scale index {scale_choice} not in [0, {len(labels)})")
        return labels[scale_choice], scale_choice
    if scale_choice in labels:
        return scale_choice, labels.index(scale_choice)
    raise ContractError(f"unknown scale {scale_choice!r}; expected one of {[*labels, MULTI_SCALE]}")


def cluster_dataset(dataset: Dataset, scale_choice, k: int, seed: int = 0) -> ClusterModel:
    """Fit k-means centroids on the chosen scale's features of every location."""
    label, scale_index = _resolve_scale_choice(dataset, scale_choice)
    if not len(dataset):
        raise ContractError("no vectors to cluster (empty dataset)")
    x = np.concatenate([_features(p.emb, scale_index) for p in dataset])
    return ClusterModel(kmeans(x, k, seed=seed).centroids, label, scale_index)


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
        doc = json.loads(read_text(Path(path)))
    except json.JSONDecodeError as e:
        raise FormatError(f"cluster model file is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FormatError(f"cluster model file must hold a JSON object, got {type(doc).__name__}")
    try:
        k, scale, scale_index = doc["k"], doc["clustering_scale"], doc["scale_index"]
        centroids = np.asarray(doc["centroids"], dtype=np.float64)
    except KeyError as e:
        raise FormatError(f"cluster model file is missing key {e}") from e
    except ValueError as e:  # ragged rows or non-numeric entries
        raise FormatError(f"cluster model centroids are not an array of numbers: {e}") from e
    valid = type(k) is int and centroids.ndim == 2 and len(centroids) == k
    if not (valid and np.isfinite(centroids).all()):
        raise FormatError(
            f"cluster model centroids must be a finite ({k!r}, d) array, got shape {centroids.shape}"
        )
    multi = scale == MULTI_SCALE
    if not (scale_index is None if multi else type(scale_index) is int and scale_index >= 0):
        raise FormatError(
            f"cluster model scale_index {scale_index!r} does not fit clustering_scale {scale!r}"
        )
    return ClusterModel(centroids, scale, scale_index)


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


def assemble_bag(
    patient: PatientRecord,
    clusters: np.ndarray,
    bag_size: int,
    rng: np.random.Generator,
) -> Bag:
    """Draw ``bag_size`` of the patient's locations, spread evenly over the
    clusters it populates; ``clusters[i]`` is location i's cluster (see
    ``ClusterModel.label``).

    The locations are dealt round by round: each round takes the next
    unpicked location of every populated cluster, in one random turn
    order, and each cluster's locations come in random order. So the
    populated clusters' counts differ by at most 1 until one runs out, a
    bag smaller than the number of populated clusters holds distinct
    clusters chosen uniformly, and no location repeats until every
    location has been dealt, after which the deal starts again.
    """
    if bag_size < 1:
        raise ContractError(f"bag_size must be >= 1, got {bag_size}")
    clusters = np.asarray(clusters)
    n = len(patient.emb)
    if clusters.shape != (n,) or clusters.dtype.kind not in "iu" or not n or clusters.min() < 0:
        raise ContractError(
            f"patient {patient.patient_id}: need one non-negative integer cluster per "
            f"location ({n}), got {clusters.dtype} array of shape {clusters.shape}"
        )
    order = np.lexsort((rng.random(n), clusters))  # by cluster, random within one
    c = clusters[order]
    rank = np.arange(n) - np.searchsorted(c, c)  # position within its cluster
    group = np.cumsum(rank == 0) - 1  # which populated cluster, ascending
    turn = rng.permutation(group[-1] + 1)[group]
    index = np.resize(order[np.lexsort((turn, rank))], bag_size)
    return Bag(patient, index, clusters[index].astype(np.int64, copy=False))
