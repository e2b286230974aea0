"""Model zoo: per-scale instance encoders, cross-scale attention fusion,
baseline fusion schemes, attention pooling, and the bag classifier.

Vectors travel through the graph as column matrices (dim, 1); instances
are processed one at a time, which keeps the restricted broadcasting
rules of the tensor layer sufficient.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .clustering import Bag
from .data import Dataset, PatientRecord
from .errors import ConfigError, ContractError

FUSIONS = ("cross_scale_attention", "concat", "add", "single_scale", "instance_pool")
SHARINGS = ("shared", "per_scale")
ACTIVATIONS = {"tanh": ad.tanh, "relu": ad.relu}
POOLINGS = ("plain", "gated")


@dataclass(frozen=True)
class ModelConfig:
    fusion: str = "cross_scale_attention"
    attention_sharing: str = "shared"
    attention_activation: str = "relu"
    embed_dim: int = 32
    encoder_dim: int = 64
    attention_hidden: int = 32
    n_clusters: int = 8
    n_scales: int = 3
    pooling: str = "plain"
    scale_index: int | None = None

    def __post_init__(self):
        if self.fusion not in FUSIONS:
            raise ConfigError(f"fusion must be one of {FUSIONS}, got {self.fusion!r}")
        if self.attention_sharing not in SHARINGS:
            raise ConfigError(f"attention_sharing must be one of {SHARINGS}")
        if self.attention_activation not in ACTIVATIONS:
            raise ConfigError(f"attention_activation must be one of {tuple(ACTIVATIONS)}")
        if self.pooling not in POOLINGS:
            raise ConfigError(f"pooling must be one of {POOLINGS}")
        if self.fusion == "single_scale":
            if self.scale_index is None or not 0 <= self.scale_index < self.n_scales:
                raise ConfigError(
                    f"single_scale fusion needs scale_index in [0, {self.n_scales}), "
                    f"got {self.scale_index}"
                )
        for name in ("embed_dim", "encoder_dim", "attention_hidden", "n_clusters", "n_scales"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def fused_dim(self) -> int:
        return self.n_scales * self.encoder_dim if self.fusion == "concat" else self.encoder_dim

    @property
    def encoder_scales(self) -> tuple[int, ...]:
        if self.fusion == "single_scale":
            return (self.scale_index,)
        return tuple(range(self.n_scales))

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        return cls(**json.loads(text))

    def digest(self) -> bytes:
        return hashlib.sha256(self.to_json().encode()).digest()


@dataclass
class ModelParams:
    """Named trainable tensors for one model instance."""

    config: ModelConfig
    tensors: dict[str, Tensor]

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def attention_pair(self, scale: int) -> tuple[Tensor, Tensor]:
        if self.config.attention_sharing == "shared":
            return self.tensors["attn.v"], self.tensors["attn.w"]
        return self.tensors[f"attn{scale}.v"], self.tensors[f"attn{scale}.w"]

    def copy_values(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self.tensors.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for n, t in self.tensors.items():
            if t.data.shape != values[n].shape:
                raise ConfigError(f"parameter {n}: shape {values[n].shape} != {t.data.shape}")
            t.data = np.ascontiguousarray(values[n], dtype=np.float64)


def _param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) for every trainable tensor, in creation order."""
    e, l, d, f = cfg.embed_dim, cfg.encoder_dim, cfg.attention_hidden, cfg.fused_dim
    shapes: list[tuple[str, tuple[int, ...], int]] = []
    for s in cfg.encoder_scales:
        shapes += [
            (f"encoder{s}.w1", (l, e), e),
            (f"encoder{s}.b1", (l, 1), e),
            (f"encoder{s}.w2", (l, l), l),
            (f"encoder{s}.b2", (l, 1), l),
        ]
    if cfg.fusion == "cross_scale_attention":
        if cfg.attention_sharing == "shared":
            shapes += [("attn.v", (d, l), l), ("attn.w", (d, 1), d)]
        else:
            for s in range(cfg.n_scales):
                shapes += [(f"attn{s}.v", (d, l), l), (f"attn{s}.w", (d, 1), d)]
    shapes += [("pool.v", (d, f), f), ("pool.w", (d, 1), d)]
    if cfg.pooling == "gated":
        shapes.append(("pool.u", (d, f), f))
    shapes += [
        ("classifier.w", (2, cfg.n_clusters * f), cfg.n_clusters * f),
        ("classifier.b", (2, 1), cfg.n_clusters * f),
    ]
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) init, deterministic by seed."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape, fan_in in _param_shapes(cfg):
        bound = 1.0 / np.sqrt(fan_in)
        tensors[name] = Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
    return ModelParams(cfg, tensors)


def mi_fcn_encode(x: Tensor, scale: int, params: ModelParams) -> Tensor:
    """Two fully-connected layers with a ReLU between (E -> L -> L)."""
    t = params.tensors
    h = ad.relu(t[f"encoder{scale}.w1"] @ x + t[f"encoder{scale}.b1"])
    return t[f"encoder{scale}.w2"] @ h + t[f"encoder{scale}.b2"]


@dataclass
class CrossScaleAttentionOutput:
    fused: Tensor  # (L, 1)
    scores: Tensor  # (S, 1), positive, sums to 1


def cross_scale_attention(
    encodings: list[Tensor], params: ModelParams, cfg: ModelConfig
) -> CrossScaleAttentionOutput:
    """Softmax-weighted fusion of the same location's per-scale encodings.

    Per scale s: logit_s = w^T act(V f_s); the S logits are softmaxed into
    scores a, and the fused vector is sum_s a_s f_s.
    """
    if len(encodings) < 1:
        raise ContractError("cross_scale_attention needs at least one scale encoding")
    act = ACTIVATIONS[cfg.attention_activation]
    logits = []
    for s, f in enumerate(encodings):
        v, w = params.attention_pair(s)
        logits.append(ad.transpose(w) @ act(v @ f))
    scores = ad.softmax(ad.concat(logits, axis=0), axis=0)
    fused = ad.concat(encodings, axis=1) @ scores
    return CrossScaleAttentionOutput(fused, scores)


def instance_pool(
    items: list[Tensor], params: ModelParams, pooling: str
) -> tuple[Tensor, Tensor]:
    """Attention pooling of n column vectors into one; returns (pooled, weights)."""
    if not items:
        raise ContractError("instance_pool needs at least one item")
    t = params.tensors
    logits = []
    for h in items:
        a = ad.tanh(t["pool.v"] @ h)
        if pooling == "gated":
            a = a * ad.sigmoid(t["pool.u"] @ h)
        logits.append(ad.transpose(t["pool.w"]) @ a)
    weights = ad.softmax(ad.concat(logits, axis=0), axis=0)
    pooled = ad.concat(items, axis=1) @ weights
    return pooled, weights


@dataclass(frozen=True)
class AttentionRecord:
    """Per-instance cross-scale scores plus location metadata."""

    patient_id: str
    location_id: int
    xy: tuple[float, float]
    scores: tuple[float, ...]


def _attention_record(patient: PatientRecord, i: int, scores: Tensor) -> AttentionRecord:
    """Record for location i, in plain Python numbers so CSV output stays repr-stable."""
    x, y = patient.xy[i].tolist()
    return AttentionRecord(
        patient.patient_id, int(patient.location_ids[i]), (x, y),
        tuple(float(a) for a in scores.data[:, 0]),
    )


def _fuse_instance(
    vectors: list[Tensor], params: ModelParams, cfg: ModelConfig
) -> tuple[list[Tensor], Tensor | None]:
    """Returns (pooling items for this instance, attention scores or None)."""
    if cfg.fusion == "single_scale":
        f = mi_fcn_encode(vectors[cfg.scale_index], cfg.scale_index, params)
        return [f], None
    encodings = [mi_fcn_encode(x, s, params) for s, x in enumerate(vectors)]
    if cfg.fusion == "cross_scale_attention":
        out = cross_scale_attention(encodings, params, cfg)
        return [out.fused], out.scores
    if cfg.fusion == "concat":
        return [ad.concat(encodings, axis=0)], None
    if cfg.fusion == "add":
        total = encodings[0]
        for f in encodings[1:]:
            total = total + f
        return [total], None
    # instance_pool: every scale's encoding becomes its own pooling item
    return encodings, None


def forward_bag(
    bag: Bag, params: ModelParams, cfg: ModelConfig
) -> tuple[Tensor, list[AttentionRecord]]:
    """Full bag pass: encode, fuse, pool per cluster, classify.

    Returns log-probabilities over the two classes as a (2, 1) tensor and,
    for cross-scale attention models, one AttentionRecord per instance.
    """
    if params.config != cfg:
        raise ConfigError("params were initialized for a different ModelConfig")
    emb = bag.patient.emb
    if emb.shape[2] != cfg.embed_dim:
        raise ConfigError(f"bag embeddings have dim {emb.shape[2]}, config expects {cfg.embed_dim}")
    if emb.shape[1] != cfg.n_scales:
        raise ConfigError(
            f"bag instances carry {emb.shape[1]} scales, config expects {cfg.n_scales}"
        )

    by_cluster: dict[int, list[Tensor]] = {c: [] for c in range(cfg.n_clusters)}
    records: list[AttentionRecord] = []
    for i, cluster in zip(bag.index.tolist(), bag.clusters.tolist()):
        vectors = [Tensor(v[:, None]) for v in emb[i]]
        items, scores = _fuse_instance(vectors, params, cfg)
        by_cluster[cluster].extend(items)
        if scores is not None:
            records.append(_attention_record(bag.patient, i, scores))

    zero = Tensor(np.zeros((cfg.fused_dim, 1)))
    cluster_vecs = [
        instance_pool(by_cluster[c], params, cfg.pooling)[0] if by_cluster[c] else zero
        for c in range(cfg.n_clusters)
    ]
    z = ad.concat(cluster_vecs, axis=0)
    logits = params.tensors["classifier.w"] @ z + params.tensors["classifier.b"]
    return ad.log_softmax(logits, axis=0), records


def attention_records(
    dataset: Dataset,
    params: ModelParams,
    cfg: ModelConfig,
    patients: Iterable[str] | None = None,
) -> list[AttentionRecord]:
    """Cross-scale attention scores for every location of the given patients.

    Scores depend only on the instance itself, not on bag composition, so
    this evaluates each location exactly once.
    """
    if cfg.fusion != "cross_scale_attention":
        raise ConfigError("no cross-scale attention in this variant")
    wanted = set(patients) if patients is not None else None
    out = []
    for p in dataset:
        if wanted is not None and p.patient_id not in wanted:
            continue
        for i, per_scale in enumerate(p.emb):
            vectors = [Tensor(v[:, None]) for v in per_scale]
            encodings = [mi_fcn_encode(x, s, params) for s, x in enumerate(vectors)]
            scores = cross_scale_attention(encodings, params, cfg).scores
            out.append(_attention_record(p, i, scores))
    return out
