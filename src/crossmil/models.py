"""Model zoo: per-scale instance encoders, cross-scale attention fusion,
baseline fusion schemes, attention pooling, and the bag classifier.

A bag travels through the graph as feature-major matrices, one column
per instance: each scale's n instances form an (E, n) input, so every
encoder is one matmul over the whole bag plus a bias broadcast;
cross-scale attention softmaxes (S, n) logits over the scale axis into
fused (L, n) columns; and per-cluster pooling is one softmax of a (1, n)
logits row within each row of a (K, n) cluster-membership mask, whose
weights pool the columns into one (F, 1) vector per cluster (zeros for an
empty cluster). A single (dim, 1) column is the n = 1 case. Attention
maps run the same fusion over all of a patient's locations at once.
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
from .data import Dataset
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
        for name in ("embed_dim", "encoder_dim", "attention_hidden", "n_clusters", "n_scales"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if self.scale_index is not None and type(self.scale_index) is not int:
            raise ConfigError(f"scale_index must be an integer or null, got {self.scale_index!r}")
        if self.fusion == "single_scale":
            if self.scale_index is None or not 0 <= self.scale_index < self.n_scales:
                raise ConfigError(
                    f"single_scale fusion needs scale_index in [0, {self.n_scales}), "
                    f"got {self.scale_index}"
                )

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
        try:
            doc = json.loads(text)
            return cls(**doc)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"not a model config: {e}") from None

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
    """Two fully-connected layers with a ReLU between, (E, n) -> (L, n)."""
    t = params.tensors
    h = ad.relu(ad.add_bias(t[f"encoder{scale}.w1"] @ x, t[f"encoder{scale}.b1"]))
    return ad.add_bias(t[f"encoder{scale}.w2"] @ h, t[f"encoder{scale}.b2"])


@dataclass
class CrossScaleAttentionOutput:
    fused: Tensor  # (L, n)
    scores: Tensor  # (S, n), positive, each column sums to 1


def cross_scale_attention(
    encodings: list[Tensor], params: ModelParams, cfg: ModelConfig
) -> CrossScaleAttentionOutput:
    """Softmax-weighted fusion of each location's per-scale encodings.

    ``encodings[s]`` holds the (L, n) encodings of n locations at scale s.
    Per scale, logit_s = w^T act(V f_s) is a (1, n) row; the (S, n) logits
    are softmaxed over the scale axis into scores a, and location i's
    fused column is sum_s a[s, i] f_s[:, i].
    """
    if len(encodings) < 1:
        raise ContractError("cross_scale_attention needs at least one scale encoding")
    act = ACTIVATIONS[cfg.attention_activation]
    logits = []
    for s, f in enumerate(encodings):
        v, w = params.attention_pair(s)
        logits.append(ad.transpose(w) @ act(v @ f))
    scores = ad.softmax(ad.concat(logits, axis=0), axis=0)
    fused = None
    for s, f in enumerate(encodings):
        term = ad.mul_row(f, ad.take_row(scores, s))
        fused = term if fused is None else fused + term
    return CrossScaleAttentionOutput(fused, scores)


def instance_pool(
    items: Tensor, params: ModelParams, pooling: str, mask: np.ndarray | None = None
) -> tuple[Tensor, Tensor]:
    """Attention pooling of the m columns of ``items`` (F, m) into K pools.

    Row k of the boolean (K, m) ``mask`` marks the items pool k takes;
    without a mask there is one pool of every item. Returns (pooled,
    weights): pooled is (F, K), column k the attention-weighted sum of
    pool k's items (zeros for an empty pool), and weights is (K, m).
    """
    if items.data.ndim != 2 or items.shape[1] == 0:
        raise ContractError(f"instance_pool needs at least one (F, 1) item, got {items.shape}")
    if mask is None:
        mask = np.ones((1, items.shape[1]), dtype=bool)
    t = params.tensors
    a = ad.tanh(t["pool.v"] @ items)
    if pooling == "gated":
        a = a * ad.sigmoid(t["pool.u"] @ items)
    weights = ad.masked_softmax(ad.transpose(t["pool.w"]) @ a, mask)
    return items @ ad.transpose(weights), weights


@dataclass(frozen=True)
class AttentionRecord:
    """Per-instance cross-scale scores plus location metadata."""

    patient_id: str
    location_id: int
    xy: tuple[float, float]
    scores: tuple[float, ...]


def _fuse_instances(emb: np.ndarray, params: ModelParams) -> tuple[Tensor, Tensor | None]:
    """Encode and fuse n locations given as ``emb`` (n, S, E).

    Returns the pooling items and, for cross-scale attention, the (S, n)
    scores (else None). The items are (F, n), one column per location,
    except for ``instance_pool``: there every scale's encoding is its own
    item, giving (L, S*n) with the columns of scale s at s*n ... s*n + n-1.
    """
    cfg = params.config
    if emb.shape[2] != cfg.embed_dim:
        raise ConfigError(f"embeddings have dim {emb.shape[2]}, config expects {cfg.embed_dim}")
    if emb.shape[1] != cfg.n_scales:
        raise ConfigError(f"instances carry {emb.shape[1]} scales, config expects {cfg.n_scales}")
    encodings = [mi_fcn_encode(Tensor(emb[:, s].T), s, params) for s in cfg.encoder_scales]
    if cfg.fusion == "cross_scale_attention":
        out = cross_scale_attention(encodings, params, cfg)
        return out.fused, out.scores
    if cfg.fusion == "concat":
        return ad.concat(encodings, axis=0), None
    if cfg.fusion == "instance_pool":
        return ad.concat(encodings, axis=1), None
    # add; single_scale has exactly one encoding, so it passes through
    total = encodings[0]
    for f in encodings[1:]:
        total = total + f
    return total, None


def forward_bag(bag: Bag, params: ModelParams) -> Tensor:
    """Full bag pass: encode, fuse, pool per cluster, classify.

    Returns log-probabilities over the two classes as a (2, 1) tensor.
    """
    cfg = params.config
    k = cfg.n_clusters
    if bag.clusters.size and not 0 <= bag.clusters.min() <= bag.clusters.max() < k:
        raise ConfigError(f"bag clusters fall outside the model's {k} clusters")
    items, _ = _fuse_instances(bag.patient.emb[bag.index], params)
    members = bag.clusters[None, :] == np.arange(k)[:, None]  # (K, n)
    if cfg.fusion == "instance_pool":
        members = np.tile(members, (1, cfg.n_scales))
    pooled, _ = instance_pool(items, params, cfg.pooling, members)
    # cluster k's pooled vector fills rows k*F ... k*F + F-1; empty clusters stay zero
    z = ad.reshape(ad.transpose(pooled), (k * cfg.fused_dim, 1))
    logits = params.tensors["classifier.w"] @ z + params.tensors["classifier.b"]
    return ad.log_softmax(logits, axis=0)


def attention_records(
    dataset: Dataset, params: ModelParams, patients: Iterable[str] | None = None
) -> list[AttentionRecord]:
    """Cross-scale attention scores for every location of the given patients.

    Scores depend only on the location itself, not on bag composition, so
    each patient's locations go through one forward together. Patients
    are looked up by id, in the order given (default: the whole dataset).
    Values are plain Python numbers so CSV output stays repr-stable.
    """
    if params.config.fusion != "cross_scale_attention":
        raise ConfigError("no cross-scale attention in this variant")
    chosen = dataset if patients is None else [dataset.patient(pid) for pid in patients]
    out = []
    for p in chosen:
        _, scores = _fuse_instances(p.emb, params)
        out += [
            AttentionRecord(p.patient_id, loc, (x, y), tuple(col))
            for loc, (x, y), col in zip(
                p.location_ids.tolist(), p.xy.tolist(), scores.data.T.tolist()
            )
        ]
    return out
