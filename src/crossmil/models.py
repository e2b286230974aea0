"""Model zoo: per-scale instance encoders, cross-scale attention fusion,
baseline fusion schemes, attention pooling, and the bag classifier.

A bag travels through the model as feature-major matrices, one column
per instance: each scale's n instances form an (E, n) input. Each layer
has one forward kernel, plain numpy on whole matrices with an optional
leading batch axis, and a backward written out by hand:

- ``mi_fcn_encode``: two fully-connected layers with a ReLU between,
  (E, n) -> (L, n);
- ``cross_scale_attention``: per-scale logits w^T act(V f_s), softmaxed
  over the scale axis into (S, n) scores that weight the fused (L, n)
  columns;
- ``instance_pool``: one attention-logit row over the items, softmaxed
  within each row of a (K, n) cluster-membership mask into weights that
  pool the columns into one (F, 1) vector per cluster (zeros for an
  empty cluster);
- ``classifier_head``: a linear map of the concatenated pools and a
  log-softmax, (F, K) -> (2, 1).

Parameters are views into one flat vector, so the optimizer steps them
all in place. ``forward_bag`` runs one bag through the kernels as
autodiff nodes, one per layer: with cross-scale attention a training
step is nine graph nodes, whatever the bag size. ``forward_bags`` runs
equal-size bags through the same kernels with no graph, stacked on a
leading axis a block at a time, for validation and scoring; attention
maps run each patient's locations through the encoder and attention
kernels as one group, for the scores alone. A stacked bag gives the bits
it gives alone, because each scale enters as a contiguous (B, E, n)
array and the classifier takes a (B, K*F, 1) column per bag, so every
matmul runs per bag on the strides of a lone bag. Every intermediate
that can leave the finite range is checked, and the error names the
layer. Each kernel fixes the order in which it adds terms, and
checkpoints depend on that order to the bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .clustering import Bag
from .data import Dataset
from .errors import ConfigError, ContractError, DimensionError, check_choice, check_int

FUSIONS = ("cross_scale_attention", "concat", "add", "single_scale", "instance_pool")
SHARINGS = ("shared", "per_scale")
ACTIVATIONS = ("tanh", "relu")
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
        for name, choices in (
            ("fusion", FUSIONS),
            ("attention_sharing", SHARINGS),
            ("attention_activation", ACTIVATIONS),
            ("pooling", POOLINGS),
        ):
            check_choice(name, getattr(self, name), choices)
        for name in ("embed_dim", "encoder_dim", "attention_hidden", "n_clusters", "n_scales"):
            check_int(name, getattr(self, name), 1)
        if self.fusion == "single_scale":
            check_int("scale_index", self.scale_index, 0)
            if self.scale_index >= self.n_scales:
                raise ConfigError(
                    f"scale_index must be < n_scales = {self.n_scales}, got {self.scale_index}"
                )
        elif self.scale_index is not None:
            raise ConfigError(
                f"scale_index must be null unless fusion is single_scale, got {self.scale_index!r}"
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


class ModelParams:
    """Named trainable tensors for one model instance.

    ``flat``, a copy of the values given, holds every parameter in
    ``param_layout(config)`` order, and each tensor's ``data`` is a view
    into it, so an optimizer can step them all in place. Write values
    through the views: a tensor whose ``data`` is rebound no longer
    follows ``flat``. A pickled ``ModelParams`` is its config and
    ``flat``; unpickling builds the views again.
    """

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        layout = param_layout(config)
        ends = np.cumsum([math.prod(shape) for _, shape, _ in layout])
        flat = np.array(flat, dtype=np.float64)  # owns its memory; unpickled arrays may not
        if flat.shape != (ends[-1],):
            raise ConfigError(f"{flat.shape} parameter values do not fit the config's {ends[-1]}")
        self.config, self.flat = config, flat
        self.tensors = {
            name: Tensor(chunk.reshape(shape), requires_grad=True)
            for (name, shape, _), chunk in zip(layout, np.split(flat, ends[:-1]))
        }

    def __reduce__(self):
        return ModelParams, (self.config, self.flat)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def attention_pair(self, scale: int) -> tuple[Tensor, Tensor]:
        if self.config.attention_sharing == "shared":
            return self.tensors["attn.v"], self.tensors["attn.w"]
        return self.tensors[f"attn{scale}.v"], self.tensors[f"attn{scale}.w"]


def param_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) of every trainable tensor, in the order
    ``init_params`` draws them and ``flat`` holds them."""
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
    draws = []
    for _, shape, fan_in in param_layout(cfg):
        bound = 1.0 / np.sqrt(fan_in)
        draws.append(rng.uniform(-bound, bound, size=shape).reshape(-1))
    return ModelParams(cfg, np.concatenate(draws))


def _encode(x: np.ndarray, params: ModelParams, scale: int) -> tuple[np.ndarray, ...]:
    """Encoder kernel: (..., E, n) inputs -> (..., L, n) encodings, then the
    pre-activation and hidden layer the backward reads."""
    w1, b1, w2, b2 = (params.tensors[f"encoder{scale}.{p}"].data for p in ("w1", "b1", "w2", "b2"))
    op = "mi_fcn_encode"
    with np.errstate(over="ignore", invalid="ignore"):
        pre = ad.check_finite(w1 @ x + b1, op)
        h = np.maximum(pre, 0.0)
        out = ad.check_finite(w2 @ h + b2, op)
    return out, pre, h


def mi_fcn_encode(x: Tensor, scale: int, params: ModelParams) -> Tensor:
    """Two fully-connected layers with a ReLU between, (E, n) -> (L, n)."""
    w1, b1, w2, b2 = (params.tensors[f"encoder{scale}.{p}"] for p in ("w1", "b1", "w2", "b2"))
    xd, w1d, w2d = x.data, w1.data, w2.data
    out, pre, h = _encode(xd, params, scale)

    def grad_fn(g):
        g_pre = (w2d.T @ g) * (pre > 0.0)
        g_x = w1d.T @ g_pre if x.requires_grad else None
        return (
            g_x,
            g_pre @ xd.T,
            g_pre.sum(axis=1, keepdims=True),
            g @ h.T,
            g.sum(axis=1, keepdims=True),
        )

    return ad.custom_op("mi_fcn_encode", out, (x, w1, b1, w2, b2), grad_fn)


@dataclass
class CrossScaleAttentionOutput:
    fused: Tensor  # (L, n)
    scores: np.ndarray  # (S, n), positive, each column sums to 1; no gradient


def _attention_weights(
    pairs: list[tuple[Tensor, Tensor]], shared: bool
) -> tuple[np.ndarray, np.ndarray]:
    """V and the w^T rows of the attention: (D, L) and (1, D) when shared,
    else stacked per scale, (S, D, L) and (S, 1, D). w^T is copied to a
    C-contiguous row, as the primitive transpose does."""
    if shared:
        return pairs[0][0].data, pairs[0][1].data.T.copy()
    return np.stack([v.data for v, _ in pairs]), np.stack([w.data.T.copy() for _, w in pairs])


def _attend(f: np.ndarray, v: np.ndarray, w_rows: np.ndarray, tanh: bool) -> tuple[np.ndarray, ...]:
    """Cross-scale attention kernel: (..., S, L, n) encodings -> scores
    (..., S, n) softmaxed over the scales, then the pre-activation and
    activation the backward reads."""
    op = "cross_scale_attention"
    with np.errstate(over="ignore", invalid="ignore"):
        pre = ad.check_finite(v @ f, op)  # (..., S, D, n)
        act = np.tanh(pre) if tanh else np.maximum(pre, 0.0)
        logits = ad.check_finite(w_rows @ act, op)[..., 0, :]  # (..., S, n)
    return ad.softmax_array(logits, -2), pre, act


def _fuse_scales(f: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The (..., L, n) sum of the (..., S, L, n) encodings weighted by their
    (..., S, n) scores, added over the scales in scale order."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ad.check_finite((f * scores[..., None, :]).sum(axis=-3), "cross_scale_attention")


def cross_scale_attention(
    encodings: list[Tensor], params: ModelParams, cfg: ModelConfig
) -> CrossScaleAttentionOutput:
    """Softmax-weighted fusion of each location's per-scale encodings.

    ``encodings[s]`` holds the (L, n) encodings of n locations at scale s.
    Per scale, logit_s = w^T act(V f_s) is a (1, n) row; the (S, n) logits
    are softmaxed over the scale axis into scores a, and location i's
    fused column is sum_s a[s, i] f_s[:, i]. Gradients reach the encodings
    and the attention parameters through ``fused``.
    """
    if len(encodings) < 1:
        raise ContractError("cross_scale_attention needs at least one scale encoding")
    tanh = cfg.attention_activation == "tanh"
    shared = cfg.attention_sharing == "shared"
    pairs = [params.attention_pair(s) for s in range(len(encodings))]
    attn_params = list(dict.fromkeys(t for pair in pairs for t in pair))
    # Scales are stacked on a leading axis. A 3-d matmul makes, per scale,
    # the same BLAS call on the same strides as a 2-d one, so results match
    # a per-scale loop to the bit.
    f = np.stack([e.data for e in encodings])  # (S, L, n)
    v, w_rows = _attention_weights(pairs, shared)
    scores, pre, act = _attend(f, v, w_rows, tanh)
    fused = _fuse_scales(f, scores)

    def grad_fn(g):
        g_logits = (g * f).sum(axis=1)
        g_logits = (g_logits - (g_logits * scores).sum(axis=0, keepdims=True)) * scores
        g_act = w_rows.swapaxes(-1, -2) @ g_logits[:, None]
        g_pre = g_act * (1.0 - act * act) if tanh else g_act * (pre > 0.0)
        g_f = g * scores[:, None] + v.swapaxes(-1, -2) @ g_pre
        g_v = g_pre @ f.swapaxes(1, 2)
        g_w = g_logits[:, None] @ act.swapaxes(1, 2)  # (S, 1, D)
        if shared:  # the per-scale gradients summed in scale order
            g_params = (g_v.sum(axis=0), g_w.sum(axis=0).T.copy())
        else:
            g_params = [gp for s in range(len(pairs)) for gp in (g_v[s], g_w[s].T.copy())]
        return (*g_f, *g_params)

    fused_t = ad.custom_op("cross_scale_attention", fused, (*encodings, *attn_params), grad_fn)
    return CrossScaleAttentionOutput(fused_t, scores)


def _pool(
    x: np.ndarray, mask: np.ndarray, v: np.ndarray, w_row: np.ndarray, u: np.ndarray | None
) -> tuple[np.ndarray, ...]:
    """Per-cluster pooling kernel: (..., F, m) items and (..., K, m) masks ->
    pooled (..., F, K) and weights (..., K, m), then the transposed
    weights, tanh layer, gate (None unless ``u`` is given) and activation
    the backward reads."""
    op = "instance_pool"
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.tanh(ad.check_finite(v @ x, op))
        gate = None if u is None else ad.sigmoid_array(ad.check_finite(u @ x, op))
        act = h if u is None else h * gate
        logits = ad.check_finite(w_row @ act, op)  # (..., 1, m)
    # softmax of the logits row within each mask row; an empty row stays zero
    masked = np.where(mask, logits, -np.inf)
    top = masked.max(axis=-1, keepdims=True)
    top[~mask.any(axis=-1)] = 0.0  # exp(-inf) below gives zeros, not NaN
    e = np.exp(masked - top)
    total = e.sum(axis=-1, keepdims=True)
    weights = e / np.where(total > 0.0, total, 1.0)
    weights_t = weights.swapaxes(-1, -2).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        pooled = ad.check_finite(x @ weights_t, op)
    return pooled, weights, weights_t, h, gate, act


def _pool_weights(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """V, the C-contiguous w^T row (as the primitive transpose gives) and,
    for gated pooling, U."""
    t = params.tensors
    u = t["pool.u"].data if "pool.u" in t else None
    return t["pool.v"].data, t["pool.w"].data.T.copy(), u


def instance_pool(
    items: Tensor, params: ModelParams, pooling: str, mask: np.ndarray | None = None
) -> tuple[Tensor, np.ndarray]:
    """Attention pooling of the m columns of ``items`` (F, m) into K pools.

    Row k of the boolean (K, m) ``mask`` marks the items pool k takes;
    without a mask there is one pool of every item. Returns (pooled,
    weights): pooled is (F, K), column k the attention-weighted sum of
    pool k's items (zeros for an empty pool), and weights is the (K, m)
    array of attention weights, through which no gradient flows of its
    own. Gradients reach the items and the pooling parameters through
    ``pooled``.
    """
    if items.data.ndim != 2 or items.shape[1] == 0:
        raise ContractError(f"instance_pool needs at least one (F, 1) item, got {items.shape}")
    if mask is None:
        mask = np.ones((1, items.shape[1]), dtype=bool)
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        raise ContractError(f"instance_pool: mask must be boolean, got {mask.dtype}")
    if mask.ndim != 2 or mask.shape[1] != items.shape[1]:
        raise DimensionError(f"instance_pool: mask {mask.shape} does not fit items {items.shape}")
    gated = pooling == "gated"
    t = params.tensors
    v, w = t["pool.v"], t["pool.w"]
    u = t["pool.u"] if gated else None
    xd = items.data
    vd, w_row, ud = _pool_weights(params)
    pooled, weights, weights_t, h, gate, act = _pool(xd, mask, vd, w_row, ud if gated else None)

    def grad_fn(g):
        g_weights = (xd.T @ g).T.copy()
        inner = (g_weights * weights).sum(axis=1, keepdims=True)
        g_logits = ((g_weights - inner) * weights).sum(axis=0, keepdims=True)
        g_act = w_row.T @ g_logits
        g_pre = (g_act * gate if gated else g_act) * (1.0 - h * h)
        g_gate = g_act * h * gate * (1.0 - gate) if gated else None
        g_items = None
        if items.requires_grad:
            # the three paths add in a fixed order: pooling, V, U
            g_items = g @ weights_t.T + vd.T @ g_pre
            if gated:
                g_items = g_items + ud.T @ g_gate
        grads = (g_items, g_pre @ xd.T, (g_logits @ act.T).T.copy())
        return grads + (g_gate @ xd.T,) if gated else grads

    parents = (items, v, w, u) if gated else (items, v, w)
    return ad.custom_op("instance_pool", pooled, parents, grad_fn), weights


def _classify(pooled: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Classifier kernel: (..., F, K) pools -> log-probabilities (..., 2, 1),
    then the (..., K*F, 1) input the backward reads. Each input is a column
    of its own, so its matmul does not depend on how many are stacked."""
    op = "classifier_head"
    w, b = params.tensors["classifier.w"].data, params.tensors["classifier.b"].data
    z = pooled.swapaxes(-1, -2).copy().reshape(*pooled.shape[:-2], -1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        logits = ad.check_finite(w @ z + b, op)
        log_probs = ad.check_finite(ad.log_softmax_array(logits, -2), op)
    return log_probs, z


def classifier_head(pooled: Tensor, params: ModelParams) -> Tensor:
    """Log-probabilities (2, 1) of a linear map of the K pooled columns (F, K).

    Cluster k's pooled vector fills rows k*F ... k*F + F-1 of the
    classifier's input.
    """
    w, b = params.tensors["classifier.w"], params.tensors["classifier.b"]
    wd = w.data
    log_probs, z = _classify(pooled.data, params)

    def grad_fn(g):
        g_logits = g - np.exp(log_probs) * g.sum(axis=0, keepdims=True)
        g_pooled = (wd.T @ g_logits).reshape(pooled.shape[::-1]).T.copy()
        return g_pooled, g_logits @ z.T, g_logits

    return ad.custom_op("classifier_head", log_probs, (pooled, w, b), grad_fn)


@dataclass(frozen=True)
class AttentionRecord:
    """Per-instance cross-scale scores plus location metadata."""

    patient_id: str
    location_id: int
    xy: tuple[float, float]
    scores: tuple[float, ...]


def check_instance_shape(n_scales: int, dim: int, cfg: ModelConfig) -> None:
    """ConfigError unless instances of ``n_scales`` scales of ``dim``-wide
    embeddings fit the model ``cfg``."""
    if dim != cfg.embed_dim:
        raise ConfigError(f"embeddings have dim {dim}, config expects {cfg.embed_dim}")
    if n_scales != cfg.n_scales:
        raise ConfigError(f"instances carry {n_scales} scales, config expects {cfg.n_scales}")


def _scale_inputs(emb: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Every scale's (..., E, n) input for locations ``emb`` (..., n, S, E),
    stacked as (S, ..., E, n), once the instances are checked against
    ``cfg``. Both forwards take it, since the layout fixes the bits: each
    (E, n) slice is C-contiguous, so a stacked bag runs as a lone one."""
    check_instance_shape(emb.shape[-2], emb.shape[-1], cfg)
    return np.ascontiguousarray(np.moveaxis(emb, -2, 0).swapaxes(-1, -2))


def _fuse_instances(emb: np.ndarray, params: ModelParams) -> Tensor:
    """Encode and fuse n locations given as ``emb`` (n, S, E), on the graph.

    Returns the (F, n) pooling items, one column per location, except for
    ``instance_pool``: there every scale's encoding is its own item, giving
    (L, S*n) with the columns of scale s at s*n ... s*n + n-1.
    """
    cfg = params.config
    x = _scale_inputs(emb, cfg)
    encodings = [mi_fcn_encode(Tensor(x[s]), s, params) for s in cfg.encoder_scales]
    if cfg.fusion == "cross_scale_attention":
        return cross_scale_attention(encodings, params, cfg).fused
    if cfg.fusion == "concat":
        return ad.concat(encodings, axis=0)
    if cfg.fusion == "instance_pool":
        return ad.concat(encodings, axis=1)
    # add; single_scale has exactly one encoding, so it passes through
    total = encodings[0]
    for f in encodings[1:]:
        total = total + f
    return total


def _encode_arrays(emb: np.ndarray, params: ModelParams) -> list[np.ndarray]:
    """The (B, L, n) encodings at each encoder scale of B groups of n
    locations given as ``emb`` (B, n, S, E), without the graph."""
    x = _scale_inputs(emb, params.config)
    return [_encode(x[s], params, s)[0] for s in params.config.encoder_scales]


def _attention_scores(f: np.ndarray, params: ModelParams) -> np.ndarray:
    """The (B, S, n) cross-scale scores of stacked encodings ``f`` (B, S, L, n)."""
    cfg = params.config
    pairs = [params.attention_pair(s) for s in range(cfg.n_scales)]
    weights = _attention_weights(pairs, cfg.attention_sharing == "shared")
    return _attend(f, *weights, cfg.attention_activation == "tanh")[0]


def _fuse_arrays(emb: np.ndarray, params: ModelParams) -> np.ndarray:
    """``_fuse_instances`` without the graph, for B groups of n locations
    given as ``emb`` (B, n, S, E): (B, F, n) items, or (B, L, S*n) for
    ``instance_pool``."""
    cfg = params.config
    encodings = _encode_arrays(emb, params)
    if cfg.fusion == "cross_scale_attention":
        f = np.stack(encodings, axis=1)
        return _fuse_scales(f, _attention_scores(f, params))
    if cfg.fusion == "concat":
        return np.concatenate(encodings, axis=1)
    if cfg.fusion == "instance_pool":
        return np.concatenate(encodings, axis=2)
    total = encodings[0]
    for f in encodings[1:]:
        total = total + f
    return total


def _cluster_members(clusters: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """The (..., K, n) pooling mask of bag clusters (..., n), a ConfigError
    if a cluster is outside the model's; with ``instance_pool`` fusion each
    scale's copy of an instance joins its cluster."""
    k = cfg.n_clusters
    if clusters.size and not 0 <= clusters.min() <= clusters.max() < k:
        raise ConfigError(f"bag clusters fall outside the model's {k} clusters")
    members = clusters[..., None, :] == np.arange(k)[:, None]
    return np.tile(members, cfg.n_scales) if cfg.fusion == "instance_pool" else members


def forward_bag(bag: Bag, params: ModelParams) -> Tensor:
    """Full bag pass on the graph: encode, fuse, pool per cluster, classify.

    Returns log-probabilities over the two classes as a (2, 1) tensor.
    """
    cfg = params.config
    members = _cluster_members(bag.clusters, cfg)
    items = _fuse_instances(bag.patient.emb[bag.index], params)
    pooled, _ = instance_pool(items, params, cfg.pooling, members)
    return classifier_head(pooled, params)


# Bag instances scored in one block by forward_bags. It bounds the
# block's working set (a few arrays of this many instances times a layer
# width) whatever the number of bags: at 128 the train and eval stages
# peak no higher than one bag at a time, where 256 added about 1 MB at
# bag 64.
_BLOCK_INSTANCES = 128


def forward_bags(bags: Sequence[Bag], params: ModelParams) -> np.ndarray:
    """Log-probabilities (B, 2) of equal-size bags, with no graph.

    Row i equals ``forward_bag(bags[i], params)`` to the bit: a block of
    bags at a time runs through the same layer kernels, stacked on a
    leading axis.
    """
    sizes = sorted({len(bag.index) for bag in bags})
    if len(sizes) > 1 or sizes == [0]:
        raise ContractError(f"forward_bags needs bags of one size >= 1, got sizes {sizes}")
    out = np.empty((len(bags), 2))
    if not bags:
        return out
    members = _cluster_members(np.stack([bag.clusters for bag in bags]), params.config)
    pool_v, pool_w, pool_u = _pool_weights(params)
    step = max(1, _BLOCK_INSTANCES // sizes[0])
    for start in range(0, len(bags), step):
        block = bags[start : start + step]
        items = _fuse_arrays(np.stack([bag.patient.emb[bag.index] for bag in block]), params)
        pooled = _pool(items, members[start : start + step], pool_v, pool_w, pool_u)[0]
        out[start : start + step] = _classify(pooled, params)[0][..., 0]
    return out


def attention_records(
    dataset: Dataset, params: ModelParams, patients: Iterable[str] | None = None
) -> list[AttentionRecord]:
    """Cross-scale attention scores for every location of the given patients.

    Scores depend only on the location itself, not on bag composition, so
    each patient's locations go through the encoders and the attention
    scores together, without the graph and without the fused encodings the
    scores would weight. Patients are looked up by id, in the order given
    (default: the whole dataset). Values are plain Python numbers so CSV
    output stays repr-stable.
    """
    if params.config.fusion != "cross_scale_attention":
        raise ConfigError("no cross-scale attention in this variant")
    chosen = dataset if patients is None else [dataset.patient(pid) for pid in patients]
    out = []
    for p in chosen:
        scores = _attention_scores(np.stack(_encode_arrays(p.emb[None], params), axis=1), params)
        out += [
            AttentionRecord(p.patient_id, loc, (x, y), tuple(col))
            for loc, (x, y), col in zip(
                p.location_ids.tolist(), p.xy.tolist(), scores[0].T.tolist()
            )
        ]
    return out
