"""Model zoo: per-scale instance encoders, cross-scale attention fusion,
baseline fusion schemes, attention pooling, and the bag classifier.

A bag travels through the model as feature-major matrices, one column
per instance, with the scales on an array axis: the n instances enter as
(S', E, n), an (E, n) slice per encoder scale (S' = 1 for
``single_scale``, else S). Each layer has one forward kernel, plain numpy
with an optional leading batch axis, and a backward written by hand:

- ``mi_fcn_encode``: per scale, two fully-connected layers with a ReLU
  between, (S', E, n) -> (S', L, n);
- ``cross_scale_attention``: per-scale logits w^T act(V f_s), softmaxed
  over the scale axis into (S, n) scores that weight the (S, L, n)
  encodings into fused (L, n) columns;
- ``fuse``: the other fusions, a reshape or a sum over the scales;
- ``instance_pool``: one attention-logit row over the items, softmaxed
  within each row of a (K, n) cluster-membership mask into weights that
  pool the columns into one (F, 1) vector per cluster (zeros for an
  empty cluster);
- ``classifier_head``: a linear map of the concatenated pools and a
  log-softmax, (F, K) -> (2, 1).

Parameters are views into one flat vector, so the optimizer steps them
all in place. ``forward_bag`` runs one bag through the kernels as
autodiff nodes, one per layer: a training step is six graph nodes
(input, encoder, fusion, pooling, head and loss), whatever the fusion
and bag size. ``forward_bags`` runs equal-size bags through the same
kernels with no graph, stacked on a leading axis a block at a time, for
validation and scoring; attention maps run each patient's locations
through the encoder and attention kernels as one group, for the scores
alone. A stacked bag or scale gives the bits it gives alone, because
each (E, n) input slice is contiguous and the classifier takes a
(B, K*F, 1) column per bag, so every matmul runs on the strides of a
lone one. Every intermediate that can leave the finite range is checked,
and the error names the layer. Each kernel fixes the order in which it
adds terms, and checkpoints depend on that order to the bit.
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


def _encoder_tensors(params: ModelParams) -> list[tuple[Tensor, ...]]:
    """(W1, b1, W2, b2) of each encoder scale, in ``param_layout`` order."""
    t, kinds = params.tensors, ("w1", "b1", "w2", "b2")
    return [tuple(t[f"encoder{s}.{p}"] for p in kinds) for s in params.config.encoder_scales]


def _encoder_weights(params: ModelParams) -> list[np.ndarray]:
    """W1, b1, W2 and b2, each stacked over the S' encoder scales, as
    (S', L, E), (S', L, 1) and so on."""
    return [np.stack([t.data for t in kind]) for kind in zip(*_encoder_tensors(params))]


def _encode(x: np.ndarray, weights: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Encoder kernel: (..., S', E, n) inputs at the S' encoder scales and
    their ``_encoder_weights`` -> (..., S', L, n) encodings, then the
    hidden layer the backward reads. A stacked matmul makes, per scale, the
    BLAS call a lone (E, n) input makes, so the bits match. The biases and
    the ReLU apply in place, which keeps the working set to x, h and out."""
    w1, b1, w2, b2 = weights
    op = "mi_fcn_encode"
    with np.errstate(over="ignore", invalid="ignore"):
        h = w1 @ x
        h += b1
        np.maximum(ad.check_finite(h, op), 0.0, out=h)
        out = w2 @ h
        out += b2
    return ad.check_finite(out, op), h


def mi_fcn_encode(x: Tensor, params: ModelParams) -> Tensor:
    """Two fully-connected layers with a ReLU between, one encoder per scale:
    (S', E, n) -> (S', L, n), where S' counts the encoder scales."""
    w1, _, w2, _ = weights = _encoder_weights(params)
    xd = x.data
    out, h = _encode(xd, weights)

    def grad_fn(g):
        g_pre = (w2.swapaxes(-1, -2) @ g) * (h > 0.0)  # h > 0 where its pre-activation is
        g_x = w1.swapaxes(-1, -2) @ g_pre if x.requires_grad else None
        g_w1, g_b1 = g_pre @ xd.swapaxes(-1, -2), g_pre.sum(axis=-1, keepdims=True)
        g_w2, g_b2 = g @ h.swapaxes(-1, -2), g.sum(axis=-1, keepdims=True)
        return (g_x, *(grad[s] for s in range(len(xd)) for grad in (g_w1, g_b1, g_w2, g_b2)))

    weights = [t for scale in _encoder_tensors(params) for t in scale]
    return ad.custom_op("mi_fcn_encode", out, (x, *weights), grad_fn)


@dataclass
class CrossScaleAttentionOutput:
    fused: Tensor  # (L, n)
    scores: np.ndarray  # (S, n), positive, each column sums to 1; no gradient


def _attention_weights(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """V and the w^T rows of the attention: (D, L) and (1, D) when shared,
    else stacked per scale, (S, D, L) and (S, 1, D). w^T is copied to a
    C-contiguous row, as the primitive transpose does."""
    pairs = [params.attention_pair(s) for s in range(params.config.n_scales)]
    if params.config.attention_sharing == "shared":
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


def cross_scale_attention(encodings: Tensor, params: ModelParams) -> CrossScaleAttentionOutput:
    """Softmax-weighted fusion of each location's per-scale encodings.

    ``encodings`` (S, L, n) holds the (L, n) encodings f_s of n locations
    at each scale s. Per scale, logit_s = w^T act(V f_s) is a (1, n) row;
    the (S, n) logits are softmaxed over the scale axis into scores a, and
    location i's fused column is sum_s a[s, i] f_s[:, i]. Gradients reach
    the encodings and the attention parameters through ``fused``.
    """
    f, cfg = encodings.data, params.config
    if f.ndim != 3 or len(f) != cfg.n_scales:
        raise ContractError(f"cross_scale_attention needs ({cfg.n_scales}, L, n), got {f.shape}")
    tanh = cfg.attention_activation == "tanh"
    shared = cfg.attention_sharing == "shared"
    attn_params = list(dict.fromkeys(t for s in range(len(f)) for t in params.attention_pair(s)))
    v, w_rows = _attention_weights(params)
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
            g_params = [gp for s in range(len(f)) for gp in (g_v[s], g_w[s].T.copy())]
        return (g_f, *g_params)

    fused_t = ad.custom_op("cross_scale_attention", fused, (encodings, *attn_params), grad_fn)
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
    items: Tensor, params: ModelParams, mask: np.ndarray | None = None
) -> tuple[Tensor, np.ndarray]:
    """Attention pooling, plain or gated as ``params`` are, of the m columns
    of ``items`` (F, m) into K pools.

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
    gated = params.config.pooling == "gated"
    t = params.tensors
    parents = (items, t["pool.v"], t["pool.w"]) + ((t["pool.u"],) if gated else ())
    xd = items.data
    vd, w_row, ud = _pool_weights(params)
    pooled, weights, weights_t, h, gate, act = _pool(xd, mask, vd, w_row, ud)

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
    """The (..., S', E, n) inputs at the S' encoder scales of locations
    ``emb`` (..., n, S, E), once the instances are checked against ``cfg``.
    Both forwards take it, since the layout fixes the bits: each (E, n)
    slice is C-contiguous, so a stacked bag runs as a lone one."""
    check_instance_shape(emb.shape[-2], emb.shape[-1], cfg)
    first = cfg.encoder_scales[0]
    scales = emb[..., first : first + len(cfg.encoder_scales), :]
    return np.ascontiguousarray(np.moveaxis(scales, -2, -3).swapaxes(-1, -2))


def _attention_scores(f: np.ndarray, params: ModelParams) -> np.ndarray:
    """The (..., S, n) cross-scale scores of encodings ``f`` (..., S, L, n)."""
    tanh = params.config.attention_activation == "tanh"
    return _attend(f, *_attention_weights(params), tanh)[0]


def _fuse(f: np.ndarray, fusion: str) -> np.ndarray:
    """The pooling items of encodings ``f`` (..., S, L, n) under a fusion
    without attention: for ``concat`` the (..., S*L, n) stacked features;
    for ``instance_pool`` (..., L, S*n), every scale's encoding an item of
    its own, with the columns of scale s at s*n ... s*n + n-1; for ``add``
    the (..., L, n) sum over the scales, in scale order, which passes
    ``single_scale``'s one scale through."""
    *lead, s, l, n = f.shape
    if fusion == "concat":
        return f.reshape(*lead, s * l, n)
    if fusion == "instance_pool":
        # at n = 1 the reshape is a strided view, and strides change the bits
        return np.ascontiguousarray(f.swapaxes(-3, -2).reshape(*lead, l, s * n))
    return f.sum(axis=-3)


def fuse(f: Tensor, fusion: str) -> Tensor:
    """``_fuse`` of encodings ``f`` (S, L, n) as one graph node, whose
    backward lays the items' gradient out as (S, L, n)."""
    s, l, n = f.shape

    def grad_fn(g):
        if fusion == "concat":
            return (g.reshape(s, l, n),)
        if fusion == "instance_pool":
            return (g.reshape(l, s, n).swapaxes(0, 1).copy(),)
        # each scale gets the sum's gradient, C-contiguous as the encoder's sums need
        return (np.broadcast_to(g, (s, l, n)).copy(),)

    return ad.custom_op(fusion, _fuse(f.data, fusion), (f,), grad_fn)


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
    f = mi_fcn_encode(Tensor(_scale_inputs(bag.patient.emb[bag.index], cfg)), params)
    attend = cfg.fusion == "cross_scale_attention"
    items = cross_scale_attention(f, params).fused if attend else fuse(f, cfg.fusion)
    pooled, _ = instance_pool(items, params, members)
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
    cfg = params.config
    attend = cfg.fusion == "cross_scale_attention"
    members = _cluster_members(np.stack([bag.clusters for bag in bags]), cfg)
    encoder = _encoder_weights(params)
    pool_v, pool_w, pool_u = _pool_weights(params)
    step = max(1, _BLOCK_INSTANCES // sizes[0])
    for start in range(0, len(bags), step):
        block = [bag.patient.emb[bag.index] for bag in bags[start : start + step]]
        f = _encode(_scale_inputs(np.stack(block), cfg), encoder)[0]
        items = _fuse_scales(f, _attention_scores(f, params)) if attend else _fuse(f, cfg.fusion)
        del f  # else this block's encodings stay alive while the next block encodes
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
    encoder = _encoder_weights(params)
    out = []
    for p in chosen:
        scores = _attention_scores(_encode(_scale_inputs(p.emb, params.config), encoder)[0], params)
        out += [
            AttentionRecord(p.patient_id, loc, (x, y), tuple(col))
            for loc, (x, y), col in zip(p.location_ids.tolist(), p.xy.tolist(), scores.T.tolist())
        ]
    return out
