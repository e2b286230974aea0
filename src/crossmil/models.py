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

The loss, ``nll_loss``, is the negative log-probability of the true
class. Each layer's backward is one kernel too, which maps the gradient
of its output to its input's and writes its parameters' gradients into
given arrays.

Parameters are views into one flat vector, so the optimizer steps them
all in place; each kernel reads its weights as views of that vector,
one kind stacked over the scales where the layer has one per scale.
``train_step`` is a training step: the forward kernels, then the
backward kernels from the loss down to the encoder, each parameter's
gradient written into its slot of a buffer laid out like the flat
vector, with no graph. ``forward_bag`` runs one bag through the same
kernels as autodiff nodes, one per layer, six with the input and the
loss; it and the Tensor layer functions are the graph API the tests
check gradients on. ``forward_bags`` runs equal-size bags through the
forward kernels stacked on a leading axis a block at a time, for
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

import functools
import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

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


class LayerArrays(NamedTuple):
    """Each layer's arrays, as ``_layer_arrays`` views them."""

    encoder: tuple[np.ndarray, ...]
    attention: tuple[np.ndarray, np.ndarray] | None
    pool: tuple[np.ndarray, np.ndarray, np.ndarray | None]
    classifier: tuple[np.ndarray, np.ndarray]


class ModelParams:
    """Named trainable parameters for one model instance.

    ``flat``, a copy of the values given, holds every parameter in
    ``param_layout(config)`` order. ``layers``, the arrays the kernels
    read, and ``tensors``, the graph leaves the Tensor layer functions
    take (built on first use, so the graph-free paths make none), are
    views into it, so an optimizer can step them all in place. Write
    values through the views: a tensor whose ``data`` is rebound no
    longer follows ``flat``. A pickled ``ModelParams`` is its config and
    ``flat``; unpickling builds the views again.
    """

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        size = sum(math.prod(shape) for _, shape in _offsets(config).values())
        flat = np.array(flat, dtype=np.float64)  # owns its memory; unpickled arrays may not
        if flat.shape != (size,):
            raise ConfigError(f"{flat.shape} parameter values do not fit the config's {size}")
        self.config, self.flat = config, ad.check_finite(flat, "leaf")
        self.layers = _layer_arrays(flat, config)

    def __reduce__(self):
        return ModelParams, (self.config, self.flat)

    @functools.cached_property
    def tensors(self) -> dict[str, Tensor]:
        return {
            name: Tensor(_view(self.flat, start, shape), requires_grad=True)
            for name, (start, shape) in _offsets(self.config).items()
        }

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(_offsets(self.config))

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


@functools.lru_cache(maxsize=32)
def _offsets(cfg: ModelConfig) -> Mapping[str, tuple[int, tuple[int, ...]]]:
    """Where each parameter starts in ``flat``, and its shape, in
    ``param_layout`` order; read-only, as every caller shares it."""
    offsets, start = {}, 0
    for name, shape, _ in param_layout(cfg):
        offsets[name] = (start, shape)
        start += math.prod(shape)
    return MappingProxyType(offsets)


def _view(buf: np.ndarray, start: int, shape: tuple[int, ...]) -> np.ndarray:
    return buf[start : start + math.prod(shape)].reshape(shape)


def _layer_arrays(buf: np.ndarray, cfg: ModelConfig) -> LayerArrays:
    """The arrays the layer kernels read, as views of ``buf``, which is
    laid out like ``flat``:

    - each encoder kind stacked over the S' encoder scales, as
      (S', L, E), (S', L, 1), (S', L, L) and (S', L, 1);
    - the attention's V and w^T rows, (D, L) and (1, D) when shared, else
      stacked per scale as (S, D, L) and (S, 1, D); None without it;
    - pooling's V, w^T row and U (None unless gated);
    - the classifier's W and b.

    A per-scale kind is one stride through the scales' consecutive
    blocks, and each of its 2-D slices is C-contiguous, so a kernel's
    matmuls get the bits a stacked copy would give. Written through, the
    views fill a gradient buffer.
    """
    at = _offsets(cfg)

    def view(name):
        return _view(buf, *at[name])

    def stacked(names, count):
        """Each of ``names``, one scale's block, over ``count`` consecutive blocks."""
        first = at[names[0]][0]
        last, shape = at[names[-1]]
        blocks = buf[first : first + count * (last + math.prod(shape) - first)].reshape(count, -1)
        return [
            blocks[:, start - first : start - first + math.prod(shape)].reshape(count, *shape)
            for start, shape in map(at.get, names)
        ]

    s0, d = cfg.encoder_scales[0], cfg.attention_hidden
    kinds = ("w1", "b1", "w2", "b2")
    encoder = stacked([f"encoder{s0}.{kind}" for kind in kinds], len(cfg.encoder_scales))
    attention = None
    if cfg.fusion == "cross_scale_attention":
        if cfg.attention_sharing == "shared":
            attention = view("attn.v"), view("attn.w").reshape(1, d)
        else:
            v, w = stacked(["attn0.v", "attn0.w"], cfg.n_scales)
            attention = v, w.reshape(cfg.n_scales, 1, d)
    u = view("pool.u") if cfg.pooling == "gated" else None
    pool = view("pool.v"), view("pool.w").reshape(1, d), u
    return LayerArrays(tuple(encoder), attention, pool, (view("classifier.w"), view("classifier.b")))


def _encode(x: np.ndarray, weights: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Encoder kernel: (..., S', E, n) inputs at the S' encoder scales and
    their stacked weights -> (..., S', L, n) encodings, then the hidden
    layer the backward reads. A stacked matmul makes, per scale, the BLAS
    call a lone (E, n) input makes, so the bits match. The biases and the
    ReLU apply in place, which keeps the working set to x, h and out."""
    w1, b1, w2, b2 = weights
    op = "mi_fcn_encode"
    with np.errstate(over="ignore", invalid="ignore"):
        h = w1 @ x
        h += b1
        np.maximum(ad.check_finite(h, op), 0.0, out=h)
        out = w2 @ h
        out += b2
        return ad.check_finite(out, op), h


def _encode_backward(
    g: np.ndarray, x: np.ndarray, h: np.ndarray, weights: Sequence[np.ndarray],
    grads: Sequence[np.ndarray], need_x: bool,
) -> np.ndarray | None:
    """Encoder backward: the gradient g (S', L, n) of the encodings ->
    the W1, b1, W2 and b2 gradients, written into ``grads`` (stacked as
    ``weights`` are), and the input's gradient if ``need_x``."""
    w1, _, w2, _ = weights
    g_w1, g_b1, g_w2, g_b2 = grads
    g_pre = (w2.swapaxes(-1, -2) @ g) * (h > 0.0)  # h > 0 where its pre-activation is
    np.matmul(g_pre, x.swapaxes(-1, -2), out=g_w1)
    np.sum(g_pre, axis=-1, keepdims=True, out=g_b1)
    np.matmul(g, h.swapaxes(-1, -2), out=g_w2)
    np.sum(g, axis=-1, keepdims=True, out=g_b2)
    return w1.swapaxes(-1, -2) @ g_pre if need_x else None


def mi_fcn_encode(x: Tensor, params: ModelParams) -> Tensor:
    """Two fully-connected layers with a ReLU between, one encoder per scale:
    (S', E, n) -> (S', L, n), where S' counts the encoder scales."""
    weights, xd = params.layers.encoder, x.data
    out, h = _encode(xd, weights)

    def grad_fn(g):
        grads = [np.empty_like(w) for w in weights]
        g_x = _encode_backward(g, xd, h, weights, grads, x.requires_grad)
        return (g_x, *(grad[s] for s in range(len(xd)) for grad in grads))

    kinds = ("w1", "b1", "w2", "b2")
    leaves = [params[f"encoder{s}.{kind}"] for s in params.config.encoder_scales for kind in kinds]
    return ad.custom_op("mi_fcn_encode", out, (x, *leaves), grad_fn)


@dataclass
class CrossScaleAttentionOutput:
    fused: Tensor  # (L, n)
    scores: np.ndarray  # (S, n), positive, each column sums to 1; no gradient


def _attend(f: np.ndarray, v: np.ndarray, w_rows: np.ndarray, tanh: bool) -> tuple[np.ndarray, ...]:
    """Cross-scale attention kernel: (..., S, L, n) encodings, V and the
    C-contiguous w^T rows (as the primitive transpose gives) -> scores
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


def _attend_backward(
    g: np.ndarray, f: np.ndarray, saved: Sequence[np.ndarray],
    layer: Sequence[np.ndarray], tanh: bool, grads: Sequence[np.ndarray],
) -> np.ndarray:
    """Cross-scale attention backward: the gradient g (L, n) of the fused
    columns, the encodings f (S, L, n) and what ``_attend`` ``saved`` ->
    the V and w^T-row gradients, written into ``grads`` (laid out as
    ``layer``, the V and w^T rows), and the encodings' gradient."""
    scores, pre, act = saved
    v, w_rows = layer
    g_v, g_w_rows = grads
    g_logits = (g * f).sum(axis=1)
    g_logits = (g_logits - (g_logits * scores).sum(axis=0, keepdims=True)) * scores
    g_act = w_rows.swapaxes(-1, -2) @ g_logits[:, None]
    g_pre = g_act * (1.0 - act * act) if tanh else g_act * (pre > 0.0)
    if v.ndim == 2:  # shared: the per-scale gradients summed in scale order
        np.sum(g_pre @ f.swapaxes(1, 2), axis=0, out=g_v)
        np.sum(g_logits[:, None] @ act.swapaxes(1, 2), axis=0, out=g_w_rows)
    else:
        np.matmul(g_pre, f.swapaxes(1, 2), out=g_v)
        np.matmul(g_logits[:, None], act.swapaxes(1, 2), out=g_w_rows)
    return g * scores[:, None] + v.swapaxes(-1, -2) @ g_pre


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
    leaves = list(dict.fromkeys(t for s in range(len(f)) for t in params.attention_pair(s)))
    layer = params.layers.attention
    saved = _attend(f, *layer, tanh)
    fused = _fuse_scales(f, saved[0])

    def grad_fn(g):
        g_v, g_w_rows = grads = [np.empty_like(a) for a in layer]
        g_f = _attend_backward(g, f, saved, layer, tanh, grads)
        if g_v.ndim == 2:
            return g_f, g_v, g_w_rows.reshape(-1, 1)
        return (g_f, *(gp for s in range(len(f)) for gp in (g_v[s], g_w_rows[s].reshape(-1, 1))))

    fused_t = ad.custom_op("cross_scale_attention", fused, (encodings, *leaves), grad_fn)
    return CrossScaleAttentionOutput(fused_t, saved[0])


def _pool(
    x: np.ndarray, mask: np.ndarray, v: np.ndarray, w_row: np.ndarray, u: np.ndarray | None
) -> tuple[np.ndarray, ...]:
    """Per-cluster pooling kernel: (..., F, m) items and (..., K, m) masks ->
    pooled (..., F, K) and weights (..., K, m), then the transposed
    weights, tanh layer, gate (None unless ``u`` is given) and activation
    the backward reads. ``w_row`` is w^T as a C-contiguous row, as the
    primitive transpose gives."""
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


def _pool_backward(
    g: np.ndarray, x: np.ndarray, saved: Sequence[np.ndarray | None],
    layer: Sequence[np.ndarray | None], grads: Sequence[np.ndarray | None], need_x: bool,
) -> np.ndarray | None:
    """Pooling backward: the gradient g (F, K) of the pools, the items x
    (F, m) and what ``_pool`` ``saved`` after the pools -> the V, w^T-row
    and U gradients, written into ``grads`` (laid out as ``layer``, U's
    None without a gate), and the items' gradient if ``need_x``."""
    weights, weights_t, h, gate, act = saved
    v, w_row, u = layer
    g_v, g_w_row, g_u = grads
    g_weights = (x.T @ g).T.copy()
    inner = (g_weights * weights).sum(axis=1, keepdims=True)
    g_logits = ((g_weights - inner) * weights).sum(axis=0, keepdims=True)
    g_act = w_row.T @ g_logits
    g_pre = (g_act if u is None else g_act * gate) * (1.0 - h * h)
    np.matmul(g_pre, x.T, out=g_v)
    np.matmul(g_logits, act.T, out=g_w_row)
    if u is not None:
        g_gate = g_act * h * gate * (1.0 - gate)
        np.matmul(g_gate, x.T, out=g_u)
    if not need_x:
        return None
    # the three paths add in a fixed order: pooling, V, U
    g_x = g @ weights_t.T + v.T @ g_pre
    return g_x if u is None else g_x + u.T @ g_gate


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
    leaves = [params["pool.v"], params["pool.w"]] + ([params["pool.u"]] if gated else [])
    xd, layer = items.data, params.layers.pool
    pooled, *saved = _pool(xd, mask, *layer)

    def grad_fn(g):
        grads = [None if a is None else np.empty_like(a) for a in layer]
        g_items = _pool_backward(g, xd, saved, layer, grads, items.requires_grad)
        g_v, g_w_row, g_u = grads
        return (g_items, g_v, g_w_row.reshape(-1, 1)) + ((g_u,) if gated else ())

    weights = saved[0]
    return ad.custom_op("instance_pool", pooled, (items, *leaves), grad_fn), weights


def _classify(pooled: np.ndarray, layer: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Classifier kernel: (..., F, K) pools and the classifier's W and b ->
    log-probabilities (..., 2, 1), then the (..., K*F, 1) input the
    backward reads. Each input is a column of its own, so its matmul does
    not depend on how many are stacked."""
    op = "classifier_head"
    w, b = layer
    z = pooled.swapaxes(-1, -2).copy().reshape(*pooled.shape[:-2], -1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        logits = ad.check_finite(w @ z + b, op)
        log_probs = ad.check_finite(ad.log_softmax_array(logits, -2), op)
    return log_probs, z


def _classify_backward(
    g: np.ndarray, saved: Sequence[np.ndarray], shape: tuple[int, int],
    layer: Sequence[np.ndarray], grads: Sequence[np.ndarray],
) -> np.ndarray:
    """Classifier backward: the gradient g (2, 1) of the log-probabilities
    and what ``_classify`` ``saved`` -> the W and b gradients, written
    into ``grads``, and the gradient of the (F, K) pools of ``shape``."""
    log_probs, z = saved
    g_w, g_b = grads
    g_logits = g - np.exp(log_probs) * g.sum(axis=0, keepdims=True)
    np.matmul(g_logits, z.T, out=g_w)
    g_b[...] = g_logits
    return (layer[0].T @ g_logits).reshape(shape[::-1]).T.copy()


def classifier_head(pooled: Tensor, params: ModelParams) -> Tensor:
    """Log-probabilities (2, 1) of a linear map of the K pooled columns (F, K).

    Cluster k's pooled vector fills rows k*F ... k*F + F-1 of the
    classifier's input.
    """
    layer = params.layers.classifier
    saved = _classify(pooled.data, layer)

    def grad_fn(g):
        grads = [np.empty_like(a) for a in layer]
        return (_classify_backward(g, saved, pooled.shape, layer, grads), *grads)

    leaves = (params["classifier.w"], params["classifier.b"])
    return ad.custom_op("classifier_head", saved[0], (pooled, *leaves), grad_fn)


def _nll(log_probs: np.ndarray, label: int) -> tuple[np.ndarray, np.ndarray]:
    """Loss kernel: log-probabilities (2, 1) and the true class -> the
    loss -(log_probs . onehot), rounded as a product, a sum and a
    negation, then the one-hot column the backward reads."""
    if label not in (0, 1):
        raise ContractError(f"label must be 0 or 1, got {label}")
    lp = log_probs.reshape(-1)
    if lp.shape[0] != 2:
        raise ContractError(f"log_probs must have 2 entries, got shape {log_probs.shape}")
    if lp.max() > 1e-9 or abs(np.logaddexp(lp[0], lp[1])) > 1e-6:
        raise ContractError("log_probs are not log-probabilities (logsumexp != 0)")
    onehot = np.zeros_like(log_probs)
    onehot.reshape(-1)[label] = 1.0
    return ad.check_finite(np.asarray((log_probs * onehot).sum() * -1.0), "nll_loss"), onehot


def _nll_backward(g: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    return np.broadcast_to(g * -1.0, onehot.shape) * onehot


def nll_loss(log_probs: Tensor, label: int) -> Tensor:
    """Negative log-likelihood of the true class; stays on the graph."""
    value, onehot = _nll(log_probs.data, label)
    return ad.custom_op("nll_loss", value, (log_probs,), lambda g: (_nll_backward(g, onehot),))


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
    return _attend(f, *params.layers.attention, tanh)[0]


def _fuse(f: np.ndarray, fusion: str) -> np.ndarray:
    """The pooling items of encodings ``f`` (..., S, L, n) under a fusion
    without attention: for ``concat`` the (..., S*L, n) stacked features;
    for ``instance_pool`` (..., L, S*n), every scale's encoding an item of
    its own, with the columns of scale s at s*n ... s*n + n-1; for ``add``
    the (..., L, n) sum over the scales, in scale order, which passes
    ``single_scale``'s one scale through. A non-finite item is an error
    naming the fusion."""
    *lead, s, l, n = f.shape
    with np.errstate(over="ignore", invalid="ignore"):
        if fusion == "concat":
            items = f.reshape(*lead, s * l, n)
        elif fusion == "instance_pool":
            # at n = 1 the reshape is a strided view, and strides change the bits
            items = np.ascontiguousarray(f.swapaxes(-3, -2).reshape(*lead, l, s * n))
        else:
            items = f.sum(axis=-3)
        return ad.check_finite(items, fusion)


def _fuse_backward(g: np.ndarray, shape: tuple[int, int, int], fusion: str) -> np.ndarray:
    """``_fuse``'s backward: the items' gradient laid out as the (S, L, n)
    encodings of ``shape``."""
    s, l, n = shape
    if fusion == "concat":
        return g.reshape(s, l, n)
    if fusion == "instance_pool":
        return g.reshape(l, s, n).swapaxes(0, 1).copy()
    # each scale gets the sum's gradient, C-contiguous as the encoder's sums need
    return np.broadcast_to(g, (s, l, n)).copy()


def fuse(f: Tensor, fusion: str) -> Tensor:
    """``_fuse`` of encodings ``f`` (S, L, n) as one graph node."""
    items = _fuse(f.data, fusion)
    return ad.custom_op(fusion, items, (f,), lambda g: (_fuse_backward(g, f.shape, fusion),))


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


def train_step(bag: Bag, params: ModelParams, grad: np.ndarray) -> float:
    """The loss of one training bag, with its gradient written into
    ``grad``, a buffer laid out like ``params.flat``, and no graph.

    The forward kernels run as ``forward_bag`` runs them, then each
    layer's backward kernel from the loss down to the encoder, as the
    tape's sweep reaches them, writing every parameter's gradient into
    its slot. The loss and every slot equal, to the bit,
    ``nll_loss(forward_bag(bag, params), bag.label)`` and the ``.grad``
    its backward gives each tensor, and a value that leaves the finite
    range raises the error the graph would, naming the same layer.
    """
    cfg = params.config
    layers, slots = params.layers, _layer_arrays(grad, cfg)
    members = _cluster_members(bag.clusters, cfg)
    x = ad.check_finite(_scale_inputs(bag.patient.emb[bag.index], cfg), "leaf")
    f, h = _encode(x, layers.encoder)
    attend, tanh = cfg.fusion == "cross_scale_attention", cfg.attention_activation == "tanh"
    if attend:
        attended = _attend(f, *layers.attention, tanh)
        items = _fuse_scales(f, attended[0])
    else:
        items = _fuse(f, cfg.fusion)
    pooled, *pool_saved = _pool(items, members, *layers.pool)
    log_probs, z = _classify(pooled, layers.classifier)
    loss, onehot = _nll(log_probs, bag.label)

    g = _nll_backward(np.ones_like(loss), onehot)
    g = _classify_backward(g, (log_probs, z), pooled.shape, layers.classifier, slots.classifier)
    g = _pool_backward(g, items, pool_saved, layers.pool, slots.pool, need_x=True)
    if attend:
        g = _attend_backward(g, f, attended, layers.attention, tanh, slots.attention)
    else:
        g = _fuse_backward(g, f.shape, cfg.fusion)
    _encode_backward(g, x, h, layers.encoder, slots.encoder, need_x=False)
    return float(loss)


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
    layers = params.layers
    step = max(1, _BLOCK_INSTANCES // sizes[0])
    for start in range(0, len(bags), step):
        block = [bag.patient.emb[bag.index] for bag in bags[start : start + step]]
        f = _encode(_scale_inputs(np.stack(block), cfg), layers.encoder)[0]
        items = _fuse_scales(f, _attention_scores(f, params)) if attend else _fuse(f, cfg.fusion)
        del f  # else this block's encodings stay alive while the next block encodes
        pooled = _pool(items, members[start : start + step], *layers.pool)[0]
        out[start : start + step] = _classify(pooled, layers.classifier)[0][..., 0]
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
    encoder = params.layers.encoder
    out = []
    for p in chosen:
        scores = _attention_scores(_encode(_scale_inputs(p.emb, params.config), encoder)[0], params)
        out += [
            AttentionRecord(p.patient_id, loc, (x, y), tuple(col))
            for loc, (x, y), col in zip(p.location_ids.tolist(), p.xy.tolist(), scores.T.tolist())
        ]
    return out
