"""Model zoo: per-scale instance encoders, cross-scale attention fusion,
baseline fusion schemes, attention pooling, and the bag classifier.

A bag travels through the model as feature-major matrices, one column
per instance, with the scales on an array axis: the n instances enter as
(S', E, n), an (E, n) slice per encoder scale (S' = 1 for
``single_scale``, else S). Each layer is one forward kernel, plain numpy
with an optional leading batch axis, and one backward kernel written by
hand. By the name its errors give, each layer is:

- ``mi_fcn_encode`` (``_encode``): per scale, two fully-connected layers
  with a ReLU between, (S', E, n) -> (S', L, n);
- ``cross_scale_attention`` (``_attend``, ``_fuse_scales``): per-scale
  logits w^T act(V f_s), softmaxed over the scale axis into (S, n)
  scores that weight the (S, L, n) encodings into fused (L, n) columns;
- the fusion's own name (``_fuse``) for the other fusions: a reshape or
  a sum over the scales;
- ``instance_pool`` (``_pool``): one attention-logit row over the items,
  softmaxed within each row of a (K, n) cluster-membership mask into
  weights that pool the columns into one (F, 1) vector per cluster
  (zeros for an empty cluster);
- ``classifier_head`` (``_classify``): a linear map of the concatenated
  pools and a log-softmax, (F, K) -> (2, 1);
- ``nll_loss`` (``_nll``): each bag's negative log-probability of its class.

Each backward kernel maps the gradient of its layer's output to its
input's (the encoder's input is data and gets none) and writes its
parameters' gradients into given arrays.

Parameters are views into one flat vector, so the optimizer steps them
all in place; each kernel reads its weights as views of that vector, one
kind stacked over the scales where the layer has one per scale.
``_forward`` alone composes the forward kernels, and ``train_step``
alone the backward: ``_forward`` and the loss on one bag, then the
backward kernels from the loss down to the encoder, each parameter's
gradient written into its slot of a gradient buffer laid out like the
parameters. ``forward_bags`` runs ``_forward`` on equal-size bags
stacked on a leading axis a block at a time, for validation and scoring;
attention maps run each patient's locations through the encoder and
attention kernels alone, for the scores. A stacked bag or scale gives
the bits it gives alone, because each (E, n) input slice is contiguous
and the classifier takes a (B, K*F, 1) column per bag, so every matmul
runs on the strides of a lone one. Every intermediate that can leave the
finite range is checked (``check_finite``), and the error names the
layer. Each kernel fixes the order in which it adds terms, and
checkpoints depend on that order to the bit. The softmax, log-softmax
and sigmoid the kernels share are the array helpers below, shifted or
split so no exponent overflows.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .clustering import Bag
from .data import Dataset
from .errors import ConfigError, ContractError, DomainError, check_choice, check_int

FUSIONS = ("cross_scale_attention", "concat", "add", "single_scale", "instance_pool")
SHARINGS = ("shared", "per_scale")
ACTIVATIONS = ("tanh", "relu")
POOLINGS = ("plain", "gated")


def check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    """Return ``arr``, or raise a DomainError naming ``op`` if it holds a NaN or Inf.

    An overflowing sum of finite values warns as numpy does, unless the
    caller ignores overflow, as the model layers do.
    """
    # a single reduction: any NaN/Inf makes the sum non-finite, and so may
    # large finite values, which the elementwise test then rules out
    if not math.isfinite(np.add.reduce(arr, axis=None)) and not np.isfinite(arr).all():
        raise DomainError(f"non-finite values in result of '{op}'")
    return arr


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    # split on sign so neither branch exponentiates a large positive value
    pos = x >= 0
    y = np.empty_like(x)
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    y[~pos] = ez / (1.0 + ez)
    return y


def softmax_array(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_array(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


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
    read, are views into it, so an optimizer can step them all in place.
    A gradient buffer is a ``ModelParams`` too: ``train_step`` writes
    through its ``layers``, and the optimizer reads its ``flat``. A
    pickled ``ModelParams`` is its config and ``flat``; unpickling builds
    the views again.
    """

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        size = sum(math.prod(shape) for _, shape in _offsets(config).values())
        flat = np.array(flat, dtype=np.float64)  # owns its memory; unpickled arrays may not
        if flat.shape != (size,):
            raise ConfigError(f"{flat.shape} parameter values do not fit the config's {size}")
        self.config, self.flat = config, check_finite(flat, "leaf")
        self.layers = _layer_arrays(flat, config)

    def __reduce__(self):
        return ModelParams, (self.config, self.flat)

    def names(self) -> list[str]:
        return list(_offsets(self.config))


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
        np.maximum(check_finite(h, op), 0.0, out=h)
        out = w2 @ h
        out += b2
        return check_finite(out, op), h


def _encode_backward(
    g: np.ndarray, x: np.ndarray, h: np.ndarray, weights: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
) -> None:
    """Encoder backward: the gradient g (S', L, n) of the encodings ->
    the W1, b1, W2 and b2 gradients, written into ``grads`` (stacked as
    ``weights`` are). The input is data, so it gets no gradient."""
    _, _, w2, _ = weights
    g_w1, g_b1, g_w2, g_b2 = grads
    g_pre = (w2.swapaxes(-1, -2) @ g) * (h > 0.0)  # h > 0 where its pre-activation is
    np.matmul(g_pre, x.swapaxes(-1, -2), out=g_w1)
    np.sum(g_pre, axis=-1, keepdims=True, out=g_b1)
    np.matmul(g, h.swapaxes(-1, -2), out=g_w2)
    np.sum(g, axis=-1, keepdims=True, out=g_b2)


def _attend(f: np.ndarray, v: np.ndarray, w_rows: np.ndarray, tanh: bool) -> tuple[np.ndarray, ...]:
    """Cross-scale attention kernel: (..., S, L, n) encodings, V and the
    C-contiguous w^T rows -> scores
    (..., S, n) softmaxed over the scales, then the pre-activation and
    activation the backward reads."""
    op = "cross_scale_attention"
    with np.errstate(over="ignore", invalid="ignore"):
        pre = check_finite(v @ f, op)  # (..., S, D, n)
        act = np.tanh(pre) if tanh else np.maximum(pre, 0.0)
        logits = check_finite(w_rows @ act, op)[..., 0, :]  # (..., S, n)
    return softmax_array(logits, -2), pre, act


def _fuse_scales(f: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The (..., L, n) sum of the (..., S, L, n) encodings weighted by their
    (..., S, n) scores, added over the scales in scale order."""
    with np.errstate(over="ignore", invalid="ignore"):
        return check_finite((f * scores[..., None, :]).sum(axis=-3), "cross_scale_attention")


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


def _pool(
    x: np.ndarray, mask: np.ndarray, v: np.ndarray, w_row: np.ndarray, u: np.ndarray | None
) -> tuple[np.ndarray, ...]:
    """Per-cluster pooling kernel: (..., F, m) items and (..., K, m) masks ->
    pooled (..., F, K) and weights (..., K, m), then the transposed
    weights, tanh layer, gate (None unless ``u`` is given) and activation
    the backward reads. ``w_row`` is w^T as a C-contiguous row."""
    op = "instance_pool"
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.tanh(check_finite(v @ x, op))
        gate = None if u is None else sigmoid_array(check_finite(u @ x, op))
        act = h if u is None else h * gate
        logits = check_finite(w_row @ act, op)  # (..., 1, m)
    # softmax of the logits row within each mask row; an empty row stays zero
    masked = np.where(mask, logits, -np.inf)
    top = masked.max(axis=-1, keepdims=True)
    top[~mask.any(axis=-1)] = 0.0  # exp(-inf) below gives zeros, not NaN
    e = np.exp(masked - top)
    total = e.sum(axis=-1, keepdims=True)
    weights = e / np.where(total > 0.0, total, 1.0)
    weights_t = weights.swapaxes(-1, -2).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        pooled = check_finite(x @ weights_t, op)
    return pooled, weights, weights_t, h, gate, act


def _pool_backward(
    g: np.ndarray, x: np.ndarray, saved: Sequence[np.ndarray | None],
    layer: Sequence[np.ndarray | None], grads: Sequence[np.ndarray | None],
) -> np.ndarray:
    """Pooling backward: the gradient g (F, K) of the pools, the items x
    (F, m) and what ``_pool`` ``saved`` after the pools -> the V, w^T-row
    and U gradients, written into ``grads`` (laid out as ``layer``, U's
    None without a gate), and the items' gradient."""
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
    # the three paths add in a fixed order: pooling, V, U
    g_x = g @ weights_t.T + v.T @ g_pre
    return g_x if u is None else g_x + u.T @ g_gate


def _classify(pooled: np.ndarray, layer: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Classifier kernel: (..., F, K) pools and the classifier's W and b ->
    log-probabilities (..., 2, 1), then the (..., K*F, 1) input the
    backward reads. Each input is a column of its own, so its matmul does
    not depend on how many are stacked."""
    op = "classifier_head"
    w, b = layer
    z = pooled.swapaxes(-1, -2).copy().reshape(*pooled.shape[:-2], -1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        logits = check_finite(w @ z + b, op)
        log_probs = check_finite(log_softmax_array(logits, -2), op)
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


def _nll(log_probs: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Loss kernel: log-probabilities (..., 2, 1) and the true classes (...)
    -> the losses (...) -(log_probs . onehot), each rounded as a product,
    a sum and a negation, then the one-hot columns the backward reads."""
    if not set(np.ravel(labels).tolist()) <= {0, 1}:
        raise ContractError(f"label must be 0 or 1, got {labels}")
    if log_probs.shape[-2:] != (2, 1):
        raise ContractError(f"log_probs must be (..., 2, 1), got shape {log_probs.shape}")
    lse = np.logaddexp(log_probs[..., 0, 0], log_probs[..., 1, 0])
    if log_probs.max() > 1e-9 or np.abs(lse).max() > 1e-6:
        raise ContractError("log_probs are not log-probabilities (logsumexp != 0)")
    onehot = np.eye(2)[np.asarray(labels, dtype=np.intp), :, None]
    return check_finite(np.asarray((log_probs * onehot).sum(axis=(-2, -1)) * -1.0), "nll_loss"), onehot


def _nll_backward(g: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    return np.broadcast_to(g * -1.0, onehot.shape) * onehot


@dataclass(frozen=True)
class AttentionRecord:
    """One location's cross-scale scores, keyed by patient and location id."""

    patient_id: str
    location_id: int
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
        return check_finite(items, fusion)


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


def _cluster_members(clusters: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """The (..., K, n) pooling mask of bag clusters (..., n), a ConfigError
    if a cluster is outside the model's; with ``instance_pool`` fusion each
    scale's copy of an instance joins its cluster."""
    k = cfg.n_clusters
    if clusters.size and not 0 <= clusters.min() <= clusters.max() < k:
        raise ConfigError(f"bag clusters fall outside the model's {k} clusters")
    members = clusters[..., None, :] == np.arange(k)[:, None]
    return np.tile(members, cfg.n_scales) if cfg.fusion == "instance_pool" else members


def _forward(x: np.ndarray, members: np.ndarray, params: ModelParams) -> tuple:
    """Inputs ``x`` (..., S', E, n) and pooling masks ``members`` (..., K, m)
    -> log-probabilities (..., 2, 1), then what the backward kernels read:
    the classifier's input, the pools, what ``_pool`` keeps after them, the
    items, what ``_attend`` keeps (None without it), encodings and hidden layer."""
    cfg, layers = params.config, params.layers
    f, h = _encode(x, layers.encoder)
    attend = cfg.fusion == "cross_scale_attention"
    attended = _attend(f, *layers.attention, cfg.attention_activation == "tanh") if attend else None
    items = _fuse_scales(f, attended[0]) if attend else _fuse(f, cfg.fusion)
    pooled, *pool_saved = _pool(items, members, *layers.pool)
    log_probs, z = _classify(pooled, layers.classifier)
    return log_probs, z, pooled, pool_saved, items, attended, f, h


def train_step(bag: Bag, params: ModelParams, grad: ModelParams) -> float:
    """The loss of one training bag, with its gradient written into
    ``grad``, a gradient buffer of the same config.

    ``_forward`` and ``_nll`` run on the bag as validation runs them on a
    block of bags; then each layer's backward kernel, from the loss down
    to the encoder, writes its parameters' gradients through
    ``grad.layers`` into ``grad.flat``. A non-finite value raises an error
    naming its layer (``leaf`` for the bag's own embeddings).
    """
    cfg, layers, slots = params.config, params.layers, grad.layers
    members = _cluster_members(bag.clusters, cfg)
    x = check_finite(_scale_inputs(bag.patient.emb[bag.index], cfg), "leaf")
    log_probs, z, pooled, pool_saved, items, attended, f, h = _forward(x, members, params)
    loss, onehot = _nll(log_probs, bag.label)

    g = _nll_backward(np.ones_like(loss), onehot)
    g = _classify_backward(g, (log_probs, z), pooled.shape, layers.classifier, slots.classifier)
    g = _pool_backward(g, items, pool_saved, layers.pool, slots.pool)
    if attended is not None:
        tanh = cfg.attention_activation == "tanh"
        g = _attend_backward(g, f, attended, layers.attention, tanh, slots.attention)
    else:
        g = _fuse_backward(g, f.shape, cfg.fusion)
    _encode_backward(g, x, h, layers.encoder, slots.encoder)
    return float(loss)


# Bag instances scored in one block by forward_bags. It bounds the
# block's working set, every intermediate _forward keeps for this many
# instances, whatever the number of bags: at 128, 20 bags of 8 or of 64
# peak at about 940 KiB (tracemalloc, default widths), where one bag per
# block peaks at 73 and 513 KiB and 256 instances at about 1,870 KiB.
_BLOCK_INSTANCES = 128


def forward_bags(bags: Sequence[Bag], params: ModelParams) -> np.ndarray:
    """Log-probabilities (B, 2) of equal-size bags.

    Row i equals ``forward_bags([bags[i]], params)`` to the bit: a block
    of bags at a time runs through ``_forward``, stacked on a leading
    axis.
    """
    sizes = sorted({len(bag.index) for bag in bags})
    if len(sizes) > 1 or sizes == [0]:
        raise ContractError(f"forward_bags needs bags of one size >= 1, got sizes {sizes}")
    out = np.empty((len(bags), 2))
    if not bags:
        return out
    members = _cluster_members(np.stack([bag.clusters for bag in bags]), params.config)
    step = max(1, _BLOCK_INSTANCES // sizes[0])
    for start in range(0, len(bags), step):
        block = bags[start : start + step]
        x = _scale_inputs(np.stack([bag.patient.emb[bag.index] for bag in block]), params.config)
        out[start : start + step] = _forward(x, members[start : start + step], params)[0][..., 0]
    return out


def attention_records(
    dataset: Dataset, params: ModelParams, patients: Iterable[str] | None = None
) -> list[AttentionRecord]:
    """Cross-scale attention scores for every location of the given patients.

    Scores depend only on the location itself, not on bag composition, so
    each patient's locations go through the encoders and the attention
    scores together, without the fused encodings the scores would weight.
    Patients are looked up by id, in the order given
    (default: the whole dataset). Values are plain Python numbers so CSV
    output stays repr-stable.
    """
    if params.config.fusion != "cross_scale_attention":
        raise ConfigError("no cross-scale attention in this variant")
    chosen = dataset if patients is None else [dataset.patient(pid) for pid in patients]
    cfg, layers = params.config, params.layers
    out = []
    for p in chosen:
        f = _encode(_scale_inputs(p.emb, cfg), layers.encoder)[0]
        scores = _attend(f, *layers.attention, cfg.attention_activation == "tanh")[0]
        out += [
            AttentionRecord(p.patient_id, loc, tuple(col))
            for loc, col in zip(p.location_ids.tolist(), scores.T.tolist())
        ]
    return out
