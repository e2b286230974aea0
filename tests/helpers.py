"""Shared test oracles: finite differences, complex-step gradients,
gradient comparison, named views of a model's parameters and the
per-instance reference forward of the bag model."""

import math

import numpy as np

from crossmil.models import _offsets


def central_difference(f, values, h=1e-5):
    """Numeric gradient of scalar-valued f() w.r.t. each array of
    ``values``, perturbed in place.

    f recomputes from the current values on every call, so this stays
    independent of the backward it checks.
    """
    grads = []
    for data in values:
        g = np.zeros_like(data)
        flat = data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = f()
            flat[i] = saved - h
            f_minus = f()
            flat[i] = saved
            gf[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def complex_step_gradient(loss_of, params, h=1e-30):
    """The gradient of ``loss_of`` at ``params`` over ``params.flat``, by
    complex step (Squire & Trapp, SIAM Review 40(1), 1998).

    ``loss_of`` maps named parameter arrays, as ``named_views`` gives
    them, to the loss. Here each array carries one leading axis of
    directions: direction i adds ``1j * h`` to parameter i alone, so one
    call gives every derivative, and ``loss.imag / h`` is exact to
    rounding as long as ``loss_of`` is complex-safe: analytic in its
    inputs, with no ``abs``, ``np.maximum`` or comparison on a value that
    depends on the parameters, save on its real part.
    """
    flat = params.flat + 1j * h * np.eye(params.flat.size)
    return loss_of(named_views(flat, params.config)).imag / h


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-8):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def relative_error(analytic, numeric):
    """Worst elementwise |analytic - numeric|, relative to the larger of
    the two magnitudes or 1, whichever is largest."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float((np.abs(analytic - numeric) / denom).max())


def named_views(flat, cfg):
    """Each parameter's values by name, from ``flat`` (..., P) laid out as
    ``param_layout(cfg)`` orders them, the leading axes kept; a view of a
    one-dimensional ``flat``."""
    lead = flat.shape[:-1]
    return {
        name: flat[..., start : start + math.prod(shape)].reshape(*lead, *shape)
        for name, (start, shape) in _offsets(cfg).items()
    }


def param_views(params):
    """Each parameter's values by name, as a view of ``params.flat`` (of a
    gradient buffer's too), in ``param_layout`` order."""
    return named_views(params.flat, params.config)


def named_layer_arrays(params):
    """Each array of ``params.layers``, by the name of the parameter it
    views: a scale's slice of a stacked kind, or the whole array."""
    cfg, layers = params.config, params.layers
    named = {}
    for i, s in enumerate(cfg.encoder_scales):
        for kind, stacked in zip(("w1", "b1", "w2", "b2"), layers.encoder):
            named[f"encoder{s}.{kind}"] = stacked[i]
    if layers.attention is not None:
        v, w_rows = layers.attention
        if cfg.attention_sharing == "shared":
            named["attn.v"], named["attn.w"] = v, w_rows
        else:
            for s in range(cfg.n_scales):
                named[f"attn{s}.v"], named[f"attn{s}.w"] = v[s], w_rows[s]
    v, w_row, u = layers.pool
    named["pool.v"], named["pool.w"] = v, w_row
    if u is not None:
        named["pool.u"] = u
    named["classifier.w"], named["classifier.b"] = layers.classifier
    return named


# The reference below is plain numpy on (..., dim, 1) columns, any leading
# axes riding along, and complex-safe, so ``complex_step_gradient`` can
# differentiate it. It shares no kernel with the model.


def _relu(x):
    return np.where(x.real > 0, x, 0)


def _softmax(x):
    """Softmax over axis -2, shifted by the real part's max."""
    e = np.exp(x - x.real.max(axis=-2, keepdims=True))
    return e / e.sum(axis=-2, keepdims=True)


def _log_softmax(x):
    """Log-softmax over axis -2, shifted by the real part's max."""
    shifted = x - x.real.max(axis=-2, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-2, keepdims=True))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _reference_encode(x, scale, t):
    h = _relu(t[f"encoder{scale}.w1"] @ x + t[f"encoder{scale}.b1"])
    return t[f"encoder{scale}.w2"] @ h + t[f"encoder{scale}.b2"]


def _reference_cross_scale(encodings, t, cfg):
    act = np.tanh if cfg.attention_activation == "tanh" else _relu
    logits = []
    for s, f in enumerate(encodings):
        key = "attn" if cfg.attention_sharing == "shared" else f"attn{s}"
        logits.append(t[f"{key}.w"].swapaxes(-1, -2) @ act(t[f"{key}.v"] @ f))
    scores = _softmax(np.concatenate(logits, axis=-2))
    return np.concatenate(encodings, axis=-1) @ scores, scores


def _reference_pool(items, t, pooling):
    logits = []
    for h in items:
        a = np.tanh(t["pool.v"] @ h)
        if pooling == "gated":
            a = a * _sigmoid(t["pool.u"] @ h)
        logits.append(t["pool.w"].swapaxes(-1, -2) @ a)
    weights = _softmax(np.concatenate(logits, axis=-2))
    return np.concatenate(items, axis=-1) @ weights


def reference_scores(vectors, named, cfg):
    """(..., S, 1) cross-scale scores of one location, per-scale (E,) arrays in."""
    encodings = [_reference_encode(v[:, None], s, named) for s, v in enumerate(vectors)]
    return _reference_cross_scale(encodings, named, cfg)[1]


def reference_forward_bag(bag, named, cfg):
    """Per-instance forward: every instance and scale is its own (dim, 1) column.

    The model code batches a bag into feature-major matrices; this is the
    straight loop it must agree with, on the parameter arrays ``named``
    (``param_views``, or ``named_views`` with leading axes). Returns
    (log_probs (..., 2, 1), loss (...), [per-instance (..., S, 1)
    cross-scale scores]), the loss being the NLL of the bag's label.
    """
    by_cluster = {c: [] for c in range(cfg.n_clusters)}
    all_scores = []
    for i, cluster in zip(bag.index.tolist(), bag.clusters.tolist()):
        vectors = [v[:, None] for v in bag.patient.emb[i]]
        if cfg.fusion == "single_scale":
            items = [_reference_encode(vectors[cfg.scale_index], cfg.scale_index, named)]
        else:
            encodings = [_reference_encode(x, s, named) for s, x in enumerate(vectors)]
            if cfg.fusion == "cross_scale_attention":
                fused, scores = _reference_cross_scale(encodings, named, cfg)
                items = [fused]
                all_scores.append(scores)
            elif cfg.fusion == "concat":
                items = [np.concatenate(encodings, axis=-2)]
            elif cfg.fusion == "add":
                total = encodings[0]
                for f in encodings[1:]:
                    total = total + f
                items = [total]
            else:  # instance_pool: every scale's encoding is its own item
                items = encodings
        by_cluster[cluster].extend(items)
    b = named["classifier.b"]
    zero = np.zeros((*b.shape[:-2], cfg.fused_dim, 1), b.dtype)
    z = np.concatenate(
        [
            _reference_pool(by_cluster[c], named, cfg.pooling) if by_cluster[c] else zero
            for c in range(cfg.n_clusters)
        ],
        axis=-2,
    )
    log_probs = _log_softmax(named["classifier.w"] @ z + b)
    return log_probs, -log_probs[..., bag.label, 0], all_scores
