"""Shared test oracles: finite differences, gradient comparison, named
views of a model's parameters, the per-instance reference forward of the
bag model, and the CSV fixture writer."""

import json
from pathlib import Path

import numpy as np

from crossmil import autodiff as ad
from crossmil.autodiff import Tensor
from crossmil.models import _offsets, _view


def central_difference(f, values, h=1e-5):
    """Numeric gradient of scalar-valued f() w.r.t. each of ``values``:
    an array, perturbed in place, or a tensor, whose .data is.

    f recomputes from the current values on every call, so this stays
    independent of the backward it checks.
    """
    grads = []
    for t in values:
        data = t.data if isinstance(t, Tensor) else t
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


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-8):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def relative_error(analytic, numeric):
    """Worst elementwise |analytic - numeric|, relative to the larger of
    the two magnitudes or 1, whichever is largest."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float((np.abs(analytic - numeric) / denom).max())


def param_views(params):
    """Each parameter's values by name, as a view of ``params.flat`` (of a
    gradient buffer's too), in ``param_layout`` order."""
    return {name: _view(params.flat, *at) for name, at in _offsets(params.config).items()}


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


def leaf_tensors(params):
    """One graph leaf per parameter, by name, each viewing its values in
    ``params.flat``: the parameters of the reference forward."""
    return {name: Tensor(view, requires_grad=True) for name, view in param_views(params).items()}


def _reference_encode(x, scale, t):
    h = ad.relu(t[f"encoder{scale}.w1"] @ x + t[f"encoder{scale}.b1"])
    return t[f"encoder{scale}.w2"] @ h + t[f"encoder{scale}.b2"]


def _reference_cross_scale(encodings, t, cfg):
    act = ad.tanh if cfg.attention_activation == "tanh" else ad.relu
    logits = []
    for s, f in enumerate(encodings):
        key = "attn" if cfg.attention_sharing == "shared" else f"attn{s}"
        logits.append(ad.transpose(t[f"{key}.w"]) @ act(t[f"{key}.v"] @ f))
    scores = ad.softmax(ad.concat(logits, axis=0), axis=0)
    return ad.concat(encodings, axis=1) @ scores, scores


def _reference_pool(items, t, pooling):
    logits = []
    for h in items:
        a = ad.tanh(t["pool.v"] @ h)
        if pooling == "gated":
            a = a * ad.sigmoid(t["pool.u"] @ h)
        logits.append(ad.transpose(t["pool.w"]) @ a)
    weights = ad.softmax(ad.concat(logits, axis=0), axis=0)
    return ad.concat(items, axis=1) @ weights


def reference_scores(vectors, leaves, cfg):
    """(S, 1) cross-scale scores of one location, per-scale (E,) arrays in."""
    encodings = [_reference_encode(Tensor(v[:, None]), s, leaves) for s, v in enumerate(vectors)]
    return _reference_cross_scale(encodings, leaves, cfg)[1]


def reference_forward_bag(bag, leaves, cfg):
    """Per-instance forward: every instance and scale is its own (dim, 1) column.

    The model code batches a bag into feature-major matrices; this is the
    straight loop it must agree with, built from the tape's primitive ops
    on ``leaves`` (``leaf_tensors``). Returns (log_probs, loss, [per-instance
    (S, 1) cross-scale scores]), the loss being the NLL of the bag's label.
    """
    by_cluster = {c: [] for c in range(cfg.n_clusters)}
    all_scores = []
    for i, cluster in zip(bag.index.tolist(), bag.clusters.tolist()):
        vectors = [Tensor(v[:, None]) for v in bag.patient.emb[i]]
        if cfg.fusion == "single_scale":
            items = [_reference_encode(vectors[cfg.scale_index], cfg.scale_index, leaves)]
        else:
            encodings = [_reference_encode(x, s, leaves) for s, x in enumerate(vectors)]
            if cfg.fusion == "cross_scale_attention":
                fused, scores = _reference_cross_scale(encodings, leaves, cfg)
                items = [fused]
                all_scores.append(scores)
            elif cfg.fusion == "concat":
                items = [ad.concat(encodings, axis=0)]
            elif cfg.fusion == "add":
                total = encodings[0]
                for f in encodings[1:]:
                    total = total + f
                items = [total]
            else:  # instance_pool: every scale's encoding is its own item
                items = encodings
        by_cluster[cluster].extend(items)
    zero = Tensor(np.zeros((cfg.fused_dim, 1)))
    z = ad.concat(
        [
            _reference_pool(by_cluster[c], leaves, cfg.pooling) if by_cluster[c] else zero
            for c in range(cfg.n_clusters)
        ],
        axis=0,
    )
    log_probs = ad.log_softmax(leaves["classifier.w"] @ z + leaves["classifier.b"], axis=0)
    onehot = Tensor(np.eye(2)[:, [bag.label]])
    return log_probs, (log_probs * onehot).sum() * -1.0, all_scores


def to_csv_store(manifest_path):
    """Rewrite a saved dataset's .npy tables as CSVs and point the manifest at them.

    Each table becomes ``location_id,scale,x,y,e0,...`` rows, floats at 17
    significant digits (an exact float64 round trip), which is the layout
    an outside embedding extractor writes. Returns the manifest path.
    """
    manifest = Path(manifest_path)
    doc = json.loads(manifest.read_text())
    for entry in doc["patients"]:
        npy = manifest.parent / entry["file"]
        table = np.load(npy, allow_pickle=False)
        header = "location_id,scale,x,y," + ",".join(f"e{i}" for i in range(table.shape[1] - 4))
        lines = [header]
        for row in table.tolist():
            lines.append(f"{int(row[0])},{int(row[1])}," + ",".join(f"{v:.17g}" for v in row[2:]))
        csv = npy.with_suffix(".csv")
        csv.write_text("\n".join(lines) + "\n")
        npy.unlink()
        entry["file"] = csv.name
    manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return manifest
