"""Shared test oracles: finite differences, gradient comparison, the
per-instance reference forward of the bag model, and the CSV fixture
writer."""

import json
from pathlib import Path

import numpy as np

from crossmil import autodiff as ad
from crossmil.autodiff import Tensor


def central_difference(f, tensors, h=1e-5):
    """Numeric gradient of scalar-valued f() w.r.t. each tensor's data.

    f rebuilds its graph from the tensors' current .data on every call,
    so this stays independent of the reverse-mode path it checks.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
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


def _reference_encode(x, scale, params):
    t = params.tensors
    h = ad.relu(t[f"encoder{scale}.w1"] @ x + t[f"encoder{scale}.b1"])
    return t[f"encoder{scale}.w2"] @ h + t[f"encoder{scale}.b2"]


def _reference_cross_scale(encodings, params, cfg):
    act = ad.tanh if cfg.attention_activation == "tanh" else ad.relu
    logits = []
    for s, f in enumerate(encodings):
        v, w = params.attention_pair(s)
        logits.append(ad.transpose(w) @ act(v @ f))
    scores = ad.softmax(ad.concat(logits, axis=0), axis=0)
    return ad.concat(encodings, axis=1) @ scores, scores


def _reference_pool(items, params, pooling):
    t = params.tensors
    logits = []
    for h in items:
        a = ad.tanh(t["pool.v"] @ h)
        if pooling == "gated":
            a = a * ad.sigmoid(t["pool.u"] @ h)
        logits.append(ad.transpose(t["pool.w"]) @ a)
    weights = ad.softmax(ad.concat(logits, axis=0), axis=0)
    return ad.concat(items, axis=1) @ weights


def reference_scores(vectors, params, cfg):
    """(S, 1) cross-scale scores of one location, per-scale (E,) arrays in."""
    encodings = [_reference_encode(Tensor(v[:, None]), s, params) for s, v in enumerate(vectors)]
    return _reference_cross_scale(encodings, params, cfg)[1]


def reference_forward_bag(bag, params, cfg):
    """Per-instance forward: every instance and scale is its own (dim, 1) column.

    The model code batches a bag into feature-major matrices; this is the
    straight loop it must agree with. Returns (log_probs, [per-instance
    (S, 1) cross-scale scores]).
    """
    by_cluster = {c: [] for c in range(cfg.n_clusters)}
    all_scores = []
    for i, cluster in zip(bag.index.tolist(), bag.clusters.tolist()):
        vectors = [Tensor(v[:, None]) for v in bag.patient.emb[i]]
        if cfg.fusion == "single_scale":
            items = [_reference_encode(vectors[cfg.scale_index], cfg.scale_index, params)]
        else:
            encodings = [_reference_encode(x, s, params) for s, x in enumerate(vectors)]
            if cfg.fusion == "cross_scale_attention":
                fused, scores = _reference_cross_scale(encodings, params, cfg)
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
            _reference_pool(by_cluster[c], params, cfg.pooling) if by_cluster[c] else zero
            for c in range(cfg.n_clusters)
        ],
        axis=0,
    )
    logits = params.tensors["classifier.w"] @ z + params.tensors["classifier.b"]
    return ad.log_softmax(logits, axis=0), all_scores


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
