import hashlib
import json
import math
import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossmil import autodiff as ad
from crossmil import models
from crossmil.autodiff import Tensor
from crossmil.checkpoint import load_checkpoint, save_checkpoint
from crossmil.clustering import Bag
from crossmil.data import Dataset, PatientRecord, default_scales
from crossmil.errors import ConfigError, ContractError, DimensionError, DomainError, FormatError
from crossmil.models import (
    ModelConfig,
    ModelParams,
    attention_records,
    classifier_head,
    cross_scale_attention,
    forward_bag,
    forward_bags,
    init_params,
    instance_pool,
    mi_fcn_encode,
    nll_loss,
    param_layout,
    train_step,
)
from crossmil.training import Adam, TrainConfig
from helpers import (
    assert_grads_close,
    central_difference,
    reference_forward_bag,
    reference_scores,
)


def make_bag(vectors, clusters, label=1, patient_id="p0"):
    """vectors: list per instance of per-scale arrays; the bag holds every instance once."""
    n = len(vectors)
    xy = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
    patient = PatientRecord(patient_id, label, np.array(vectors, dtype=float), np.arange(n), xy)
    return Bag(patient, np.arange(n), np.array(clusters))


def small_config(**overrides):
    base = dict(
        fusion="cross_scale_attention",
        attention_sharing="shared",
        attention_activation="tanh",
        embed_dim=4,
        encoder_dim=3,
        attention_hidden=2,
        n_clusters=2,
        n_scales=3,
        pooling="plain",
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_bag(rng, cfg, n_instances=4):
    vectors = [
        [rng.uniform(-1, 1, cfg.embed_dim) for _ in range(cfg.n_scales)]
        for _ in range(n_instances)
    ]
    clusters = [i % cfg.n_clusters for i in range(n_instances)]
    return make_bag(vectors, clusters)


class TestMiFcn:
    def test_zero_weights_give_zero_output(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        for name, t in params.tensors.items():
            if name.startswith("encoder0"):
                t.data[...] = 0.0
        out = mi_fcn_encode(Tensor(np.ones((3, 4, 1))), params)
        np.testing.assert_array_equal(out.data[0], np.zeros((3, 1)))

    def test_relu_zeroes_negative_coordinate(self):
        cfg = small_config(embed_dim=3, encoder_dim=3)
        params = init_params(cfg, seed=0)
        params.tensors["encoder0.w1"].data[...] = np.eye(3)
        params.tensors["encoder0.b1"].data[...] = np.zeros((3, 1))
        params.tensors["encoder0.w2"].data[...] = np.eye(3)
        params.tensors["encoder0.b2"].data[...] = np.zeros((3, 1))
        out = mi_fcn_encode(Tensor(np.tile([[2.0], [-5.0], [1.0]], (3, 1, 1))), params)
        np.testing.assert_array_equal(out.data[0], [[2.0], [0.0], [1.0]])

    def test_matches_two_layer_oracle(self):
        cfg = small_config()
        params = init_params(cfg, seed=3)
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (3, 4, 1))
        out = mi_fcn_encode(Tensor(x), params)
        for s in range(3):
            w1, b1, w2, b2 = (
                params.tensors[f"encoder{s}.{p}"].data for p in ("w1", "b1", "w2", "b2")
            )
            expected = w2 @ np.maximum(w1 @ x[s] + b1, 0.0) + b2
            np.testing.assert_allclose(out.data[s], expected, rtol=0, atol=1e-12)

    def test_input_gradient_matches_finite_differences(self):
        params = init_params(small_config(), seed=2)
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(-1, 1, (3, 4, 3)), requires_grad=True)
        probe = Tensor(rng.uniform(-1, 1, (3, 3, 3)))

        def loss():
            return (mi_fcn_encode(x, params) * probe).sum()

        ad.backward(loss())
        assert_grads_close(x.grad, central_difference(lambda: loss().item(), [x])[0])


class TestCrossScaleAttention:
    def test_zero_kernel_gives_uniform_scores_and_mean_fusion(self):
        cfg = small_config()
        params = init_params(cfg, seed=1)
        params.tensors["attn.w"].data[...] = np.zeros((2, 1))
        rng = np.random.default_rng(2)
        fs = Tensor(rng.uniform(-1, 1, (3, 3, 1)))
        out = cross_scale_attention(fs, params)
        np.testing.assert_allclose(out.scores, np.full((3, 1), 1 / 3), rtol=0, atol=1e-12)
        mean = sum(fs.data) / 3
        np.testing.assert_allclose(out.fused.data, mean, rtol=0, atol=1e-12)

    def test_single_scale_passthrough(self):
        cfg = small_config(n_scales=1)
        params = init_params(cfg, seed=4)
        f = Tensor(np.array([[[0.7], [-0.2], [1.1]]]))
        out = cross_scale_attention(f, params)
        assert out.scores[0, 0] == 1.0
        np.testing.assert_array_equal(out.fused.data, f.data[0])

    @pytest.mark.parametrize("sharing", ["shared", "per_scale"])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_hand_evaluated_two_dim_case(self, sharing, activation):
        cfg = small_config(
            embed_dim=2, encoder_dim=2, attention_hidden=2, n_scales=2,
            attention_sharing=sharing, attention_activation=activation,
        )
        params = init_params(cfg, seed=7)
        f_arrays = [np.array([[0.5], [-1.0]]), np.array([[1.5], [0.25]])]
        act = math.tanh if activation == "tanh" else lambda v: max(v, 0.0)

        logits = []
        for s, f in enumerate(f_arrays):
            v, w = params.attention_pair(s)
            v, w = v.data, w.data
            h0 = act(v[0, 0] * f[0, 0] + v[0, 1] * f[1, 0])
            h1 = act(v[1, 0] * f[0, 0] + v[1, 1] * f[1, 0])
            logits.append(w[0, 0] * h0 + w[1, 0] * h1)
        e0, e1 = math.exp(logits[0]), math.exp(logits[1])
        a = (e0 / (e0 + e1), e1 / (e0 + e1))
        fused = (
            a[0] * f_arrays[0][0, 0] + a[1] * f_arrays[1][0, 0],
            a[0] * f_arrays[0][1, 0] + a[1] * f_arrays[1][1, 0],
        )

        out = cross_scale_attention(Tensor(np.stack(f_arrays)), params)
        np.testing.assert_allclose(out.scores[:, 0], a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.fused.data[:, 0], fused, rtol=0, atol=1e-12)

    def test_scores_sum_to_one_and_positive(self):
        cfg = small_config()
        params = init_params(cfg, seed=9)
        rng = np.random.default_rng(9)
        for _ in range(50):
            fs = Tensor(rng.uniform(-2, 2, (3, 3, 1)))
            scores = cross_scale_attention(fs, params).scores
            assert abs(scores.sum() - 1.0) <= 1e-9
            assert (scores > 0).all()

    def test_shared_kernel_scale_equivariance(self):
        cfg = small_config(attention_sharing="shared")
        params = init_params(cfg, seed=11)
        rng = np.random.default_rng(11)
        fs = [rng.uniform(-1, 1, (3, 1)) for _ in range(3)]
        base = cross_scale_attention(Tensor(np.stack(fs)), params)
        perm = [2, 0, 1]
        permuted = cross_scale_attention(Tensor(np.stack([fs[i] for i in perm])), params)
        np.testing.assert_allclose(
            permuted.scores[:, 0], base.scores[perm, 0], atol=1e-9
        )
        np.testing.assert_allclose(permuted.fused.data, base.fused.data, atol=1e-9)

    def test_empty_input_rejected(self):
        with pytest.raises(ContractError):
            cross_scale_attention(Tensor(np.zeros((0, 3, 1))), init_params(small_config()))


class TestInstancePool:
    def test_single_item_passthrough(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        h = Tensor(np.array([[0.4], [0.5], [-0.1]]))
        pooled, weights = instance_pool(h, params)
        assert weights[0, 0] == 1.0
        np.testing.assert_array_equal(pooled.data, h.data)

    def test_identical_items_pool_uniformly(self):
        cfg = small_config()
        params = init_params(cfg, seed=1)
        h = np.array([[0.4], [0.5], [-0.1]])
        pooled, weights = instance_pool(Tensor(np.tile(h, (1, 4))), params)
        np.testing.assert_allclose(weights, np.full((1, 4), 0.25), atol=1e-12)
        np.testing.assert_allclose(pooled.data, h, atol=1e-12)

    @pytest.mark.parametrize("pooling", ["plain", "gated"])
    def test_matches_direct_oracle(self, pooling):
        cfg = small_config(pooling=pooling)
        params = init_params(cfg, seed=6)
        rng = np.random.default_rng(6)
        hs = [rng.uniform(-1, 1, (3, 1)) for _ in range(3)]
        vp = params.tensors["pool.v"].data
        wp = params.tensors["pool.w"].data
        logits = []
        for h in hs:
            t = np.tanh(vp @ h)
            if pooling == "gated":
                t = t * (1.0 / (1.0 + np.exp(-(params.tensors["pool.u"].data @ h))))
            logits.append((wp.T @ t).item())
        e = np.exp(np.asarray(logits) - max(logits))
        alpha = e / e.sum()
        expected = sum(a * h for a, h in zip(alpha, hs))
        pooled, weights = instance_pool(Tensor(np.hstack(hs)), params)
        np.testing.assert_allclose(weights[0], alpha, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pooled.data, expected, rtol=0, atol=1e-12)

    def test_empty_rejected(self):
        cfg = small_config()
        with pytest.raises(ContractError):
            instance_pool(Tensor(np.zeros((3, 0))), init_params(cfg))

    def test_mask_rows_pool_separately_and_empty_row_is_zero(self):
        cfg = small_config()
        params = init_params(cfg, seed=8)
        items = np.random.default_rng(8).uniform(-1, 1, (3, 5))
        mask = np.array([[1, 0, 1, 0, 0], [0, 0, 0, 0, 0], [0, 1, 0, 1, 1]], dtype=bool)
        pooled, weights = instance_pool(Tensor(items), params, mask)
        assert pooled.shape == (3, 3) and weights.shape == (3, 5)
        for k in (0, 2):
            alone, alone_w = instance_pool(Tensor(items[:, mask[k]]), params)
            np.testing.assert_allclose(pooled.data[:, [k]], alone.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(weights[k, mask[k]], alone_w[0], atol=1e-12)
        assert (pooled.data[:, 1] == 0.0).all() and (weights[1] == 0.0).all()
        assert (weights[~mask] == 0.0).all()

    @pytest.mark.parametrize(
        "mask, error",
        [
            (np.ones((2, 3)), ContractError),
            (np.ones((2, 4), dtype=bool), DimensionError),
            (np.ones(3, dtype=bool), DimensionError),
        ],
    )
    def test_mask_must_be_boolean_with_one_column_per_item(self, mask, error):
        params = init_params(small_config(), seed=0)
        with pytest.raises(error):
            instance_pool(Tensor(np.ones((3, 3))), params, mask)

    def test_each_pool_shifts_its_logits_by_its_own_max(self):
        params = init_params(small_config(), seed=0)
        params.tensors["pool.v"].data[...] = [[100.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        params.tensors["pool.w"].data[...] = [[1000.0], [0.0]]
        items = np.array([[1.0, -1.0], [0.2, 0.3], [0.5, -0.5]])
        # logits +1000 and -1000: shifting both pools by one max would
        # underflow the second pool's only weight to zero
        pooled, weights = instance_pool(Tensor(items), params, np.eye(2, dtype=bool))
        np.testing.assert_array_equal(weights, np.eye(2))
        np.testing.assert_array_equal(pooled.data, items)


class TestLayerDomain:
    """An overflow inside a layer is an error naming the layer, also where
    the activation after it would squash the overflow to a finite value."""

    @pytest.mark.parametrize(
        "layer", ["mi_fcn_encode", "cross_scale_attention", "instance_pool", "classifier_head"]
    )
    def test_overflow_is_a_domain_error_naming_the_layer(self, layer):
        cfg = small_config()  # tanh attention: saturates at +-1
        params = init_params(cfg, seed=0)
        x, big = Tensor(np.full((3, 4, 2), 10.0)), Tensor(np.full((3, 2), 10.0))
        calls = {
            "mi_fcn_encode": ("encoder0.w1", lambda: mi_fcn_encode(x, params)),
            "cross_scale_attention": (
                "attn.v", lambda: cross_scale_attention(Tensor(np.stack([big.data] * 3)), params)
            ),
            "instance_pool": ("pool.v", lambda: instance_pool(big, params)),
            "classifier_head": ("classifier.w", lambda: classifier_head(big, params)),
        }
        name, call = calls[layer]
        call()  # finite before the overflow
        params.tensors[name].data[...] = -1e308 if layer == "mi_fcn_encode" else 1e308
        with pytest.raises(DomainError, match=f"'{layer}'"):
            call()


class TestLayerBackward:
    """Each layer's hand-written backward against central differences of
    that layer alone, for its input and every parameter it reads."""

    @staticmethod
    def check(layer, inputs, params, names, seed):
        tensors = inputs + [params.tensors[n] for n in names]
        probe = Tensor(np.random.default_rng(seed).uniform(-1, 1, layer().shape))

        def loss():
            return (layer() * probe).sum()

        ad.backward(loss())
        numeric = central_difference(lambda: loss().item(), tensors)
        for t, num in zip(tensors, numeric):
            assert_grads_close(t.grad, num, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 5])
    def test_mi_fcn_encode(self, n):
        params = init_params(small_config(), seed=3)
        x = Tensor(np.random.default_rng(3).uniform(-1, 1, (3, 4, n)), requires_grad=True)
        names = [name for name in params.names() if name.startswith("encoder")]
        assert len(names) == 12
        self.check(lambda: mi_fcn_encode(x, params), [x], params, names, seed=3)

    def test_mi_fcn_encode_constant_input_gets_no_gradient(self):
        params = init_params(small_config(), seed=4)
        x = Tensor(np.random.default_rng(4).uniform(-1, 1, (3, 4, 2)))
        ad.backward(mi_fcn_encode(x, params).sum())
        assert x.grad is None
        encoders = [params.tensors[f"encoder{s}.{p}"] for s in range(3) for p in ("w1", "b2")]
        assert all(t.grad is not None for t in encoders)

    @pytest.mark.parametrize("sharing", ["shared", "per_scale"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_cross_scale_attention(self, sharing, activation):
        cfg = small_config(attention_sharing=sharing, attention_activation=activation)
        params = init_params(cfg, seed=5)
        rng = np.random.default_rng(5)
        encodings = Tensor(rng.uniform(-2, 2, (3, 3, 4)), requires_grad=True)
        names = [n for n in params.names() if n.startswith("attn")]
        assert len(names) == (2 if sharing == "shared" else 6)
        self.check(
            lambda: cross_scale_attention(encodings, params).fused,
            [encodings], params, names, seed=5,
        )

    @pytest.mark.parametrize("fusion", ["concat", "add", "instance_pool", "single_scale"])
    @pytest.mark.parametrize("n", [1, 4])
    def test_fuse(self, fusion, n):
        params = init_params(small_config(), seed=8)
        s = 1 if fusion == "single_scale" else 3
        encodings = Tensor(np.random.default_rng(8).uniform(-2, 2, (s, 3, n)), requires_grad=True)
        self.check(lambda: models.fuse(encodings, fusion), [encodings], params, [], seed=8)
        # the encoder sums this gradient over its columns, and a strided sum adds in another order
        assert encodings.grad.flags.c_contiguous

    @pytest.mark.parametrize("pooling", ["plain", "gated"])
    def test_instance_pool_with_an_empty_pool(self, pooling):
        params = init_params(small_config(pooling=pooling), seed=6)
        items = Tensor(np.random.default_rng(6).uniform(-2, 2, (3, 5)), requires_grad=True)
        mask = np.array([[1, 0, 1, 1, 0], [0, 0, 0, 0, 0], [0, 1, 0, 0, 1]], dtype=bool)
        names = ["pool.v", "pool.w"] + (["pool.u"] if pooling == "gated" else [])
        self.check(lambda: instance_pool(items, params, mask)[0], [items], params, names, seed=6)

    def test_classifier_head(self):
        params = init_params(small_config(), seed=7)
        pooled = Tensor(np.random.default_rng(7).uniform(-2, 2, (3, 2)), requires_grad=True)
        names = ["classifier.b", "classifier.w"]
        self.check(lambda: classifier_head(pooled, params), [pooled], params, names, seed=7)


class TestModelParams:
    def test_tensors_are_views_tiling_flat_in_layout_order(self):
        cfg = small_config(pooling="gated")
        params = init_params(cfg, seed=9)
        assert params.names() == [name for name, _, _ in param_layout(cfg)]
        tiled = np.concatenate([params.tensors[n].data.reshape(-1) for n in params.names()])
        np.testing.assert_array_equal(tiled, params.flat)
        params.flat[:] = np.arange(params.flat.size)
        start = 0
        for n in params.names():
            t = params.tensors[n]
            np.testing.assert_array_equal(t.data.reshape(-1), np.arange(start, start + t.size))
            start += t.size

    @pytest.mark.parametrize(
        "reshape",
        [lambda f: f[:-1], lambda f: np.append(f, 0.0), lambda f: f.reshape(1, -1)],
        ids=["short", "long", "2-d"],
    )
    def test_values_that_do_not_fit_the_config_are_a_config_error(self, reshape):
        flat = init_params(small_config(), seed=0).flat
        with pytest.raises(ConfigError, match=f"do not fit the config's {flat.size}"):
            ModelParams(small_config(), reshape(flat))

    @pytest.mark.parametrize("protocol", [4, 5])
    def test_pickles_as_config_and_values_viewed_by_its_own_tensors(self, protocol):
        params = init_params(small_config(attention_sharing="per_scale"), seed=4)
        back = pickle.loads(pickle.dumps(params, protocol=protocol))
        assert back.config == params.config
        assert back.names() == params.names()
        assert back.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(back.flat, params.flat)
        back.flat[:] = np.arange(back.flat.size)
        start = 0
        for n in back.names():
            t = back.tensors[n]
            assert np.shares_memory(t.data, back.flat) and t.requires_grad
            np.testing.assert_array_equal(t.data.reshape(-1), np.arange(start, start + t.size))
            start += t.size


class TestForwardBag:
    def test_log_probs_normalize(self):
        cfg = small_config()
        params = init_params(cfg, seed=13)
        bag = random_bag(np.random.default_rng(13), cfg, n_instances=5)
        log_probs = forward_bag(bag, params)
        assert abs(np.exp(log_probs.data).sum() - 1.0) <= 1e-9

    def test_add_equals_single_scale_when_one_scale(self):
        cfg_add = small_config(fusion="add", n_scales=1)
        cfg_single = small_config(fusion="single_scale", n_scales=1, scale_index=0)
        params_add = init_params(cfg_add, seed=21)
        params_single = init_params(cfg_single, seed=21)
        bag = random_bag(np.random.default_rng(21), cfg_add)
        lp_add = forward_bag(bag, params_add)
        lp_single = forward_bag(bag, params_single)
        np.testing.assert_array_equal(lp_add.data, lp_single.data)

    def test_straight_line_oracle_two_instances(self):
        # S=2, two instances in two clusters, plain pooling, cs-attention
        cfg = small_config(
            embed_dim=3, encoder_dim=2, attention_hidden=2, n_scales=2, n_clusters=2,
            attention_activation="tanh",
        )
        params = init_params(cfg, seed=30)
        rng = np.random.default_rng(30)
        raw = [[rng.uniform(-1, 1, 3) for _ in range(2)] for _ in range(2)]
        bag = make_bag(raw, [0, 1])

        p = {n: t.data for n, t in params.tensors.items()}

        def encode(x, s):
            return p[f"encoder{s}.w2"] @ np.maximum(
                p[f"encoder{s}.w1"] @ x[:, None] + p[f"encoder{s}.b1"], 0.0
            ) + p[f"encoder{s}.b2"]

        cluster_vecs = []
        for inst in range(2):
            fs = [encode(raw[inst][s], s) for s in range(2)]
            logits = np.array(
                [(p["attn.w"].T @ np.tanh(p["attn.v"] @ f)).item() for f in fs]
            )
            e = np.exp(logits - logits.max())
            a = e / e.sum()
            fused = a[0] * fs[0] + a[1] * fs[1]
            # each cluster holds exactly one instance: pooling is identity
            cluster_vecs.append(fused)
        z = np.vstack(cluster_vecs)
        logits = p["classifier.w"] @ z + p["classifier.b"]
        shifted = logits - logits.max()
        expected = shifted - np.log(np.exp(shifted).sum())

        log_probs = forward_bag(bag, params)
        np.testing.assert_allclose(log_probs.data, expected, rtol=0, atol=1e-10)
        records = attention_records(Dataset((bag.patient,), default_scales(2)), params)
        assert len(records) == 2
        assert records[0].patient_id == "p0" and records[0].location_id == 0

    def test_permutation_invariance_within_cluster(self):
        cfg = small_config(n_clusters=1)
        params = init_params(cfg, seed=17)
        rng = np.random.default_rng(17)
        vectors = [[rng.uniform(-1, 1, 4) for _ in range(3)] for _ in range(5)]
        lp1 = forward_bag(make_bag(vectors, [0] * 5), params)
        perm = [3, 1, 4, 0, 2]
        lp2 = forward_bag(make_bag([vectors[i] for i in perm], [0] * 5), params)
        np.testing.assert_allclose(lp1.data, lp2.data, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "fusion", ["cross_scale_attention", "concat", "add", "single_scale", "instance_pool"]
    )
    def test_every_parameter_gets_a_finite_gradient(self, fusion):
        cfg = small_config(
            fusion=fusion, scale_index=1 if fusion == "single_scale" else None
        )
        params = init_params(cfg, seed=23)
        bag = random_bag(np.random.default_rng(23), cfg, n_instances=4)

        def loss_value():
            return nll_loss(forward_bag(bag, params), bag.label)

        ad.backward(loss_value())
        tensors = [params.tensors[n] for n in params.names()]
        assert all(t.grad is not None and np.isfinite(t.grad).all() for t in tensors)
        numeric = central_difference(lambda: loss_value().item(), tensors)
        for t, num in zip(tensors, numeric):
            assert_grads_close(t.grad, num, rtol=1e-4, atol=1e-6)

    def test_wrong_embedding_dim_rejected(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        bad = make_bag([[np.zeros(7) for _ in range(3)]], [0])
        with pytest.raises(ConfigError):
            forward_bag(bad, params)

    def test_gated_pooling_variant_runs(self):
        cfg = small_config(pooling="gated", fusion="instance_pool")
        params = init_params(cfg, seed=2)
        bag = random_bag(np.random.default_rng(2), cfg)
        log_probs = forward_bag(bag, params)
        assert abs(np.exp(log_probs.data).sum() - 1.0) <= 1e-9
        with pytest.raises(ConfigError, match="no cross-scale attention"):
            attention_records(Dataset((bag.patient,), default_scales(3)), params)


ORACLE_CONFIGS = [
    (fusion, pooling, sharing, activation)
    for fusion in ("cross_scale_attention", "concat", "add", "single_scale", "instance_pool")
    for pooling in ("plain", "gated")
    for sharing in ("shared", "per_scale")
    for activation in ("relu", "tanh")
]


def oracle_config(fusion, pooling, sharing, activation, **widths):
    return ModelConfig(
        fusion=fusion, pooling=pooling, attention_sharing=sharing,
        attention_activation=activation,
        **{"embed_dim": 5, "encoder_dim": 4, "attention_hidden": 3, **widths},
        n_clusters=4, n_scales=3, scale_index=1 if fusion == "single_scale" else None,
    )


class TestBatchedForwardOracle:
    """The batched forward against the per-instance reference in helpers."""

    @pytest.mark.parametrize("bag_size", [1, 8, 64])
    @pytest.mark.parametrize("fusion,pooling,sharing,activation", ORACLE_CONFIGS)
    def test_outputs_and_gradients_match_per_instance_path(
        self, fusion, pooling, sharing, activation, bag_size
    ):
        cfg = oracle_config(fusion, pooling, sharing, activation)
        params = init_params(cfg, seed=bag_size)
        rng = np.random.default_rng([bag_size, len(fusion)])
        n = 70
        emb = rng.uniform(-2, 2, (n, cfg.n_scales, cfg.embed_dim))
        xy = rng.uniform(0, 100, (n, 2))
        patient = PatientRecord("p0", 1, emb, np.arange(100, 100 + n), xy)
        # cluster 1 is never used, so every bag has at least one empty cluster
        bag = Bag(patient, rng.choice(n, bag_size, replace=False), rng.choice([0, 2, 3], bag_size))
        tensors = [params.tensors[name] for name in params.names()]

        def run(log_probs):
            ad.backward(nll_loss(log_probs, bag.label))
            grads = [t.grad.copy() for t in tensors]
            ad.zero_grads(tensors)
            return log_probs.data, grads

        lp, grads = run(forward_bag(bag, params))
        ref_log_probs, ref_scores = reference_forward_bag(bag, params, cfg)
        ref_lp, ref_grads = run(ref_log_probs)
        np.testing.assert_allclose(lp, ref_lp, rtol=0, atol=1e-12)
        for name, g, ref in zip(params.names(), grads, ref_grads):
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-10, err_msg=name)
        if fusion == "cross_scale_attention":
            records = attention_records(Dataset((patient,), default_scales(3)), params)
            assert len(ref_scores) == bag_size
            for i, ref in zip(bag.index, ref_scores):
                rec = records[i]
                assert rec.location_id == 100 + i and rec.xy == tuple(xy[i])
                np.testing.assert_allclose(rec.scores, ref.data[:, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sharing", ["shared", "per_scale"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_attention_records_match_per_location_scores(self, sharing, activation):
        cfg = oracle_config("cross_scale_attention", "plain", sharing, activation)
        params = init_params(cfg, seed=4)
        rng = np.random.default_rng(4)
        patients = tuple(
            PatientRecord(
                f"p{j}", j % 2, rng.uniform(-2, 2, (n, 3, 5)), np.arange(n) * 3,
                rng.uniform(0, 50, (n, 2)),
            )
            for j, n in enumerate((1, 7, 30))
        )
        dataset = Dataset(patients, default_scales(3))
        records = attention_records(dataset, params, patients=["p2", "p0"])
        expected = [(p, i) for p in (patients[2], patients[0]) for i in range(len(p.emb))]
        assert len(records) == len(expected)
        for rec, (p, i) in zip(records, expected):
            assert (rec.patient_id, rec.location_id) == (p.patient_id, int(p.location_ids[i]))
            assert rec.xy == tuple(p.xy[i])
            assert all(type(v) is float for v in rec.scores) and type(rec.location_id) is int
            ref = reference_scores(p.emb[i], params, cfg).data[:, 0]
            np.testing.assert_allclose(rec.scores, ref, rtol=0, atol=1e-12)
            assert abs(sum(rec.scores) - 1.0) <= 1e-9
        assert len(attention_records(dataset, params)) == 38

    @pytest.mark.parametrize(
        "fusion", ["cross_scale_attention", "concat", "add", "single_scale", "instance_pool"]
    )
    def test_graph_size_per_bag_does_not_grow_with_the_bag(self, fusion):
        """One node per layer: the input, the encoders of every scale,
        fusion, pooling, head and loss, whatever the bag size."""
        cfg = ModelConfig(fusion=fusion, scale_index=1 if fusion == "single_scale" else None)
        params = init_params(cfg, seed=0)
        rng = np.random.default_rng(0)
        emb = rng.uniform(-1, 1, (64, cfg.n_scales, cfg.embed_dim))
        patient = PatientRecord("p0", 1, emb, np.arange(64), rng.uniform(0, 9, (64, 2)))
        counts = []
        params.tensors  # the parameter leaves, built on first use
        for bag_size in (8, 64):
            bag = Bag(patient, np.arange(bag_size), rng.integers(0, cfg.n_clusters, bag_size))
            before = next(ad._node_ids)
            nll_loss(forward_bag(bag, params), bag.label)
            counts.append(next(ad._node_ids) - before - 1)
        assert counts == [6, 6]

    def test_clusters_outside_the_model_rejected(self):
        cfg = small_config()
        bag = random_bag(np.random.default_rng(3), cfg)
        bad = Bag(bag.patient, bag.index, np.full(len(bag.index), cfg.n_clusters))
        with pytest.raises(ConfigError):
            forward_bag(bad, init_params(cfg, seed=0))


class TestTrainStep:
    """The graph-free training step against the graph it replaces."""

    @pytest.mark.parametrize("bag_size", [1, 8])
    @pytest.mark.parametrize("fusion,pooling,sharing,activation", ORACLE_CONFIGS)
    def test_gradient_buffer_is_the_tapes_bit_for_bit_over_adam_steps(
        self, fusion, pooling, sharing, activation, bag_size
    ):
        cfg = oracle_config(
            fusion, pooling, sharing, activation, embed_dim=32, encoder_dim=64, attention_hidden=32
        )
        step_params, tape_params = init_params(cfg, seed=bag_size), init_params(cfg, seed=bag_size)
        tc = TrainConfig(learning_rate=1e-2)
        step_opt, tape_opt = Adam(step_params, tc), Adam(tape_params, tc)
        leaves = [tape_params[name] for name in tape_params.names()]
        for bag in equal_size_bags(cfg, bag_size, np.random.default_rng(bag_size), n_bags=3):
            step_opt.grad[:] = np.nan  # every slot must be written
            loss = train_step(bag, step_params, step_opt.grad)
            assert np.isfinite(step_opt.grad).all()
            tape_loss = nll_loss(forward_bag(bag, tape_params), bag.label)
            ad.backward(tape_loss)
            tape_opt.grad[:] = np.concatenate([t.grad.reshape(-1) for t in leaves])
            ad.zero_grads(leaves)
            assert step_opt.grad.tobytes() == tape_opt.grad.tobytes()
            assert loss == tape_loss.item()
            step_opt.step()
            tape_opt.step()
        assert step_params.flat.tobytes() == tape_params.flat.tobytes()
        assert step_params.flat.tobytes() != init_params(cfg, seed=bag_size).flat.tobytes()

    @pytest.mark.parametrize(
        "layer,fusion",
        [
            ("leaf", "cross_scale_attention"),
            ("mi_fcn_encode", "cross_scale_attention"),
            ("cross_scale_attention", "cross_scale_attention"),
            ("add", "add"),
            ("instance_pool", "concat"),
            ("classifier_head", "instance_pool"),
        ],
    )
    def test_a_non_finite_value_names_the_layer_the_graph_names(self, layer, fusion):
        cfg = oracle_config(fusion, "gated", "shared", "tanh")
        params = init_params(cfg, seed=5)
        bag = equal_size_bags(cfg, 4, np.random.default_rng(5), n_bags=1)[0]
        grad = np.empty_like(params.flat)
        train_step(bag, params, grad)  # finite before the poison
        t = params.tensors
        if layer == "leaf":
            bag.patient.emb[bag.index[0], 2, 0] = np.inf
        elif layer == "add":  # every scale's encoding finite, their sum not
            for s in range(3):
                t[f"encoder{s}.w2"].data[...] = 0.0
                t[f"encoder{s}.b2"].data[...] = 1e308
        else:
            name = {"mi_fcn_encode": "encoder0.w1", "cross_scale_attention": "attn.v",
                    "instance_pool": "pool.v", "classifier_head": "classifier.w"}[layer]
            t[name].data[0, 0] = np.inf
        # a node's own finiteness check sums its value, which overflows at "add"
        with pytest.raises(DomainError) as graph, np.errstate(over="ignore"):
            nll_loss(forward_bag(bag, params), bag.label)
        with pytest.raises(DomainError) as step:
            train_step(bag, params, grad)
        assert str(step.value) == str(graph.value) == f"non-finite values in result of '{layer}'"


# forward_bags block sizes, in instances: one bag per block, a few, all bags at once
BLOCK_SIZES = (1, 3, 2**62)


def equal_size_bags(cfg, bag_size, rng, n_bags=7):
    """Bags of one size from patients of different sizes. Cluster 1 is
    empty in every bag, and clusters 0 and 2 in every other bag too."""
    bags = []
    for j in range(n_bags):
        n = bag_size + j
        emb = rng.uniform(-2, 2, (n, cfg.n_scales, cfg.embed_dim))
        patient = PatientRecord(f"p{j}", j % 2, emb, np.arange(n), rng.uniform(0, 9, (n, 2)))
        clusters = rng.choice([0, 2, 3] if j % 2 else [3], bag_size)
        bags.append(Bag(patient, rng.choice(n, bag_size, replace=False), clusters))
    return bags


def batched_mismatches(cfg, bag_size, set_block, seed=0):
    """The block sizes at which a row of forward_bags differs in any bit
    from forward_bag's log-probs for the same bag."""
    params = init_params(cfg, seed=seed)
    bags = equal_size_bags(cfg, bag_size, np.random.default_rng(seed))
    expected = np.stack([forward_bag(bag, params).data.reshape(-1) for bag in bags])
    bad = []
    for block in BLOCK_SIZES:
        set_block(block)
        if forward_bags(bags, params).tobytes() != expected.tobytes():
            bad.append(block)
    return bad


# Every variant at two BLAS threads; widths and bags of 96 put the encoder
# matmuls above the size at which BLAS splits work over threads.
BATCHED_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from crossmil import models
from test_models import ORACLE_CONFIGS, batched_mismatches, oracle_config
bad = []
for variant in ORACLE_CONFIGS:
    cfg = oracle_config(*variant, embed_dim=64, encoder_dim=96, attention_hidden=32)
    blocks = batched_mismatches(cfg, 96, lambda b: setattr(models, "_BLOCK_INSTANCES", b))
    if blocks:
        bad.append((variant, blocks))
print(bad)
sys.exit(1 if bad else 0)
"""


class TestForwardBags:
    """The graph-free forward over equal-size bags, against forward_bag."""

    @pytest.mark.parametrize("bag_size", [1, 8])
    @pytest.mark.parametrize("fusion,pooling,sharing,activation", ORACLE_CONFIGS)
    def test_rows_equal_forward_bag_bit_for_bit_at_any_block_size(
        self, monkeypatch, fusion, pooling, sharing, activation, bag_size
    ):
        # the default widths: at bag 8, an encoder input fed as a strided
        # view instead of a contiguous array changes low bits
        cfg = oracle_config(
            fusion, pooling, sharing, activation, embed_dim=32, encoder_dim=64, attention_hidden=32
        )

        def set_block(block):
            monkeypatch.setattr(models, "_BLOCK_INSTANCES", block)

        assert batched_mismatches(cfg, bag_size, set_block, seed=bag_size) == []

    def test_rows_equal_forward_bag_bit_for_bit_at_two_blas_threads(self):
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(tests.parent / "src"), os.environ.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, "-c", BATCHED_CHILD, str(tests)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert child.returncode == 0, child.stdout + child.stderr
        assert child.stdout.strip() == "[]"

    def test_records_no_graph_nodes(self):
        cfg = oracle_config("cross_scale_attention", "plain", "shared", "tanh")
        bags = equal_size_bags(cfg, 4, np.random.default_rng(1))
        params = init_params(cfg, seed=1)
        before = next(ad._node_ids)
        log_probs = forward_bags(bags, params)
        assert next(ad._node_ids) == before + 1
        assert log_probs.shape == (len(bags), 2)

    def test_no_bags_give_no_rows(self):
        assert forward_bags([], init_params(small_config())).shape == (0, 2)

    def test_bags_of_unequal_size_are_a_contract_error(self):
        cfg = oracle_config("cross_scale_attention", "plain", "shared", "tanh")
        rng = np.random.default_rng(2)
        bags = equal_size_bags(cfg, 3, rng) + equal_size_bags(cfg, 4, rng, n_bags=1)
        with pytest.raises(ContractError, match=r"one size >= 1, got sizes \[3, 4\]"):
            forward_bags(bags, init_params(cfg))

    def test_clusters_outside_the_model_give_the_forward_bag_config_error(self):
        cfg = oracle_config("cross_scale_attention", "plain", "shared", "tanh")
        bags = equal_size_bags(cfg, 3, np.random.default_rng(3), n_bags=4)
        bad = Bag(bags[2].patient, bags[2].index, np.full(3, cfg.n_clusters))
        params = init_params(cfg)
        with pytest.raises(ConfigError) as alone:
            forward_bag(bad, params)
        with pytest.raises(ConfigError) as batched:
            forward_bags(bags[:2] + [bad] + bags[3:], params)
        assert str(batched.value) == str(alone.value)

    def test_wrong_embedding_dim_rejected(self):
        cfg = oracle_config("cross_scale_attention", "plain", "shared", "tanh")
        bad = make_bag([[np.zeros(7) for _ in range(3)]], [0])
        with pytest.raises(ConfigError, match="dim 7"):
            forward_bags([bad], init_params(cfg))


def _resealed(raw: bytes) -> bytes:
    """A v3 checkpoint with its digest recomputed over the bytes after it."""
    return raw[:12] + hashlib.sha256(raw[44:]).digest() + raw[44:]


def _with_config_text(raw: bytes, text: bytes) -> bytes:
    """A v3 checkpoint with its config text swapped and its digest recomputed."""
    (old_len,) = struct.unpack_from("<I", raw, 44)
    return _resealed(raw[:44] + struct.pack("<I", len(text)) + text + raw[48 + old_len :])


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        cfg = small_config()
        params = init_params(cfg, seed=42)
        path = save_checkpoint(params, tmp_path / "model.bin")
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert loaded.names() == params.names()
        for name in params.names():
            np.testing.assert_array_equal(loaded.tensors[name].data, params.tensors[name].data)

    @pytest.mark.parametrize(
        "overrides",
        [dict(fusion="concat"), dict(fusion="single_scale", scale_index=2), dict(pooling="gated")],
    )
    def test_config_travels_with_the_parameters(self, tmp_path, overrides):
        cfg = small_config(**overrides)
        path = save_checkpoint(init_params(cfg, seed=1), tmp_path / "model.bin")
        assert load_checkpoint(path).config == cfg

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncation_anywhere_is_a_format_error(self, tmp_path):
        raw = save_checkpoint(init_params(small_config(), seed=3), tmp_path / "model.bin").read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(FormatError, match="cut.bin"):
                load_checkpoint(cut)

    def test_layout_is_header_digest_config_then_flat_values(self, tmp_path):
        cfg = small_config(pooling="gated")
        params = init_params(cfg, seed=3)
        raw = save_checkpoint(params, tmp_path / "model.bin").read_bytes()
        text = cfg.to_json().encode()
        body = struct.pack("<I", len(text)) + text + params.flat.astype("<f8").tobytes()
        assert raw == b"CMILCKPT" + struct.pack("<I", 3) + hashlib.sha256(body).digest() + body

    def test_any_flipped_byte_is_a_format_error_naming_the_file(self, tmp_path):
        raw = save_checkpoint(init_params(small_config(), seed=3), tmp_path / "model.bin").read_bytes()
        flipped = tmp_path / "flipped.bin"
        for i in range(len(raw)):
            flipped.write_bytes(raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1 :])
            with pytest.raises(FormatError, match="flipped.bin"):
                load_checkpoint(flipped)

    @pytest.mark.parametrize("extra", [1, 7])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        path = save_checkpoint(init_params(small_config(), seed=3), tmp_path / "model.bin")
        path.write_bytes(_resealed(path.read_bytes() + b"\x00" * extra))
        with pytest.raises(FormatError, match="value bytes are not whole float64 values"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit", [lambda raw: raw[:-8], lambda raw: raw + raw[-8:]], ids=["short", "long"]
    )
    def test_value_count_must_fit_the_config(self, tmp_path, edit):
        params = init_params(small_config(), seed=3)
        path = save_checkpoint(params, tmp_path / "model.bin")
        path.write_bytes(_resealed(edit(path.read_bytes())))
        match = f"model.bin: .* do not fit the config's {params.flat.size}"
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)

    def test_config_length_past_the_end_rejected(self, tmp_path):
        path = save_checkpoint(init_params(small_config(), seed=3), tmp_path / "model.bin")
        raw = path.read_bytes()
        path.write_bytes(_resealed(raw[:44] + struct.pack("<I", len(raw)) + raw[48:]))
        with pytest.raises(FormatError, match="runs past the end of the file"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [0, 1, 2, 4])
    def test_other_versions_rejected(self, tmp_path, version):
        path = save_checkpoint(init_params(small_config(), seed=3), tmp_path / "model.bin")
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + struct.pack("<I", version) + raw[12:])
        match = f"unsupported checkpoint version {version}"
        if version in (1, 2):
            match = f"model.bin: checkpoint version {version} is no longer read; retrain"
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)

    def test_config_digest_mismatch(self, tmp_path):
        cfg = small_config(attention_activation="tanh")
        path = save_checkpoint(init_params(cfg, seed=1), tmp_path / "model.bin")
        # same length, other activation, old digest kept
        path.write_bytes(path.read_bytes().replace(b'"tanh"', b'"relu"'))
        with pytest.raises(FormatError, match="digest"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.pop("pooling"),  # missing key
            lambda doc: doc.update(dropout=0.5),  # unknown key
            lambda doc: doc.update(encoder_dim=0),  # invalid value
            lambda doc: doc.update(encoder_dim=3.0),  # not an integer
            lambda doc: doc.update(fusion="gru"),  # unknown fusion
        ],
        ids=["missing-key", "unknown-key", "zero-width", "float-width", "unknown-fusion"],
    )
    def test_config_that_does_not_round_trip_rejected(self, tmp_path, edit):
        cfg = small_config()
        path = save_checkpoint(init_params(cfg, seed=1), tmp_path / "model.bin")
        doc = json.loads(cfg.to_json())
        edit(doc)
        text = json.dumps(doc, sort_keys=True).encode()
        path.write_bytes(_with_config_text(path.read_bytes(), text))
        with pytest.raises(FormatError, match="model.bin"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "text", [b"not json", b"[1, 2]", b"\xff\xfe", None], ids=["junk", "list", "utf8", "spaced"]
    )
    def test_config_text_not_canonical_rejected(self, tmp_path, text):
        cfg = small_config()
        path = save_checkpoint(init_params(cfg, seed=1), tmp_path / "model.bin")
        if text is None:  # the same config, not in canonical form
            text = json.dumps(json.loads(cfg.to_json()), sort_keys=True, indent=1).encode()
        path.write_bytes(_with_config_text(path.read_bytes(), text))
        with pytest.raises(FormatError, match="model.bin"):
            load_checkpoint(path)

    def test_tensors_must_fit_the_config(self, tmp_path):
        params = init_params(small_config(encoder_dim=3), seed=1)
        path = save_checkpoint(params, tmp_path / "model.bin")
        wider = small_config(encoder_dim=4)
        path.write_bytes(_with_config_text(path.read_bytes(), wider.to_json().encode()))
        match = f"do not fit the config's {init_params(wider).flat.size}"
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)
