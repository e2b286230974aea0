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
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmil import models
from crossmil.checkpoint import load_checkpoint, save_checkpoint
from crossmil.clustering import Bag
from crossmil.data import Dataset, PatientRecord, default_scales
from crossmil.errors import ConfigError, ContractError, DomainError, FormatError
from crossmil.models import (
    ModelConfig,
    ModelParams,
    attention_records,
    forward_bags,
    init_params,
    param_layout,
    train_step,
)
from crossmil.training import _epoch_loss
import helpers
from helpers import (
    assert_grads_close,
    central_difference,
    complex_step_gradient,
    named_layer_arrays,
    named_views,
    param_views,
    reference_forward_bag,
    reference_scores,
    relative_error,
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


def zero_grad(params):
    """A gradient buffer for ``params``, every slot zero."""
    return ModelParams(params.config, np.zeros_like(params.flat))


def encode(x, params):
    """The (S', L, n) encodings of inputs x (S', E, n)."""
    return models._encode(x, params.layers.encoder)[0]


def attend(f, params):
    """The (S, n) cross-scale scores of encodings f (S, L, n), and the
    (L, n) columns they fuse."""
    tanh = params.config.attention_activation == "tanh"
    scores = models._attend(f, *params.layers.attention, tanh)[0]
    return scores, models._fuse_scales(f, scores)


def pool(items, params, mask=None):
    """Pools (F, K) and weights (K, m) of items (F, m); without a mask,
    one pool of every item."""
    if mask is None:
        mask = np.ones((1, items.shape[1]), dtype=bool)
    return models._pool(items, mask, *params.layers.pool)[:2]


def log_probs_of(bag, params):
    """The (2,) log-probabilities of one bag."""
    return forward_bags([bag], params)[0]


class TestCheckFinite:
    def test_finite_array_is_returned_as_is(self):
        arr = np.array([[1.0, -2.0], [3.0, 1e308]])
        assert models.check_finite(arr, "op") is arr

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_names_the_op(self, bad):
        arr = np.zeros((2, 3))
        arr[1, 2] = bad
        with pytest.raises(DomainError, match="'my_layer'"):
            models.check_finite(arr, "my_layer")

    @pytest.mark.parametrize("big", [1e308, -1e308])
    def test_finite_values_whose_sum_overflows_are_returned(self, big):
        arr = np.full(5, big)
        with np.errstate(over="ignore"):
            assert not np.isfinite(arr.sum())
            assert models.check_finite(arr, "op") is arr

    def test_nan_beside_values_whose_sum_overflows_is_rejected(self):
        arr = np.array([1e308, 1e308, np.nan, 1.0])
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="'my_layer'"):
            models.check_finite(arr, "my_layer")

    def test_empty_array_is_returned_as_is(self):
        arr = np.zeros((0, 3))
        assert models.check_finite(arr, "op") is arr

    def test_an_overflowing_sum_warns_unless_overflow_is_ignored(self):
        arr = np.full(5, 1e308)
        with np.errstate(over="warn"), pytest.warns(RuntimeWarning, match="overflow"):
            assert models.check_finite(arr, "op") is arr


class TestArrayHelpers:
    """The softmax, log-softmax and sigmoid the layer kernels share."""

    def test_softmax_of_equal_logits(self):
        out = models.softmax_array(np.array([0.0, 0.0, 0.0]), 0)
        np.testing.assert_allclose(out, [1 / 3] * 3, rtol=0, atol=1e-15)

    def test_softmax_of_large_logits_does_not_overflow(self):
        out = models.softmax_array(np.array([1000.0, 0.0]), 0)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_softmax_against_extended_precision_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        wide = np.exp(x.astype(np.longdouble))
        expected = (wide / wide.sum()).astype(np.float64)
        np.testing.assert_allclose(models.softmax_array(x, 0), expected, rtol=0, atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_softmax_sums_to_one(self, logits):
        out = models.softmax_array(np.asarray(logits), 0)
        assert abs(out.sum() - 1.0) <= 1e-12

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.floats(-100, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_softmax_shift_invariance(self, logits, shift):
        base = models.softmax_array(np.asarray(logits), 0)
        shifted = models.softmax_array(np.asarray(logits) + shift, 0)
        np.testing.assert_allclose(base, shifted, rtol=0, atol=1e-12)

    def test_sigmoid_extremes_stay_finite(self):
        out = models.sigmoid_array(np.array([-800.0, 0.0, 800.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_log_softmax_of_large_logits_stays_finite(self):
        y = models.log_softmax_array(np.array([[1e4], [1e4 - 2.0], [-1e4]]), 0)
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y[:2, 0], -np.log1p(np.exp(-2.0)) - [0.0, 2.0], atol=1e-12)
        assert np.exp(y).sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_softmax_normalizes_along_its_axis_only(self, axis):
        x = np.random.default_rng(0).uniform(-5, 5, (3, 4, 2))
        out = models.softmax_array(x, axis)
        e = np.exp(x)
        np.testing.assert_allclose(out, e / e.sum(axis=axis, keepdims=True), rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.sum(axis=axis), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_log_softmax_is_the_log_of_softmax(self, axis):
        x = np.random.default_rng(1).uniform(-20, 20, (3, 4, 2))
        np.testing.assert_allclose(
            models.log_softmax_array(x, axis), np.log(models.softmax_array(x, axis)),
            rtol=0, atol=1e-13,
        )

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.floats(-100, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_log_softmax_shift_invariance(self, logits, shift):
        base = models.log_softmax_array(np.asarray(logits), 0)
        shifted = models.log_softmax_array(np.asarray(logits) + shift, 0)
        np.testing.assert_allclose(base, shifted, rtol=0, atol=1e-12)

    def test_sigmoid_against_extended_precision_oracle(self):
        x = np.linspace(-40.0, 40.0, 161)
        wide = 1 / (1 + np.exp(-x.astype(np.longdouble)))
        np.testing.assert_allclose(
            models.sigmoid_array(x), wide.astype(np.float64), rtol=1e-15, atol=0
        )

    @given(st.floats(-700, 700))
    @settings(max_examples=100, deadline=None)
    def test_sigmoid_of_x_and_of_minus_x_sum_to_one(self, x):
        y = models.sigmoid_array(np.array([x, -x]))
        assert abs(y.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("shape", [(0,), (5,), (3, 4)])
    def test_sigmoid_keeps_the_shape_of_its_input(self, shape):
        x = np.random.default_rng(2).uniform(-3, 3, shape)
        y = models.sigmoid_array(x)
        assert y.shape == shape and y.dtype == np.float64
        np.testing.assert_allclose(y, 1 / (1 + np.exp(-x)), rtol=0, atol=1e-15)


class TestMiFcn:
    def test_zero_weights_give_zero_output(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        for name, view in param_views(params).items():
            if name.startswith("encoder0"):
                view[...] = 0.0
        out = encode(np.ones((3, 4, 1)), params)
        np.testing.assert_array_equal(out[0], np.zeros((3, 1)))

    def test_relu_zeroes_negative_coordinate(self):
        cfg = small_config(embed_dim=3, encoder_dim=3)
        params = init_params(cfg, seed=0)
        views = param_views(params)
        views["encoder0.w1"][...] = np.eye(3)
        views["encoder0.b1"][...] = np.zeros((3, 1))
        views["encoder0.w2"][...] = np.eye(3)
        views["encoder0.b2"][...] = np.zeros((3, 1))
        out = encode(np.tile([[2.0], [-5.0], [1.0]], (3, 1, 1)), params)
        np.testing.assert_array_equal(out[0], [[2.0], [0.0], [1.0]])

    def test_matches_two_layer_oracle(self):
        cfg = small_config()
        params = init_params(cfg, seed=3)
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (3, 4, 1))
        out = encode(x, params)
        views = param_views(params)
        for s in range(3):
            w1, b1, w2, b2 = (views[f"encoder{s}.{p}"] for p in ("w1", "b1", "w2", "b2"))
            expected = w2 @ np.maximum(w1 @ x[s] + b1, 0.0) + b2
            np.testing.assert_allclose(out[s], expected, rtol=0, atol=1e-12)


class TestCrossScaleAttention:
    def test_zero_kernel_gives_uniform_scores_and_mean_fusion(self):
        cfg = small_config()
        params = init_params(cfg, seed=1)
        param_views(params)["attn.w"][...] = np.zeros((2, 1))
        rng = np.random.default_rng(2)
        fs = rng.uniform(-1, 1, (3, 3, 1))
        scores, fused = attend(fs, params)
        np.testing.assert_allclose(scores, np.full((3, 1), 1 / 3), rtol=0, atol=1e-12)
        mean = sum(fs) / 3
        np.testing.assert_allclose(fused, mean, rtol=0, atol=1e-12)

    def test_single_scale_passthrough(self):
        cfg = small_config(n_scales=1)
        params = init_params(cfg, seed=4)
        f = np.array([[[0.7], [-0.2], [1.1]]])
        scores, fused = attend(f, params)
        assert scores[0, 0] == 1.0
        np.testing.assert_array_equal(fused, f[0])

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
        views = param_views(params)

        logits = []
        for s, f in enumerate(f_arrays):
            key = "attn" if sharing == "shared" else f"attn{s}"
            v, w = views[f"{key}.v"], views[f"{key}.w"]
            h0 = act(v[0, 0] * f[0, 0] + v[0, 1] * f[1, 0])
            h1 = act(v[1, 0] * f[0, 0] + v[1, 1] * f[1, 0])
            logits.append(w[0, 0] * h0 + w[1, 0] * h1)
        e0, e1 = math.exp(logits[0]), math.exp(logits[1])
        a = (e0 / (e0 + e1), e1 / (e0 + e1))
        fused = (
            a[0] * f_arrays[0][0, 0] + a[1] * f_arrays[1][0, 0],
            a[0] * f_arrays[0][1, 0] + a[1] * f_arrays[1][1, 0],
        )

        scores, out = attend(np.stack(f_arrays), params)
        np.testing.assert_allclose(scores[:, 0], a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out[:, 0], fused, rtol=0, atol=1e-12)

    def test_scores_sum_to_one_and_positive(self):
        cfg = small_config()
        params = init_params(cfg, seed=9)
        rng = np.random.default_rng(9)
        for _ in range(50):
            scores, _ = attend(rng.uniform(-2, 2, (3, 3, 1)), params)
            assert abs(scores.sum() - 1.0) <= 1e-9
            assert (scores > 0).all()

    def test_shared_kernel_scale_equivariance(self):
        cfg = small_config(attention_sharing="shared")
        params = init_params(cfg, seed=11)
        rng = np.random.default_rng(11)
        fs = [rng.uniform(-1, 1, (3, 1)) for _ in range(3)]
        base_scores, base_fused = attend(np.stack(fs), params)
        perm = [2, 0, 1]
        scores, fused = attend(np.stack([fs[i] for i in perm]), params)
        np.testing.assert_allclose(scores[:, 0], base_scores[perm, 0], atol=1e-9)
        np.testing.assert_allclose(fused, base_fused, atol=1e-9)


class TestInstancePool:
    def test_single_item_passthrough(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        h = np.array([[0.4], [0.5], [-0.1]])
        pooled, weights = pool(h, params)
        assert weights[0, 0] == 1.0
        np.testing.assert_array_equal(pooled, h)

    def test_identical_items_pool_uniformly(self):
        cfg = small_config()
        params = init_params(cfg, seed=1)
        h = np.array([[0.4], [0.5], [-0.1]])
        pooled, weights = pool(np.tile(h, (1, 4)), params)
        np.testing.assert_allclose(weights, np.full((1, 4), 0.25), atol=1e-12)
        np.testing.assert_allclose(pooled, h, atol=1e-12)

    @pytest.mark.parametrize("pooling", ["plain", "gated"])
    def test_matches_direct_oracle(self, pooling):
        cfg = small_config(pooling=pooling)
        params = init_params(cfg, seed=6)
        rng = np.random.default_rng(6)
        hs = [rng.uniform(-1, 1, (3, 1)) for _ in range(3)]
        views = param_views(params)
        vp, wp = views["pool.v"], views["pool.w"]
        logits = []
        for h in hs:
            t = np.tanh(vp @ h)
            if pooling == "gated":
                t = t * (1.0 / (1.0 + np.exp(-(views["pool.u"] @ h))))
            logits.append((wp.T @ t).item())
        e = np.exp(np.asarray(logits) - max(logits))
        alpha = e / e.sum()
        expected = sum(a * h for a, h in zip(alpha, hs))
        pooled, weights = pool(np.hstack(hs), params)
        np.testing.assert_allclose(weights[0], alpha, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pooled, expected, rtol=0, atol=1e-12)

    def test_mask_rows_pool_separately_and_empty_row_is_zero(self):
        cfg = small_config()
        params = init_params(cfg, seed=8)
        items = np.random.default_rng(8).uniform(-1, 1, (3, 5))
        mask = np.array([[1, 0, 1, 0, 0], [0, 0, 0, 0, 0], [0, 1, 0, 1, 1]], dtype=bool)
        pooled, weights = pool(items, params, mask)
        assert pooled.shape == (3, 3) and weights.shape == (3, 5)
        for k in (0, 2):
            alone, alone_w = pool(np.ascontiguousarray(items[:, mask[k]]), params)
            np.testing.assert_allclose(pooled[:, [k]], alone, rtol=0, atol=1e-12)
            np.testing.assert_allclose(weights[k, mask[k]], alone_w[0], atol=1e-12)
        assert (pooled[:, 1] == 0.0).all() and (weights[1] == 0.0).all()
        assert (weights[~mask] == 0.0).all()

    def test_each_pool_shifts_its_logits_by_its_own_max(self):
        params = init_params(small_config(), seed=0)
        views = param_views(params)
        views["pool.v"][...] = [[100.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        views["pool.w"][...] = [[1000.0], [0.0]]
        items = np.array([[1.0, -1.0], [0.2, 0.3], [0.5, -0.5]])
        # logits +1000 and -1000: shifting both pools by one max would
        # underflow the second pool's only weight to zero
        pooled, weights = pool(items, params, np.eye(2, dtype=bool))
        np.testing.assert_array_equal(weights, np.eye(2))
        np.testing.assert_array_equal(pooled, items)


class TestLayerDomain:
    """An overflow inside a layer is an error naming the layer, also where
    the activation after it would squash the overflow to a finite value."""

    @pytest.mark.parametrize(
        "layer", ["mi_fcn_encode", "cross_scale_attention", "instance_pool", "classifier_head"]
    )
    def test_overflow_is_a_domain_error_naming_the_layer(self, layer):
        cfg = small_config()  # tanh attention: saturates at +-1
        params = init_params(cfg, seed=0)
        x, big = np.full((3, 4, 2), 10.0), np.full((3, 2), 10.0)
        calls = {
            "mi_fcn_encode": ("encoder0.w1", lambda: encode(x, params)),
            "cross_scale_attention": ("attn.v", lambda: attend(np.stack([big] * 3), params)),
            "instance_pool": ("pool.v", lambda: pool(big, params)),
            "classifier_head": (
                "classifier.w", lambda: models._classify(big, params.layers.classifier)
            ),
        }
        name, call = calls[layer]
        call()  # finite before the overflow
        param_views(params)[name][...] = -1e308 if layer == "mi_fcn_encode" else 1e308
        with pytest.raises(DomainError, match=f"'{layer}'"):
            call()


class TestLayerBackward:
    """Each layer's backward kernel against central differences of its
    forward kernel alone, for its input and every parameter it reads."""

    @staticmethod
    def check(forward, backward, inputs, params, names, seed):
        """``backward(g, slots)`` returns the gradients of ``inputs`` for
        the upstream gradient g of ``forward()``, and writes the
        parameters' into ``slots``, a gradient buffer's layer views."""
        probe = np.random.default_rng(seed).uniform(-1, 1, forward().shape)
        grad = zero_grad(params)
        analytic = list(backward(probe, grad.layers))
        analytic += [param_views(grad)[n] for n in names]
        views = param_views(params)
        numeric = central_difference(
            lambda: float((forward() * probe).sum()), inputs + [views[n] for n in names]
        )
        for a, num in zip(analytic, numeric, strict=True):
            assert_grads_close(a, num, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 5])
    def test_mi_fcn_encode(self, n):
        params = init_params(small_config(), seed=3)
        weights = params.layers.encoder
        x = np.random.default_rng(3).uniform(-1, 1, (3, 4, n))
        names = [name for name in params.names() if name.startswith("encoder")]
        assert len(names) == 12

        def backward(g, slots):
            models._encode_backward(g, x, models._encode(x, weights)[1], weights, slots.encoder)
            return []

        self.check(lambda: encode(x, params), backward, [], params, names, seed=3)

    @pytest.mark.parametrize("sharing", ["shared", "per_scale"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_cross_scale_attention(self, sharing, activation):
        cfg = small_config(attention_sharing=sharing, attention_activation=activation)
        params = init_params(cfg, seed=5)
        layer, tanh = params.layers.attention, activation == "tanh"
        rng = np.random.default_rng(5)
        encodings = rng.uniform(-2, 2, (3, 3, 4))
        names = [n for n in params.names() if n.startswith("attn")]
        assert len(names) == (2 if sharing == "shared" else 6)

        def backward(g, slots):
            saved = models._attend(encodings, *layer, tanh)
            return [models._attend_backward(g, encodings, saved, layer, tanh, slots.attention)]

        self.check(lambda: attend(encodings, params)[1], backward, [encodings], params, names, seed=5)

    @pytest.mark.parametrize("fusion", ["concat", "add", "instance_pool", "single_scale"])
    @pytest.mark.parametrize("n", [1, 4])
    def test_fuse(self, fusion, n):
        params = init_params(small_config(), seed=8)
        s = 1 if fusion == "single_scale" else 3
        encodings = np.random.default_rng(8).uniform(-2, 2, (s, 3, n))

        def backward(g, slots):
            return [models._fuse_backward(g, encodings.shape, fusion)]

        self.check(lambda: models._fuse(encodings, fusion), backward, [encodings], params, [], seed=8)
        # the encoder sums this gradient over its columns, and a strided sum adds in another order
        g = np.ones(models._fuse(encodings, fusion).shape)
        assert backward(g, None)[0].flags.c_contiguous

    @pytest.mark.parametrize("pooling", ["plain", "gated"])
    def test_instance_pool_with_an_empty_pool(self, pooling):
        params = init_params(small_config(pooling=pooling), seed=6)
        layer = params.layers.pool
        items = np.random.default_rng(6).uniform(-2, 2, (3, 5))
        mask = np.array([[1, 0, 1, 1, 0], [0, 0, 0, 0, 0], [0, 1, 0, 0, 1]], dtype=bool)
        names = ["pool.v", "pool.w"] + (["pool.u"] if pooling == "gated" else [])

        def backward(g, slots):
            saved = models._pool(items, mask, *layer)[1:]
            return [models._pool_backward(g, items, saved, layer, slots.pool)]

        self.check(lambda: pool(items, params, mask)[0], backward, [items], params, names, seed=6)

    def test_classifier_head(self):
        params = init_params(small_config(), seed=7)
        layer = params.layers.classifier
        pooled = np.random.default_rng(7).uniform(-2, 2, (3, 2))
        names = ["classifier.b", "classifier.w"]

        def backward(g, slots):
            saved = models._classify(pooled, layer)
            return [models._classify_backward(g, saved, pooled.shape, layer, slots.classifier)]

        self.check(
            lambda: models._classify(pooled, layer)[0], backward, [pooled], params, names, seed=7
        )


def assert_layers_view_flat_in_layout_order(params):
    """Each layer array views its parameter's run of ``flat``, in
    ``param_layout`` order, with nothing left over."""
    named = named_layer_arrays(params)
    assert list(named) == params.names()
    params.flat[:] = np.arange(params.flat.size)
    start = 0
    for name, shape, _ in param_layout(params.config):
        size = math.prod(shape)
        assert np.shares_memory(named[name], params.flat), name
        np.testing.assert_array_equal(named[name].reshape(-1), np.arange(start, start + size))
        start += size
    assert start == params.flat.size


class TestModelParams:
    @pytest.mark.parametrize(
        "overrides",
        [dict(pooling="gated"), dict(attention_sharing="per_scale"),
         dict(fusion="single_scale", scale_index=2)],
    )
    def test_layers_view_flat_in_layout_order(self, overrides):
        cfg = small_config(**overrides)
        params = init_params(cfg, seed=9)
        assert params.names() == [name for name, _, _ in param_layout(cfg)]
        assert_layers_view_flat_in_layout_order(params)

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
    def test_pickles_as_config_and_values_viewed_by_its_own_layers(self, protocol):
        params = init_params(small_config(attention_sharing="per_scale"), seed=4)
        back = pickle.loads(pickle.dumps(params, protocol=protocol))
        assert back.config == params.config
        assert back.names() == params.names()
        assert back.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(back.flat, params.flat)
        assert_layers_view_flat_in_layout_order(back)


class TestOneBag:
    def test_log_probs_normalize(self):
        cfg = small_config()
        params = init_params(cfg, seed=13)
        bag = random_bag(np.random.default_rng(13), cfg, n_instances=5)
        log_probs = log_probs_of(bag, params)
        assert abs(np.exp(log_probs).sum() - 1.0) <= 1e-9

    def test_add_equals_single_scale_when_one_scale(self):
        cfg_add = small_config(fusion="add", n_scales=1)
        cfg_single = small_config(fusion="single_scale", n_scales=1, scale_index=0)
        params_add = init_params(cfg_add, seed=21)
        params_single = init_params(cfg_single, seed=21)
        bag = random_bag(np.random.default_rng(21), cfg_add)
        lp_add = log_probs_of(bag, params_add)
        lp_single = log_probs_of(bag, params_single)
        np.testing.assert_array_equal(lp_add, lp_single)

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

        p = param_views(params)

        def encode_one(x, s):
            return p[f"encoder{s}.w2"] @ np.maximum(
                p[f"encoder{s}.w1"] @ x[:, None] + p[f"encoder{s}.b1"], 0.0
            ) + p[f"encoder{s}.b2"]

        cluster_vecs = []
        for inst in range(2):
            fs = [encode_one(raw[inst][s], s) for s in range(2)]
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

        log_probs = log_probs_of(bag, params)
        np.testing.assert_allclose(log_probs, expected[:, 0], rtol=0, atol=1e-10)
        records = attention_records(Dataset((bag.patient,), default_scales(2)), params)
        assert len(records) == 2
        assert records[0].patient_id == "p0" and records[0].location_id == 0

    def test_permutation_invariance_within_cluster(self):
        cfg = small_config(n_clusters=1)
        params = init_params(cfg, seed=17)
        rng = np.random.default_rng(17)
        vectors = [[rng.uniform(-1, 1, 4) for _ in range(3)] for _ in range(5)]
        lp1 = log_probs_of(make_bag(vectors, [0] * 5), params)
        perm = [3, 1, 4, 0, 2]
        lp2 = log_probs_of(make_bag([vectors[i] for i in perm], [0] * 5), params)
        np.testing.assert_allclose(lp1, lp2, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "fusion", ["cross_scale_attention", "concat", "add", "single_scale", "instance_pool"]
    )
    def test_every_parameter_gets_a_finite_gradient(self, fusion):
        cfg = small_config(
            fusion=fusion, scale_index=1 if fusion == "single_scale" else None
        )
        params = init_params(cfg, seed=23)
        bag = random_bag(np.random.default_rng(23), cfg, n_instances=4)
        grad, scratch = zero_grad(params), zero_grad(params)
        grad.flat[:] = np.nan  # every slot must be written
        train_step(bag, params, grad)
        assert np.isfinite(grad.flat).all()
        numeric = central_difference(lambda: train_step(bag, params, scratch), [params.flat])
        assert_grads_close(grad.flat, numeric[0], rtol=1e-4, atol=1e-6)

    def test_wrong_embedding_dim_rejected(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        bad = make_bag([[np.zeros(7) for _ in range(3)]], [0])
        with pytest.raises(ConfigError):
            train_step(bad, params, zero_grad(params))

    def test_gated_pooling_variant_runs(self):
        cfg = small_config(pooling="gated", fusion="instance_pool")
        params = init_params(cfg, seed=2)
        bag = random_bag(np.random.default_rng(2), cfg)
        log_probs = log_probs_of(bag, params)
        assert abs(np.exp(log_probs).sum() - 1.0) <= 1e-9
        with pytest.raises(ConfigError, match="no cross-scale attention"):
            attention_records(Dataset((bag.patient,), default_scales(3)), params)


ORACLE_CONFIGS = [
    (fusion, pooling, sharing, activation)
    for fusion in ("cross_scale_attention", "concat", "add", "single_scale", "instance_pool")
    for pooling in ("plain", "gated")
    for sharing in ("shared", "per_scale")
    for activation in ("relu", "tanh")
]

# the widths the acceptance gradient suite (c01) checks at, and the defaults
C01_WIDTHS = dict(embed_dim=4, encoder_dim=3, attention_hidden=2)
DEFAULT_WIDTHS = dict(embed_dim=32, encoder_dim=64, attention_hidden=32)


def oracle_config(fusion, pooling, sharing, activation, **widths):
    return ModelConfig(
        fusion=fusion, pooling=pooling, attention_sharing=sharing,
        attention_activation=activation,
        **{"embed_dim": 5, "encoder_dim": 4, "attention_hidden": 3, **widths},
        n_clusters=4, n_scales=3, scale_index=1 if fusion == "single_scale" else None,
    )


class TestBatchedForwardOracle:
    """The training step and the batched forward against the per-instance
    reference in helpers, which shares no kernel with the model."""

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
        grad = zero_grad(params)
        grad.flat[:] = np.nan  # every slot must be written
        loss = train_step(bag, params, grad)

        ref_log_probs, ref_loss, ref_scores = reference_forward_bag(bag, param_views(params), cfg)
        ref_grad = complex_step_gradient(lambda named: reference_forward_bag(bag, named, cfg)[1], params)
        np.testing.assert_allclose(
            log_probs_of(bag, params), ref_log_probs[:, 0], rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(loss, ref_loss, rtol=0, atol=1e-12)
        slots = param_views(grad)
        for name, ref in named_views(ref_grad, cfg).items():
            np.testing.assert_allclose(slots[name], ref, rtol=0, atol=1e-10, err_msg=name)
        if fusion == "cross_scale_attention":
            records = attention_records(Dataset((patient,), default_scales(3)), params)
            assert len(ref_scores) == bag_size
            for i, ref in zip(bag.index, ref_scores):
                rec = records[i]
                assert rec.location_id == 100 + i
                np.testing.assert_allclose(rec.scores, ref[:, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sharing", ["shared", "per_scale"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_attention_records_match_per_location_scores(self, sharing, activation):
        cfg = oracle_config("cross_scale_attention", "plain", sharing, activation)
        params = init_params(cfg, seed=4)
        named = param_views(params)
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
            assert all(type(v) is float for v in rec.scores) and type(rec.location_id) is int
            ref = reference_scores(p.emb[i], named, cfg)[:, 0]
            np.testing.assert_allclose(rec.scores, ref, rtol=0, atol=1e-12)
            assert abs(sum(rec.scores) - 1.0) <= 1e-9
        assert len(attention_records(dataset, params)) == 38

    def test_clusters_outside_the_model_rejected(self):
        cfg = small_config()
        bag = random_bag(np.random.default_rng(3), cfg)
        bad = Bag(bag.patient, bag.index, np.full(len(bag.index), cfg.n_clusters))
        params = init_params(cfg, seed=0)
        with pytest.raises(ConfigError):
            train_step(bad, params, zero_grad(params))


# the reference's complex-safe pieces, and the model helpers they stand in for
REFERENCE_PIECES = {
    "relu": (helpers._relu, lambda x: np.maximum(x, 0.0)),
    "tanh": (np.tanh, np.tanh),
    "sigmoid": (helpers._sigmoid, models.sigmoid_array),
    "softmax": (helpers._softmax, lambda x: models.softmax_array(x, -2)),
    "log_softmax": (helpers._log_softmax, lambda x: models.log_softmax_array(x, -2)),
}


class TestReferenceOracle:
    """The complex-step oracle in helpers checked without the model: its
    derivatives against central differences of the same reference, and its
    pieces against the model's array helpers on real input."""

    def test_complex_step_gradient_is_exact_for_an_analytic_loss(self):
        params = init_params(small_config(), seed=0)
        grad = complex_step_gradient(
            lambda named: sum(np.exp(t).sum(axis=tuple(range(1, t.ndim))) for t in named.values()),
            params,
        )
        np.testing.assert_allclose(grad, np.exp(params.flat), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("name", sorted(REFERENCE_PIECES))
    def test_piece_matches_the_model_helper_on_real_input(self, name):
        piece, model_helper = REFERENCE_PIECES[name]
        x = np.random.default_rng(5).uniform(-4, 4, (2, 5, 1))
        np.testing.assert_allclose(piece(x), model_helper(x), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(REFERENCE_PIECES))
    def test_piece_is_complex_safe(self, name):
        """Complex-step derivatives of each piece equal central differences."""
        piece = REFERENCE_PIECES[name][0]
        rng = np.random.default_rng(6)
        # away from relu's kink, where central differences straddle it
        x = rng.uniform(0.1, 2.0, (2, 5, 1)) * rng.choice([-1.0, 1.0], (2, 5, 1))
        w = rng.uniform(-1, 1, x.shape)
        h = 1e-30
        directions = x + 1j * h * np.eye(x.size).reshape(x.size, *x.shape)
        complex_step = (w * piece(directions)).sum(axis=(1, 2, 3)).imag / h
        numeric = central_difference(lambda: float((w * piece(x)).sum()), [x])[0]
        np.testing.assert_allclose(complex_step, numeric.reshape(-1), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("fusion,pooling,sharing,activation", ORACLE_CONFIGS)
    def test_complex_step_matches_central_differences_of_the_reference(
        self, fusion, pooling, sharing, activation
    ):
        cfg = oracle_config(fusion, pooling, sharing, activation, **C01_WIDTHS)
        params = init_params(cfg, seed=3)
        named = param_views(params)
        for bag in equal_size_bags(cfg, 4, np.random.default_rng(3), n_bags=2):
            exact = complex_step_gradient(lambda t: reference_forward_bag(bag, t, cfg)[1], params)
            numeric = central_difference(
                lambda: float(reference_forward_bag(bag, named, cfg)[1]), [params.flat]
            )
            # the relative error and bound of the acceptance gradient suite (c01)
            assert relative_error(exact, numeric[0]) <= 1e-4


class TestTrainStep:
    """The training step: its gradient against central differences of its
    own loss, and its loss against the one validation computes."""

    @pytest.mark.parametrize("bag_size", [1, 8])
    @pytest.mark.parametrize("fusion,pooling,sharing,activation", ORACLE_CONFIGS)
    def test_gradient_buffer_matches_central_differences_of_its_loss(
        self, fusion, pooling, sharing, activation, bag_size
    ):
        cfg = oracle_config(fusion, pooling, sharing, activation, **C01_WIDTHS)
        params = init_params(cfg, seed=bag_size)
        grad, scratch = zero_grad(params), zero_grad(params)
        # a bag of each label; every other bag leaves three clusters empty
        for bag in equal_size_bags(cfg, bag_size, np.random.default_rng(bag_size), n_bags=2):
            grad.flat[:] = np.nan  # every slot must be written
            train_step(bag, params, grad)
            assert np.isfinite(grad.flat).all()
            numeric = central_difference(lambda: train_step(bag, params, scratch), [params.flat])
            # the relative error and bound of the acceptance gradient suite (c01)
            assert relative_error(grad.flat, numeric[0]) <= 1e-4

    @pytest.mark.parametrize("bag_size", [1, 8, 64])
    @pytest.mark.parametrize("fusion,pooling,sharing,activation", ORACLE_CONFIGS)
    def test_loss_is_the_validation_loss_of_the_bag_alone_bit_for_bit(
        self, fusion, pooling, sharing, activation, bag_size
    ):
        cfg = oracle_config(fusion, pooling, sharing, activation, **DEFAULT_WIDTHS)
        params = init_params(cfg, seed=bag_size)
        grad = zero_grad(params)
        bags = equal_size_bags(cfg, bag_size, np.random.default_rng(bag_size), n_bags=2)
        assert [bag.label for bag in bags] == [0, 1]
        for bag in bags:
            pid = bag.patient_id
            assert train_step(bag, params, grad) == _epoch_loss((pid,), params, {pid: bag})

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
    def test_a_non_finite_value_names_the_layer(self, layer, fusion):
        cfg = oracle_config(fusion, "gated", "shared", "tanh")
        params = init_params(cfg, seed=5)
        bag = equal_size_bags(cfg, 4, np.random.default_rng(5), n_bags=1)[0]
        grad = zero_grad(params)
        train_step(bag, params, grad)  # finite before the poison
        views = param_views(params)
        if layer == "leaf":
            bag.patient.emb[bag.index[0], 2, 0] = np.inf
        elif layer == "add":  # every scale's encoding finite, their sum not
            for s in range(3):
                views[f"encoder{s}.w2"][...] = 0.0
                views[f"encoder{s}.b2"][...] = 1e308
        else:
            name = {"mi_fcn_encode": "encoder0.w1", "cross_scale_attention": "attn.v",
                    "instance_pool": "pool.v", "classifier_head": "classifier.w"}[layer]
            views[name][0, 0] = np.inf
        with pytest.raises(DomainError) as step:
            train_step(bag, params, grad)
        assert str(step.value) == f"non-finite values in result of '{layer}'"


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
    from the row its bag gets when scored alone."""
    params = init_params(cfg, seed=seed)
    bags = equal_size_bags(cfg, bag_size, np.random.default_rng(seed))
    alone = np.stack([forward_bags([bag], params)[0] for bag in bags])
    bad = []
    for block in BLOCK_SIZES:
        set_block(block)
        if forward_bags(bags, params).tobytes() != alone.tobytes():
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
    """The forward over equal-size bags, against each bag scored alone."""

    @pytest.mark.parametrize("bag_size", [1, 8])
    @pytest.mark.parametrize("fusion,pooling,sharing,activation", ORACLE_CONFIGS)
    def test_rows_equal_single_bag_rows_bit_for_bit_at_any_block_size(
        self, monkeypatch, fusion, pooling, sharing, activation, bag_size
    ):
        # the default widths: at bag 8, an encoder input fed as a strided
        # view instead of a contiguous array changes low bits
        cfg = oracle_config(fusion, pooling, sharing, activation, **DEFAULT_WIDTHS)

        def set_block(block):
            monkeypatch.setattr(models, "_BLOCK_INSTANCES", block)

        assert batched_mismatches(cfg, bag_size, set_block, seed=bag_size) == []

    def test_rows_equal_single_bag_rows_bit_for_bit_at_two_blas_threads(self):
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

    def test_no_bags_give_no_rows(self):
        assert forward_bags([], init_params(small_config())).shape == (0, 2)

    def test_bags_of_unequal_size_are_a_contract_error(self):
        cfg = oracle_config("cross_scale_attention", "plain", "shared", "tanh")
        rng = np.random.default_rng(2)
        bags = equal_size_bags(cfg, 3, rng) + equal_size_bags(cfg, 4, rng, n_bags=1)
        with pytest.raises(ContractError, match=r"one size >= 1, got sizes \[3, 4\]"):
            forward_bags(bags, init_params(cfg))

    def test_clusters_outside_the_model_give_the_train_step_config_error(self):
        cfg = oracle_config("cross_scale_attention", "plain", "shared", "tanh")
        bags = equal_size_bags(cfg, 3, np.random.default_rng(3), n_bags=4)
        bad = Bag(bags[2].patient, bags[2].index, np.full(3, cfg.n_clusters))
        params = init_params(cfg)
        with pytest.raises(ConfigError) as alone:
            train_step(bad, params, zero_grad(params))
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
        np.testing.assert_array_equal(loaded.flat, params.flat)

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
