import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmil import autodiff as ad
from crossmil.autodiff import Tensor
from crossmil.errors import ContractError, DimensionError, DomainError
from helpers import assert_grads_close, central_difference


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(Tensor(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_orthogonal_selection(self):
        out = ad.matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [5.0]]))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = ad.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
        ad.backward(ad.matmul(a, b).sum())
        numeric = central_difference(lambda: ad.matmul(a, b).sum().item(), [a, b])
        assert_grads_close(a.grad, numeric[0])
        assert_grads_close(b.grad, numeric[1])


class TestElementwise:
    def test_tanh_at_zero(self):
        assert ad.tanh(Tensor([0.0])).data[0] == 0.0

    def test_relu_values(self):
        assert ad.relu(Tensor([-3.0])).data[0] == 0.0
        assert ad.relu(Tensor([2.5])).data[0] == 2.5

    def test_tanh_gradient_vs_central_difference(self):
        x = Tensor([0.3], requires_grad=True)
        ad.backward(ad.tanh(x).sum())
        h = 1e-5
        numeric = (np.tanh(0.3 + h) - np.tanh(0.3 - h)) / (2 * h)
        assert abs(x.grad[0] - numeric) <= 1e-8

    def test_log_rejects_non_positive(self):
        with pytest.raises(DomainError):
            ad.log(Tensor([1.0, 0.0]))
        with pytest.raises(DomainError):
            ad.log(Tensor([-2.0]))

    def test_scalar_broadcast_allowed(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) + Tensor([[10.0]])
        np.testing.assert_array_equal(out.data, [[11.0, 12.0], [13.0, 14.0]])

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 3))) * Tensor(np.ones((3, 2)))

    def test_sigmoid_extremes_stay_finite(self):
        out = ad.sigmoid(Tensor([-800.0, 0.0, 800.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_exp_overflow_is_an_error(self):
        with pytest.raises(DomainError):
            ad.exp(Tensor([1000.0]))

    @pytest.mark.parametrize("op", [ad.tanh, ad.relu, ad.sigmoid, ad.exp])
    def test_unary_gradients(self, op):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.uniform(-2, 2, (3, 2)), requires_grad=True)
            ad.backward(op(x).sum())
            numeric = central_difference(lambda: op(x).sum().item(), [x])
            assert_grads_close(x.grad, numeric[0])

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_binary_gradients(self, op):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = Tensor(rng.uniform(-2, 2, (3, 2)), requires_grad=True)
            b = Tensor(rng.uniform(-2, 2, (3, 2)), requires_grad=True)
            ad.backward(op(a, b).sum())
            numeric = central_difference(lambda: op(a, b).sum().item(), [a, b])
            assert_grads_close(a.grad, numeric[0])
            assert_grads_close(b.grad, numeric[1])

    def test_log_gradient(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(0.5, 2, (4,)), requires_grad=True)
        ad.backward(ad.log(x).sum())
        numeric = central_difference(lambda: ad.log(x).sum().item(), [x])
        assert_grads_close(x.grad, numeric[0])


class TestSoftmax:
    def test_equal_logits(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=0, atol=1e-15)

    def test_large_logits_do_not_overflow(self):
        out = ad.softmax(Tensor([1000.0, 0.0]), axis=0)
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-300)

    def test_against_extended_precision_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        wide = np.exp(x.astype(np.longdouble))
        expected = (wide / wide.sum()).astype(np.float64)
        out = ad.softmax(Tensor(x), axis=0)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            ad.softmax(Tensor(np.zeros((0,))), axis=0)
        with pytest.raises(DimensionError):
            ad.softmax(Tensor([1.0, 2.0]), axis=3)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one(self, logits):
        out = ad.softmax(Tensor(logits), axis=0)
        assert abs(out.data.sum() - 1.0) <= 1e-12

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.floats(-100, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, logits, shift):
        base = ad.softmax(Tensor(logits), axis=0).data
        shifted = ad.softmax(Tensor(np.asarray(logits) + shift), axis=0).data
        np.testing.assert_allclose(base, shifted, rtol=0, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-2, 2, (5,)), requires_grad=True)
        w = rng.uniform(-1, 1, (5,))  # weighting makes the gradient non-trivial

        def f():
            return (ad.softmax(x, axis=0) * Tensor(w)).sum()

        ad.backward(f())
        assert_grads_close(x.grad, central_difference(lambda: f().item(), [x])[0])

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(-2, 2, (2, 1)), requires_grad=True)
        w = rng.uniform(-1, 1, (2, 1))

        def f():
            return (ad.log_softmax(x, axis=0) * Tensor(w)).sum()

        ad.backward(f())
        assert_grads_close(x.grad, central_difference(lambda: f().item(), [x])[0])


class TestReductions:
    def test_sum(self):
        assert Tensor([1.0, 2.0, 3.0]).sum().item() == 6.0

    def test_mean_of_constant(self):
        assert Tensor(np.full((4, 3), 2.5)).mean().item() == 2.5

    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_invalid_axis_rejected(self):
        with pytest.raises(DimensionError):
            Tensor([1.0, 2.0]).sum(axis=2)

    def test_axis_reductions(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(x.sum(axis=0).data, [3.0, 5.0, 7.0])
        np.testing.assert_array_equal(x.mean(axis=1).data, [1.0, 4.0])
        np.testing.assert_array_equal(x.max(axis=0).data, [3.0, 4.0, 5.0])

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_mean_and_max_gradients(self, axis):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        for op in (lambda: x.mean(axis=axis).sum(), lambda: x.max(axis=axis).sum()):
            x.zero_grad()
            ad.backward(op())
            assert_grads_close(x.grad, central_difference(lambda: op().item(), [x])[0])


class TestConcatAndTranspose:
    def test_concat_values(self):
        out = ad.concat([Tensor([[1.0], [2.0]]), Tensor([[3.0]])], axis=0)
        np.testing.assert_array_equal(out.data, [[1.0], [2.0], [3.0]])

    def test_concat_gradient_splits_back(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (2, 2)), requires_grad=True)
        w = rng.uniform(-1, 1, (2, 5))

        def f():
            return (ad.concat([a, b], axis=1) * Tensor(w)).sum()

        ad.backward(f())
        numeric = central_difference(lambda: f().item(), [a, b])
        assert_grads_close(a.grad, numeric[0])
        assert_grads_close(b.grad, numeric[1])

    def test_transpose_gradient(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True)
        w = rng.uniform(-1, 1, (3, 2))

        def f():
            return (ad.transpose(x) * Tensor(w)).sum()

        ad.backward(f())
        assert_grads_close(x.grad, central_difference(lambda: f().item(), [x])[0])

    def test_concat_rank_mismatch(self):
        with pytest.raises(DimensionError):
            ad.concat([Tensor([1.0]), Tensor([[1.0]])], axis=0)


class TestBatchOps:
    """Named broadcasts for instance matrices: each checks its own shapes."""

    def test_add_bias_adds_column_to_every_column(self):
        out = ad.add_bias(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[10.0], [20.0]]))
        np.testing.assert_array_equal(out.data, [[11.0, 12.0], [23.0, 24.0]])

    def test_add_bias_gradients(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (3, 1)), requires_grad=True)
        w = rng.uniform(-1, 1, (3, 4))

        def f():
            return (ad.add_bias(x, b) * Tensor(w)).sum()

        ad.backward(f())
        numeric = central_difference(lambda: f().item(), [x, b])
        assert_grads_close(x.grad, numeric[0])
        assert_grads_close(b.grad, numeric[1])

    @pytest.mark.parametrize("bias_shape", [(3, 2), (1, 4), (2, 1), (3,)])
    def test_add_bias_shape_mismatch(self, bias_shape):
        with pytest.raises(DimensionError):
            ad.add_bias(Tensor(np.ones((3, 4))), Tensor(np.ones(bias_shape)))

    def test_add_bias_overflow_is_an_error(self):
        with pytest.raises(DomainError):
            ad.add_bias(Tensor([[1e308, 0.0]]), Tensor([[1e308]]))

    def test_mul_row_scales_columns(self):
        out = ad.mul_row(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[10.0, -1.0]]))
        np.testing.assert_array_equal(out.data, [[10.0, -2.0], [30.0, -4.0]])

    def test_mul_row_gradients(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        a = Tensor(rng.uniform(-2, 2, (1, 4)), requires_grad=True)
        w = rng.uniform(-1, 1, (3, 4))

        def f():
            return (ad.mul_row(x, a) * Tensor(w)).sum()

        ad.backward(f())
        numeric = central_difference(lambda: f().item(), [x, a])
        assert_grads_close(x.grad, numeric[0])
        assert_grads_close(a.grad, numeric[1])

    @pytest.mark.parametrize("row_shape", [(1, 3), (3, 4), (4, 1), (4,)])
    def test_mul_row_shape_mismatch(self, row_shape):
        with pytest.raises(DimensionError):
            ad.mul_row(Tensor(np.ones((3, 4))), Tensor(np.ones(row_shape)))

    def test_take_row_values_and_gradient(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        np.testing.assert_array_equal(ad.take_row(x, 1).data, x.data[1:2])
        w = rng.uniform(-1, 1, (1, 4))

        def f():
            return (ad.take_row(x, 2) * Tensor(w)).sum()

        ad.backward(f())
        assert_grads_close(x.grad, central_difference(lambda: f().item(), [x])[0])

    @pytest.mark.parametrize("shape,row", [((3, 4), 3), ((3, 4), -1), ((4,), 0)])
    def test_take_row_out_of_range(self, shape, row):
        with pytest.raises(DimensionError):
            ad.take_row(Tensor(np.ones(shape)), row)

    def test_masked_softmax_rows_against_plain_softmax(self):
        x = np.array([[0.5, -1.0, 2.0, 0.0]])
        mask = np.array([[True, False, True, True], [False, True, False, False]])
        out = ad.masked_softmax(Tensor(x), mask).data
        np.testing.assert_allclose(
            out[0, [0, 2, 3]], ad.softmax(Tensor(x[0, [0, 2, 3]]), axis=0).data, atol=1e-15
        )
        assert out[0, 1] == 0.0
        np.testing.assert_array_equal(out[1], [0.0, 1.0, 0.0, 0.0])

    def test_masked_softmax_shifts_each_row_by_its_own_max(self):
        mask = np.array([[True, False], [False, True]])
        out = ad.masked_softmax(Tensor([[0.0, -2000.0]]), mask)
        np.testing.assert_array_equal(out.data, np.eye(2))

    def test_masked_softmax_gradient(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.uniform(-2, 2, (1, 6)), requires_grad=True)
        mask = rng.uniform(size=(4, 6)) < 0.5
        mask[2] = False
        w = rng.uniform(-1, 1, (4, 6))

        def f():
            return (ad.masked_softmax(x, mask) * Tensor(w)).sum()

        ad.backward(f())
        assert_grads_close(x.grad, central_difference(lambda: f().item(), [x])[0])

    def test_fully_masked_rows_give_zeros_and_no_gradient(self):
        x = Tensor([[0.3, -0.7, 1.1]], requires_grad=True)
        out = ad.masked_softmax(x, np.zeros((2, 3), dtype=bool))
        assert np.isfinite(out.data).all() and (out.data == 0.0).all()
        ad.backward((out * Tensor(np.arange(6.0).reshape(2, 3))).sum())
        np.testing.assert_array_equal(x.grad, np.zeros((1, 3)))

    @pytest.mark.parametrize(
        "logits_shape,mask_shape",
        [((1, 3), (2, 4)), ((2, 3), (2, 3)), ((3,), (2, 3)), ((1, 3), (3,))],
    )
    def test_masked_softmax_shape_mismatch(self, logits_shape, mask_shape):
        with pytest.raises(DimensionError):
            ad.masked_softmax(Tensor(np.zeros(logits_shape)), np.ones(mask_shape, dtype=bool))

    def test_masked_softmax_needs_boolean_mask(self):
        with pytest.raises(ContractError):
            ad.masked_softmax(Tensor([[0.0, 1.0]]), np.ones((1, 2)))

    def test_reshape_is_row_major_with_gradient(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        np.testing.assert_array_equal(ad.reshape(x, (12, 1)).data[:, 0], x.data.reshape(-1))
        w = rng.uniform(-1, 1, (2, 6))

        def f():
            return (ad.reshape(x, (2, 6)) * Tensor(w)).sum()

        ad.backward(f())
        assert_grads_close(x.grad, central_difference(lambda: f().item(), [x])[0])

    @pytest.mark.parametrize("shape", [(5, 2), (13, 1), (-3, -4)])
    def test_reshape_size_mismatch(self, shape):
        with pytest.raises(DimensionError):
            ad.reshape(Tensor(np.ones((3, 4))), shape)


class TestBackward:
    def test_square_at_three(self):
        x = Tensor([3.0], requires_grad=True)
        ad.backward((x * x).sum())
        assert x.grad[0] == pytest.approx(6.0)

    def test_sum_of_matvec(self):
        rng = np.random.default_rng(8)
        w = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        x = Tensor(rng.uniform(-2, 2, (4, 1)))
        ad.backward(ad.matmul(w, x).sum())
        numeric = central_difference(lambda: ad.matmul(w, x).sum().item(), [w])
        np.testing.assert_allclose(w.grad, numeric[0], rtol=1e-6, atol=1e-9)

    def test_composite_tanh_matmul_chain(self):
        rng = np.random.default_rng(9)
        w = Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True)
        x = Tensor(rng.uniform(-2, 2, (3, 1)), requires_grad=True)

        def f():
            return ad.tanh(ad.matmul(w, x)).sum()

        ad.backward(f())
        numeric = central_difference(lambda: f().item(), [w, x])
        np.testing.assert_allclose(w.grad, numeric[0], rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(x.grad, numeric[1], rtol=1e-6, atol=1e-9)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(x * 2.0)

    def test_backward_returns_parameter_gradients(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        grads = ad.backward((a * b).sum())
        assert set(grads) == {a.nid, b.nid}
        assert grads[a.nid][0] == 2.0 and grads[b.nid][0] == 1.0

    def test_deterministic_after_zeroing(self):
        rng = np.random.default_rng(10)
        w = Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
        x = Tensor(rng.uniform(-2, 2, (3, 1)))

        def run():
            ad.backward(ad.tanh(ad.matmul(w, x)).sum())
            g = w.grad.copy()
            w.zero_grad()
            return g

        np.testing.assert_array_equal(run(), run())

    def test_gradients_accumulate_until_zeroed(self):
        x = Tensor([3.0], requires_grad=True)
        ad.backward((x * x).sum())
        ad.backward((x * x).sum())
        assert x.grad[0] == pytest.approx(12.0)

    def test_shared_node_fan_out(self):
        # x used twice: d/dx (x*x + 2x) = 2x + 2
        x = Tensor([4.0], requires_grad=True)
        ad.backward(((x * x) + (x * 2.0)).sum())
        assert x.grad[0] == pytest.approx(10.0)

    def test_nan_input_rejected_at_construction(self):
        with pytest.raises(DomainError):
            Tensor([np.nan])
