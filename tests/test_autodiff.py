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

    def test_scalar_broadcast_allowed(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) + Tensor([[10.0]])
        np.testing.assert_array_equal(out.data, [[11.0, 12.0], [13.0, 14.0]])

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 3))) * Tensor(np.ones((3, 2)))

    def test_sigmoid_extremes_stay_finite(self):
        out = ad.sigmoid(Tensor([-800.0, 0.0, 800.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_overflow_is_an_error(self):
        with pytest.raises(DomainError, match="'mul'"):
            ad.mul(Tensor([1e300]), Tensor([1e300]))

    @pytest.mark.parametrize("op", [ad.tanh, ad.relu, ad.sigmoid])
    def test_unary_gradients(self, op):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.uniform(-2, 2, (3, 2)), requires_grad=True)
            ad.backward(op(x).sum())
            numeric = central_difference(lambda: op(x).sum().item(), [x])
            assert_grads_close(x.grad, numeric[0])

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    def test_binary_gradients(self, op):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = Tensor(rng.uniform(-2, 2, (3, 2)), requires_grad=True)
            b = Tensor(rng.uniform(-2, 2, (3, 2)), requires_grad=True)
            ad.backward(op(a, b).sum())
            numeric = central_difference(lambda: op(a, b).sum().item(), [a, b])
            assert_grads_close(a.grad, numeric[0])
            assert_grads_close(b.grad, numeric[1])


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
        np.testing.assert_array_equal(x.sum(axis=1).data, [3.0, 12.0])


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

    @pytest.mark.parametrize("hand_down, b_shape", [
        (lambda g: (g, g), (2, 3)),  # what add hands its parents
        (lambda g: (g, g[:, :1]), (2, 1)),  # a view of g
        (lambda g: (g * 2.0, g), (2, 3)),  # one fresh, one g
    ], ids=["same", "view", "fresh-and-same"])
    def test_leaves_fed_one_upstream_gradient_get_own_buffers(self, hand_down, b_shape):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(b_shape), requires_grad=True)
        node = ad.custom_op("fan", a.data.copy(), (a, b), hand_down)
        ad.backward(ad.reduce_sum(node * 3.0))
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, node.grad)
        assert not np.shares_memory(b.grad, node.grad)
        np.testing.assert_array_equal(node.grad, np.full((2, 3), 3.0))

    def test_fresh_parent_gradients_are_not_copied(self):
        fresh = np.full((2, 2), 5.0)
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        ad.backward(ad.reduce_sum(ad.custom_op("fresh", a.data.copy(), (a,), lambda g: (fresh,))))
        assert a.grad is fresh

    def test_nan_input_rejected_at_construction(self):
        with pytest.raises(DomainError):
            Tensor([np.nan])


class TestCheckFinite:
    def test_finite_array_is_returned_as_is(self):
        arr = np.array([[1.0, -2.0], [3.0, 1e308]])
        assert ad.check_finite(arr, "op") is arr

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_names_the_op(self, bad):
        arr = np.zeros((2, 3))
        arr[1, 2] = bad
        with pytest.raises(DomainError, match="'my_layer'"):
            ad.check_finite(arr, "my_layer")

    @pytest.mark.parametrize("big", [1e308, -1e308])
    def test_finite_values_whose_sum_overflows_are_returned(self, big):
        arr = np.full(5, big)
        with np.errstate(over="ignore"):
            assert not np.isfinite(arr.sum())
            assert ad.check_finite(arr, "op") is arr

    def test_nan_beside_values_whose_sum_overflows_is_rejected(self):
        arr = np.array([1e308, 1e308, np.nan, 1.0])
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="'my_layer'"):
            ad.check_finite(arr, "my_layer")


class TestCustomOp:
    """A caller-written node: value and backward computed outside the tape."""

    @staticmethod
    def scaled_product(a, b, scale=3.0):
        # value scale * a * b, elementwise
        def grad_fn(g):
            return (
                g * scale * b.data if a.requires_grad else None,
                g * scale * a.data if b.requires_grad else None,
            )

        return ad.custom_op("scaled_product", scale * a.data * b.data, (a, b), grad_fn)

    def test_gradients_reach_each_parent_in_order(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        out = self.scaled_product(a, b)
        assert out.op == "scaled_product" and out.requires_grad
        ad.backward(out.sum())
        numeric = central_difference(lambda: self.scaled_product(a, b).sum().item(), [a, b])
        assert_grads_close(a.grad, numeric[0])
        assert_grads_close(b.grad, numeric[1])

    def test_none_gradient_for_a_constant_parent(self):
        a = Tensor([[2.0, -1.0]], requires_grad=True)
        b = Tensor([[5.0, 4.0]])
        ad.backward(self.scaled_product(a, b).sum())
        np.testing.assert_array_equal(a.grad, [[15.0, 12.0]])
        assert b.grad is None

    def test_non_finite_value_is_a_domain_error_naming_the_op(self):
        a = Tensor([[1e200]], requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="'scaled_product'"):
            self.scaled_product(a, a)

    def test_fan_out_through_primitives_adds(self):
        # d/da (3a*a + a) = 6a + 1
        a = Tensor([[0.5, -2.0]], requires_grad=True)
        ad.backward((self.scaled_product(a, a) + a).sum())
        np.testing.assert_array_equal(a.grad, [[4.0, -11.0]])


class TestArrayKernels:
    """The numpy kernels layer nodes share with the primitives."""

    @pytest.mark.parametrize("axis", [0, 1])
    def test_softmax_kernels_match_the_primitives_bitwise(self, axis):
        x = np.random.default_rng(axis).uniform(-30, 30, (4, 5))
        np.testing.assert_array_equal(ad.softmax_array(x, axis), ad.softmax(Tensor(x), axis).data)
        np.testing.assert_array_equal(
            ad.log_softmax_array(x, axis), ad.log_softmax(Tensor(x), axis).data
        )

    def test_log_softmax_of_large_logits_stays_finite(self):
        y = ad.log_softmax_array(np.array([[1e4], [1e4 - 2.0], [-1e4]]), 0)
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y[:2, 0], -np.log1p(np.exp(-2.0)) - [0.0, 2.0], atol=1e-12)
        assert np.exp(y).sum() == pytest.approx(1.0, abs=1e-15)
