"""Tensor core: arithmetic, broadcasting, backward, graph mechanics."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.autograd.tensor import concatenate


class TestConstruction:
    def test_wraps_arrays(self):
        t = Tensor(np.ones((2, 3)))
        assert t.shape == (2, 3)
        assert t.size == 6
        assert t.ndim == 2

    def test_promotes_integers_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype.kind == "f"

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_on_vector_raises(self):
        with pytest.raises(Exception):
            Tensor([1.0, 2.0]).item()

    def test_detach_shares_data_drops_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad
        assert b._parents == ()


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_scalar_radd(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_sub_rsub(self):
        np.testing.assert_allclose((5.0 - Tensor([2.0])).data, [3.0])
        np.testing.assert_allclose((Tensor([5.0]) - 2.0).data, [3.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([6.0]) * 2.0).data, [12.0])
        np.testing.assert_allclose((Tensor([6.0]) / 2.0).data, [3.0])
        np.testing.assert_allclose((12.0 / Tensor([6.0])).data, [2.0])

    def test_neg_pow(self):
        np.testing.assert_allclose((-Tensor([2.0])).data, [-2.0])
        np.testing.assert_allclose((Tensor([3.0]) ** 2).data, [9.0])

    def test_matmul_2d(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)


class TestBackward:
    def test_simple_chain(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x + x  # y' = 2x + 1 = 5
        y.backward()
        assert x.grad == pytest.approx(5.0)

    def test_grad_accumulates_over_uses(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x  # uses x twice -> dy/dx = 2x
        y.backward()
        assert x.grad == pytest.approx(6.0)

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_broadcast_mul_keepdim_axis(self):
        a = Tensor(np.ones((4, 1)), requires_grad=True)
        b = Tensor(np.full((4, 5), 2.0))
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((4, 1), 10.0))

    def test_backward_nonscalar_requires_grad_arg(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_with_explicit_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_backward_grad_shape_mismatch(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward(np.ones(4))

    def test_diamond_graph(self):
        # f = (x+x) * (x*x): both paths must contribute exactly once.
        x = Tensor(3.0, requires_grad=True)
        f = (x + x) * (x * x)  # f = 2x^3, f' = 6x^2 = 54
        f.backward()
        assert x.grad == pytest.approx(54.0)

    def test_no_grad_blocks_graph(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            y = x * 2
        assert y._parents == ()
        assert not y.requires_grad


class TestShapes:
    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(6))

    def test_transpose_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = x.T
        assert y.shape == (3, 2)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_getitem_grad_scatter(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[1:3].sum().backward()
        np.testing.assert_allclose(x.grad, [0, 1, 1, 0, 0])

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        x[np.array([0, 0, 1])].sum().backward()
        np.testing.assert_allclose(x.grad, [2, 1, 0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.sum(axis=0).shape == (3,)
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_value(self):
        assert Tensor(np.arange(4.0)).mean().item() == pytest.approx(1.5)

    def test_var_matches_numpy(self):
        data = np.random.default_rng(0).normal(size=(4, 5))
        np.testing.assert_allclose(
            Tensor(data).var(axis=0).data, data.var(axis=0), atol=1e-12
        )

    def test_max_reduction_grad_ties_split(self):
        x = Tensor(np.array([1.0, 2.0, 2.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.5, 0.5])


class TestConcatStack:
    def test_concatenate_values_and_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))


class TestElementwise:
    def test_relu_values(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_clip_gradient_masks_saturation(self):
        x = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_exp_log_inverse(self):
        x = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(Tensor(x).log().exp().data, x)


class TestBroadcastTo:
    def test_values_and_no_copy(self):
        x = Tensor(np.arange(3.0))
        out = x.broadcast_to((4, 3))
        np.testing.assert_allclose(out.data, np.tile(np.arange(3.0), (4, 1)))
        # stride-0 view, not a materialized copy
        assert out.data.base is not None
        assert out.data.strides[0] == 0

    def test_gradient_sums_broadcast_axes(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        out = x.broadcast_to((4, 3))
        out.backward(np.ones((4, 3)))
        np.testing.assert_allclose(x.grad, [4.0, 4.0, 4.0])

    def test_gradient_sums_stretched_singleton(self):
        x = Tensor(np.ones((1, 2)), requires_grad=True)
        out = x.broadcast_to((3, 2))
        g = np.arange(6.0).reshape(3, 2)
        out.backward(g)
        np.testing.assert_allclose(x.grad, g.sum(axis=0, keepdims=True))

    def test_sample_axis_expansion_shape(self):
        """The compensation-wrapper use: lift a shared activation onto a
        leading Monte-Carlo sample axis."""
        x = Tensor(np.ones((5, 4)), requires_grad=True)
        out = x.broadcast_to((3, 5, 4))
        assert out.shape == (3, 5, 4)
        out.backward(np.ones((3, 5, 4)))
        np.testing.assert_allclose(x.grad, np.full((5, 4), 3.0))
