"""Property-based tests on the autograd engine's algebraic identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor


def _arrays(shape_strategy):
    return shape_strategy.flatmap(
        lambda shape: st.integers(0, 2**31 - 1).map(
            lambda seed: np.random.default_rng(seed).normal(size=shape)
        )
    )


SMALL_SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 4))


class TestAlgebraicIdentities:
    @settings(max_examples=25, deadline=None)
    @given(_arrays(SMALL_SHAPES))
    def test_add_commutative(self, a):
        x, y = Tensor(a), Tensor(a * 0.5 + 1)
        np.testing.assert_allclose((x + y).data, (y + x).data)

    @settings(max_examples=25, deadline=None)
    @given(_arrays(SMALL_SHAPES))
    def test_mul_distributes_over_add(self, a):
        x = Tensor(a)
        y = Tensor(a * 2 - 1)
        z = Tensor(np.ones_like(a) * 0.3)
        lhs = (x * (y + z)).data
        rhs = (x * y + x * z).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(_arrays(SMALL_SHAPES))
    def test_transpose_involution(self, a):
        x = Tensor(a)
        np.testing.assert_allclose(x.T.T.data, a)

    @settings(max_examples=25, deadline=None)
    @given(_arrays(SMALL_SHAPES))
    def test_sum_equals_mean_times_size(self, a):
        x = Tensor(a)
        assert x.sum().item() == pytest.approx(x.mean().item() * a.size)

    @settings(max_examples=25, deadline=None)
    @given(_arrays(SMALL_SHAPES))
    def test_relu_idempotent(self, a):
        x = Tensor(a)
        np.testing.assert_allclose(x.relu().relu().data, x.relu().data)


class TestGradientLinearity:
    """Backward is linear in the output gradient: grad(c*g) = c*grad(g)."""

    @settings(max_examples=20, deadline=None)
    @given(_arrays(SMALL_SHAPES), st.floats(0.5, 3.0))
    def test_scaling_output_grad_scales_input_grad(self, a, c):
        def grad_for(scale):
            x = Tensor(a, requires_grad=True)
            y = (x * x).sum()
            y.backward(np.asarray(scale))
            return x.grad

        g1 = grad_for(1.0)
        gc = grad_for(c)
        np.testing.assert_allclose(gc, c * g1, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(_arrays(SMALL_SHAPES))
    def test_grad_of_sum_is_ones(self, a):
        x = Tensor(a, requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(a))

    @settings(max_examples=20, deadline=None)
    @given(_arrays(SMALL_SHAPES))
    def test_chain_rule_scalar_scale(self, a):
        # d/dx sum(3x) == 3
        x = Tensor(a, requires_grad=True)
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full_like(a, 3.0))


class TestMatmulProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matmul_associative(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))
        c = Tensor(rng.normal(size=(5, 2)))
        lhs = ((a @ b) @ c).data
        rhs = (a @ (b @ c)).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matmul_grad_matches_transpose_formula(self, seed):
        rng = np.random.default_rng(seed)
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))
        g = rng.normal(size=(3, 2))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a @ b).backward(g)
        np.testing.assert_allclose(a.grad, g @ b_data.T, atol=1e-10)
        np.testing.assert_allclose(b.grad, a_data.T @ g, atol=1e-10)
