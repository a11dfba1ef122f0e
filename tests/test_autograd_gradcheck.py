"""Every differentiable op verified against central finite differences."""

import numpy as np

from repro.autograd import Tensor, functional as F, gradcheck

RNG = np.random.default_rng(2024)


def _t(*shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


class TestElementwiseGrads:
    def test_add(self):
        assert gradcheck(lambda a, b: a + b, [_t(3, 4), _t(3, 4)])

    def test_add_broadcast(self):
        assert gradcheck(lambda a, b: a + b, [_t(3, 4), _t(4)])

    def test_mul_broadcast(self):
        assert gradcheck(lambda a, b: a * b, [_t(2, 3), _t(1, 3)])

    def test_div(self):
        a = _t(3)
        b = Tensor(RNG.uniform(0.5, 2.0, size=3), requires_grad=True)
        assert gradcheck(lambda a, b: a / b, [a, b])

    def test_pow(self):
        x = Tensor(RNG.uniform(0.5, 2.0, size=4), requires_grad=True)
        assert gradcheck(lambda x: x**3, [x])

    def test_exp(self):
        assert gradcheck(lambda x: x.exp(), [_t(5)])

    def test_tanh(self):
        assert gradcheck(lambda x: x.tanh(), [_t(5)])

    def test_relu_away_from_kink(self):
        x = Tensor(RNG.uniform(0.1, 1.0, size=5) * RNG.choice([-1, 1], 5),
                   requires_grad=True)
        assert gradcheck(lambda x: x.relu(), [x])


class TestMatmulGrads:
    def test_2d_2d(self):
        assert gradcheck(lambda a, b: a @ b, [_t(3, 4), _t(4, 2)])

    def test_1d_1d(self):
        assert gradcheck(lambda a, b: a @ b, [_t(4), _t(4)])

    def test_2d_1d(self):
        assert gradcheck(lambda a, b: a @ b, [_t(3, 4), _t(4)])

    def test_1d_2d(self):
        assert gradcheck(lambda a, b: a @ b, [_t(3), _t(3, 2)])


class TestReductionGrads:
    def test_sum_all(self):
        assert gradcheck(lambda x: x.sum(), [_t(3, 4)])

    def test_sum_axis(self):
        assert gradcheck(lambda x: x.sum(axis=1), [_t(3, 4)])

    def test_sum_axis_tuple_keepdims(self):
        assert gradcheck(lambda x: x.sum(axis=(0, 2), keepdims=True), [_t(2, 3, 4)])

    def test_mean(self):
        assert gradcheck(lambda x: x.mean(axis=0), [_t(3, 4)])

    def test_var(self):
        assert gradcheck(lambda x: x.var(axis=1), [_t(3, 4)], atol=1e-4)


class TestNNFunctionalGrads:
    def test_conv2d_all_inputs(self):
        x, w, b = _t(2, 3, 5, 5), _t(4, 3, 3, 3), _t(4)
        assert gradcheck(lambda x, w, b: F.conv2d(x, w, b, 1, 1), [x, w, b])

    def test_conv2d_stride2_nopad(self):
        x, w = _t(1, 2, 6, 6), _t(3, 2, 2, 2)
        assert gradcheck(lambda x, w: F.conv2d(x, w, None, 2, 0), [x, w])

    def test_avg_pool(self):
        assert gradcheck(lambda x: F.avg_pool2d(x, 2), [_t(2, 2, 4, 4)])

    def test_max_pool(self):
        assert gradcheck(lambda x: F.max_pool2d(x, 2), [_t(2, 2, 4, 4)])

    def test_adaptive_avg_pool_non_divisible(self):
        assert gradcheck(
            lambda x: F.adaptive_avg_pool2d(x, (3, 2)), [_t(1, 2, 7, 5)]
        )

    def test_softmax(self):
        assert gradcheck(F.softmax, [_t(4, 6)])

    def test_log_softmax(self):
        assert gradcheck(F.log_softmax, [_t(4, 6)])

    def test_cross_entropy(self):
        labels = RNG.integers(0, 5, size=6)
        assert gradcheck(lambda x: F.cross_entropy(x, labels), [_t(6, 5)])

    def test_linear(self):
        x, w, b = _t(4, 3), _t(2, 3), _t(2)
        assert gradcheck(lambda x, w, b: F.linear(x, w, b), [x, w, b])
