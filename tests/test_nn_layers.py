"""Layer semantics and the Sequential container's splicing support."""

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd import Tensor


class TestLinear:
    def test_output_shape(self):
        layer = nn.Linear(5, 3, seed=0)
        assert layer(Tensor(np.zeros((4, 5)))).shape == (4, 3)

    def test_no_bias(self):
        layer = nn.Linear(5, 3, bias=False, seed=0)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((1, 5))))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)))

    def test_deterministic_init_by_seed(self):
        a = nn.Linear(5, 3, seed=42)
        b = nn.Linear(5, 3, seed=42)
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_init_schemes(self):
        """Linear and Conv2d share one scheme: He-normal weights drawn from
        ``seed``, zero biases."""
        from repro.nn import init
        from repro.utils.rng import new_rng

        linear = nn.Linear(8, 6, seed=3)
        conv = nn.Conv2d(2, 4, 3, seed=3)
        np.testing.assert_array_equal(
            linear.weight.data, init.kaiming_normal((6, 8), new_rng(3)))
        np.testing.assert_array_equal(
            conv.weight.data, init.kaiming_normal((4, 2, 3, 3), new_rng(3)))
        assert not linear.bias.data.any() and not conv.bias.data.any()


class TestConv2d:
    def test_output_shape_same_padding(self):
        conv = nn.Conv2d(3, 8, 3, padding=1, seed=0)
        assert conv(Tensor(np.zeros((2, 3, 6, 6)))).shape == (2, 8, 6, 6)

    def test_stride(self):
        conv = nn.Conv2d(1, 1, 2, stride=2, seed=0)
        assert conv(Tensor(np.zeros((1, 1, 6, 6)))).shape == (1, 1, 3, 3)

    def test_rectangular_kernel(self):
        conv = nn.Conv2d(1, 2, (1, 3), seed=0)
        assert conv(Tensor(np.zeros((1, 1, 5, 5)))).shape == (1, 2, 5, 3)


class TestActivations:
    def test_relu_module(self):
        out = nn.ReLU()(Tensor(np.array([-1.0, 1.0])))
        np.testing.assert_allclose(out.data, [0.0, 1.0])


class TestContainers:
    def test_flatten(self):
        out = nn.Flatten()(Tensor(np.zeros((2, 3, 4, 5))))
        assert out.shape == (2, 60)

    def test_identity(self):
        x = Tensor(np.ones(3))
        assert nn.Identity()(x) is x

    def test_sequential_order(self):
        seq = nn.Sequential(nn.Linear(4, 8, seed=0), nn.ReLU(),
                            nn.Linear(8, 2, seed=1))
        assert len(seq) == 3
        assert isinstance(seq[1], nn.ReLU)
        out = seq(Tensor(np.zeros((1, 4))))
        assert out.shape == (1, 2)

    def test_sequential_setitem_splices(self):
        seq = nn.Sequential(nn.Linear(4, 4, seed=0), nn.ReLU())
        replacement = nn.Identity()
        seq[1] = replacement
        assert seq[1] is replacement
        # registration updated too (parameters/modules traversal)
        assert any(m is replacement for m in seq.modules())

    def test_sequential_append(self):
        seq = nn.Sequential(nn.Linear(2, 2, seed=0))
        seq.append(nn.ReLU())
        assert len(seq) == 2

    def test_sequential_iter(self):
        mods = [nn.Linear(2, 2, seed=0), nn.ReLU()]
        seq = nn.Sequential(*mods)
        assert [type(m) for m in seq] == [nn.Linear, nn.ReLU]


class TestLosses:
    def test_cross_entropy_module(self):
        loss = nn.CrossEntropyLoss()(
            Tensor(np.zeros((2, 4))), np.array([0, 1])
        )
        assert loss.item() == pytest.approx(np.log(4))


class TestFlattenStacked:
    def test_flatten_channel_major_stack(self):
        """5-D channel-major stacks (S, C, N, H, W) flatten to (S, N, C*H*W)
        with the same per-image feature order as the 4-D case."""
        import numpy as np
        from repro.autograd import Tensor
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 2, 4, 2, 2))  # (S, C, N, H, W)
        out = nn.Flatten()(Tensor(x))
        assert out.shape == (3, 4, 8)
        for s in range(3):
            ref = nn.Flatten()(Tensor(x[s].transpose(1, 0, 2, 3))).data
            np.testing.assert_array_equal(out.data[s], ref)
