"""Structural modules and layout-aware fan-in: the branch-graph contract.

Fan-in nodes must combine branch outputs that disagree on stacked-ness
(only some branches contain varied layers). These tests pin the layout
rules of ``fanin_add`` — batch-major {2,3}/{3,4} broadcasts, the
channel-major {4,5} conv alignment — slice-by-slice against the unstacked
reference, plus gradient flow through the lifted operands, and the
stacked/unstacked parity of the structural layers.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd import functional as F, Tensor
from repro.nn import (
    GlobalAvgPool2d,
    LayerNorm,
    Residual,
    SelfAttention,
)
from repro.nn.graph import (
    digital_subtrees,
    module_walk,
    weighted_layers,
    weighted_layers_digital,
)


def _t(shape, seed, requires_grad=False):
    data = np.random.default_rng(seed).normal(size=shape)
    return Tensor(data, requires_grad=requires_grad)


class TestFaninAdd:
    def test_equal_rank_is_plain_sum(self):
        a, b, c = _t((3, 4), 0), _t((3, 4), 1), _t((3, 4), 2)
        out = F.fanin_add(a, b, c)
        np.testing.assert_array_equal(out.data, a.data + b.data + c.data)

    def test_mixed_features_each_slice_matches_loop(self):
        """(S, N, F) + (N, F): slice s equals the reference per-sample sum."""
        stacked, flat = _t((5, 3, 4), 0), _t((3, 4), 1)
        out = F.fanin_add(stacked, flat)
        assert out.shape == (5, 3, 4)
        for s in range(5):
            np.testing.assert_array_equal(
                out.data[s], stacked.data[s] + flat.data
            )

    def test_mixed_tokens_each_slice_matches_loop(self):
        """(S, N, T, D) + (N, T, D) broadcasts natively (batch-major)."""
        stacked, tokens = _t((4, 2, 6, 8), 0), _t((2, 6, 8), 1)
        out = F.fanin_add(stacked, tokens)
        assert out.shape == (4, 2, 6, 8)
        for s in range(4):
            np.testing.assert_array_equal(
                out.data[s], stacked.data[s] + tokens.data
            )

    def test_mixed_conv_maps_channel_major_alignment(self):
        """(S, C, N, H, W) + (N, C, H, W) is the rank pair where naive
        trailing-aligned broadcasting would silently pair C with N; the
        channel-major transpose makes each stacked slice equal the
        unstacked sum of the reference loop."""
        s_, c, n, h, w = 3, 4, 2, 5, 5
        stacked, maps = _t((s_, c, n, h, w), 0), _t((n, c, h, w), 1)
        out = F.fanin_add(stacked, maps)
        assert out.shape == (s_, c, n, h, w)
        for s in range(s_):
            # slice s is channel-major (C, N, H, W)
            np.testing.assert_array_equal(
                out.data[s], stacked.data[s] + maps.data.transpose(1, 0, 2, 3)
            )

    def test_gradient_sums_over_sample_axis(self):
        """The unstacked branch's gradient accumulates over all S slices —
        what per-sample backprop would have summed across the loop."""
        stacked = _t((5, 3, 4), 0, requires_grad=True)
        flat = _t((3, 4), 1, requires_grad=True)
        F.fanin_add(stacked, flat).sum().backward()
        np.testing.assert_array_equal(stacked.grad, np.ones((5, 3, 4)))
        np.testing.assert_array_equal(flat.grad, np.full((3, 4), 5.0))

    def test_conv_gradient_transposes_back(self):
        stacked = _t((3, 4, 2, 5, 5), 0, requires_grad=True)
        maps = _t((2, 4, 5, 5), 1, requires_grad=True)
        F.fanin_add(stacked, maps).sum().backward()
        assert stacked.grad.shape == (3, 4, 2, 5, 5)
        assert maps.grad.shape == (2, 4, 5, 5)
        np.testing.assert_array_equal(maps.grad, np.full((2, 4, 5, 5), 3.0))

    def test_needs_two_operands(self):
        with pytest.raises(ValueError, match="at least two"):
            F.fanin_add(_t((2, 3), 0))

    def test_rank_gap_beyond_sample_axis_rejected(self):
        with pytest.raises(ValueError, match="sample axis"):
            F.fanin_add(_t((2, 2, 3, 4, 4), 0), _t((3, 4), 1))


class TestCanonicalWalk:
    """The one traversal every layer-ordering consumer shares."""

    def _model(self):
        return nn.Sequential(
            nn.Linear(4, 4, seed=0),
            Residual(nn.Linear(4, 4, seed=1), nn.Linear(4, 4, seed=2)),
            nn.Linear(4, 3, seed=3),
        )

    def test_preorder_root_first(self):
        model = self._model()
        names = [name for name, _ in module_walk(model)]
        assert names[0] == ""
        assert names == [
            "", "0", "1", "1.body", "1.shortcut", "2",
        ]

    def test_weighted_layers_follow_walk_order(self):
        names = [name for name, _ in weighted_layers(self._model())]
        assert names == ["0", "1.body", "1.shortcut", "2"]

    def test_digital_subtree_skipped_entirely(self):
        """Layers *inside* a digital container are digital too — the old
        per-leaf check only skipped the flagged module itself."""
        inner = nn.Sequential(nn.Linear(4, 4, seed=1), nn.Linear(4, 4, seed=2))
        inner.digital = True
        model = nn.Sequential(nn.Linear(4, 4, seed=0), inner)
        assert [name for name, _ in weighted_layers(model)] == ["0"]

    def test_digital_root_walks_empty(self):
        model = nn.Linear(4, 4, seed=0)
        model.digital = True
        assert list(module_walk(model)) == []
        assert len(list(module_walk(model, into_digital=True))) == 1

    def test_weighted_layers_digital_sees_inside(self):
        inner = nn.Sequential(nn.Linear(4, 4, seed=1), nn.Linear(4, 4, seed=2))
        inner.digital = True
        names = [name for name, _ in weighted_layers_digital(inner)]
        assert names == ["0", "1"]

    def test_digital_subtrees_maximal_roots_only(self):
        """Nested digital flags collapse into the outermost root, so the
        cost model charges every digital layer exactly once."""
        leaf = nn.Linear(4, 4, seed=2)
        leaf.digital = True
        outer = nn.Sequential(nn.Linear(4, 4, seed=1), leaf)
        outer.digital = True
        model = nn.Sequential(nn.Linear(4, 4, seed=0), outer)
        roots = digital_subtrees(model)
        assert [name for name, _ in roots] == ["1"]
        inside = [
            name for name, _ in weighted_layers_digital(roots[0][1])
        ]
        assert inside == ["0", "1"]


class TestBranchContainers:
    def test_residual_default_identity_shortcut(self):
        res = Residual(nn.Identity())
        x = _t((2, 3), 0)
        np.testing.assert_array_equal(res(x).data, 2.0 * x.data)

    def test_residual_registers_body_before_shortcut(self):
        """Execution order == registration order: the canonical walk (and
        therefore the paper's layer-i indexing) must see the body's layers
        before the shortcut's."""
        res = Residual(nn.Linear(3, 4, seed=0), nn.Linear(3, 4, seed=1))
        names = [name for name, _ in weighted_layers(res)]
        assert names == ["body", "shortcut"]


class TestGlobalAvgPool2d:
    def test_unstacked(self):
        x = _t((2, 3, 4, 4), 0)
        out = GlobalAvgPool2d()(x)
        np.testing.assert_array_equal(out.data, x.data.mean(axis=(2, 3)))

    def test_stacked_returns_batch_major_paired_slices(self):
        """(S, C, N, H, W) -> (S, N, C), each slice bitwise equal to the
        unstacked pool of that sample's maps."""
        x = _t((3, 4, 2, 5, 5), 0)
        out = GlobalAvgPool2d()(x)
        assert out.shape == (3, 2, 4)
        for s in range(3):
            unstacked = GlobalAvgPool2d()(
                Tensor(x.data[s].transpose(1, 0, 2, 3))
            )
            np.testing.assert_array_equal(out.data[s], unstacked.data)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError, match="GlobalAvgPool2d"):
            GlobalAvgPool2d()(_t((2, 3), 0))


class TestLayerNorm:
    def test_normalizes_trailing_axis(self):
        x = _t((4, 6, 8), 0)
        out = LayerNorm(8)(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_stacked_slices_bitwise_paired(self):
        ln = LayerNorm(8)
        x = _t((3, 2, 6, 8), 0)
        out = ln(x)
        for s in range(3):
            np.testing.assert_array_equal(
                out.data[s], ln(Tensor(x.data[s])).data
            )

    def test_trailing_axis_mismatch_rejected(self):
        with pytest.raises(ValueError, match="LayerNorm"):
            LayerNorm(8)(_t((2, 5), 0))

    def test_affine_params_are_not_crossbar_weights(self):
        """gamma/beta are digital peripheral state: the canonical walk must
        not offer them to the injector or ``analogize``."""
        model = nn.Sequential(LayerNorm(4), nn.Linear(4, 2, seed=0))
        names = [name for name, _ in weighted_layers(model)]
        assert names == ["1"]

    def test_gradient_flows(self):
        ln = LayerNorm(5)
        x = _t((3, 5), 0, requires_grad=True)
        ln(x).sum().backward()
        assert x.grad.shape == (3, 5)
        assert np.all(np.isfinite(x.grad))


class TestSelfAttention:
    def test_output_shape_and_determinism(self):
        attn = SelfAttention(8, seed=0)
        x = _t((2, 6, 8), 0)
        out = attn(x)
        assert out.shape == (2, 6, 8)
        np.testing.assert_array_equal(out.data, attn(x).data)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError, match="num_heads"):
            SelfAttention(7)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError, match="SelfAttention"):
            SelfAttention(8)(_t((4, 8), 0))

    def test_stacked_input_bitwise_paired(self):
        """Stacked activations with unstacked weights: every slice equals
        the unstacked forward bitwise (trailing-axis matmul/softmax only)."""
        attn = SelfAttention(8, seed=0)
        x = _t((3, 2, 6, 8), 0)
        out = attn(x)
        assert out.shape == (3, 2, 6, 8)
        for s in range(3):
            np.testing.assert_array_equal(
                out.data[s], attn(Tensor(x.data[s])).data
            )

    def test_stacked_weights_bitwise_paired(self):
        """Stacked (S, out, in) projection weights — the vectorized
        Monte-Carlo path — reproduce each per-sample forward bitwise.
        Stacked passes run under ``no_grad``, as the engine runs them."""
        from repro.autograd import no_grad
        from repro.utils.rng import spawn_rngs
        from repro.variation import VariationInjector, LogNormalVariation

        attn = SelfAttention(8, seed=0)
        inj = VariationInjector(attn, LogNormalVariation(0.4))
        x = Tensor(np.random.default_rng(5).normal(size=(2, 6, 8)))
        stacks = inj.stack_for(spawn_rngs(11, 3))
        with inj.applied_stack(stacks), no_grad():
            stacked_out = attn(x).data.copy()
        for s in range(3):
            slice_s = {name: stack[s] for name, stack in stacks.items()}
            with inj.applied_stack(
                {name: arr[None] for name, arr in slice_s.items()}
            ), no_grad():
                per_sample = attn(x).data[0]
            np.testing.assert_array_equal(stacked_out[s], per_sample)

    def test_projections_are_weighted_layers(self):
        attn = SelfAttention(8, seed=0)
        names = [name for name, _ in weighted_layers(attn)]
        assert names == ["q_proj", "k_proj", "v_proj", "out_proj"]

    def test_gradient_flows(self):
        attn = SelfAttention(4, seed=0)
        x = _t((2, 3, 4), 0, requires_grad=True)
        attn(x).sum().backward()
        assert x.grad.shape == (2, 3, 4)
        assert np.any(x.grad != 0)
