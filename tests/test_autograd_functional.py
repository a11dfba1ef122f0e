"""Functional ops: values, shapes and probability-distribution properties."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, functional as F


class TestConv2d:
    def test_output_shape_padding_same(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((5, 3, 3, 3)))
        assert F.conv2d(x, w, None, 1, 1).shape == (2, 5, 8, 8)

    def test_output_shape_valid_stride(self):
        x = Tensor(np.zeros((1, 1, 7, 7)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        assert F.conv2d(x, w, None, 2, 0).shape == (1, 2, 3, 3)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 2, 4, 4))),
                     Tensor(np.zeros((1, 3, 3, 3))))

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 1, 4, 4))
        w = np.zeros((1, 1, 1, 1))
        w[0, 0, 0, 0] = 1.0
        out = F.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, x)

    def test_bias_broadcast(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        w = Tensor(np.zeros((3, 1, 1, 1)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        out = F.conv2d(x, w, b)
        np.testing.assert_allclose(out.data[0, :, 0, 0], [1.0, 2.0, 3.0])


class TestPooling:
    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_adaptive_pool_identity_when_same_size(self):
        x = np.random.default_rng(1).normal(size=(1, 2, 4, 4))
        out = F.adaptive_avg_pool2d(Tensor(x), (4, 4))
        np.testing.assert_allclose(out.data, x)

    def test_adaptive_pool_matches_avg_pool_when_divisible(self):
        x = np.random.default_rng(2).normal(size=(1, 2, 6, 6))
        adaptive = F.adaptive_avg_pool2d(Tensor(x), (3, 3))
        plain = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(adaptive.data, plain.data, atol=1e-12)

    def test_adaptive_pool_upsample_raises(self):
        with pytest.raises(ValueError):
            F.adaptive_avg_pool2d(Tensor(np.zeros((1, 1, 2, 2))), (4, 4))

    def test_adaptive_pool_preserves_mean(self):
        # Global average is invariant under adaptive pooling with equal
        # cell coverage (e.g. divisible factors).
        x = np.random.default_rng(3).normal(size=(1, 1, 8, 8))
        out = F.adaptive_avg_pool2d(Tensor(x), (2, 2))
        assert out.data.mean() == pytest.approx(x.mean())


class TestSoftmax:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(2, 7))
    def test_rows_are_distributions(self, n, k):
        x = np.random.default_rng(n * 10 + k).normal(scale=5, size=(n, k))
        p = F.softmax(Tensor(x)).data
        assert (p >= 0).all()
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(n), atol=1e-12)

    def test_shift_invariance(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        p1 = F.softmax(Tensor(x)).data
        p2 = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_log_softmax_consistency(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data,
            np.log(F.softmax(Tensor(x)).data),
            atol=1e-12,
        )

    def test_extreme_logits_finite(self):
        x = Tensor(np.array([[1000.0, -1000.0, 0.0]]))
        assert np.isfinite(F.log_softmax(x).data).all()
        assert np.isfinite(F.softmax(x).data).all()


class TestCrossEntropy:
    def test_uniform_logits_log_k(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = F.cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss.item() == pytest.approx(np.log(10))

    def test_perfect_prediction_near_zero(self):
        logits = np.full((3, 5), -100.0)
        logits[np.arange(3), [0, 1, 2]] = 100.0
        loss = F.cross_entropy(Tensor(logits), np.array([0, 1, 2]))
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_matches_manual_nll(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss = F.cross_entropy(Tensor(logits), labels)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        manual = -np.log(p[np.arange(6), labels]).mean()
        assert loss.item() == pytest.approx(manual)


class TestStackedKernels:
    """Sample-stacked (vectorized Monte-Carlo) forward kernels match the
    per-sample reference ops. The stacked conv, linear and tiled pools are
    inference-only: they refuse to record a backward."""

    def _stacked_conv_reference(self, x, w, b, stride, padding):
        outs = []
        for i in range(w.shape[0]):
            bias = None if b is None else Tensor(b[i] if b.ndim == 2 else b)
            outs.append(
                F.conv2d(Tensor(x), Tensor(w[i]), bias, stride, padding).data
            )
        return np.stack(outs)  # (S, N, F, OH, OW)

    def test_stacked_linear_matches_per_sample(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(3, 6, 4))  # (S, out, in)
        b = rng.normal(size=6)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        assert out.shape == (3, 5, 6)
        for i in range(3):
            np.testing.assert_allclose(
                out.data[i], F.linear(Tensor(x), Tensor(w[i]), Tensor(b)).data
            )

    def test_stacked_linear_sample_stacked_input(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5, 4))  # (S, N, in)
        w = rng.normal(size=(3, 6, 4))
        out = F.linear(Tensor(x), Tensor(w))
        for i in range(3):
            np.testing.assert_allclose(
                out.data[i], F.linear(Tensor(x[i]), Tensor(w[i])).data,
                atol=1e-12,
            )

    def test_stacked_conv_shared_input(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3, 8, 8))
        w = rng.normal(size=(5, 2, 3, 3, 3))  # (S, F, C, KH, KW)
        b = rng.normal(size=2)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), 1, 1)
        # channel-major stacked output (S, F, N, OH, OW)
        assert out.shape == (5, 2, 4, 8, 8)
        ref = self._stacked_conv_reference(x, w, b, 1, 1)
        np.testing.assert_allclose(
            out.data, ref.transpose(0, 2, 1, 3, 4), atol=1e-10
        )

    def test_stacked_conv_shared_input_inference_bias_fusion(self):
        from repro.autograd import no_grad
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 1, 6, 6))
        w = rng.normal(size=(3, 4, 1, 3, 3))
        b = rng.normal(size=4)
        with no_grad():
            fused = F.conv2d(Tensor(x), Tensor(w), Tensor(b), 1, 0)
        ref = self._stacked_conv_reference(x, w, b, 1, 0)
        np.testing.assert_allclose(
            fused.data, ref.transpose(0, 2, 1, 3, 4), atol=1e-10
        )

    def test_stacked_conv_stacked_input(self):
        rng = np.random.default_rng(4)
        s, n = 3, 2
        x = rng.normal(size=(s, 4, n, 6, 6))  # channel-major (S, C, N, H, W)
        w = rng.normal(size=(s, 5, 4, 3, 3))
        b = rng.normal(size=(s, 5))  # stacked biases
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), 1, 0)
        assert out.shape == (s, 5, n, 4, 4)
        for i in range(s):
            ref = F.conv2d(
                Tensor(x[i].transpose(1, 0, 2, 3)), Tensor(w[i]), Tensor(b[i]),
                1, 0,
            ).data  # (N, F, OH, OW)
            np.testing.assert_allclose(
                out.data[i], ref.transpose(1, 0, 2, 3), atol=1e-10
            )

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.integers(1, 3),
        c=st.integers(1, 3),
        n=st.integers(1, 3),
        f=st.integers(1, 4),
        kernel=st.integers(1, 5),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        extra=st.integers(0, 4),
        stacked_weight=st.booleans(),
        shared_input=st.booleans(),
        with_bias=st.booleans(),
        dtype=st.sampled_from(["float64", "float32"]),
        seed=st.integers(0, 2**16),
    )
    # Both layouts: a 5x5 kernel over a 6x6 map (OW=2 < KW, LeNet-5's
    # conv2) and a stride-1 unpadded 1x1 conv (OW >= KW, no gather); and
    # a float32 shared input whose bias folds into the GEMM.
    @example(s=2, c=3, n=2, f=4, kernel=5, stride=1, padding=0, extra=1,
             stacked_weight=True, shared_input=False, with_bias=True,
             dtype="float64", seed=0)
    @example(s=2, c=3, n=2, f=4, kernel=1, stride=1, padding=0, extra=3,
             stacked_weight=False, shared_input=False, with_bias=True,
             dtype="float64", seed=0)
    @example(s=2, c=3, n=2, f=4, kernel=3, stride=1, padding=1, extra=2,
             stacked_weight=True, shared_input=True, with_bias=True,
             dtype="float32", seed=0)
    def test_stacked_input_conv_matches_per_sample(
        self, s, c, n, f, kernel, stride, padding, extra, stacked_weight,
        shared_input, with_bias, dtype, seed,
    ):
        """A stacked (S, C, N, H, W) input, or a shared (N, C, H, W) one
        under a stacked weight, convolves like S plain conv2d calls in the
        operands' dtype, whichever layout the shapes pick (``OW >= KW`` or
        not)."""
        from repro.autograd import no_grad

        stacked_weight = stacked_weight or shared_input
        h = max(1, kernel - 2 * padding) + extra
        oh = (h + 2 * padding - kernel) // stride + 1
        rng = np.random.default_rng(seed)
        shape = (n, c, h, h) if shared_input else (s, c, n, h, h)
        x = rng.normal(size=shape).astype(dtype)
        w = rng.normal(size=((s,) if stacked_weight else ()) + (f, c, kernel, kernel))
        w = w.astype(dtype)
        b = None
        if with_bias:
            b = rng.normal(size=((s,) if stacked_weight else ()) + (f,)).astype(dtype)

        with no_grad():
            out = F.conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                           stride, padding)
        assert out.shape == (s, f, n, oh, oh)
        assert out.data.dtype == np.dtype(dtype)

        want = np.empty(out.shape)
        for i in range(s):
            bi = None
            if b is not None:
                bi = Tensor(b[i] if stacked_weight else b)
            xi = x if shared_input else x[i].transpose(1, 0, 2, 3)
            oi = F.conv2d(
                Tensor(np.ascontiguousarray(xi)),
                Tensor(w[i] if stacked_weight else w), bi, stride, padding,
            )
            want[i] = oi.data.transpose(1, 0, 2, 3)

        rtol = 1e-10 if dtype == "float64" else 1e-4
        np.testing.assert_allclose(
            out.data, want, rtol=rtol, atol=rtol * np.abs(want).max()
        )

    @pytest.mark.parametrize(
        "h,kernel,stride,padding",
        [(5, 1, 1, 0), (6, 1, 2, 0), (4, 3, 1, 1), (6, 5, 1, 0), (5, 4, 1, 0)],
    )
    def test_stacked_input_gemm_layout(self, monkeypatch, h, kernel, stride, padding):
        """Where an output row is at least as long as a kernel row, the
        GEMM product is the channel-major output itself (no transpose
        copy), and a stride-1 unpadded 1x1 conv multiplies a view of its
        input (no gather). Shorter rows keep the transposed product."""
        from repro.autograd import no_grad

        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 4, h, h))
        w = rng.normal(size=(2, 6, 3, kernel, kernel))
        b = rng.normal(size=(2, 6))
        operands, products = [], []
        matmul = np.matmul

        def spy(*args, **kwargs):
            operands.extend(args[:2])
            products.append(matmul(*args, **kwargs))
            return products[-1]

        monkeypatch.setattr(np, "matmul", spy)
        with no_grad():
            out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding)
        monkeypatch.undo()
        ow = (h + 2 * padding - kernel) // stride + 1
        assert products, "the stacked conv ran no np.matmul"
        assert any(np.shares_memory(out.data, p) for p in products) == (ow >= kernel)
        if kernel == stride == 1 and padding == 0:
            assert any(np.shares_memory(op, x) for op in operands)
        want = np.stack([
            F.conv2d(Tensor(x[i].transpose(1, 0, 2, 3)), Tensor(w[i]),
                     Tensor(b[i]), stride, padding).data.transpose(1, 0, 2, 3)
            for i in range(2)
        ])
        np.testing.assert_allclose(out.data, want, rtol=1e-10, atol=1e-12)

    def test_stacked_pools_match_folded_reference(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 2, 4, 6, 6))  # (S, C, N, H, W)
        for pool in (F.avg_pool2d, F.max_pool2d):
            out = pool(Tensor(x), 2)
            assert out.shape == (3, 2, 4, 3, 3)
            ref = pool(Tensor(x.reshape(6, 4, 6, 6)), 2).data.reshape(
                3, 2, 4, 3, 3
            )
            np.testing.assert_allclose(out.data, ref, atol=1e-12)

    @staticmethod
    def _pool_copying_taps(x, kh, kw, mode):
        """The stacked tiled-pool forward that copied tap 0 before
        combining, and scaled the average into a new array."""
        s, a, b, h, w = x.shape
        oh, ow = h // kh, w // kw
        combine = np.add if mode == "avg" else np.maximum
        rows_win = x.reshape(s, a, b, oh, kh, w)
        rows = rows_win[:, :, :, :, 0, :].copy()
        for i in range(1, kh):
            combine(rows, rows_win[:, :, :, :, i, :], out=rows)
        cols_win = rows.reshape(s, a, b, oh, ow, kw)
        acc = cols_win[..., 0].copy()
        for j in range(1, kw):
            combine(acc, cols_win[..., j], out=acc)
        return acc * (1.0 / (kh * kw)) if mode == "avg" else acc

    @settings(max_examples=40, deadline=None)
    @given(
        lead=st.tuples(*[st.integers(1, 3)] * 3),
        windows=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        mode=st.sampled_from(["avg", "max"]),
        dtype=st.sampled_from(["float64", "float32"]),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_fast_pool_bytes_match_copying_kernel(
        self, lead, windows, kernel, mode, dtype, seed
    ):
        (oh, ow), (kh, kw) = windows, kernel
        x = np.random.default_rng(seed).normal(
            size=lead + (oh * kh, ow * kw)
        ).astype(dtype)
        before = x.copy()
        got = F._pool2d_stacked_fast(Tensor(x), kh, kw, mode).data
        want = self._pool_copying_taps(x, kh, kw, mode)
        assert got.dtype == want.dtype
        assert got.strides == want.strides
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, x)
        assert x.tobytes() == before.tobytes()

    def test_stacked_pool_fallback_strided_windows(self):
        # windows that do not tile the map force the fold path instead of
        # the fast path
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 2, 7, 7))
        out = F.max_pool2d(Tensor(x), 3)
        ref = F.max_pool2d(Tensor(x.reshape(6, 2, 7, 7)), 3)
        np.testing.assert_allclose(
            out.data, ref.data.reshape(2, 3, 2, 2, 2), atol=1e-12
        )

    def test_stacked_kernels_refuse_to_record(self):
        """With grad enabled, an operand that requires grad makes a stacked
        conv, linear or tiled stacked pool raise instead of dropping its
        gradient. Under ``no_grad``, or with constant operands, they run
        untaped, and the pooling fold for windows that do not tile stays
        differentiable."""
        from repro.autograd import no_grad

        rng = np.random.default_rng(11)
        stacked_x = rng.normal(size=(2, 3, 4, 6, 6))  # (S, C, N, H, W)
        shared_x = rng.normal(size=(4, 3, 6, 6))
        w = rng.normal(size=(2, 5, 3, 3, 3))
        b = rng.normal(size=5)
        features = rng.normal(size=(4, 3))  # (N, in)
        linear_w = rng.normal(size=(2, 5, 3))  # (S, out, in)
        cases = {
            "conv, stacked input": (F.conv2d, [stacked_x, w, b]),
            "conv, shared input": (F.conv2d, [shared_x, w, b]),
            "conv, shared weight": (F.conv2d, [stacked_x, w[0], b]),
            "avg pool": (lambda x: F.avg_pool2d(x, 2), [stacked_x]),
            "max pool": (lambda x: F.max_pool2d(x, 2), [stacked_x]),
            "linear": (F.linear, [features, linear_w, b]),
        }
        for name, (op, arrays) in cases.items():
            for i in range(len(arrays)):
                operands = [Tensor(a, requires_grad=j == i)
                            for j, a in enumerate(arrays)]
                with pytest.raises(RuntimeError, match="no backward"):
                    op(*operands)
                with no_grad():
                    assert not op(*operands).requires_grad, name
            assert not op(*[Tensor(a) for a in arrays]).requires_grad, name
        folded = F.max_pool2d(Tensor(stacked_x, requires_grad=True), 4)
        assert folded.requires_grad


class TestConvGEMMLowering:
    """The GEMM-lowered conv2d must agree with a direct einsum reference
    (the pre-lowering implementation) in values and gradients."""

    @staticmethod
    def _reference(x, w, b, stride, padding):
        from repro.autograd.im2col import conv_output_size, im2col
        n, c, h, wd = x.shape
        f, _, kh, kw = w.shape
        oh = conv_output_size(h, kh, stride, padding)
        ow = conv_output_size(wd, kw, stride, padding)
        cols = im2col(x, (kh, kw), stride, padding)
        out = np.einsum("fk,nkp->nfp", w.reshape(f, -1), cols)
        out = out.reshape(n, f, oh, ow)
        return out if b is None else out + b.reshape(1, f, 1, 1)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (1, 1), (2, 1)])
    def test_forward_matches_einsum_reference(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4, 9, 9))
        w = rng.normal(size=(5, 4, 3, 3))
        b = rng.normal(size=(5,))
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding)
        ref = self._reference(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_gradients_match_einsum_reference(self, stride, padding):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        out = F.conv2d(xt, wt, bt, stride, padding)
        g = rng.normal(size=out.shape)
        out.backward(g)

        # Reference gradients through the einsum formulation.
        from repro.autograd.im2col import col2im, im2col
        kh = kw = 3
        n, c, h, wd = x.shape
        f = 4
        cols = im2col(x, (kh, kw), stride, padding)
        p = out.shape[2] * out.shape[3]
        grad = g.reshape(n, f, p)
        gw_ref = np.einsum("nfp,nkp->fk", grad, cols).reshape(w.shape)
        gcols = np.einsum("fk,nfp->nkp", w.reshape(f, -1), grad)
        gx_ref = col2im(gcols, (n, c, h, wd), (kh, kw), stride, padding)
        np.testing.assert_allclose(wt.grad, gw_ref, atol=1e-10)
        np.testing.assert_allclose(xt.grad, gx_ref, atol=1e-10)
        np.testing.assert_allclose(bt.grad, g.sum(axis=(0, 2, 3)), atol=1e-10)

    def test_im2col_windows_layout(self):
        from repro.autograd.im2col import im2col, im2col_windows
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 5, 5))
        rows = im2col_windows(x, (3, 3), 1, 0)  # (N*P, K)
        cols = im2col(x, (3, 3), 1, 0)          # (N, K, P)
        np.testing.assert_allclose(
            rows.reshape(2, 9, 27), cols.transpose(0, 2, 1), atol=1e-15
        )


class TestAdaptivePoolStacked:
    def test_stacked_matches_per_sample(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 2, 4, 7, 7))  # (S, C, N, H, W)
        out = F.adaptive_avg_pool2d(Tensor(x), (3, 3))
        assert out.shape == (3, 2, 4, 3, 3)
        for s in range(3):
            # channel-major slice s is a (C, N, H, W) block; pooling is
            # per spatial plane, so axis order does not matter
            ref = F.adaptive_avg_pool2d(Tensor(x[s]), (3, 3))
            np.testing.assert_allclose(out.data[s], ref.data, atol=1e-12)

    def test_stacked_gradient_matches_folded(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 2, 6, 6))
        g = rng.normal(size=(2, 3, 2, 2, 2))
        xt = Tensor(x, requires_grad=True)
        F.adaptive_avg_pool2d(xt, (2, 2)).backward(g)
        folded = Tensor(x.reshape(6, 2, 6, 6), requires_grad=True)
        F.adaptive_avg_pool2d(folded, (2, 2)).backward(g.reshape(6, 2, 2, 2))
        np.testing.assert_allclose(
            xt.grad, folded.grad.reshape(x.shape), atol=1e-12
        )

    def test_bad_rank_raises(self):
        with pytest.raises(ValueError):
            F.adaptive_avg_pool2d(Tensor(np.zeros((2, 3, 4))), (2, 2))


class TestEinsumPathCache:
    """``_einsum`` searches a contraction path once per subscripts and
    shapes, and must then compute exactly what ``optimize=True`` does."""

    #: The contractions the kernels run: adaptive pooling, forward and
    #: backward, on plain and stacked maps.
    CASES = {
        "ih,...hw,jw->...ij": lambda d: [(d[0], d[2]), d[4:] + (d[2], d[3]), (d[1], d[3])],
        "ih,...ij,jw->...hw": lambda d: [(d[0], d[2]), d[4:] + (d[0], d[1]), (d[1], d[3])],
    }

    @settings(max_examples=60, deadline=None)
    @given(
        subscripts=st.sampled_from(sorted(CASES)),
        dims=st.tuples(*[st.integers(1, 5)] * 4, *[st.integers(1, 3)] * 2),
        data=st.data(),
    )
    def test_cached_path_is_bitwise_optimize_true(self, subscripts, dims, data):
        shapes = self.CASES[subscripts](dims)
        operands = [
            data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
            for shape in shapes
        ]
        want = np.einsum(subscripts, *operands, optimize=True)
        for _ in range(2):  # the searching call, then the cached one
            got = F._einsum(subscripts, *operands)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_the_path_is_searched_once_per_shape(self, monkeypatch):
        searches = []
        search = np.einsum_path
        monkeypatch.setattr(F, "_EINSUM_PATHS", {})
        monkeypatch.setattr(
            np, "einsum_path", lambda *a, **k: searches.append(a[0]) or search(*a, **k)
        )
        x = Tensor(np.ones((2, 3, 6, 6)), requires_grad=True)
        for _ in range(3):
            F.adaptive_avg_pool2d(x, (3, 2)).backward(np.ones((2, 3, 3, 2)))
        F.adaptive_avg_pool2d(Tensor(np.ones((4, 3, 6, 6))), (3, 2))
        assert searches == [
            "ih,...hw,jw->...ij", "ih,...ij,jw->...hw", "ih,...hw,jw->...ij"
        ]
