"""im2col/col2im lowering: shapes and adjointness (the backward's core).

The scatter's position-ordered loop and the gather-free tiled average
pooling are refinements of the gather/scatter paths they replaced: both
are pinned byte for byte against in-test copies of those paths.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, functional as F
from repro.autograd.im2col import (
    _zero_padded,
    col2im,
    conv_output_size,
    im2col,
    im2col_stacked,
    im2col_stacked_pixels,
)


class TestOutputSize:
    def test_basic(self):
        assert conv_output_size(5, 3, 1, 0) == 3
        assert conv_output_size(5, 3, 1, 1) == 5
        assert conv_output_size(6, 2, 2, 0) == 3

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestIm2col:
    def test_shape(self):
        x = np.zeros((2, 3, 5, 5))
        cols = im2col(x, (3, 3), 1, 1)
        assert cols.shape == (2, 27, 25)

    def test_values_simple(self):
        # A 1x1x2x2 input with 2x2 kernel: the single column is the image.
        x = np.arange(4.0).reshape(1, 1, 2, 2)
        cols = im2col(x, (2, 2), 1, 0)
        np.testing.assert_allclose(cols[0, :, 0], [0, 1, 2, 3])

    def test_equals_naive_convolution(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        cols = im2col(x, (3, 3), 1, 0)
        out = (w.reshape(3, -1) @ cols[0]).reshape(3, 3, 3)
        # naive reference
        ref = np.zeros((3, 3, 3))
        for f in range(3):
            for i in range(3):
                for j in range(3):
                    ref[f, i, j] = (x[0, :, i:i+3, j:j+3] * w[f]).sum()
        np.testing.assert_allclose(out, ref, atol=1e-12)


class TestAdjointness:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 2),
        c=st.integers(1, 3),
        h=st.integers(4, 7),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        padding=st.integers(0, 1),
    )
    def test_col2im_is_adjoint_of_im2col(self, n, c, h, k, stride, padding):
        """<im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        property of the transpose map used in conv backward."""
        rng = np.random.default_rng(n * 1000 + c * 100 + h * 10 + k)
        x = rng.normal(size=(n, c, h, h))
        cols = im2col(x, (k, k), stride, padding)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, (k, k), stride, padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_col2im_counts_window_overlaps(self):
        # All-ones columns: each input pixel receives its window count.
        x_shape = (1, 1, 3, 3)
        cols = np.ones((1, 4, 4))  # 2x2 kernel, stride 1 -> 2x2 output
        out = col2im(cols, x_shape, (2, 2), 1, 0)
        expected = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=float)
        np.testing.assert_allclose(out[0, 0], expected)


#: Array entries with the values a byte comparison has to get right: signed
#: zeros and infinities next to ordinary magnitudes.
_ENTRIES = st.one_of(
    st.floats(-1e3, 1e3, width=32), st.sampled_from([0.0, -0.0, np.inf, -np.inf])
)


def _tap_loop_col2im(cols, input_shape, kernel, stride, padding):
    """The scatter as one strided add per kernel tap, kept verbatim."""
    n, c, h, w = input_shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            out[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j]
    if padding:
        return out[:, :, padding:-padding, padding:-padding]
    return out


def _gather_avg_pool(x, k):
    """avg_pool2d's forward as the im2col gather and mean, kept verbatim."""
    n, c, h, w = x.shape
    oh, ow = h // k, w // k
    cols = im2col(x, (k, k), k, 0).reshape(n, c, k * k, oh * ow)
    return cols.mean(axis=2).reshape(n, c, oh, ow)


def _gather_avg_pool_grad(gout, shape, k):
    """avg_pool2d's input gradient as a broadcast copy and the tap-loop
    scatter, added into zeros as the first gradient write did."""
    n, c, h, w = shape
    oh, ow = h // k, w // k
    grad = gout.reshape(n, c, 1, oh * ow) / (k * k)
    gcols = np.broadcast_to(grad, (n, c, k * k, oh * ow)).reshape(
        n, c * k * k, oh * ow
    )
    z = np.zeros(shape)
    z += _tap_loop_col2im(gcols, shape, (k, k), k, 0)
    return z


class TestScatterOrder:
    @pytest.mark.parametrize("by_position", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 2),
        c=st.integers(1, 2),
        kh=st.integers(1, 5),
        kw=st.integers(1, 5),
        oh=st.integers(1, 4),
        ow=st.integers(1, 4),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        dtype=st.sampled_from([np.float32, np.float64]),
        data=st.data(),
    )
    def test_position_loop_is_byte_equal_to_the_tap_loop(
        self, by_position, n, c, kh, kw, oh, ow, stride, padding, dtype, data
    ):
        """Both sides of ``oh*ow < kh*kw``: the scatter hands every pixel
        its contributions in tap order, whichever loop it runs."""
        assume((oh * ow < kh * kw) == by_position)
        h = (oh - 1) * stride + kh - 2 * padding
        w = (ow - 1) * stride + kw - 2 * padding
        assume(h >= 1 and w >= 1)
        cols = data.draw(hnp.arrays(dtype, (n, c * kh * kw, oh * ow), elements=_ENTRIES))
        with np.errstate(invalid="ignore"):  # inf + -inf, in both loops
            got = col2im(cols, (n, c, h, w), (kh, kw), stride, padding)
            want = _tap_loop_col2im(cols, (n, c, h, w), (kh, kw), stride, padding)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_a_five_by_five_kernel_over_a_six_by_six_map(self):
        """LeNet-5's conv2 input gradient: 4 positions against 25 taps."""
        rng = np.random.default_rng(0)
        cols = rng.normal(size=(3, 2 * 25, 4))
        cols[cols < -1.0] = -0.0
        got = col2im(cols, (3, 2, 6, 6), (5, 5), 1, 0)
        assert got.tobytes() == _tap_loop_col2im(
            cols, (3, 2, 6, 6), (5, 5), 1, 0
        ).tobytes()


class TestTiledAvgPool:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        k=st.integers(1, 4),
        oh=st.integers(1, 3),
        ow=st.integers(1, 3),
        dtype=st.sampled_from([np.float32, np.float64]),
        data=st.data(),
    )
    def test_forward_and_input_gradient_are_byte_equal_to_the_gather(
        self, n, c, k, oh, ow, dtype, data
    ):
        """Every tiling shape, the ones the gate sends back to the gather
        (a single window of 9 or 16 taps, a one-window-wide map) included."""
        shape = (n, c, oh * k, ow * k)
        x = data.draw(hnp.arrays(dtype, shape, elements=_ENTRIES))
        gout = data.draw(hnp.arrays(np.float64, (n, c, oh, ow), elements=_ENTRIES))
        xt = Tensor(x, requires_grad=True)
        with np.errstate(invalid="ignore"):  # inf + -inf, in both paths
            out = F.avg_pool2d(xt, k)
            want = _gather_avg_pool(x, k)
            assert out.data.dtype == want.dtype
            assert out.data.tobytes() == want.tobytes()
            out._backward(gout)  # the closure itself, so -0.0 reaches it
            want_grad = _gather_avg_pool_grad(gout, shape, k)
        assert xt.grad.dtype == np.float64
        assert xt.grad.strides == want_grad.strides
        assert xt.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize(
        "shape, k",
        [((2, 3, 3, 3), 3), ((1, 2, 4, 4), 4), ((2, 1, 9, 3), 3), ((2, 1, 8, 4), 4)],
    )
    def test_the_shapes_numpy_sums_pairwise(self, shape, k, monkeypatch):
        """One-window-wide maps of 9 or 16 taps with one channel or one
        window row: the gather's taps are contiguous and numpy sums them
        pairwise, so these stay on the gather path and still match it."""
        gathers = []
        monkeypatch.setattr(F, "im2col", lambda *a: gathers.append(a) or im2col(*a))
        rng = np.random.default_rng(2)
        x = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
        xt = Tensor(x, requires_grad=True)
        out = F.avg_pool2d(xt, k)
        assert len(gathers) == 1
        assert out.data.tobytes() == _gather_avg_pool(x, k).tobytes()
        gout = rng.normal(size=out.shape)
        out.backward(gout)
        assert xt.grad.tobytes() == _gather_avg_pool_grad(gout, shape, k).tobytes()

    @pytest.mark.parametrize("shape", [(32, 6, 12, 12), (32, 16, 2, 2), (2, 3, 8, 4)])
    def test_tiling_windows_never_gather(self, shape, monkeypatch):
        """LeNet-5's two pools (and a 2x2 grid): no im2col, no col2im."""
        def refuse(*args, **kwargs):
            raise AssertionError("tiled pooling went through im2col/col2im")

        monkeypatch.setattr(F, "im2col", refuse)
        monkeypatch.setattr(F, "col2im", refuse)
        x = Tensor(np.random.default_rng(1).normal(size=shape), requires_grad=True)
        out = F.avg_pool2d(x, 2)
        out.backward(np.ones(out.shape))
        assert x.grad.shape == shape


class TestZeroPadding:
    """The padded gathers pad with one zero buffer, not ``np.pad``: each
    must gather byte for byte what ``np.pad`` followed by the unpadded
    gather does, in the input's dtype, from contiguous and strided
    inputs alike."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
           padding=st.integers(1, 2), stride=st.integers(1, 2),
           k=st.integers(1, 3), size=st.integers(1, 6),
           strided=st.booleans())
    def test_gathers_match_an_np_pad_reference(self, data, dtype, padding,
                                               stride, k, size, strided):
        assume(size + 2 * padding >= k)
        s, c, n = data.draw(st.tuples(*[st.integers(1, 3)] * 3))
        x = data.draw(hnp.arrays(dtype, (s, c, n, size, size),
                                 elements=st.floats(-4, 4, width=32)))
        if strided:
            x = x.swapaxes(3, 4)
        pad = ((0, 0),) * 3 + ((padding, padding),) * 2
        reference = np.pad(x, pad)
        padded = _zero_padded(x, padding)
        assert padded.flags.c_contiguous and padded.dtype == x.dtype
        assert padded.tobytes() == reference.tobytes()
        for gather in (im2col_stacked, im2col_stacked_pixels):
            got = gather(x, (k, k), stride, padding)
            want = gather(reference, (k, k), stride, 0)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        got = im2col(x[0], (k, k), stride, padding)
        want = im2col(reference[0], (k, k), stride, 0)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
