"""Differentiable neural-network primitives built on :class:`Tensor`.

Convolution, pooling, softmax/log-softmax, cross-entropy, the affine map
and the residual fan-in. These are the functional forms; ``repro.nn``
wraps them in stateful modules.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.autograd.context import is_grad_enabled
from repro.autograd.im2col import (
    col2im,
    conv_output_size,
    im2col,
    im2col_stacked,
    im2col_stacked_pixels,
    im2col_windows,
)
from repro.autograd.tensor import Tensor, as_tensor

KernelLike = Union[int, Tuple[int, int]]


def _pair(value: KernelLike) -> Tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    kh, kw = value
    return (int(kh), int(kw))


#: Contraction paths found by :func:`_einsum`, keyed by the subscripts and
#: the operand shapes.
_EINSUM_PATHS: Dict[Tuple[Any, ...], List[Any]] = {}


def _einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *operands, optimize=True)``, path cached.

    ``optimize=True`` reruns numpy's greedy path search on every call, and
    the path depends only on the subscripts and the operand shapes. The
    first call per key searches it; later calls pass it as ``optimize=``,
    so numpy runs the same contraction list and the result is bitwise the
    uncached one.
    """
    key = (subscripts,) + tuple(op.shape for op in operands)
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = np.einsum_path(subscripts, *operands, optimize=True)[0]
        _EINSUM_PATHS[key] = path
    return np.einsum(subscripts, *operands, optimize=path)


#: Receptive-field sizes (K = C*KH*KW) routed through the batched
#: ``(F, K) @ (N, K, P)`` lowering instead of the receptive-field-row GEMM.
#: Micro-benchmark-derived (single-threaded OpenBLAS, this repo's im2col):
#: the row layout's K-innermost gather reads KW-long runs, which starves
#: the copy for tiny K, and the row GEMM's (N*P, K) operand is so skinny
#: that the per-image batched product — whose (N, F, P) result is already
#: channel-major, skipping the output transpose — wins outright:
#: K=9: 9.2x, K=25 (the c=1 first-layer LeNet shape): 2.4x, K=27 (VGG
#: first layer): 7.1x, K=150 (LeNet conv2): 1.2x; the forms cross near
#: K~2300 and the single big row GEMM wins for K>=4600 (it also threads
#: better on multi-core BLAS), so the gate stays conservatively at the
#: tiny-K regime.
BATCHED_CONV_MAX_K = 160


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation of ``x`` (N,C,H,W) with ``weight`` (F,C,KH,KW).

    Lowered to the same im2col+GEMM forms as the sample-stacked kernels:
    the batch unfolds once into receptive-field rows (:func:`im2col_windows`)
    and forward, weight gradient and input gradient are each a single BLAS
    matrix product —

    - forward: ``(N*OH*OW, K) @ (K, F)``,
    - d/dW:    ``(F, N*OH*OW) @ (N*OH*OW, K)``,
    - d/dx:    ``(N*OH*OW, F) @ (F, K)`` followed by the col2im scatter.

    This is what makes numpy training of the VGG-style models and the
    per-sample Monte-Carlo reference loop feasible (~4x over the previous
    ``np.einsum`` contraction; see ``benchmarks/test_perf_conv.py``).
    Small receptive fields (``K <= BATCHED_CONV_MAX_K``, e.g. the
    gather-bound c=1 first-layer shape) route through the batched
    per-image lowering of :func:`_conv2d_small_k` instead.

    A 5-D ``weight`` of shape (S, F, C, KH, KW) is treated as a stack of S
    independent filter banks (one per Monte-Carlo variation sample) and
    dispatches to the sample-vectorized kernel; a 5-D ``x`` (channel-major
    stacked activations from an upstream stacked layer, e.g. when only a
    prefix of the layers carries per-sample weights) dispatches there too,
    broadcasting a plain 4-D weight over the samples. See
    :func:`_conv2d_stacked`; it is inference-only.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if weight.ndim == 5 or x.ndim == 5:
        return _conv2d_stacked(x, weight, bias, stride, padding)
    if int(np.prod(weight.shape[1:])) <= BATCHED_CONV_MAX_K:
        return _conv2d_small_k(x, weight, bias, stride, padding)
    n, c, h, w = x.shape
    f, wc, kh, kw = weight.shape
    if wc != c:
        raise ValueError(f"weight expects {wc} input channels, input has {c}")
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    p = oh * ow
    k = c * kh * kw

    cols = im2col_windows(x.data, (kh, kw), stride, padding)  # (N*P, K)
    w2 = weight.data.reshape(f, k)
    prod = cols @ w2.T  # (N*P, F); the transposed operand is BLAS-native
    if bias is not None:
        # F is innermost, so the bias adds before the (small) transpose
        # into NCHW layout.
        prod += bias.data
    out_data = np.ascontiguousarray(
        prod.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
    )

    def _backward(gout: np.ndarray) -> None:
        grad_rows = np.ascontiguousarray(gout.transpose(0, 2, 3, 1)).reshape(n * p, f)
        # The GEMM product and the col2im scatter are fresh arrays without
        # -0.0, so each first write adopts them (Tensor._accumulate).
        if weight.requires_grad:
            gw = grad_rows.T @ cols  # (F, K)
            weight._accumulate(gw.reshape(weight.shape), fresh=True)
        if x.requires_grad:
            gcols = grad_rows @ w2  # (N*P, K)
            # col2im consumes any (N, C, KH, KW, OH, OW) view (the scatter
            # never needs contiguity), so transpose lazily instead of
            # materializing an (N, K, P) copy.
            gview = gcols.reshape(n, oh, ow, c, kh, kw).transpose(
                0, 3, 4, 5, 1, 2
            )
            gx = col2im(gview, (n, c, h, w), (kh, kw), stride, padding)
            x._accumulate(gx, fresh=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(gout.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make_child(out_data, parents, "conv2d", _backward)


def _conv2d_small_k(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: int,
    padding: int,
) -> Tensor:
    """Small-receptive-field convolution via the batched per-image GEMM.

    Forward is ``(F, K) @ (N, K, P)`` — one broadcasted batched matmul
    whose ``(N, F, P)`` result reshapes straight into the NCHW output, so
    unlike the receptive-field-row lowering no full-size output transpose
    is ever materialized. The backward mirrors it: d/dW contracts the same
    batched operands, d/dx is ``(K, F) @ (N, F, P)`` feeding the col2im
    scatter directly. Same per-element reduction order over K as the row
    GEMM (a BLAS dot per output element), so the two lowerings agree to
    float ulp. See ``BATCHED_CONV_MAX_K`` for when this path wins.
    """
    n, c, h, w = x.shape
    f, wc, kh, kw = weight.shape
    if wc != c:
        raise ValueError(f"weight expects {wc} input channels, input has {c}")
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    k = c * kh * kw

    cols = im2col(x.data, (kh, kw), stride, padding)  # (N, K, P)
    w2 = weight.data.reshape(f, k)
    out_data = np.matmul(w2, cols).reshape(n, f, oh, ow)
    if bias is not None:
        out_data += bias.data.reshape(1, f, 1, 1)

    def _backward(gout: np.ndarray) -> None:
        grad = gout.reshape(n, f, oh * ow)  # contiguous: no transpose
        if weight.requires_grad:
            # (N, F, P) @ (N, P, K) summed over the batch; the (N, F, K)
            # intermediate is small by construction (K is tiny here).
            gw = np.matmul(grad, cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(gw.reshape(weight.shape), fresh=True)
        if x.requires_grad:
            gcols = np.matmul(w2.T, grad)  # (N, K, P)
            gx = col2im(gcols, (n, c, h, w), (kh, kw), stride, padding)
            x._accumulate(gx, fresh=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(gout.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make_child(out_data, parents, "conv2d", _backward)


def _gathers_pixels(kw: int, ow: int) -> bool:
    """Whether a stacked-input conv gathers output pixels innermost.

    The gather copies runs along the innermost axis: OW output pixels, or
    KW taps of a kernel row. The pixel layout also makes the GEMM product
    the channel-major output, so it wins unless its runs are the shorter
    ones. Forward, one BLAS thread, 2-core box: resnet8's 16x16 3x3 conv
    at chunk 4 x data block 64 went from 63 to 40 ms (``BENCH_conv.json``,
    ``stacked``), while gathering pixels for LeNet-5's conv2 at chunk 16
    (2 output pixels under 5-tap rows) took 19 ms against the taps' 13.
    """
    return ow >= kw


def _stacked_output(
    data: np.ndarray, operands: Tuple[Optional[Tensor], ...], op: str
) -> Tensor:
    """The untaped output of a sample-stacked kernel.

    Stacked execution is inference-only: the Monte-Carlo engines run every
    stacked pass under ``no_grad``, and training takes one variation draw
    per batch through plain kernels. So the stacked kernels have no
    backward, and a pass that would have to record one raises instead of
    dropping the gradient silently.
    """
    if is_grad_enabled() and any(t is not None and t.requires_grad
                                 for t in operands):
        raise RuntimeError(
            f"{op} has no backward: run sample-stacked passes under no_grad()"
        )
    return Tensor(data)


def _conv2d_stacked(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor],
    stride: int,
    padding: int,
) -> Tensor:
    """Sample-stacked convolution: ``weight`` is (S, F, C, KH, KW), or a
    plain (F, C, KH, KW) filter bank shared by all samples (a non-varied
    layer downstream of a varied one, e.g. a prefix layer subset).

    ``x`` is either a shared batch (N, C, H, W) — every sample convolves
    the same activations — or an already sample-stacked *channel-major*
    map (S, C, N, H, W). The output is channel-major (S, F, N, OH, OW).
    A shared input runs one GEMM ``(S*F, K+1) @ (K+1, N*P)``, the bias
    folded in. A stacked input runs the sample-batched GEMM in one of two
    layouts, picked from the shapes (``_gathers_pixels``):

    - output pixels innermost, ``(S, F, K) @ (S, K, N*P)``, when an output
      row is at least as long as a kernel row (``OW >= KW``): the gather
      (:func:`im2col_stacked_pixels`) copies OW-long runs, a stride-1
      unpadded 1x1 conv gathers nothing, and the product already is the
      output;
    - kernel taps innermost, ``(S, N*P, K) @ (S, K, F)``, otherwise
      (:func:`im2col_stacked`): the gather copies the longer KW-long runs,
      and the small ``(S, N*P, F)`` product is transposed.

    The sample axis only returns to batch-major (S, N, features) at the
    Flatten boundary, where maps are small. Inference-only (see
    :func:`_stacked_output`).
    """
    shared_weight = weight.ndim == 4
    if shared_weight:
        f, c, kh, kw = weight.shape
    else:
        s, f, c, kh, kw = weight.shape
    shared_input = x.ndim == 4
    if shared_input:
        if shared_weight:
            raise ValueError("stacked conv2d needs a stacked weight or input")
        n, xc, h, w = x.shape
    else:
        if x.ndim != 5:
            raise ValueError(
                f"stacked conv2d expects 4-D or 5-D input, got shape {x.shape}"
            )
        xs, xc, n, h, w = x.shape
        if shared_weight:
            s = xs
        elif xs != s:
            raise ValueError(
                f"input sample axis {xs} does not match weight stack {s}"
            )
    if xc != c:
        raise ValueError(f"weight expects {c} input channels, input has {xc}")
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    k = c * kh * kw
    p = oh * ow
    # (S, F, K); a shared weight broadcasts over the sample axis in the GEMM.
    w2 = weight.data.reshape(1 if shared_weight else s, f, k)

    if shared_input:
        # One GEMM for all samples: (S*F, K) @ (K, N*P).
        cols = im2col(x.data, (kh, kw), stride, padding)  # (N, K, P)
        colmat = cols.transpose(1, 0, 2).reshape(k, n * p)
        if bias is None:
            out_data = w2.reshape(s * f, k) @ colmat
        else:
            # The bias folds into the GEMM as a ones-row of the column
            # matrix, saving a full read+write pass over the (large) output.
            b = bias.data
            b_col = (b if b.ndim == 2 else np.broadcast_to(b, (s, f))).reshape(
                s, f, 1
            )
            w_aug = np.concatenate([w2, b_col], axis=2).reshape(s * f, k + 1)
            ones = np.ones((1, n * p), dtype=colmat.dtype)
            cmat_aug = np.concatenate([colmat, ones], axis=0)
            out_data = w_aug @ cmat_aug
        out_data = out_data.reshape(s, f, n, oh, ow)
    elif _gathers_pixels(kw, ow):
        # (S, F, K) @ (S, K, N*P) -> (S, F, N*P), the channel-major output.
        cols = im2col_stacked_pixels(x.data, (kh, kw), stride, padding)
        out_data = np.matmul(w2, cols)
        if bias is not None:
            b = bias.data
            out_data += b.reshape(s, f, 1) if b.ndim == 2 else b.reshape(f, 1)
        out_data = out_data.reshape(s, f, n, oh, ow)
    else:
        # Sample-batched GEMM: (S, N*P, K) @ (S, K, F) -> (S, N*P, F); the
        # strided weight operand is consumed natively by BLAS (transB).
        cols = im2col_stacked(x.data, (kh, kw), stride, padding)  # (S, N*P, K)
        prod = np.matmul(cols, w2.transpose(0, 2, 1))
        if bias is not None:
            b = bias.data
            # F is innermost here, so the bias adds before the (small)
            # transpose into channel-major layout.
            prod = prod + (b.reshape(s, 1, f) if b.ndim == 2 else b)
        out_data = np.ascontiguousarray(prod.transpose(0, 2, 1)).reshape(
            s, f, n, oh, ow
        )
    return _stacked_output(out_data, (x, weight, bias), "conv2d_stacked")


def avg_pool2d(x: Tensor, kernel: KernelLike) -> Tensor:
    """Average pooling over windows that step by the kernel height.

    A 4-D input whose windows tile the map takes the gather-free
    :func:`_avg_pool2d_tiled`; other windows (a non-square kernel, or a
    map the kernel does not divide) gather through ``im2col``.
    A 5-D input (S, C, N, H, W) — the channel-major stacked-activation
    convention of the vectorized Monte-Carlo engine — is pooled on a
    reshape fast path when windows tile exactly, else by folding the two
    leading axes into the batch (pooling acts per spatial plane, so the
    fold is layout-agnostic). The fast path is inference-only; the fold
    stays differentiable.
    """
    x = as_tensor(x)
    if x.ndim == 5:
        s, n = x.shape[:2]
        kh, kw = _pair(kernel)
        if kh == kw and x.shape[3] % kh == 0 and x.shape[4] % kw == 0:
            return _pool2d_stacked_fast(x, kh, kw, "avg")
        folded = avg_pool2d(x.reshape((s * n,) + x.shape[2:]), kernel)
        return folded.reshape((s, n) + folded.shape[1:])
    kh, kw = _pair(kernel)
    stride = kh
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, 0)
    ow = conv_output_size(w, kw, stride, 0)
    tiles = kh == kw and h % kh == 0 and w % kw == 0
    if tiles and x.data.flags.c_contiguous:
        # The gather below copies a contiguous map's columns unless the map
        # is one window wide and has one channel or one window row; numpy
        # then sums those contiguous taps pairwise once there are 8 or more.
        pairwise = kh * kw >= 8 and ow == 1 and (c == 1 or oh == 1)
        if not pairwise:
            return _avg_pool2d_tiled(x, kh, kw)
    cols = im2col(x.data, (kh, kw), stride, 0).reshape(n, c, kh * kw, oh * ow)
    out_data = cols.mean(axis=2).reshape(n, c, oh, ow)

    def _backward(gout: np.ndarray) -> None:
        grad = gout.reshape(n, c, 1, oh * ow) / (kh * kw)
        gcols = np.broadcast_to(grad, (n, c, kh * kw, oh * ow)).reshape(
            n, c * kh * kw, oh * ow
        )
        gx = col2im(gcols, (n, c, h, w), (kh, kw), stride, 0)
        x._accumulate(gx, fresh=True)

    return Tensor._make_child(out_data, (x,), "avg_pool2d", _backward)


def _avg_pool2d_tiled(x: Tensor, kh: int, kw: int) -> Tensor:
    """Average pooling of (N, C, H, W) over windows that tile the map.

    Gather-free and byte-equal to the ``im2col`` + ``mean`` path: that
    mean sums each window's taps in row-major order onto a zero and
    divides by the tap count, and so does this, reading the taps as
    strided views of one window-shaped reshape. The equality needs numpy
    to reduce the gathered taps one after another; where it sums them
    pairwise instead, :func:`avg_pool2d` keeps the gather path. The
    backward writes ``0.0 + gout / (kh*kw)``, which is what ``col2im``'s
    scatter into zeros wrote, into the taps of one fresh buffer.
    """
    n, c, h, w = x.shape
    oh, ow = h // kh, w // kw
    win = x.data.reshape(n, c, oh, kh, ow, kw)
    acc = np.add(win[:, :, :, 0, :, 0], 0.0)
    for i in range(kh):
        for j in range(kw):
            if i or j:
                acc += win[:, :, :, i, :, j]
    acc /= kh * kw

    def _backward(gout: np.ndarray) -> None:
        share = gout / (kh * kw)
        gx = np.empty((n, c, h, w), dtype=share.dtype)
        gwin = gx.reshape(n, c, oh, kh, ow, kw)
        for i in range(kh):
            for j in range(kw):
                np.add(share, 0.0, out=gwin[:, :, :, i, :, j])
        x._accumulate(gx, fresh=True)

    return Tensor._make_child(acc, (x,), "avg_pool2d", _backward)


def _pool2d_stacked_fast(x: Tensor, kh: int, kw: int, mode: str) -> Tensor:
    """Pooling of a 5-D stack when windows tile exactly (stride == kernel).

    Pools the trailing two (spatial) axes; the two leading non-spatial
    axes (sample and channel/batch, in either order) pass through. Reads
    each element once through kh*kw strided slices of a window view — no
    im2col gather copy — which matters because stacked activations are S
    times larger than ordinary ones. ``mode`` is ``"avg"`` or ``"max"``.
    Inference-only (see :func:`_stacked_output`).
    """
    s, a, b, h, w = x.shape
    oh, ow = h // kh, w // kw
    combine = np.add if mode == "avg" else np.maximum

    def reduce(taps: List[np.ndarray]) -> np.ndarray:
        # The first two taps combine straight into a fresh result; a single
        # tap is copied, so the result never aliases ``x``.
        if len(taps) == 1:
            return taps[0].copy()
        acc = combine(taps[0], taps[1])
        for tap in taps[2:]:
            combine(acc, tap, out=acc)
        return acc

    # Two half-reductions, rows first: the row stage reads full contiguous
    # rows (stride-2 element reads would waste half of every cache line),
    # the column stage then runs on the halved intermediate.
    rows_win = x.data.reshape(s, a, b, oh, kh, w)
    rows = reduce([rows_win[:, :, :, :, i, :] for i in range(kh)])
    cols_win = rows.reshape(s, a, b, oh, ow, kw)
    out_data = reduce([cols_win[..., j] for j in range(kw)])
    if mode == "avg":
        out_data *= 1.0 / (kh * kw)
    return _stacked_output(out_data, (x,), f"{mode}_pool2d_stacked")


def max_pool2d(x: Tensor, kernel: KernelLike) -> Tensor:
    """Max pooling over windows that step by the kernel height; the
    gradient routes to the arg-max element per window.

    Like :func:`avg_pool2d`, a 5-D channel-major stacked input
    (S, C, N, H, W) takes the inference-only reshape fast path for
    exactly-tiling windows and otherwise folds the two leading axes into
    the batch.
    """
    x = as_tensor(x)
    if x.ndim == 5:
        s, n = x.shape[:2]
        kh, kw = _pair(kernel)
        if kh == kw and x.shape[3] % kh == 0 and x.shape[4] % kw == 0:
            return _pool2d_stacked_fast(x, kh, kw, "max")
        folded = max_pool2d(x.reshape((s * n,) + x.shape[2:]), kernel)
        return folded.reshape((s, n) + folded.shape[1:])
    kh, kw = _pair(kernel)
    stride = kh
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, 0)
    ow = conv_output_size(w, kw, stride, 0)
    cols = im2col(x.data, (kh, kw), stride, 0).reshape(n, c, kh * kw, oh * ow)
    argmax = cols.argmax(axis=2)  # (N, C, P)
    out_data = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).reshape(
        n, c, oh, ow
    )

    def _backward(gout: np.ndarray) -> None:
        gcols = np.zeros((n, c, kh * kw, oh * ow), dtype=np.float64)
        np.put_along_axis(
            gcols, argmax[:, :, None, :], gout.reshape(n, c, 1, oh * ow), axis=2
        )
        gx = col2im(
            gcols.reshape(n, c * kh * kw, oh * ow), (n, c, h, w), (kh, kw), stride, 0
        )
        x._accumulate(gx, fresh=True)

    return Tensor._make_child(out_data, (x,), "max_pool2d", _backward)


def _pool_matrix(in_size: int, out_size: int) -> np.ndarray:
    """(out_size, in_size) averaging matrix for adaptive pooling: output cell
    ``i`` averages input rows [floor(i*H/OH), ceil((i+1)*H/OH))."""
    mat = np.zeros((out_size, in_size))
    for i in range(out_size):
        start = (i * in_size) // out_size
        stop = -(-((i + 1) * in_size) // out_size)  # ceil division
        mat[i, start:stop] = 1.0 / (stop - start)
    return mat


def adaptive_avg_pool2d(x: Tensor, output_size: Tuple[int, int]) -> Tensor:
    """Average-pool the trailing two (spatial) axes to an arbitrary (OH, OW).

    CorrectNet's generator concatenates a layer's input and output feature
    maps (paper Fig. 5); their spatial sizes generally differ (stride,
    valid-padding), so the input maps are adaptively average-pooled to the
    output size. Implemented as two separable averaging matrices, making
    both passes matrix products.

    Accepts ordinary (N, C, H, W) maps or channel-major sample-stacked
    (S, C, N, H, W) ones — pooling is per spatial plane, so every leading
    axis passes through unchanged. This is what lets the compensation
    wrappers ride the vectorized Monte-Carlo engine.
    """
    x = as_tensor(x)
    if x.ndim not in (4, 5):
        raise ValueError(
            f"adaptive pooling expects a 4-D or 5-D input, got shape {x.shape}"
        )
    h, w = x.shape[-2:]
    lead = x.shape[:-2]
    oh, ow = int(output_size[0]), int(output_size[1])
    if oh <= 0 or ow <= 0:
        raise ValueError(f"output size must be positive, got {(oh, ow)}")
    if oh > h or ow > w:
        raise ValueError(
            f"adaptive pooling cannot upsample: input {(h, w)}, output {(oh, ow)}"
        )
    ph = _pool_matrix(h, oh)  # (OH, H)
    pw = _pool_matrix(w, ow)  # (OW, W)
    # Rows first ((..., H, W) @ (W, OW) is a plain matmul; the row pass
    # contracts H via a transposed product), identical for any leading axes.
    out_data = _einsum("ih,...hw,jw->...ij", ph, x.data, pw)

    def _backward(gout: np.ndarray) -> None:
        x._accumulate(_einsum("ih,...ij,jw->...hw", ph, gout, pw))

    return Tensor._make_child(out_data, (x,), "adaptive_avg_pool", _backward)


def softmax(x: Tensor) -> Tensor:
    """Numerically-stable softmax along the last axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    prob = exp / exp.sum(axis=-1, keepdims=True)

    def _backward(g: np.ndarray) -> None:
        dot = (g * prob).sum(axis=-1, keepdims=True)
        x._accumulate(prob * (g - dot))

    return Tensor._make_child(prob, (x,), "softmax", _backward)


def log_softmax(x: Tensor) -> Tensor:
    """log(softmax(x)) along the last axis, stably via log-sum-exp."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse

    def _backward(g: np.ndarray) -> None:
        x._accumulate(g - np.exp(logp) * g.sum(axis=-1, keepdims=True))

    return Tensor._make_child(logp, (x,), "log_softmax", _backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, K) and integer ``labels``.

    Combines log-softmax and negative log-likelihood in one op for both
    numerical stability and a cheap fused backward (``softmax - onehot``).
    Training takes one variation draw per batch, so logits are never
    sample-stacked here.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    nll = -logp[np.arange(n), labels].mean()

    def _backward(gout: np.ndarray) -> None:
        grad = np.exp(logp)
        grad[np.arange(n), labels] -= 1.0
        logits._accumulate(gout * grad / n)

    return Tensor._make_child(nll, (logits,), "cross_entropy", _backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` shaped (out, in).

    A 3-D ``weight`` of shape (S, out, in) is a stack of S per-sample weight
    matrices (the vectorized Monte-Carlo convention): ``x`` may be a shared
    (N, in) batch or sample-stacked (S, N, in), and the output is
    (S, N, out) via one broadcasted batched matmul. Like every stacked
    kernel it is inference-only (see :func:`_stacked_output`).
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if weight.ndim == 3:
        out_data = x.data @ weight.data.transpose(0, 2, 1)
        if bias is not None:
            bias = as_tensor(bias)
            b = bias.data
            if b.ndim == 2:  # stacked per-sample biases (S, out)
                b = b.reshape(b.shape[0], 1, b.shape[1])
            out_data = out_data + b
        return _stacked_output(out_data, (x, weight, bias), "linear_stacked")
    out = x.matmul(weight.T)
    if bias is not None:
        out = out + bias
    return out


# ----------------------------------------------------------------------
# Fan-in combination for module graphs (residual adds)
# ----------------------------------------------------------------------
#
# The stacked-activation conventions (docs/ARCHITECTURE.md): linear-style
# features are batch-major — (N, F) unstacked, (S, N, F) stacked; conv
# maps are channel-major when stacked — (N, C, H, W) unstacked,
# (S, C, N, H, W) stacked. Branches of a fan-in node may disagree on
# stacked-ness (only some branches contain varied layers), so combining
# them must align layouts first:
#
# - batch-major operands of ranks {2,3} or {3,4} (features, token grids)
#   align by numpy's trailing-axis broadcasting as-is;
# - a 4-D conv map meeting a 5-D stacked one must be transposed to
#   channel-major (C, N, H, W) first — naive broadcasting would line its
#   batch axis up against the stack's channel axis.


def _align_conv_fanin(tensors: List[Tensor]) -> List[Tensor]:
    """Lift unstacked (N, C, H, W) operands to align with (S, C, N, H, W).

    Only called when ranks mix 4 and 5: the 4-D members are conv maps by
    the layout convention, and (C, N, H, W) broadcasts correctly against
    a channel-major stack (the adjoint transposes back, so this stays
    differentiable).
    """
    return [t.transpose(1, 0, 2, 3) if t.ndim == 4 else t for t in tensors]


def fanin_add(*tensors: Tensor) -> Tensor:
    """Sum of fan-in branch outputs, layout-aware across stacked ranks.

    Operands of equal rank (all stacked or all unstacked) add directly.
    Mixed ranks mean only some branches carry the Monte-Carlo sample axis:
    {2,3} and {3,4} are batch-major and broadcast natively, {4,5} is the
    conv case that needs the channel-major transpose. The sum runs in
    branch order, so results are bitwise reproducible, and each stacked
    slice equals the unstacked sum the reference loop computes.
    """
    if len(tensors) < 2:
        raise ValueError(f"fan-in needs at least two operands, got {len(tensors)}")
    ops = [as_tensor(t) for t in tensors]
    ranks = {t.ndim for t in ops}
    if len(ranks) > 1:
        lo, hi = min(ranks), max(ranks)
        if hi - lo != 1 or hi > 5 or lo < 2:
            raise ValueError(
                "fan-in operands must differ by at most the sample axis; "
                f"got shapes {[t.shape for t in ops]}"
            )
        if hi == 5:
            ops = _align_conv_fanin(ops)
    out = ops[0]
    for t in ops[1:]:
        out = out + t
    return out

