"""conv2d lowering throughput: im2col+GEMM vs the einsum baseline, and
the stacked-input layouts of the Monte-Carlo kernels.

The reference ``conv2d`` forward/backward in ``repro.autograd.functional``
was lowered from a plain ``np.einsum`` contraction to the same
im2col+GEMM forms the sample-stacked Monte-Carlo kernels use (single BLAS
products for forward, d/dW and d/dx). Training every model and the
Monte-Carlo *reference loop* engine both run through this op, so the
lowering bounds everything the vectorized engine does not already cover.

This bench reconstructs the pre-lowering einsum op (bitwise the old code,
including its autograd closures, which take the output gradient as their
argument like every tape closure) and times both against the shapes that
dominate the repo's workloads: the two LeNet-5 convolutions at the
synthetic-MNIST size and a VGG-style 3x3 block. Recorded in
``BENCH_conv.json`` at the repo root; the acceptance gate is an aggregate
(sum-of-times) forward speedup of >= 2x, with per-shape and
forward+backward (training) numbers kept alongside.

The second bench times the sample-stacked conv over stacked
(S, C, N, H, W) inputs, which picks its gather layout from the shapes:
output pixels innermost where an output row is at least as long as a
kernel row, kernel taps innermost otherwise. It runs the Monte-Carlo
engine's stacked shapes (resnet8 at chunk 4, LeNet-5's conv2 and a
compensator 1x1 at chunk 16, all at data block 64) forward under
``no_grad``, against an in-test copy of the tap-innermost lowering that
every stacked input ran before. Recorded under ``stacked`` in
``BENCH_conv.json``; the gate is an aggregate (sum-of-times) speedup of
>= 1.3x over the shapes where the layout switches. The shapes that keep
the tap layout are recorded, not gated.

Timing protocol follows ``test_perf_mc.py``: wall time is the minimum
over several repetitions, and the measurement round is retried so one bad
scheduling window cannot fail an otherwise-healthy run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.autograd import functional as F, no_grad, Tensor
from repro.autograd.im2col import col2im, conv_output_size, im2col, im2col_stacked

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_conv.json"

TARGET_SPEEDUP = 2.0
REPEATS = 5
INNER = 8  # conv calls per timed repetition
MAX_ROUNDS = 3

#: (label, N, C, H, F, K) — LeNet-5 at the 16x16 synthetic-MNIST size
#: (batch 64, the Trainer/loop-engine regime) plus a VGG-style block.
SHAPES = [
    ("lenet5-conv1", 64, 1, 16, 6, 5),
    ("lenet5-conv2", 64, 6, 6, 16, 5),
    ("vgg-block", 16, 64, 16, 128, 3),
]

TARGET_STACKED_SPEEDUP = 1.3
STACKED_INNER = 2

#: (label, S, C, N, H, F, K, stride, padding, stacked weight): the
#: stacked-input convs of the Monte-Carlo engine at data block 64 — every
#: resnet8 conv after the stem at chunk 4 (16x16 synthetic CIFAR), and
#: LeNet-5's conv2 and a compensator 1x1 (shared digital weight) at the
#: default chunk of 16.
STACKED_SHAPES = [
    ("resnet8-16x16-3x3", 4, 16, 64, 16, 16, 3, 1, 1, True),
    ("resnet8-16x16-3x3-s2", 4, 16, 64, 16, 32, 3, 2, 1, True),
    ("resnet8-16x16-1x1-s2", 4, 16, 64, 16, 32, 1, 2, 0, True),
    ("resnet8-8x8-3x3", 4, 32, 64, 8, 32, 3, 1, 1, True),
    ("resnet8-8x8-3x3-s2", 4, 32, 64, 8, 64, 3, 2, 1, True),
    ("resnet8-8x8-1x1-s2", 4, 32, 64, 8, 64, 1, 2, 0, True),
    ("resnet8-4x4-3x3", 4, 64, 64, 4, 64, 3, 1, 1, True),
    ("lenet5-conv2", 16, 18, 64, 6, 48, 5, 1, 0, True),
    ("lenet5-compensator-1x1", 16, 19, 64, 12, 18, 1, 1, 0, False),
]


def _conv2d_einsum(x, weight, bias, stride=1, padding=0):
    """The pre-lowering conv2d, verbatim: einsum forward and backward."""
    n, c, h, w = x.shape
    f, _, kh, kw = weight.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    cols = im2col(x.data, (kh, kw), stride, padding)
    w2 = weight.data.reshape(f, -1)
    out_data = np.einsum("fk,nkp->nfp", w2, cols).reshape(n, f, oh, ow)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, f, 1, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def _backward(gout):
        grad = gout.reshape(n, f, oh * ow)
        if weight.requires_grad:
            weight._accumulate(
                np.einsum("nfp,nkp->fk", grad, cols).reshape(weight.shape)
            )
        if x.requires_grad:
            gcols = np.einsum("fk,nfp->nkp", w2, grad)
            x._accumulate(col2im(gcols, (n, c, h, w), (kh, kw), stride, padding))
        if bias is not None and bias.requires_grad:
            bias._accumulate(gout.sum(axis=(0, 2, 3)))

    return Tensor._make_child(out_data, parents, "conv2d_einsum", _backward)


def _stacked_conv_taps(x, weight, bias, stride, padding):
    """The tap-innermost stacked-input conv forward, as every stacked
    input ran it before the layout rule: the (S, N*P, K) gather, the
    (S, N*P, F) product, the bias add and the channel-major transpose."""
    s, _, n, h, w = x.shape
    f, c, kh, kw = weight.shape[-4:]
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    w2 = weight.reshape(-1, f, c * kh * kw)
    cols = im2col_stacked(x, (kh, kw), stride, padding)
    prod = np.matmul(cols, w2.transpose(0, 2, 1))
    if bias is not None:
        prod = prod + (bias.reshape(s, 1, f) if bias.ndim == 2 else bias)
    return np.ascontiguousarray(prod.transpose(0, 2, 1)).reshape(s, f, n, oh, ow)


def _merge_record(update: dict) -> None:
    """Update top-level keys of ``BENCH_conv.json``, keeping the others."""
    record = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    record.update(update)
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")


def _best_time(fn, repeats=REPEATS, inner=INNER):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - start) / inner)
    return min(times)


def _make_case(n, c, h, f, k, train):
    rng = np.random.default_rng(42)
    x = Tensor(rng.normal(size=(n, c, h, h)), requires_grad=train)
    w = Tensor(rng.normal(size=(f, c, k, k)), requires_grad=train)
    b = Tensor(rng.normal(size=(f,)), requires_grad=train)
    return x, w, b


def _step(conv, x, w, b, train):
    out = conv(x, w, b)
    if train:
        x.grad = w.grad = b.grad = None
        out.backward(np.ones(out.shape))
    return out


def test_conv_gemm_speedup():
    # Correctness gate first: same values, same gradients.
    for _, n, c, h, f, k in SHAPES:
        x, w, b = _make_case(n, c, h, f, k, train=True)
        ref = _step(_conv2d_einsum, x, w, b, train=True)
        gref = (x.grad.copy(), w.grad.copy(), b.grad.copy())
        new = _step(F.conv2d, x, w, b, train=True)
        np.testing.assert_allclose(new.data, ref.data, atol=1e-10)
        for got, want in zip((x.grad, w.grad, b.grad), gref):
            np.testing.assert_allclose(got, want, atol=1e-9)

    rounds = []
    forward_speedup = 0.0
    for _ in range(MAX_ROUNDS):
        shapes_record = {}
        fwd_einsum_total = fwd_gemm_total = 0.0
        train_einsum_total = train_gemm_total = 0.0
        for label, n, c, h, f, k in SHAPES:
            x, w, b = _make_case(n, c, h, f, k, train=False)
            t_fe = _best_time(lambda: _step(_conv2d_einsum, x, w, b, False))
            t_fg = _best_time(lambda: _step(F.conv2d, x, w, b, False))
            x, w, b = _make_case(n, c, h, f, k, train=True)
            t_te = _best_time(lambda: _step(_conv2d_einsum, x, w, b, True))
            t_tg = _best_time(lambda: _step(F.conv2d, x, w, b, True))
            shapes_record[label] = {
                "forward_einsum_s": t_fe,
                "forward_gemm_s": t_fg,
                "forward_speedup": t_fe / t_fg,
                "train_einsum_s": t_te,
                "train_gemm_s": t_tg,
                "train_speedup": t_te / t_tg,
            }
            fwd_einsum_total += t_fe
            fwd_gemm_total += t_fg
            train_einsum_total += t_te
            train_gemm_total += t_tg
        rounds.append({
            "shapes": shapes_record,
            "forward_speedup": fwd_einsum_total / fwd_gemm_total,
            "train_speedup": train_einsum_total / train_gemm_total,
        })
        forward_speedup = max(forward_speedup, rounds[-1]["forward_speedup"])
        if forward_speedup >= TARGET_SPEEDUP:
            break

    best = max(rounds, key=lambda r: r["forward_speedup"])
    _merge_record({
        "shapes": best["shapes"],
        "forward_speedup": best["forward_speedup"],
        "train_speedup": best["train_speedup"],
        "target_speedup": TARGET_SPEEDUP,
        "rounds": [
            {"forward_speedup": r["forward_speedup"],
             "train_speedup": r["train_speedup"]}
            for r in rounds
        ],
    })

    assert forward_speedup >= TARGET_SPEEDUP, (
        f"conv2d GEMM forward speedup {forward_speedup:.2f}x below the "
        f"{TARGET_SPEEDUP}x target "
        f"(rounds: {[round(r['forward_speedup'], 2) for r in rounds]})"
    )


def test_stacked_conv_layout_speedup():
    cases = []
    for label, s, c, n, h, f, k, stride, padding, stacked in STACKED_SHAPES:
        rng = np.random.default_rng(42)
        x = rng.normal(size=(s, c, n, h, h))
        w = rng.normal(size=((s,) if stacked else ()) + (f, c, k, k))
        b = rng.normal(size=((s,) if stacked else ()) + (f,))
        ow = conv_output_size(h, k, stride, padding)
        layout = "pixels" if F._gathers_pixels(k, ow) else "taps"
        cases.append((label, layout, x, w, b, stride, padding))

    def lowered(x, w, b, stride, padding):
        with no_grad():
            return F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding).data

    # Correctness gate first: the same output in either layout.
    for label, _, x, w, b, stride, padding in cases:
        np.testing.assert_allclose(
            lowered(x, w, b, stride, padding),
            _stacked_conv_taps(x, w, b, stride, padding),
            rtol=1e-10, atol=1e-10, err_msg=label,
        )

    rounds = []
    speedup = 0.0
    for _ in range(MAX_ROUNDS):
        shapes_record = {}
        taps_total = lowered_total = 0.0
        for label, layout, x, w, b, stride, padding in cases:
            t_taps = _best_time(
                lambda: _stacked_conv_taps(x, w, b, stride, padding),
                inner=STACKED_INNER,
            )
            t_new = _best_time(
                lambda: lowered(x, w, b, stride, padding), inner=STACKED_INNER
            )
            shapes_record[label] = {
                "layout": layout,
                "taps_s": t_taps,
                "lowered_s": t_new,
                "speedup": t_taps / t_new,
            }
            if layout == "pixels":
                taps_total += t_taps
                lowered_total += t_new
        rounds.append({
            "shapes": shapes_record,
            "switched_taps_s": taps_total,
            "switched_lowered_s": lowered_total,
            "switched_speedup": taps_total / lowered_total,
        })
        speedup = max(speedup, rounds[-1]["switched_speedup"])
        if speedup >= TARGET_STACKED_SPEEDUP:
            break

    best = max(rounds, key=lambda r: r["switched_speedup"])
    _merge_record({"stacked": {
        **best,
        "target_speedup": TARGET_STACKED_SPEEDUP,
        "rounds": [r["switched_speedup"] for r in rounds],
    }})

    assert speedup >= TARGET_STACKED_SPEEDUP, (
        f"stacked conv speedup {speedup:.2f}x over the switched shapes, below "
        f"the {TARGET_STACKED_SPEEDUP}x target "
        f"(rounds: {[round(r['switched_speedup'], 2) for r in rounds]})"
    )
