"""conv2d lowering throughput: im2col+GEMM vs the einsum baseline.

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

Timing protocol follows ``test_perf_mc.py``: wall time is the minimum
over several repetitions, and the measurement round is retried so one bad
scheduling window cannot fail an otherwise-healthy run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.autograd import functional as F, Tensor
from repro.autograd.im2col import col2im, conv_output_size, im2col

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
    record = {
        "shapes": best["shapes"],
        "forward_speedup": best["forward_speedup"],
        "train_speedup": best["train_speedup"],
        "target_speedup": TARGET_SPEEDUP,
        "rounds": [
            {"forward_speedup": r["forward_speedup"],
             "train_speedup": r["train_speedup"]}
            for r in rounds
        ],
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")

    assert forward_speedup >= TARGET_SPEEDUP, (
        f"conv2d GEMM forward speedup {forward_speedup:.2f}x below the "
        f"{TARGET_SPEEDUP}x target "
        f"(rounds: {[round(r['forward_speedup'], 2) for r in rounds]})"
    )
