"""Analog Monte-Carlo engine throughput: stacked crossbar vs per-draw loop.

The crossbar counterpart of ``test_perf_mc.py``: an analogized model runs
the full DAC → MAC → read-noise → ADC chain per read, and the reference
loop reprograms every array and runs a full forward sweep per Monte-Carlo
draw. The vectorized engine programs each chunk of draws as stacked
conductance planes and broadcasts the chain over the sample axis, which
amortizes exactly the work the loop repeats per draw: shared-input DAC
quantization and im2col of the first analog layer, and the per-call
python/tiling overhead of every crossbar read (S tile reads collapse into
one sample-batched GEMM).

What does *not* amortize is the per-sample math: programming perturbation,
stacked-layer quantization and the MAC itself — so the speedup is largest
for first-layer-dominated models over many tiles (the MLP-MNIST pair
below, the primary ≥2x gate) and more modest when per-sample read-noise
generation is added (recorded as secondary scenarios with a sanity floor,
not the headline gate). All scenarios assert the paired-seed contract
before timing: identical accuracy lists on both engines.

Timing protocol mirrors ``test_perf_mc.py``: min over repetitions, a few
measurement rounds so one bad scheduling window cannot fail a healthy run,
everything recorded in ``BENCH_analog.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.data import synth_mnist
from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.hardware import ADC, DAC, analogize
from repro.models import build_model
from repro.variation import LogNormalVariation

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_analog.json"

SEED = 7
SIGMA = 0.5
TARGET_SPEEDUP = 2.0  # primary scenario gate
FLOOR_SPEEDUP = 1.2  # secondary scenarios must at least beat the loop
REPEATS = 3
MAX_ROUNDS = 3

#: (name, model, test-images/class, samples, tile, read-noise, chunk, block,
#:  gated) — the primary scenario is the regime stacking targets (shared
#: first-layer input, many tiles); the others record the read-noise and
#: conv-model behavior documented above.
SCENARIOS = [
    ("mlp-6b4b", "mlp", 50, 96, 32, 0.0, 96, 32, True),
    ("mlp-6b4b-readnoise", "mlp", 50, 96, 32, 0.002, 96, 32, False),
    ("lenet5-6b4b-readnoise", "lenet5", 25, 48, 64, 0.002, 16, 16, False),
]


def _best_time(evaluate, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        evaluate()
        times.append(time.perf_counter() - start)
    return min(times)


def _run_scenario(name, model_name, tpc, n_samples, tile, noise, chunk, block):
    train, test = synth_mnist(train_per_class=2, test_per_class=tpc)
    # An untrained model: forward cost is identical, and the bench must
    # not pay for training.
    model = build_model(model_name, train, seed=0)
    analogize(model, tile_size=tile, dac=DAC(6), adc=ADC(8),
              read_noise_sigma=noise)
    variation = LogNormalVariation(SIGMA)
    loop = MonteCarloEvaluator(test, n_samples=n_samples, seed=SEED,
                               vectorized=False, data_block=block)
    vec = MonteCarloEvaluator(test, n_samples=n_samples, seed=SEED,
                              vectorized=True, chunk_samples=chunk,
                              data_block=block)

    # Correctness gate first: the analog engines must be seed-paired.
    ref = loop.evaluate(model, variation)
    fast = vec.evaluate(model, variation)  # also warms the stacked path
    assert fast.accuracies == ref.accuracies, (
        f"{name}: vectorized analog engine is not seed-paired with the loop"
    )

    rounds = []
    speedup = 0.0
    for _ in range(MAX_ROUNDS):
        t_vec = _best_time(lambda: vec.evaluate(model, variation), REPEATS)
        t_loop = _best_time(lambda: loop.evaluate(model, variation), 2)
        rounds.append({"loop_s": t_loop, "vectorized_s": t_vec,
                       "speedup": t_loop / t_vec})
        speedup = max(speedup, t_loop / t_vec)
        if speedup >= TARGET_SPEEDUP:
            break
    return {
        "model": model_name,
        "n_samples": n_samples,
        "dataset_size": len(test),
        "tile_size": tile,
        "read_noise_sigma": noise,
        "sample_chunk": chunk,
        "data_block": block,
        "engines": {
            "loop_s": min(r["loop_s"] for r in rounds),
            "vectorized_s": min(r["vectorized_s"] for r in rounds),
        },
        "speedup": speedup,
        "paired_accuracy_mean": float(np.mean(fast.accuracies)),
        "rounds": rounds,
    }


def test_analog_mc_vectorized_speedup():
    results = {}
    for name, model_name, tpc, n, tile, noise, chunk, block, gated in SCENARIOS:
        results[name] = _run_scenario(
            name, model_name, tpc, n, tile, noise, chunk, block
        )
        results[name]["gated"] = gated

    record = {
        "sigma": SIGMA,
        "dac_bits": 6,
        "adc_bits": 8,
        "target_speedup": TARGET_SPEEDUP,
        "floor_speedup": FLOOR_SPEEDUP,
        "scenarios": results,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")

    for name, result in results.items():
        bar = TARGET_SPEEDUP if result["gated"] else FLOOR_SPEEDUP
        assert result["speedup"] >= bar, (
            f"{name}: analog MC speedup {result['speedup']:.2f}x below the "
            f"{bar}x bar (rounds: "
            f"{[round(r['speedup'], 2) for r in result['rounds']]})"
        )
