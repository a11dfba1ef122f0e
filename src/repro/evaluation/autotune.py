"""Measured plan autotuning: pick execution knobs from micro-benchmarks.

``build_plan`` resolves *what* to evaluate; every execution knob —
backend, worker count, chunk size, data block — it takes from caller
flags. :func:`autotune_plan` replaces the flags with measurement, the way
``BATCHED_CONV_MAX_K`` already decides the tiny-K conv lowering from an
offline micro-benchmark: probe the model briefly on a dataset slice, fit
a three-line cost model (per-draw-per-image seconds for loop / vectorized
/ pool, plus the pool's fixed startup), persist it per machine and model
family, and pick the backend with the lowest *predicted* wall-clock for
the requested ``(n_samples, dataset size, dtype)``.

Determinism: the engine never reads a wall clock (reprolint DET001) —
callers inject one as ``clock`` (e.g. ``time.perf_counter``; the CLIs
do). Without a clock the tuner only *consults* a previously persisted
cost model, falling back to a static heuristic when none exists, so plans
stay pure functions of their inputs. Probing executes real (tiny)
evaluations through the ordinary executor; models and datasets are
restored/untouched, and the tuned plan's results are bitwise identical to
any other plan of the same logical evaluation — tuning only moves the
execution knobs the fingerprint already excludes. The choice and its
prediction are recorded in ``EvalPlan.backend_reason``.

The cost model lives in a small JSON file (default:
``repro.utils.cache.default_autotune_cache()`` — resolved by *callers*,
again keeping environment reads out of the engine), keyed by model family
and parameter count, dataset image shape, eval dtype and CPU count.
Per-draw costs are stored normalized per image, so one probe serves every
dataset size; only the pool's startup term is size-independent.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.evaluation.plan import build_plan, EvalPlan
from repro.evaluation.sequential import StoppingRule
from repro.evaluation.vectorized import supports_sample_axis
from repro.nn.module import Module
from repro.utils.rng import SeedLike
from repro.variation.spec import VariationLike

__all__ = ["autotune_plan", "Clock", "COST_MODEL_VERSION"]

#: Injected time source: a monotonic seconds counter (``time.perf_counter``
#: in the CLIs). The engine never calls one itself.
Clock = Callable[[], float]

COST_MODEL_VERSION = 1

#: Probe sizes: draws per probe evaluation and the dataset-slice ceiling.
#: Small enough that a cold autotune costs a few seconds once per
#: (machine, model family, dtype); per-image normalization does the rest.
PROBE_SAMPLES = 16
PROBE_DATA = 256
PROBE_REPEATS = 2

#: Stacked-execution candidates the vectorized probe races.
CHUNK_CANDIDATES: Tuple[int, ...] = (4, 16)
BLOCK_CANDIDATES: Tuple[int, ...] = (32, 64, 128)


def _workload_key(model: Module, dataset: ArrayDataset, dtype: str) -> str:
    """Cost-model key: model family x image shape x dtype x machine."""
    n_params = sum(int(p.data.size) for p in model.parameters())
    shape = "x".join(str(d) for d in dataset.images.shape[1:])
    return (
        f"{type(model).__name__}/p{n_params}/i{shape}/{dtype}"
        f"/cpu{os.cpu_count() or 1}"
    )


def load_cost_model(path: Path) -> Dict[str, Any]:
    """The persisted cost model at ``path`` ({} when absent/stale)."""
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(raw, dict) or raw.get("version") != COST_MODEL_VERSION:
        return {}
    entries = raw.get("entries")
    return entries if isinstance(entries, dict) else {}


def save_cost_model(path: Path, entries: Dict[str, Any]) -> None:
    """Persist ``entries`` at ``path`` (parents created as needed)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"version": COST_MODEL_VERSION, "entries": entries}, indent=2)
    )


def _time_execute(
    clock: Clock, plan: EvalPlan, model: Module, dataset: ArrayDataset
) -> float:
    """Min-over-repeats wall-clock of one probe evaluation."""
    from repro.evaluation.executor import execute

    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = clock()
        execute(plan, model, dataset)
        best = min(best, clock() - start)
    return best


def _measure(
    model: Module,
    dataset: ArrayDataset,
    variation: "VariationLike",
    *,
    seed: SeedLike,
    dtype: str,
    clock: Clock,
) -> Dict[str, Any]:
    """Probe the three backends on a dataset slice; return a cost entry.

    Loop and vectorized costs are linear in ``draws x images``, so one
    per-image-per-draw rate each suffices. The pool adds a fixed startup
    (worker spin-up); probing it at two draw counts
    separates the slope from the intercept.
    """
    probe = dataset.subset(np.arange(min(len(dataset), PROBE_DATA)))
    images = len(probe)
    sample_aware = supports_sample_axis(model)
    entry: Dict[str, Any] = {
        "chunk_samples": 16,
        "data_block": 64,
        "per_image_draw": {},
        "pool_startup": 0.0,
        "n_workers": 0,
        "probe_images": images,
        "probe_samples": PROBE_SAMPLES,
    }

    loop_s = _time_execute(
        clock,
        build_plan(
            model, probe, variation,
            n_samples=max(2, PROBE_SAMPLES // 4), seed=seed, dtype=dtype,
        ),
        model,
        probe,
    )
    entry["per_image_draw"]["loop"] = loop_s / (
        max(2, PROBE_SAMPLES // 4) * images
    )

    if sample_aware:
        best: Optional[Tuple[float, int, int]] = None
        for chunk in CHUNK_CANDIDATES:
            for block in BLOCK_CANDIDATES:
                elapsed = _time_execute(
                    clock,
                    build_plan(
                        model, probe, variation,
                        n_samples=PROBE_SAMPLES, seed=seed, dtype=dtype,
                        vectorized=True, chunk_samples=chunk, data_block=block,
                    ),
                    model,
                    probe,
                )
                if best is None or elapsed < best[0]:
                    best = (elapsed, chunk, block)
        assert best is not None
        entry["per_image_draw"]["vectorized"] = best[0] / (PROBE_SAMPLES * images)
        entry["chunk_samples"] = best[1]
        entry["data_block"] = best[2]

    cpus = os.cpu_count() or 1
    if cpus >= 2:
        workers = min(cpus, 4)
        lo_s, hi_s = PROBE_SAMPLES // 2, PROBE_SAMPLES
        times = [
            _time_execute(
                clock,
                build_plan(
                    model, probe, variation,
                    n_samples=draws, seed=seed, dtype=dtype,
                    n_workers=workers,
                    chunk_samples=max(1, draws // workers),
                    data_block=int(entry["data_block"]),
                ),
                model,
                probe,
            )
            for draws in (lo_s, hi_s)
        ]
        per_draw = max(0.0, (times[1] - times[0]) / (hi_s - lo_s))
        entry["per_image_draw"]["pool"] = per_draw / images
        entry["pool_startup"] = max(0.0, times[0] - per_draw * lo_s)
        entry["n_workers"] = workers
    return entry


def _predict(
    entry: Dict[str, Any], backend: str, n_samples: int, n_images: int
) -> float:
    """Predicted wall-clock of ``backend`` at the requested workload."""
    rate = float(entry["per_image_draw"][backend])
    predicted = rate * n_samples * n_images
    if backend == "pool":
        predicted += float(entry["pool_startup"])
    return predicted


def _choose(
    entry: Dict[str, Any], n_samples: int, n_images: int
) -> Tuple[str, str]:
    """(backend, human-readable prediction summary) with the lowest
    predicted wall-clock for the requested workload."""
    predictions = {
        backend: _predict(entry, backend, n_samples, n_images)
        for backend in entry["per_image_draw"]
    }
    backend = min(predictions, key=lambda k: predictions[k])
    summary = ", ".join(
        f"{name} {seconds:.3g}s" for name, seconds in sorted(predictions.items())
    )
    return backend, summary


def autotune_plan(
    model: Module,
    dataset: ArrayDataset,
    variation: "VariationLike",
    *,
    n_samples: int,
    seed: SeedLike,
    dtype: str = "float64",
    clock: Optional[Clock] = None,
    cache_path: Optional[Path] = None,
    batch_size: int = 256,
    tolerance: Optional[float] = None,
    min_samples: Optional[int] = None,
    ci_confidence: float = 0.95,
    ci_method: str = "clt",
    stopping: Optional[StoppingRule] = None,
) -> EvalPlan:
    """A measured :class:`EvalPlan`: execution knobs chosen by cost model.

    Resolution order:

    1. a persisted cost-model entry for this (model family, image shape,
       dtype, machine) at ``cache_path``, if one exists;
    2. otherwise, with a ``clock``, probe now (a few seconds, once) and
       persist the entry when ``cache_path`` is given;
    3. otherwise a static heuristic — vectorized for sample-aware models,
       a pool on multi-core machines for the rest, else the loop.

    The logical evaluation (spec, seed schedule, S cap, dtype, stopping
    rule) is exactly what ``build_plan`` would produce — only the
    execution knobs the store fingerprint already excludes differ, so a
    tuned plan's results are bitwise those of any untuned plan of the
    same evaluation at the same dtype. The decision and its predicted
    costs land in ``backend_reason``.
    """
    key = _workload_key(model, dataset, dtype)
    entries: Dict[str, Any] = (
        load_cost_model(cache_path) if cache_path is not None else {}
    )
    entry = entries.get(key)
    source = f"cost model {key}"
    if entry is None and clock is not None:
        was_training = model.training
        model.eval()
        try:
            entry = _measure(
                model, dataset, variation, seed=seed, dtype=dtype, clock=clock
            )
        finally:
            model.train(was_training)
        source = f"measured now, {key}"
        if cache_path is not None:
            entries[key] = entry
            save_cost_model(cache_path, entries)
            source = f"measured now -> {cache_path.name}, {key}"

    adaptive: Dict[str, Any] = dict(
        tolerance=tolerance, min_samples=min_samples,
        ci_confidence=ci_confidence, ci_method=ci_method, stopping=stopping,
    )
    if entry is not None:
        backend, summary = _choose(entry, n_samples, len(dataset))
        plan = build_plan(
            model, dataset, variation,
            n_samples=n_samples, seed=seed, dtype=dtype, batch_size=batch_size,
            vectorized=backend == "vectorized",
            n_workers=int(entry["n_workers"]) if backend == "pool" else 0,
            chunk_samples=int(entry["chunk_samples"]),
            data_block=int(entry["data_block"]),
            **adaptive,
        )
        reason = (
            f"autotuned ({source}): {backend} predicted fastest ({summary}) "
            f"at S={n_samples} x {len(dataset)} images; chunk="
            f"{plan.chunk_samples} block={plan.data_block}"
            + (f" workers={plan.n_workers}" if plan.backend == "pool" else "")
        )
    else:
        cpus = os.cpu_count() or 1
        if supports_sample_axis(model):
            plan = build_plan(
                model, dataset, variation,
                n_samples=n_samples, seed=seed, dtype=dtype,
                batch_size=batch_size, vectorized=True, **adaptive,
            )
        elif cpus >= 2:
            plan = build_plan(
                model, dataset, variation,
                n_samples=n_samples, seed=seed, dtype=dtype,
                batch_size=batch_size, n_workers=min(cpus, 4), **adaptive,
            )
        else:
            plan = build_plan(
                model, dataset, variation,
                n_samples=n_samples, seed=seed, dtype=dtype,
                batch_size=batch_size, **adaptive,
            )
        reason = (
            f"autotuned (heuristic — no clock injected and no cached cost "
            f"model for {key}): {plan.backend}"
        )
    if plan.backend_reason:
        reason = f"{reason}; {plan.backend_reason}"
    return replace(plan, backend_reason=reason)
