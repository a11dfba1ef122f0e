"""Eval dtype policy: per-dtype paired-seed bitwise equality + fingerprint.

The contract (docs/CONTRACTS.md): at a fixed dtype, all backends are
bitwise-equal on the same seed schedule — draws are generated in float64
and cast once, so the schedule itself is dtype-invariant — but float32
results are NOT float64 results, and the store fingerprint separates
them.
"""

import numpy as np
import pytest

from repro.data import synth_mnist
from repro.evaluation import MonteCarloEvaluator, build_plan, execute
from repro.hardware import analogize
from repro.models import MLP
from repro.store.fingerprint import plan_fingerprint
from repro.variation import LogNormalVariation
from repro.variation.injector import VariationInjector


def _accuracies(model, data, variation, *, dtype, **knobs):
    plan = build_plan(
        model, variation, n_samples=6, seed=11, dtype=dtype, **knobs
    )
    return plan, execute(plan, model, data)


class TestPerDtypePairing:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_all_backends_bitwise_equal(self, mlp, blob_dataset, dtype):
        variation = LogNormalVariation(0.5)
        plan, loop = _accuracies(
            mlp, blob_dataset, variation, dtype=dtype, vectorized=False
        )
        assert plan.backend == "loop"
        _, vec = _accuracies(
            mlp, blob_dataset, variation, dtype=dtype, vectorized=True
        )
        pools = {}
        for vectorized in (False, True):
            pool_plan, pools[vectorized] = _accuracies(
                mlp, blob_dataset, variation, dtype=dtype,
                vectorized=vectorized, n_workers=2, chunk_samples=3,
            )
            assert pool_plan.n_workers == 2
        assert loop == vec == pools[False] == pools[True]

    def test_seed_schedule_is_dtype_invariant(self, mlp):
        """Both dtypes consume the streams identically: draws are generated
        in float64 (rng consumption is shape-only) and cast back to the
        parameter's dtype once, so seed schedules — and chunk boundaries —
        never depend on the dtype. Under the float32 run scope a draw
        perturbs the float32-rounded nominal in float64 and casts once."""
        from repro.evaluation.executor import _dtype_scope
        from repro.utils.rng import spawn_rngs

        variation = LogNormalVariation(0.5)
        injector = VariationInjector(mlp, variation)
        streams = zip(spawn_rngs(5, 3), spawn_rngs(5, 3), spawn_rngs(5, 3))
        for rng64, rng32, rng_ref in streams:
            draws64 = injector.stack_for([rng64])
            with _dtype_scope(mlp, "float32"):
                draws32 = injector.stack_for([rng32])
            assert set(draws64) == set(draws32)
            for name, param, model in injector._targets():
                assert draws64[name].dtype == np.float64
                assert draws32[name].dtype == np.float32
                base = param.data.astype(np.float32).astype(np.float64)
                want = model.perturb(base, rng_ref).astype(np.float32)
                assert draws32[name][0].tobytes() == want.tobytes()
            # Equal post-draw stream state == equal consumption.
            assert rng64.random() == rng32.random()

    def test_model_and_dataset_restored_after_float32_run(self, mlp, blob_dataset):
        before = {
            name: param.data.copy() for name, param in mlp.named_parameters()
        }
        images_before = blob_dataset.images.copy()
        _accuracies(
            mlp, blob_dataset, LogNormalVariation(0.5),
            dtype="float32", vectorized=True,
        )
        for name, param in mlp.named_parameters():
            assert param.data.dtype == np.float64
            np.testing.assert_array_equal(param.data, before[name])
        assert blob_dataset.images.dtype == np.float64
        np.testing.assert_array_equal(blob_dataset.images, images_before)

    def test_float32_differs_from_float64_fingerprint(self, mlp, blob_dataset):
        variation = LogNormalVariation(0.5)
        fp = {
            dtype: plan_fingerprint(
                build_plan(
                    mlp, variation,
                    n_samples=6, seed=11, dtype=dtype,
                ),
                mlp, blob_dataset,
            )
            for dtype in ("float64", "float32")
        }
        assert fp["float64"] != fp["float32"]

    def test_fingerprint_still_excludes_execution_knobs(self, mlp, blob_dataset):
        variation = LogNormalVariation(0.5)
        base = build_plan(
            mlp, variation, n_samples=6, seed=11, dtype="float32"
        )
        pooled = build_plan(
            mlp, variation, n_samples=6, seed=11, dtype="float32",
            vectorized=True, n_workers=2, chunk_samples=3,
        )
        assert (base.backend, base.n_workers) == ("loop", 0)
        assert (pooled.backend, pooled.n_workers) == ("vectorized", 2)
        assert plan_fingerprint(base, mlp, blob_dataset) == plan_fingerprint(
            pooled, mlp, blob_dataset
        )

    def test_analog_rejects_float32(self):
        train, _ = synth_mnist(train_per_class=2, test_per_class=2)
        model = MLP(4, [8], 3, seed=0)
        analogize(model)
        with pytest.raises(ValueError, match="float64"):
            build_plan(
                model, LogNormalVariation(0.5),
                n_samples=4, seed=1, dtype="float32",
            )

    def test_unknown_dtype_rejected(self, mlp):
        with pytest.raises(ValueError, match="dtype"):
            build_plan(
                mlp, LogNormalVariation(0.5),
                n_samples=4, seed=1, dtype="float16",
            )

    def test_evaluator_threads_dtype(self, mlp, blob_dataset):
        ev32 = MonteCarloEvaluator(
            blob_dataset, n_samples=5, seed=8, dtype="float32"
        )
        ev64 = MonteCarloEvaluator(blob_dataset, n_samples=5, seed=8)
        plan32 = ev32.plan(mlp, LogNormalVariation(0.5))
        assert plan32.dtype == "float32"
        r32 = ev32.evaluate(mlp, LogNormalVariation(0.5))
        r64 = ev64.evaluate(mlp, LogNormalVariation(0.5))
        assert len(r32.accuracies) == len(r64.accuracies) == 5
