"""Plan/executor architecture: plan building and chunked streaming.

The tentpole contract: an :class:`EvalPlan` fully determines one
Monte-Carlo evaluation, every backend executes the same plan bitwise-
identically, and the sample-chunking schedule (``chunk_samples``) is a
pure peak-memory knob — a chunked run's ``MCResult`` equals the unchunked
run's exactly, on every backend and for every model family (plain /
compensated / analog), including chunk sizes that do not divide the
sample count. Data blocking (``data_block``) is neutral the same way,
analog read noise included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.nn as nn
from repro.autograd import functional as F
from repro.compensation import CompensationPlan
from repro.evaluation import (
    accuracy,
    build_plan,
    execute,
    make_adapter,
    MonteCarloEvaluator,
    tail_spec,
)
from repro.evaluation.plan import DEFAULT_CHUNK_SAMPLES
from repro.hardware import ADC, analog_layers, analogize, DAC
from repro.models import LeNet5
from repro.models.registry import build_model
from repro.variation import (
    ColumnCorrelatedVariation,
    LogNormalVariation,
    NoVariation,
    weighted_layers,
)


class _ClassAxisSoftmax(nn.Module):
    """Softmax of (N, K) logits that does not declare the sample axis, so a
    model holding it runs the per-draw loop form."""

    sample_aware = False

    def forward(self, x):
        return F.softmax(x)


def _families(lenet, seed=1):
    """(name, model, variation) triples covering the three model families.

    Built lazily per test from a fresh ``lenet`` fixture; the analog
    family deep-copies first since ``analogize`` converts in place.
    """
    import copy

    plain = copy.deepcopy(lenet)
    compensated = CompensationPlan({0: 1.0, 2: 0.5}).apply(
        copy.deepcopy(lenet), seed=seed
    )
    analog = analogize(copy.deepcopy(lenet), tile_size=32, dac=DAC(6),
                       adc=ADC(8), read_noise_sigma=0.002)
    variation = LogNormalVariation(0.4) | ColumnCorrelatedVariation(0.1)
    return [
        ("plain", plain, variation),
        ("compensated", compensated, variation),
        ("analog", analog, variation),
    ]


class TestChunkedEquivalence:
    """chunk_samples is bitwise-neutral on every backend x model family."""

    N_SAMPLES = 5  # chunk 2 does not divide it: chunks (2, 2, 1)

    @pytest.mark.parametrize("backend_kwargs", [
        dict(vectorized=False),                 # loop
        dict(vectorized=True),                  # vectorized
        dict(vectorized=False, n_workers=2),    # pool, per-draw workers
        dict(vectorized=True, n_workers=2),     # pool, stacked workers
    ], ids=["loop", "vectorized", "pool", "vectorized-pool"])
    def test_chunked_matches_unchunked(self, lenet, tiny_test, backend_kwargs):
        for name, model, variation in _families(lenet):
            unchunked = MonteCarloEvaluator(
                tiny_test, n_samples=self.N_SAMPLES, seed=13,
                chunk_samples=self.N_SAMPLES, **backend_kwargs,
            ).evaluate(model, variation)
            chunked = MonteCarloEvaluator(
                tiny_test, n_samples=self.N_SAMPLES, seed=13,
                chunk_samples=2, **backend_kwargs,
            ).evaluate(model, variation)
            assert chunked.accuracies == unchunked.accuracies, name
            assert len(chunked.accuracies) == self.N_SAMPLES

    def test_cross_backend_pairing_with_chunking(self, lenet, tiny_test):
        """Every (form, workers) cell agrees under a non-dividing chunk
        size."""
        for name, model, variation in _families(lenet):
            results = [
                MonteCarloEvaluator(tiny_test, n_samples=5, seed=21,
                                    chunk_samples=3, **kwargs)
                .evaluate(model, variation).accuracies
                for kwargs in (dict(vectorized=False),
                               dict(vectorized=True),
                               dict(vectorized=False, n_workers=2),
                               dict(vectorized=True, n_workers=2))
            ]
            assert all(result == results[0] for result in results), name


@pytest.fixture(scope="module")
def block_families(tiny_test):
    """Eval-mode models shared across examples: analog ones with read
    noise, and a weight-domain one. Every evaluation restores the
    programmed state, so examples can share them."""
    def lenet():
        return LeNet5(num_classes=10, in_channels=1, input_size=16,
                      width_multiplier=0.5, seed=0)

    def noisy(model):
        return analogize(model, tile_size=32, dac=DAC(6), adc=ADC(8),
                         read_noise_sigma=0.02)

    families = {
        "analog-mlp": noisy(build_model("mlp", tiny_test, width=0.25,
                                        seed=0)),
        "analog-lenet5": noisy(lenet()),
        "lenet5": lenet(),
    }
    for model in families.values():
        model.eval()
    return families


class TestDataBlockingIsNeutral:
    """``data_block`` never changes a draw, analog read noise included:
    each tile's noise stream is consumed in row-major order, one
    ``(batch, out)`` draw per MVM call, so block boundaries move no draw.
    This is what lets the fingerprint leave ``data_block`` out."""

    @settings(max_examples=12, deadline=None)
    @given(family=st.sampled_from(["analog-mlp", "analog-lenet5", "lenet5"]),
           data_block=st.integers(1, 48), chunk=st.integers(1, 5),
           vectorized=st.booleans())
    def test_accuracies_equal_the_block_64_run(self, tiny_test,
                                               block_families, family,
                                               data_block, chunk,
                                               vectorized):
        model = block_families[family]

        def run(block):
            return MonteCarloEvaluator(
                tiny_test, n_samples=5, seed=3, vectorized=vectorized,
                chunk_samples=chunk, data_block=block,
            ).evaluate(model, LogNormalVariation(0.3)).accuracies

        assert run(data_block) == run(64)


class TestPlanBuilding:
    def test_backend_resolution(self, lenet):
        """The form and the worker count are independent decisions: each
        (vectorized, n_workers) cell plans the form it asks for, and both
        pool cells get the defaulted chunk shrunk to feed two workers."""
        lenet.eval()
        variation = LogNormalVariation(0.4)

        def plan(**kwargs):
            resolved = build_plan(lenet, variation, n_samples=4, seed=0,
                                  **kwargs)
            return (resolved.backend, resolved.n_workers,
                    resolved.chunks(), resolved.backend_reason)

        in_process, pooled = ((0, 4),), ((0, 2), (2, 4))
        assert plan() == ("loop", 0, in_process, None)
        assert plan(vectorized=True) == ("vectorized", 0, in_process, None)
        assert plan(n_workers=2) == ("loop", 2, pooled, None)
        # A stacked 2-worker pool: vectorized no longer drops n_workers.
        assert plan(vectorized=True, n_workers=2) == \
            ("vectorized", 2, pooled, None)

    def test_unsupported_model_falls_back(self):
        model = nn.Sequential(nn.Flatten(), nn.Linear(4, 3, seed=0),
                              _ClassAxisSoftmax())
        model.eval()
        plan = build_plan(model, LogNormalVariation(0.3),
                          n_samples=3, seed=0, vectorized=True)
        assert plan.backend == "loop"
        pool_plan = build_plan(model, LogNormalVariation(0.3),
                               n_samples=3, seed=0, vectorized=True,
                               n_workers=2)
        # The pool survives the fallback; its workers run per-draw.
        assert (pool_plan.backend, pool_plan.n_workers) == ("loop", 2)

    def test_fallback_reason_names_blocking_modules(self):
        """A denied vectorized request must say *which* modules blocked it
        (a module without ``sample_aware`` here), not just silently pick a
        slower backend."""
        model = nn.Sequential(nn.Flatten(), nn.Linear(4, 3, seed=0),
                              _ClassAxisSoftmax())
        model.eval()
        plan = build_plan(model, LogNormalVariation(0.3),
                          n_samples=3, seed=0, vectorized=True)
        assert plan.backend_reason is not None
        assert "fell back to the loop backend" in plan.backend_reason
        assert "2 (_ClassAxisSoftmax)" in plan.backend_reason
        pool_plan = build_plan(model, LogNormalVariation(0.3),
                               n_samples=3, seed=0, vectorized=True,
                               n_workers=2)
        assert pool_plan.backend_reason == plan.backend_reason

    def test_no_reason_when_request_honored(self, mlp, lenet, tiny_test):
        mlp.eval()
        # vectorized granted: nothing to explain
        granted = build_plan(mlp, LogNormalVariation(0.3),
                             n_samples=3, seed=0, vectorized=True)
        assert granted.backend == "vectorized"
        assert granted.backend_reason is None
        # loop/pool *chosen* (not a fallback): also nothing to explain
        for kwargs in (dict(), dict(n_workers=2),
                       dict(vectorized=True, n_workers=2)):
            assert build_plan(mlp, LogNormalVariation(0.3), n_samples=3,
                              seed=0, **kwargs).backend_reason is None
        # evaluator surface carries the field through plan()
        lenet.eval()
        ev = MonteCarloEvaluator(tiny_test, n_samples=2, vectorized=True)
        assert ev.plan(lenet, LogNormalVariation(0.3)).backend_reason is None

    def test_reason_excluded_from_fingerprint(self, mlp):
        """backend_reason is a diagnostic: two plans differing only in it
        must fingerprint identically (results are backend-invariant)."""
        from repro.store.fingerprint import fingerprint_payload

        import dataclasses

        mlp.eval()
        a = build_plan(mlp, LogNormalVariation(0.3),
                       n_samples=3, seed=0, vectorized=True)
        b = dataclasses.replace(a, backend_reason="synthetic diagnostic")
        assert fingerprint_payload(a, "m", "d") == fingerprint_payload(b, "m", "d")

    def test_deterministic_short_circuit(self, mlp, lenet):
        mlp.eval()
        assert build_plan(mlp, NoVariation(), n_samples=9,
                          seed=0).deterministic
        assert build_plan(mlp, LogNormalVariation(0.0),
                          n_samples=9, seed=0).deterministic
        # Analog with read noise: every draw differs even without
        # programming variation, so the full protocol applies.
        noisy = analogize(lenet, tile_size=32, read_noise_sigma=0.05)
        noisy.eval()
        assert not build_plan(noisy, NoVariation(), n_samples=3,
                              seed=0).deterministic

    def test_analog_plans_take_tail_specs(self, lenet):
        """A tail spec silences the head arrays of an analog model: they
        are programmed without variation."""
        analog = analogize(lenet, tile_size=32)
        analog.eval()
        spec = tail_spec(analog, LogNormalVariation(0.3), 2)
        plan = build_plan(analog, spec, n_samples=2, seed=0)
        assert plan.domain == "analog"
        resolved = [model for _, model, _ in make_adapter(analog, plan).resolved]
        assert resolved == [NoVariation()] * 2 + [LogNormalVariation(0.3)] * 3

    def test_chunk_and_shard_schedules(self, mlp):
        mlp.eval()
        plan = build_plan(mlp, LogNormalVariation(0.3),
                          n_samples=7, seed=0, chunk_samples=3, n_workers=2)
        assert plan.chunks() == ((0, 3), (3, 6), (6, 7))
        # chunk never exceeds n_samples
        big = build_plan(mlp, LogNormalVariation(0.3),
                         n_samples=4, seed=0, chunk_samples=100)
        assert big.chunk_samples == 4
        # an unset chunk is the default, capped the same way
        assert build_plan(mlp, LogNormalVariation(0.3),
                          n_samples=100, seed=0).chunk_samples == \
            DEFAULT_CHUNK_SAMPLES
        assert build_plan(mlp, LogNormalVariation(0.3),
                          n_samples=3, seed=0).chunk_samples == 3

    def test_invalid_evaluator_knobs(self, blob_dataset, mlp):
        with pytest.raises(ValueError):
            MonteCarloEvaluator(blob_dataset, chunk_samples=0)
        with pytest.raises(ValueError, match="data_block must be positive"):
            MonteCarloEvaluator(blob_dataset, data_block=0)
        with pytest.raises(ValueError, match="data_block must be positive"):
            build_plan(mlp, LogNormalVariation(0.3), n_samples=4, seed=0,
                       data_block=0)

    def test_workers_clamped_to_pinned_chunk_count(self, mlp):
        """Regression: more workers than chunks used to spin up idle
        processes (each paying fork + initializer cost for zero tasks). A
        *pinned* chunk schedule can't be reshaped, so the plan clamps the
        worker count instead — and says so."""
        mlp.eval()
        for vectorized, form in ((False, "loop"), (True, "vectorized")):
            plan = build_plan(mlp, LogNormalVariation(0.3), n_samples=6,
                              seed=0, vectorized=vectorized, n_workers=4,
                              chunk_samples=3)
            assert plan.chunks() == ((0, 3), (3, 6))
            assert (plan.backend, plan.n_workers) == (form, 2)
            assert plan.backend_reason is not None
            assert "n_workers clamped from 4 to 2" in plan.backend_reason
            # Degenerate pin: one chunk leaves nothing to parallelize.
            serial = build_plan(mlp, LogNormalVariation(0.3), n_samples=6,
                                seed=0, vectorized=vectorized, n_workers=4,
                                chunk_samples=6)
            assert (serial.backend, serial.n_workers) == (form, 1)
            assert "n_workers clamped from 4 to 1" in serial.backend_reason

    def test_defaulted_chunk_shrinks_to_feed_workers(self, mlp, blob_dataset):
        """When the chunk size was defaulted (not pinned by the caller),
        the plan reshapes it instead of clamping — chunking is
        bitwise-neutral, so the pool request survives."""
        mlp.eval()
        loop = build_plan(mlp, LogNormalVariation(0.3),
                          n_samples=6, seed=0)
        for vectorized in (False, True):
            plan = build_plan(mlp, LogNormalVariation(0.3), n_samples=6,
                              seed=0, vectorized=vectorized, n_workers=2)
            assert plan.n_workers == 2
            assert plan.chunks() == ((0, 3), (3, 6))
            # The reshape is schedule-only: results pair with the loop.
            assert execute(plan, mlp, blob_dataset) == execute(
                loop, mlp, blob_dataset)

    def test_adaptive_pool_shrinks_a_defaulted_chunk(self, mlp, blob_dataset):
        """An adaptive pool plan feeds every worker like a fixed-S one:
        the chunk never moves the rule's looks, so it can shrink."""
        mlp.eval()
        kwargs = dict(n_samples=32, seed=0, tolerance=0.5, min_samples=2)
        plan = build_plan(mlp, LogNormalVariation(0.3),
                          n_workers=4, **kwargs)
        assert (plan.backend, plan.n_workers, plan.chunk_samples) == \
            ("loop", 4, 8)
        assert plan.backend_reason is None
        loop = build_plan(mlp, LogNormalVariation(0.3),
                          **kwargs)
        result = execute(plan, mlp, blob_dataset)
        assert result.stopped_early
        assert result == execute(loop, mlp, blob_dataset)


class TestPlanExecutionParity:
    """The evaluator's public results still flow through plan/executor."""

    def test_empty_layer_subset_replicates_nominal(self, mlp, blob_dataset):
        ev = MonteCarloEvaluator(blob_dataset, n_samples=4, seed=0,
                                 vectorized=True, chunk_samples=2)
        silent = tail_spec(mlp, LogNormalVariation(0.5),
                           len(weighted_layers(mlp)))
        result = ev.evaluate(mlp, silent)
        clean = accuracy(mlp, blob_dataset)
        assert result.accuracies == [clean] * 4

    def test_weights_restored_after_chunked_run(self, lenet, tiny_test):
        before = {n: p.data.copy() for n, p in lenet.named_parameters()}
        MonteCarloEvaluator(tiny_test, n_samples=5, seed=0, vectorized=True,
                            chunk_samples=2).evaluate(
            lenet, LogNormalVariation(0.5))
        for name, param in lenet.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])

class TestPairedPrefix:
    """Adaptive draws are a bitwise prefix of fixed-S, per backend x family.

    The sequential layer's whole contract: because stopping decisions only
    happen at the rule's looks on the one seed schedule, an adaptive run
    can never change *what* a draw computes — only how many draws run.
    The cap leaves one look (draw 16) before it, and every run stops
    there.
    """

    N_SAMPLES = 24

    @pytest.mark.parametrize("backend_kwargs", [
        dict(vectorized=False),                 # loop
        dict(vectorized=True),                  # vectorized
        dict(vectorized=False, n_workers=2),    # pool, per-draw workers
        dict(vectorized=True, n_workers=2),     # pool, stacked workers
    ], ids=["loop", "vectorized", "pool", "vectorized-pool"])
    def test_adaptive_is_bitwise_prefix_of_fixed(self, lenet, tiny_test,
                                                 backend_kwargs):
        for name, model, variation in _families(lenet):
            fixed = MonteCarloEvaluator(
                tiny_test, n_samples=self.N_SAMPLES, seed=13,
                chunk_samples=2, **backend_kwargs,
            ).evaluate(model, variation)
            adaptive = MonteCarloEvaluator(
                tiny_test, n_samples=self.N_SAMPLES, seed=13,
                chunk_samples=2, tolerance=0.2, min_samples=2,
                **backend_kwargs,
            ).evaluate(model, variation)
            k = adaptive.n_samples_used
            assert 0 < k < self.N_SAMPLES and adaptive.stopped_early, name
            assert adaptive.accuracies == fixed.accuracies[:k], name

    def test_stop_point_agrees_across_backends(self, lenet, tiny_test):
        for name, model, variation in _families(lenet):
            used = {
                MonteCarloEvaluator(
                    tiny_test, n_samples=self.N_SAMPLES, seed=13,
                    chunk_samples=2, tolerance=0.2, min_samples=2, **kwargs,
                ).evaluate(model, variation).n_samples_used
                for kwargs in (dict(vectorized=False),
                               dict(vectorized=True),
                               dict(vectorized=False, n_workers=2),
                               dict(vectorized=True, n_workers=2))
            }
            assert len(used) == 1 and max(used) < self.N_SAMPLES, name


class TestShardReassembly:
    """Pool chunk results land in seed-schedule order (regression: the
    accuracies list must be stable under pooling so downstream CI
    computation is backend-invariant)."""

    def test_pool_accuracies_match_loop_order(self, lenet, tiny_test):
        variation = LogNormalVariation(0.4)
        loop = MonteCarloEvaluator(tiny_test, n_samples=6, seed=5).evaluate(
            lenet, variation)
        pool = MonteCarloEvaluator(tiny_test, n_samples=6, seed=5,
                                   n_workers=3).evaluate(lenet, variation)
        assert pool.accuracies == loop.accuracies


class TestPlanRestoration:

    def test_programming_restored_after_chunked_pool(self, lenet, tiny_test):
        analog = analogize(lenet, tile_size=32, read_noise_sigma=0.001)
        tiles = [
            tile
            for _, layer in analog_layers(analog)
            for row in layer.array.tiles for tile in row
        ]
        deployed = [(tile.g_pos.copy(), tile.g_neg.copy()) for tile in tiles]
        MonteCarloEvaluator(tiny_test, n_samples=4, seed=0, n_workers=2,
                            chunk_samples=3).evaluate(
            analog, LogNormalVariation(0.3))
        for (g_pos, g_neg), tile in zip(deployed, tiles):
            np.testing.assert_array_equal(tile.g_pos, g_pos)
            np.testing.assert_array_equal(tile.g_neg, g_neg)
