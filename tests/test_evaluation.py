"""Evaluation: accuracy, Monte-Carlo protocol, layer sweeps, tracing."""

import json
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.nn as nn
from repro.autograd import functional as F
from repro.data import ArrayDataset
from repro.evaluation import (
    ErrorPropagationTracer, MonteCarloEvaluator, accuracy, build_plan, execute,
    layer_sweep, recovery_ratio, select_candidates, tail_spec,
)
from repro.models import LeNet5, MLP
from repro.variation import (
    GaussianVariation, LogNormalVariation, NoVariation, VariationInjector,
    from_string, scale_to, to_string, weighted_layers,
)


class _ClassAxisSoftmax(nn.Module):
    """Softmax of (N, K) logits that does not declare the sample axis, so a
    model holding it runs the per-draw loop form."""

    sample_aware = False

    def forward(self, x):
        return F.softmax(x)


class _ConstantModel(nn.Module):
    """Predicts a fixed class for everything (accuracy is exactly the
    fraction of that label)."""

    def __init__(self, num_classes, winner):
        super().__init__()
        self.logits = np.eye(num_classes)[winner] * 10.0

    def forward(self, x):
        from repro.autograd import Tensor
        n = x.shape[0]
        return Tensor(np.tile(self.logits, (n, 1)))


def _dataset(n=30, classes=3):
    rng = np.random.default_rng(0)
    return ArrayDataset(rng.normal(size=(n, 1, 2, 2)),
                        np.arange(n) % classes)


class TestAccuracy:
    def test_constant_model_fraction(self):
        ds = _dataset(30, 3)
        model = _ConstantModel(3, winner=0)
        assert accuracy(model, ds) == pytest.approx(10 / 30)

    def test_restores_training_mode(self, mlp, blob_dataset):
        mlp.train()
        accuracy(mlp, blob_dataset)
        assert mlp.training

    def test_recovery_ratio(self):
        assert recovery_ratio(0.95, 1.0) == pytest.approx(0.95)
        with pytest.raises(ValueError):
            recovery_ratio(0.5, 0.0)


class TestMonteCarlo:
    def test_no_variation_single_sample(self, mlp, blob_dataset):
        ev = MonteCarloEvaluator(blob_dataset, n_samples=50, seed=0)
        result = ev.evaluate(mlp, NoVariation())
        assert len(result.accuracies) == 1
        assert result.std == 0.0

    def test_sample_count(self, mlp, blob_dataset):
        ev = MonteCarloEvaluator(blob_dataset, n_samples=7, seed=0)
        result = ev.evaluate(mlp, LogNormalVariation(0.3))
        assert len(result.accuracies) == 7

    def test_deterministic_given_seed(self, mlp, blob_dataset):
        ev1 = MonteCarloEvaluator(blob_dataset, n_samples=5, seed=42)
        ev2 = MonteCarloEvaluator(blob_dataset, n_samples=5, seed=42)
        r1 = ev1.evaluate(mlp, LogNormalVariation(0.4))
        r2 = ev2.evaluate(mlp, LogNormalVariation(0.4))
        np.testing.assert_allclose(r1.accuracies, r2.accuracies)

    def test_weights_restored(self, mlp, blob_dataset):
        before = {n: p.data.copy() for n, p in mlp.named_parameters()}
        ev = MonteCarloEvaluator(blob_dataset, n_samples=3, seed=0)
        ev.evaluate(mlp, LogNormalVariation(0.5))
        for name, param in mlp.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])

    def test_stats_consistent(self):
        from repro.evaluation.montecarlo import MCResult
        r = MCResult([0.5, 0.7, 0.9])
        assert r.mean == pytest.approx(0.7)
        assert r.min == 0.5 and r.max == 0.9

    def test_invalid_n_samples(self, blob_dataset):
        with pytest.raises(ValueError):
            MonteCarloEvaluator(blob_dataset, n_samples=0)


class TestLayerSweep:
    def test_sweep_length_matches_layers(self, mlp, blob_dataset):
        ev = MonteCarloEvaluator(blob_dataset, n_samples=2, seed=0)
        results = layer_sweep(mlp, LogNormalVariation(0.3), ev)
        assert [i for i, _ in results] == [1, 2]

    def test_candidates_empty_for_robust_model(self, blob_dataset):
        """With essentially zero variation every tail injection passes the
        threshold, so no candidates are selected."""
        model = MLP(4, [8], 3, seed=0)
        ev = MonteCarloEvaluator(blob_dataset, n_samples=2, seed=0)
        original = accuracy(model, blob_dataset)
        candidates = select_candidates(
            model, LogNormalVariation(1e-4), ev, original
        )
        assert candidates == []

    def test_candidates_all_for_fragile_threshold(self, mlp, blob_dataset):
        """An unreachable target (95% of an original accuracy of 2) marks
        every layer."""
        ev = MonteCarloEvaluator(blob_dataset, n_samples=2, seed=0)
        candidates = select_candidates(
            mlp, LogNormalVariation(0.3), ev, original_accuracy=2.0,
        )
        assert candidates == [0, 1]

    def test_max_candidates_cap(self, mlp, blob_dataset):
        ev = MonteCarloEvaluator(blob_dataset, n_samples=2, seed=0)
        candidates = select_candidates(
            mlp, LogNormalVariation(0.3), ev,
            original_accuracy=2.0, max_candidates=1,
        )
        assert candidates == [0]

    def test_tail_spec_silences_the_head_by_name(self, lenet):
        names = [name for name, _ in weighted_layers(lenet)]
        base = LogNormalVariation(0.5)
        assert tail_spec(lenet, base, 0) is base
        spec = tail_spec(lenet, "lognormal:0.5;@0=quant:4;@-1=gaussian:0.3", 2)
        resolved = [spec.model_for(name, i, len(names))
                    for i, name in enumerate(names)]
        # The caller's index override cannot reach a silenced layer.
        assert resolved == [NoVariation(), NoVariation(), base, base,
                            GaussianVariation(0.3)]
        # Merged flat, so the grammar still prints it.
        assert from_string(to_string(spec)) == spec
        with pytest.raises(ValueError, match="first"):
            tail_spec(lenet, base, len(names) + 1)


def _family(name, tiny_test):
    """A fresh model of ``name`` and an evaluation split it accepts."""
    if name == "mlp":
        return MLP(4, [8], 3, seed=0), _dataset(12, 3)
    return LeNet5(num_classes=10, in_channels=1, input_size=16,
                  width_multiplier=0.5, seed=0), tiny_test


_BACKENDS = {
    "loop": dict(vectorized=False),
    "vectorized": dict(vectorized=True),
    "pool": dict(vectorized=False, n_workers=2),
    "vectorized-pool": dict(vectorized=True, n_workers=2),
}


class TestTailSpecRefinesLoop:
    """Tail specs preserve the reference loop's observable accuracies on
    every backend and chunking — the loop is the abstract machine, the
    others are refinements of it."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_tail_spec_matches_loop_everywhere(self, tiny_test, data):
        family = data.draw(st.sampled_from(["mlp", "lenet5"]), label="family")
        model, dataset = _family(family, tiny_test)
        layers = weighted_layers(model)
        first = data.draw(st.integers(0, len(layers)), label="first")
        n_samples = data.draw(st.integers(1, 6), label="S")
        chunk = data.draw(st.integers(1, n_samples), label="chunk")
        backend = data.draw(st.sampled_from(sorted(_BACKENDS)), label="backend")
        spec = tail_spec(model, LogNormalVariation(0.5), first)

        targets = VariationInjector(model, spec).target_parameters()
        assert [id(p) for p in targets] == \
            [id(layer.weight) for _, layer in layers[first:]]
        loop = MonteCarloEvaluator(dataset, n_samples=n_samples, seed=3)
        engine = MonteCarloEvaluator(dataset, n_samples=n_samples, seed=3,
                                     chunk_samples=chunk,
                                     **_BACKENDS[backend])
        assert engine.evaluate(model, spec).accuracies == \
            loop.evaluate(model, spec).accuracies


class TestTracer:
    def test_deviation_per_layer_count(self, mlp):
        tracer = ErrorPropagationTracer(mlp)
        x = np.random.default_rng(0).normal(size=(4, 1, 2, 2))
        devs = tracer.trace(x, LogNormalVariation(0.3), seed=0)
        assert len(devs) == 2
        assert all(d.relative_error >= 0 for d in devs)

    def test_zero_variation_zero_error(self, mlp):
        tracer = ErrorPropagationTracer(mlp)
        x = np.random.default_rng(0).normal(size=(4, 1, 2, 2))
        devs = tracer.trace(x, LogNormalVariation(0.0), seed=0)
        assert all(d.relative_error == pytest.approx(0.0) for d in devs)

    def test_amplification_in_expansive_network(self, orthogonal):
        """A deep net with norm >> 1 weights amplifies errors with depth;
        a contractive one attenuates relative error growth."""
        import repro.nn as nn

        def build(gain):
            layers = []
            for i in range(4):
                lin = nn.Linear(16, 16, bias=False, seed=i)
                lin.weight.data = orthogonal(
                    (16, 16), np.random.default_rng(i), gain=gain
                )
                layers += [lin, nn.ReLU()]
            return nn.Sequential(*layers)

        x = np.random.default_rng(5).normal(size=(8, 16))
        big = ErrorPropagationTracer(build(3.0)).amplification_profile(
            x, LogNormalVariation(0.3), n_samples=4, seed=0
        )
        small = ErrorPropagationTracer(build(0.9)).amplification_profile(
            x, LogNormalVariation(0.3), n_samples=4, seed=0
        )
        # Relative error at the last layer grows more in the expansive net.
        assert big[-1] > small[-1]

    def test_forward_hooks_removed(self, mlp):
        tracer = ErrorPropagationTracer(mlp)
        x = np.random.default_rng(0).normal(size=(2, 1, 2, 2))
        tracer.trace(x, LogNormalVariation(0.2), seed=0)
        # forward must be back to the class implementation (unhooked)
        layer = weighted_layers(mlp)[0][1]
        assert layer.forward.__qualname__.startswith("Linear")


class TestMCResultValidation:
    def test_empty_result_statistics_raise(self):
        from repro.evaluation.montecarlo import MCResult
        empty = MCResult()
        for stat in ("mean", "std", "min", "max"):
            with pytest.raises(ValueError):
                getattr(empty, stat)

    def test_empty_result_repr_safe(self):
        from repro.evaluation.montecarlo import MCResult
        assert "empty" in repr(MCResult())


class TestMCResultSerialization:
    def test_round_trip_through_json_is_lossless(self):
        from repro.evaluation.montecarlo import MCResult
        original = MCResult(
            accuracies=[np.float64(0.625), 0.75, np.float32(0.5)],
            stopped_early=True,
        )
        payload = json.loads(json.dumps(original.to_dict()))
        assert (payload["confidence"], payload["ci_method"]) == (0.95, "clt")
        restored = MCResult.from_dict(payload)
        assert restored.accuracies == [float(a) for a in original.accuracies]
        assert restored.stopped_early is True
        assert restored.ci_half_width == original.ci_half_width
        # Idempotent: re-serializing the restored result is a fixpoint.
        assert restored.to_dict() == payload

    def test_empty_result_round_trips(self):
        from repro.evaluation.montecarlo import MCResult
        restored = MCResult.from_dict(MCResult().to_dict())
        assert restored.accuracies == []
        assert restored.n_samples_used == 0

    def test_unknown_fields_rejected(self):
        from repro.evaluation.montecarlo import MCResult
        with pytest.raises(ValueError, match="unknown MCResult fields"):
            MCResult.from_dict({"accuracies": [], "surprise": 1})

    @pytest.mark.parametrize("field,value", [
        ("confidence", 0.99), ("confidence", 0.9), ("ci_method", "wilson"),
    ])
    def test_any_interval_but_95_clt_rejected(self, field, value):
        """Every result reports the 95% CLT interval, so a payload asking
        for another one cannot be restored faithfully."""
        from repro.evaluation.montecarlo import MCResult
        payload = dict(MCResult([0.5, 0.75]).to_dict(), **{field: value})
        with pytest.raises(ValueError, match="95% CLT"):
            MCResult.from_dict(payload)


class TestVectorizedEngine:
    """Paired-seed equivalence of the vectorized engine with the loop."""

    def test_mlp_matches_loop(self, mlp, blob_dataset):
        loop = MonteCarloEvaluator(blob_dataset, n_samples=9, seed=11,
                                   vectorized=False)
        vec = MonteCarloEvaluator(blob_dataset, n_samples=9, seed=11,
                                  vectorized=True, chunk_samples=4)
        r_loop = loop.evaluate(mlp, LogNormalVariation(0.5))
        r_vec = vec.evaluate(mlp, LogNormalVariation(0.5))
        assert r_vec.accuracies == r_loop.accuracies

    def test_lenet_matches_loop(self, lenet, tiny_test):
        loop = MonteCarloEvaluator(tiny_test, n_samples=5, seed=3,
                                   vectorized=False)
        vec = MonteCarloEvaluator(tiny_test, n_samples=5, seed=3,
                                  vectorized=True, chunk_samples=2)
        r_loop = loop.evaluate(lenet, LogNormalVariation(0.4))
        r_vec = vec.evaluate(lenet, LogNormalVariation(0.4))
        assert r_vec.accuracies == r_loop.accuracies

    def test_tail_spec_matches_loop(self, lenet, tiny_test):
        spec = tail_spec(lenet, LogNormalVariation(0.6), 2)
        loop = MonteCarloEvaluator(tiny_test, n_samples=4, seed=5,
                                   vectorized=False)
        vec = MonteCarloEvaluator(tiny_test, n_samples=4, seed=5,
                                  vectorized=True)
        r_loop = loop.evaluate(lenet, spec)
        r_vec = vec.evaluate(lenet, spec)
        assert r_vec.accuracies == r_loop.accuracies

    def test_weights_restored_after_vectorized(self, lenet, tiny_test):
        before = {n: p.data.copy() for n, p in lenet.named_parameters()}
        vec = MonteCarloEvaluator(tiny_test, n_samples=3, seed=0,
                                  vectorized=True)
        vec.evaluate(lenet, LogNormalVariation(0.5))
        for name, param in lenet.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])

    def test_empty_layer_subset_replicates_nominal(self, mlp, blob_dataset):
        vec = MonteCarloEvaluator(blob_dataset, n_samples=4, seed=0,
                                  vectorized=True)
        silent = tail_spec(mlp, LogNormalVariation(0.5),
                           len(weighted_layers(mlp)))
        result = vec.evaluate(mlp, silent)
        clean = accuracy(mlp, blob_dataset)
        assert result.accuracies == [clean] * 4

    def test_unsupported_model_falls_back_to_loop(self, blob_dataset):
        """A model holding a module that is not sample-aware silently
        uses the reference loop under vectorized=True."""
        from repro.evaluation import supports_sample_axis
        model = nn.Sequential(nn.Flatten(), nn.Linear(4, 8, seed=0),
                              nn.ReLU(), nn.Linear(8, 3, seed=1),
                              _ClassAxisSoftmax())
        model.eval()
        assert not supports_sample_axis(model)
        loop = MonteCarloEvaluator(blob_dataset, n_samples=3, seed=2,
                                   vectorized=False)
        vec = MonteCarloEvaluator(blob_dataset, n_samples=3, seed=2,
                                  vectorized=True)
        r_loop = loop.evaluate(model, LogNormalVariation(0.3))
        r_vec = vec.evaluate(model, LogNormalVariation(0.3))
        assert r_vec.accuracies == r_loop.accuracies

    def test_supports_sample_axis_whitelist(self, mlp, lenet):
        from repro.evaluation import supports_sample_axis
        assert supports_sample_axis(mlp)
        assert supports_sample_axis(lenet)


class TestProcessPoolEngine:
    def test_pool_matches_loop(self, mlp, blob_dataset):
        loop = MonteCarloEvaluator(blob_dataset, n_samples=5, seed=8,
                                   vectorized=False)
        pool = MonteCarloEvaluator(blob_dataset, n_samples=5, seed=8,
                                   vectorized=False, n_workers=2)
        r_loop = loop.evaluate(mlp, LogNormalVariation(0.5))
        r_pool = pool.evaluate(mlp, LogNormalVariation(0.5))
        assert r_pool.accuracies == r_loop.accuracies

    def test_pool_preserves_sample_order(self, mlp, blob_dataset):
        pool = MonteCarloEvaluator(blob_dataset, n_samples=5, seed=8,
                                   vectorized=False, n_workers=3)
        a = pool.evaluate(mlp, LogNormalVariation(0.5))
        b = pool.evaluate(mlp, LogNormalVariation(0.5))
        assert a.accuracies == b.accuracies

    def test_invalid_workers_raise(self, blob_dataset):
        with pytest.raises(ValueError):
            MonteCarloEvaluator(blob_dataset, n_workers=-1)

    def test_tail_spec_matches_loop(self, lenet, tiny_test):
        """A layer subset reaches the workers as plain spec data."""
        spec = tail_spec(lenet, LogNormalVariation(0.6), 1)
        loop = MonteCarloEvaluator(tiny_test, n_samples=5, seed=5,
                                   vectorized=False)
        pool = MonteCarloEvaluator(tiny_test, n_samples=5, seed=5,
                                   vectorized=False, n_workers=2,
                                   chunk_samples=2)
        assert pool.plan(lenet, spec).n_workers == 2
        r_loop = loop.evaluate(lenet, spec)
        r_pool = pool.evaluate(lenet, spec)
        assert r_pool.accuracies == r_loop.accuracies
        # The subset is not vacuous: varying every layer draws differently.
        assert r_loop.accuracies != loop.evaluate(
            lenet, LogNormalVariation(0.6)).accuracies

    def test_workers_run_the_plans_form(self, mlp, blob_dataset,
                                        monkeypatch):
        """A worker stacks exactly when the plan is vectorized and has
        targets to draw (the worker entry points, run in this process)."""
        from repro.evaluation import executor

        forms = []
        for name, form in (("_loop_accuracies", "per-draw"),
                           ("_stacked_accuracies", "stacked")):
            def spy(*args, _run=getattr(executor, name), _form=form):
                forms.append(_form)
                return _run(*args)

            monkeypatch.setattr(executor, name, spy)
        mlp.eval()
        varied = LogNormalVariation(0.5)
        silent = tail_spec(mlp, varied, len(weighted_layers(mlp)))
        for vectorized, spec, form in ((False, varied, "per-draw"),
                                       (True, varied, "stacked"),
                                       (True, silent, "per-draw")):
            plan = build_plan(mlp, spec, n_samples=4, seed=1,
                              vectorized=vectorized, n_workers=2)
            forms.clear()
            executor._pool_init(mlp, blob_dataset, plan)
            try:
                executor._pool_chunk(0, 2)
            finally:
                executor._POOL_STATE.clear()
            assert forms == [form], (vectorized, spec)

    def test_killed_worker_raises_instead_of_hanging(self, blob_dataset):
        model = _KilledOnForward(4, [8], 3, seed=0)
        plan = build_plan(model, LogNormalVariation(0.5),
                          n_samples=6, seed=3, n_workers=2, chunk_samples=3)
        assert plan.n_workers == 2
        with pytest.raises(BrokenProcessPool):
            execute(plan, model, blob_dataset)
        assert multiprocessing.active_children() == []

    def test_adaptive_early_stop_leaves_no_live_child(self, mlp,
                                                      blob_dataset):
        # A huge tolerance stops after the minimum draws, cancelling the
        # chunks still queued in the window.
        ev = MonteCarloEvaluator(
            blob_dataset, n_samples=64, seed=3, vectorized=False,
            n_workers=2, chunk_samples=2, tolerance=0.49, min_samples=2,
        )
        result = ev.evaluate(mlp, LogNormalVariation(0.5))
        assert result.n_samples_used < 64
        assert multiprocessing.active_children() == []


class _KilledOnForward(MLP):
    """Dies with SIGKILL on first forward — only workers run forward in a
    pool evaluation, so this simulates a hard worker crash mid-task."""

    def forward(self, x):  # pragma: no cover - runs in the worker
        os.kill(os.getpid(), signal.SIGKILL)


class TestSweepSigmaThreading:
    def test_sweep_keeps_the_tail_subset(self, lenet, tiny_test):
        """A magnitude sweep over a tail spec (``scale_to`` per point)
        keeps the tail subset: each point evaluates like the same tail
        written at that sigma."""
        ev = MonteCarloEvaluator(tiny_test, n_samples=3, seed=4)
        tail = tail_spec(lenet, LogNormalVariation(0.5), 1)
        for sigma in [0.2, 0.4]:
            swept = ev.evaluate(lenet, scale_to(tail, sigma))
            direct = ev.evaluate(
                lenet, tail_spec(lenet, LogNormalVariation(sigma), 1))
            assert swept.accuracies == direct.accuracies

    def test_prefix_layer_subset_matches_loop(self, lenet, tiny_test):
        """Stacked activations flowing into later *unstacked* layers (a
        prefix subset: only conv1 varied) must work and pair with the
        loop — plain-weight kernels broadcast over the sample axis."""
        first = "none;@0=lognormal:0.5"
        loop = MonteCarloEvaluator(tiny_test, n_samples=4, seed=6,
                                   vectorized=False)
        vec = MonteCarloEvaluator(tiny_test, n_samples=4, seed=6,
                                  vectorized=True)
        r_loop = loop.evaluate(lenet, first)
        r_vec = vec.evaluate(lenet, first)
        assert r_vec.accuracies == r_loop.accuracies

    def test_middle_layer_subset_matches_loop(self, mlp, blob_dataset):
        middle = "none;@0=lognormal:0.5"  # first linear only
        loop = MonteCarloEvaluator(blob_dataset, n_samples=4, seed=6,
                                   vectorized=False)
        vec = MonteCarloEvaluator(blob_dataset, n_samples=4, seed=6,
                                  vectorized=True)
        r_loop = loop.evaluate(mlp, middle)
        r_vec = vec.evaluate(mlp, middle)
        assert r_vec.accuracies == r_loop.accuracies
