"""Paired-seed engine equivalence for compensated models.

PR 1 established the vectorized Monte-Carlo engine's contract for plain
models; these tests extend it to models carrying compensation wrappers
(sample-aware since the wrappers handle stacked activations) and to the
RL environment's reward evaluation, which must be invariant to the
engine that computes it.
"""

import numpy as np

from repro.compensation import CompensationPlan, CompensationTrainer
from repro.core.config import CompensationConfig, EvalConfig
from repro.evaluation import MonteCarloEvaluator, supports_sample_axis
from repro.rl.env import CompensationEnv
from repro.variation import LogNormalVariation


def _compensated_lenet(lenet, seed=1):
    """LeNet-5 with conv and linear layers compensated (plan of Fig. 5)."""
    return CompensationPlan({0: 1.0, 1: 0.5, 3: 0.5}).apply(lenet, seed=seed)


class TestCompensatedEligibility:
    def test_compensated_lenet_is_sample_aware(self, lenet):
        assert supports_sample_axis(_compensated_lenet(lenet))

    def test_compensated_mlp_is_sample_aware(self, mlp):
        comp = CompensationPlan({0: 1.0, 1: 0.5}).apply(mlp, seed=1)
        assert supports_sample_axis(comp)

    def test_vectorized_backend_actually_runs(self, lenet, tiny_test, monkeypatch):
        """The evaluator must take the vectorized backend for a compensated
        model — not silently fall back to the loop."""
        from repro.evaluation import executor

        comp = _compensated_lenet(lenet)
        ev = MonteCarloEvaluator(tiny_test, n_samples=3, seed=0,
                                 vectorized=True)
        comp.eval()
        assert ev.plan(comp, LogNormalVariation(0.4)).backend == "vectorized"
        called = []
        original = executor._stacked_accuracies
        monkeypatch.setattr(
            executor, "_stacked_accuracies",
            lambda *a, **k: called.append(True) or original(*a, **k),
        )
        ev.evaluate(comp, LogNormalVariation(0.4))
        assert called


class TestCompensatedEngineEquivalence:
    """Vectorized-vs-loop paired-seed equality with wrappers in the tree."""

    def test_compensated_lenet_matches_loop(self, lenet, tiny_test):
        comp = _compensated_lenet(lenet)
        loop = MonteCarloEvaluator(tiny_test, n_samples=5, seed=3,
                                   vectorized=False)
        vec = MonteCarloEvaluator(tiny_test, n_samples=5, seed=3,
                                  vectorized=True, chunk_samples=2)
        variation = LogNormalVariation(0.4)
        assert (vec.evaluate(comp, variation).accuracies
                == loop.evaluate(comp, variation).accuracies)

    def test_compensated_mlp_matches_loop(self, mlp, blob_dataset):
        comp = CompensationPlan({0: 1.0, 1: 0.5}).apply(mlp, seed=1)
        loop = MonteCarloEvaluator(blob_dataset, n_samples=7, seed=11,
                                   vectorized=False)
        vec = MonteCarloEvaluator(blob_dataset, n_samples=7, seed=11,
                                  vectorized=True, chunk_samples=3)
        variation = LogNormalVariation(0.5)
        assert (vec.evaluate(comp, variation).accuracies
                == loop.evaluate(comp, variation).accuracies)

    def test_trained_compensation_matches_loop(self, lenet, tiny_mnist):
        """After actual compensation training (the state the RL reward
        evaluates), the engines must still pair."""
        train, test = tiny_mnist
        comp = CompensationPlan({0: 0.5}).apply(lenet, seed=1)
        CompensationTrainer(comp, LogNormalVariation(0.4), lr=3e-3,
                            seed=0).fit(train, epochs=1, batch_size=16)
        loop = MonteCarloEvaluator(test, n_samples=4, seed=5,
                                   vectorized=False)
        vec = MonteCarloEvaluator(test, n_samples=4, seed=5,
                                  vectorized=True)
        variation = LogNormalVariation(0.4)
        assert (vec.evaluate(comp, variation).accuracies
                == loop.evaluate(comp, variation).accuracies)

    def test_prefix_subset_with_compensation_matches_loop(self, lenet, tiny_test):
        """Only the first (compensated) conv varied: stacked activations
        flow through later unstacked compensated/plain layers."""
        comp = _compensated_lenet(lenet)
        first = "none;@0=lognormal:0.5"
        loop = MonteCarloEvaluator(tiny_test, n_samples=4, seed=6,
                                   vectorized=False)
        vec = MonteCarloEvaluator(tiny_test, n_samples=4, seed=6,
                                  vectorized=True)
        assert (vec.evaluate(comp, first).accuracies
                == loop.evaluate(comp, first).accuracies)

    def test_weights_restored_after_vectorized(self, lenet, tiny_test):
        comp = _compensated_lenet(lenet)
        before = {n: p.data.copy() for n, p in comp.named_parameters()}
        MonteCarloEvaluator(tiny_test, n_samples=3, seed=0,
                            vectorized=True).evaluate(
            comp, LogNormalVariation(0.5)
        )
        for name, param in comp.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])


class TestRewardEngineInvariance:
    """rl/env.py rewards must not depend on the evaluation engine."""

    @staticmethod
    def _env(lenet, tiny_mnist, **eval_kwargs):
        train, test = tiny_mnist
        return CompensationEnv(
            lenet,
            candidate_layers=[0, 1],
            variation=LogNormalVariation(0.4),
            train_data=train,
            eval_data=test,
            comp_config=CompensationConfig(epochs=1, seed=0),
            eval_config=EvalConfig(n_samples=4, search_samples=3, seed=7,
                                   **eval_kwargs),
            overhead_limit=2.0,  # never skip: always train + evaluate
        )

    def test_rewards_vectorized_vs_loop(self, lenet, tiny_mnist):
        """The env's own (vectorized) evaluator and a swapped-in per-draw
        loop evaluator give the same reward."""
        ratios = [0.5, 0.25]
        out_vec = self._env(lenet, tiny_mnist).step(ratios)
        looped = self._env(lenet, tiny_mnist)
        looped._evaluator = MonteCarloEvaluator(
            tiny_mnist[1], n_samples=3, seed=7, vectorized=False
        )
        out_loop = looped.step(ratios)
        assert out_vec.reward == out_loop.reward
        assert out_vec.accuracy_mean == out_loop.accuracy_mean
        assert out_vec.accuracy_std == out_loop.accuracy_std

    def test_env_evaluator_follows_eval_config(self, lenet, tiny_mnist):
        env = self._env(lenet, tiny_mnist, chunk_samples=2, tolerance=0.1)
        evaluator = env._evaluator
        assert evaluator.vectorized is True
        assert evaluator.n_workers == 0
        assert evaluator.n_samples == 3
        assert evaluator.seed == 7
        assert (evaluator.chunk_samples, evaluator.tolerance) == (2, 0.1)


class TestMultiDrawCompensationTraining:
    """Compensation training takes one variation draw per batch."""

    def test_single_draw_default_unchanged(self, lenet, tiny_mnist):
        """The paper's one-draw-per-batch protocol consumes the trainer
        rng the same way on every run."""
        train, _ = tiny_mnist
        losses = []
        for _ in range(2):
            comp = CompensationPlan({0: 0.5}).apply(lenet, seed=1)
            t = CompensationTrainer(comp, LogNormalVariation(0.4), lr=1e-3,
                                    seed=0)
            losses.append(t.fit(train, epochs=1, batch_size=16).loss)
        assert losses[0] == losses[1]
