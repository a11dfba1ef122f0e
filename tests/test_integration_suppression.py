"""Integration: the paper's suppression mechanism observed end to end.

These tests tie together training, the regularizer, variation injection and
the tracer on small-but-real workloads, asserting the *mechanistic* claims:
regularization shrinks the Lipschitz product, suppressed networks degrade
less, and error profiles stop growing with depth.
"""

import math

import numpy as np
import pytest

from repro.core import Trainer
from repro.data import synth_mnist
from repro.evaluation import (
    ErrorPropagationTracer, MonteCarloEvaluator, accuracy,
)
from repro.lipschitz import (
    OrthogonalityRegularizer, lambda_bound, layer_spectral_norms,
)
from repro.models import LeNet5
from repro.optim import Adam
from repro.variation import LogNormalVariation


@pytest.fixture(scope="module")
def trained_pair():
    """(plain, regularized) LeNets trained identically on tiny mnist."""
    train, test = synth_mnist(train_per_class=24, test_per_class=12)
    models = {}
    for name, reg in (
        ("plain", None),
        ("regularized", OrthogonalityRegularizer(lambda_bound(0.5), beta=1.0)),
    ):
        model = LeNet5(num_classes=10, in_channels=1, input_size=16,
                       width_multiplier=1.0, seed=0)
        opt = Adam(list(model.parameters()), lr=3e-3)
        Trainer(model, opt, regularizer=reg, seed=0).fit(
            train, epochs=12, batch_size=32
        )
        models[name] = model
    return models, train, test


class TestSuppressionMechanism:
    def test_both_models_learn(self, trained_pair):
        models, _, test = trained_pair
        assert accuracy(models["plain"], test) > 0.7
        assert accuracy(models["regularized"], test) > 0.7

    def test_regularization_shrinks_lipschitz_product(self, trained_pair):
        """The composition bound of eq. (5): the product of the layers'
        spectral norms."""
        models, _, _ = trained_pair

        def product(model):
            return math.prod(layer_spectral_norms(model).values())

        assert product(models["regularized"]) < product(models["plain"])

    def test_regularization_shrinks_every_layer_worstcase(self, trained_pair):
        models, _, _ = trained_pair
        plain = layer_spectral_norms(models["plain"])
        regd = layer_spectral_norms(models["regularized"])
        assert max(regd.values()) < max(plain.values())

    def test_suppressed_model_more_robust(self, trained_pair):
        """The core Fig.-2-vs-Fig.-7 contrast at unit scale: same
        architecture, same data, regularized training retains more accuracy
        under sigma=0.5 variations."""
        models, _, test = trained_pair
        ev = MonteCarloEvaluator(test, n_samples=12, seed=3)
        var = LogNormalVariation(0.5)
        plain = ev.evaluate(models["plain"], var)
        regd = ev.evaluate(models["regularized"], var)
        # normalize by each model's clean accuracy (fair comparison)
        plain_ratio = plain.mean / accuracy(models["plain"], test)
        regd_ratio = regd.mean / accuracy(models["regularized"], test)
        assert regd_ratio > plain_ratio - 0.02

    def test_error_profile_flatter_when_regularized(self, trained_pair):
        """Fig. 4's picture: relative feature error accumulated at the last
        layer is smaller for the regularized network."""
        models, train, _ = trained_pair
        x = train.images[:16]
        var = LogNormalVariation(0.4)
        plain_profile = ErrorPropagationTracer(
            models["plain"]).amplification_profile(x, var, n_samples=6, seed=0)
        regd_profile = ErrorPropagationTracer(
            models["regularized"]).amplification_profile(x, var, n_samples=6,
                                                         seed=0)
        assert regd_profile[-1] < plain_profile[-1]


class TestLambdaBoundEndToEnd:
    def test_bound_holds_under_sampled_variations(self, orthogonal):
        """For a layer trained to ||W|| ~= lambda, the *sampled* perturbed
        spectral norm stays below k=1 in the vast majority of draws — the
        3-sigma construction of eq. (10)."""
        from repro.lipschitz.spectral import spectral_norm

        sigma = 0.3
        lam = lambda_bound(sigma)
        rng = np.random.default_rng(0)
        w = orthogonal((12, 12), rng, gain=lam)
        var = LogNormalVariation(sigma)
        exceed = 0
        n = 200
        for i in range(n):
            perturbed_w = var.perturb(w, np.random.default_rng(i))
            if spectral_norm(perturbed_w) > 1.0:
                exceed += 1
        # mu+3sigma is an elementwise bound, not an exact operator bound,
        # but violations must be rare.
        assert exceed / n < 0.2
