"""Analog Monte-Carlo engines: paired-seed equivalence and dispatch.

The crossbar-simulated counterpart of ``tests/test_evaluation.py``'s
engine tests: an analogized model must produce identical accuracy lists on
the reference per-draw loop, the stacked vectorized engine and the process
pool for a shared seed — with programming variation (composed specs
included), quantizing converters and per-read cycle noise all active.
"""

import copy

import numpy as np
import pytest

from repro.evaluation import (
    accuracy,
    layer_sweep,
    MonteCarloEvaluator,
    supports_sample_axis,
)
from repro.hardware import (
    ADC,
    analog_layers,
    analogize,
    DAC,
    has_read_noise,
)
from repro.models import MLP
from repro.variation import (
    LevelQuantization,
    LogNormalVariation,
    NoVariation,
)
from repro.variation.spec import LayerMap


@pytest.fixture()
def analog_lenet(lenet):
    """Analogized LeNet-5 with the full non-ideality chain active."""
    return analogize(lenet, tile_size=32, dac=DAC(6), adc=ADC(8),
                     read_noise_sigma=0.002)


@pytest.fixture()
def composed_spec():
    return LogNormalVariation(0.4) | LevelQuantization(4)


class TestEngineEquivalence:
    def test_vectorized_matches_loop(self, analog_lenet, tiny_test,
                                     composed_spec):
        loop = MonteCarloEvaluator(tiny_test, n_samples=5, seed=3,
                                   vectorized=False)
        vec = MonteCarloEvaluator(tiny_test, n_samples=5, seed=3,
                                  vectorized=True, chunk_samples=2)
        r_loop = loop.evaluate(analog_lenet, composed_spec)
        r_vec = vec.evaluate(analog_lenet, composed_spec)
        assert r_vec.accuracies == r_loop.accuracies
        assert len(r_vec.accuracies) == 5

    def test_pool_matches_loop(self, analog_lenet, tiny_test, composed_spec):
        """Per-draw and stacked pool workers both program the loop's
        conductances."""
        loop = MonteCarloEvaluator(tiny_test, n_samples=4, seed=5,
                                   vectorized=False)
        r_loop = loop.evaluate(analog_lenet, composed_spec)
        for vectorized in (False, True):
            pool = MonteCarloEvaluator(tiny_test, n_samples=4, seed=5,
                                       vectorized=vectorized, n_workers=2)
            r_pool = pool.evaluate(analog_lenet, composed_spec)
            assert r_pool.accuracies == r_loop.accuracies, vectorized

    def test_mlp_with_layermap_spec(self, mlp, blob_dataset):
        """Per-layer analog scenarios resolve through the same LayerMap
        machinery as the weight-domain engines."""
        model = analogize(mlp, tile_size=8, read_noise_sigma=0.001)
        spec = LayerMap(LogNormalVariation(0.5), {-1: NoVariation()})
        loop = MonteCarloEvaluator(blob_dataset, n_samples=4, seed=9,
                                   vectorized=False)
        vec = MonteCarloEvaluator(blob_dataset, n_samples=4, seed=9,
                                  vectorized=True, chunk_samples=3)
        r_loop = loop.evaluate(model, spec)
        r_vec = vec.evaluate(model, spec)
        assert r_vec.accuracies == r_loop.accuracies

    def test_read_noise_only_distribution(self, lenet, tiny_test):
        """NoVariation + read noise still yields a real distribution (the
        chip is reprogrammed nominally but every read cycle differs), and
        the engines stay paired on it."""
        model = analogize(lenet, tile_size=32, read_noise_sigma=0.05)
        assert has_read_noise(model)
        loop = MonteCarloEvaluator(tiny_test, n_samples=4, seed=1,
                                   vectorized=False)
        vec = MonteCarloEvaluator(tiny_test, n_samples=4, seed=1,
                                  vectorized=True, chunk_samples=2)
        r_loop = loop.evaluate(model, NoVariation())
        r_vec = vec.evaluate(model, NoVariation())
        assert len(r_loop.accuracies) == 4
        assert r_vec.accuracies == r_loop.accuracies


class TestAnalogDispatch:
    def test_analogized_model_supports_sample_axis(self, analog_lenet):
        assert supports_sample_axis(analog_lenet)

    def test_deterministic_chip_single_sample(self, lenet, tiny_test):
        """No programming variation, no read noise: the evaluation is
        deterministic, so the short-circuit returns one sample."""
        model = analogize(lenet, tile_size=32)
        ev = MonteCarloEvaluator(tiny_test, n_samples=10, seed=0,
                                 vectorized=True)
        result = ev.evaluate(model, NoVariation())
        assert len(result.accuracies) == 1
        assert result.accuracies[0] == accuracy(model, tiny_test)

    def test_layer_sweep_vectorized_matches_loop(self, analog_lenet,
                                                 tiny_test):
        """Fig. 9's tail specs run analog: every sweep point pairs."""
        loop = MonteCarloEvaluator(tiny_test, n_samples=3, seed=2,
                                   vectorized=False)
        vec = MonteCarloEvaluator(tiny_test, n_samples=3, seed=2,
                                  vectorized=True, chunk_samples=2)
        swept_loop = layer_sweep(analog_lenet, LogNormalVariation(0.5), loop)
        swept_vec = layer_sweep(analog_lenet, LogNormalVariation(0.5), vec)
        assert [i for i, _ in swept_vec] == [1, 2, 3, 4, 5]
        for (_, r_loop), (_, r_vec) in zip(swept_loop, swept_vec):
            assert r_vec.accuracies == r_loop.accuracies

    def test_programmed_state_restored(self, analog_lenet, tiny_test,
                                       composed_spec):
        """Evaluation must not permanently reprogram the deployed chip."""
        before = [
            (tile.g_pos.copy(), tile.g_neg.copy())
            for _, layer in analog_layers(analog_lenet)
            for row in layer.array.tiles
            for tile in row
        ]
        for vectorized in (False, True):
            ev = MonteCarloEvaluator(tiny_test, n_samples=3, seed=2,
                                     vectorized=vectorized)
            ev.evaluate(analog_lenet, composed_spec)
            tiles = [
                tile
                for _, layer in analog_layers(analog_lenet)
                for row in layer.array.tiles
                for tile in row
            ]
            for tile, (g_pos, g_neg) in zip(tiles, before):
                np.testing.assert_array_equal(tile.g_pos, g_pos)
                np.testing.assert_array_equal(tile.g_neg, g_neg)

    def test_deterministic_given_seed(self, analog_lenet, tiny_test,
                                      composed_spec):
        ev = MonteCarloEvaluator(tiny_test, n_samples=3, seed=42,
                                 vectorized=True)
        a = ev.evaluate(analog_lenet, composed_spec)
        b = ev.evaluate(analog_lenet, composed_spec)
        assert a.accuracies == b.accuracies

    def test_compensated_analogized_model(self, lenet, tiny_test):
        """Digital compensation wrappers stay digital; the analog children
        still ride the stacked engine, paired with the loop."""
        from repro.compensation import CompensationPlan
        comp = CompensationPlan({0: 0.5}).apply(lenet, seed=0)
        model = analogize(comp, tile_size=32, read_noise_sigma=0.001)
        assert supports_sample_axis(model)
        loop = MonteCarloEvaluator(tiny_test, n_samples=3, seed=8,
                                   vectorized=False)
        vec = MonteCarloEvaluator(tiny_test, n_samples=3, seed=8,
                                  vectorized=True, chunk_samples=2)
        spec = LogNormalVariation(0.4)
        r_loop = loop.evaluate(model, spec)
        r_vec = vec.evaluate(model, spec)
        assert r_vec.accuracies == r_loop.accuracies
