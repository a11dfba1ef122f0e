"""The smoothing primitive behind synthetic prototypes."""

import numpy as np

from repro.data.augment import smooth2d


class TestSmooth2d:
    def test_preserves_shape(self):
        img = np.random.default_rng(0).normal(size=(3, 8, 8))
        assert smooth2d(img).shape == img.shape

    def test_constant_image_fixed_point(self):
        img = np.full((1, 6, 6), 3.0)
        np.testing.assert_allclose(smooth2d(img), img)

    def test_reduces_high_frequency_energy(self):
        rng = np.random.default_rng(1)
        img = rng.normal(size=(1, 32, 32))
        smoothed = smooth2d(img)
        # total variation (sum of adjacent differences) must drop
        def tv(x):
            return np.abs(np.diff(x, axis=-1)).sum() + np.abs(
                np.diff(x, axis=-2)).sum()
        assert tv(smoothed) < tv(img)

    def test_approaches_mean_with_many_passes(self):
        img = np.random.default_rng(3).normal(size=(1, 8, 8))
        heavy = img
        for _ in range(100):
            heavy = smooth2d(heavy)
        assert heavy.std() < 0.3 * img.std()
