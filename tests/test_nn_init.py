"""Initialisation: He-normal statistics, and the orthogonal construction
the regularizer, spectral and tracer tests build their weights with."""

import numpy as np
import pytest

from repro.nn import init


class TestFans:
    def test_linear_shape(self):
        assert init._fan_in((4, 7)) == 7

    def test_conv_shape(self):
        assert init._fan_in((8, 3, 5, 5)) == 75

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            init._fan_in((3,))


class TestKaiming:
    def test_std_matches_fan_in(self):
        rng = np.random.default_rng(0)
        w = init.kaiming_normal((256, 512), rng)
        expected = np.sqrt(2.0 / 512)
        assert w.std() == pytest.approx(expected, rel=0.05)


class TestOrthogonal:
    """The ``orthogonal`` fixture (``conftest.py``)."""

    def test_rows_orthonormal_wide(self, orthogonal):
        rng = np.random.default_rng(0)
        w = orthogonal((4, 10), rng)
        np.testing.assert_allclose(w @ w.T, np.eye(4), atol=1e-10)

    def test_cols_orthonormal_tall(self, orthogonal):
        rng = np.random.default_rng(0)
        w = orthogonal((10, 4), rng)
        np.testing.assert_allclose(w.T @ w, np.eye(4), atol=1e-10)

    def test_gain_scales_singular_values(self, orthogonal):
        rng = np.random.default_rng(0)
        w = orthogonal((5, 5), rng, gain=0.3)
        s = np.linalg.svd(w, compute_uv=False)
        np.testing.assert_allclose(s, np.full(5, 0.3), atol=1e-10)

    def test_conv_shape_flattening(self, orthogonal):
        rng = np.random.default_rng(0)
        w = orthogonal((6, 2, 3, 3), rng)
        flat = w.reshape(6, -1)
        np.testing.assert_allclose(flat @ flat.T, np.eye(6), atol=1e-10)


class TestZeros:
    def test_zeros(self):
        assert (init.zeros((3, 3)) == 0).all()
