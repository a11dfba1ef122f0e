"""Lipschitz machinery: bounds (eq. 10), spectral norms, regularizer (eq. 11)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.nn as nn
from repro.lipschitz import (
    OrthogonalityRegularizer, lambda_bound, layer_spectral_norms,
    lognormal_bound, spectral_norm, weight_as_matrix,
)
from repro.optim import Adam


class TestBounds:
    def test_sigma_zero_bound_is_one(self):
        assert lognormal_bound(0.0) == pytest.approx(1.0)

    def test_paper_sigma_half_value(self):
        # e^{0.125} + 3 sqrt((e^{0.25}-1) e^{0.25})
        s2 = 0.25
        expected = math.exp(s2 / 2) + 3 * math.sqrt(
            (math.exp(s2) - 1) * math.exp(s2)
        )
        assert lognormal_bound(0.5) == pytest.approx(expected)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 1.5), st.floats(0.001, 1.5))
    def test_bound_monotone_in_sigma(self, a, b):
        lo, hi = sorted([a, a + b])
        assert lognormal_bound(hi) >= lognormal_bound(lo)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.01, 1.0))
    def test_lambda_inverse_of_bound(self, sigma):
        assert lambda_bound(sigma) == pytest.approx(1.0 / lognormal_bound(sigma))

    def test_negative_sigma_raises(self):
        with pytest.raises(ValueError):
            lognormal_bound(-0.1)


class TestSpectral:
    def test_matches_numpy_svd(self):
        w = np.random.default_rng(0).normal(size=(6, 9))
        assert spectral_norm(w) == pytest.approx(
            np.linalg.svd(w, compute_uv=False)[0]
        )

    def test_conv_weight_flattened(self):
        w = np.random.default_rng(1).normal(size=(4, 3, 3, 3))
        assert spectral_norm(w) == pytest.approx(
            np.linalg.svd(w.reshape(4, -1), compute_uv=False)[0]
        )

    def test_weight_as_matrix_rejects_rank3(self):
        with pytest.raises(ValueError):
            weight_as_matrix(np.zeros((2, 2, 2)))

    def test_orthogonal_matrix_norm_is_gain(self, orthogonal):
        w = orthogonal((6, 6), np.random.default_rng(0), gain=0.5)
        assert spectral_norm(w) == pytest.approx(0.5)


class TestRegularizer:
    def test_zero_penalty_at_scaled_orthogonal(self, orthogonal):
        """A model whose every weight is lambda-scaled orthogonal has (near)
        zero penalty — the regularizer's fixed point."""
        lam = 0.7
        model = nn.Sequential(nn.Linear(8, 8, seed=0), nn.ReLU(),
                              nn.Linear(8, 8, seed=1))
        for layer in (model[0], model[2]):
            layer.weight.data = orthogonal(
                (8, 8), np.random.default_rng(0), gain=lam
            )
        reg = OrthogonalityRegularizer(lam, beta=1.0)
        assert reg.penalty(model).item() == pytest.approx(0.0, abs=1e-12)

    def test_penalty_positive_otherwise(self, mlp):
        reg = OrthogonalityRegularizer(0.5, beta=1.0)
        assert reg.penalty(mlp).item() > 0

    def test_gradient_descends_toward_lambda(self):
        """Optimizing only the penalty must drive the spectral norm to
        lambda."""
        lam = 0.6
        model = nn.Sequential(nn.Linear(6, 6, seed=3))
        reg = OrthogonalityRegularizer(lam, beta=1.0)
        opt = Adam([model[0].weight], lr=0.02)
        for _ in range(400):
            opt.zero_grad()
            reg.penalty(model).backward()
            opt.step()
        # Adam hovers slightly above the fixed point; 0.05 absolute slack.
        assert spectral_norm(model[0].weight.data) == pytest.approx(lam, abs=0.05)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            OrthogonalityRegularizer(0.0)
        with pytest.raises(ValueError):
            OrthogonalityRegularizer(1.0, beta=-1.0)

    def test_no_weighted_layers_raises(self):
        with pytest.raises(ValueError):
            OrthogonalityRegularizer(1.0).penalty(nn.ReLU())

    def test_beta_scales_penalty(self, mlp):
        p1 = OrthogonalityRegularizer(0.5, beta=1.0).penalty(mlp).item()
        p2 = OrthogonalityRegularizer(0.5, beta=2.0).penalty(mlp).item()
        assert p2 == pytest.approx(2 * p1)


class TestEstimates:
    def test_layer_norms_keys(self, mlp):
        norms = layer_spectral_norms(mlp)
        assert set(norms) == {"net.1", "net.3"}
