"""Variation models: closed-form statistics and behavioural contracts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.variation import (
    ColumnCorrelatedVariation, GaussianVariation, LogNormalVariation,
    NoVariation, StateDependentVariation, StuckAtFaults,
)


class TestLogNormal:
    def test_sigma_zero_identity(self):
        w = np.random.default_rng(0).normal(size=(5, 5))
        out = LogNormalVariation(0.0).perturb(w, np.random.default_rng(1))
        np.testing.assert_allclose(out, w)

    def test_negative_sigma_raises(self):
        with pytest.raises(ValueError):
            LogNormalVariation(-0.1)

    def test_preserves_sign(self):
        w = np.array([-1.0, 2.0, -3.0, 4.0])
        out = LogNormalVariation(0.5).perturb(w, np.random.default_rng(2))
        np.testing.assert_array_equal(np.sign(out), np.sign(w))

    def test_zero_weights_stay_zero(self):
        w = np.zeros(10)
        out = LogNormalVariation(0.5).perturb(w, np.random.default_rng(3))
        np.testing.assert_allclose(out, 0.0)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(0.05, 0.8))
    def test_multiplier_stats_match_closed_form(self, sigma):
        """Empirical mean/std of exp(theta) must match the log-normal
        closed form used by the Lipschitz bound (eq. 10)."""
        model = LogNormalVariation(sigma)
        w = np.ones(200_000)
        out = model.perturb(w, np.random.default_rng(99))
        mean, std = model.multiplier_stats()
        assert out.mean() == pytest.approx(mean, rel=0.02)
        assert out.std() == pytest.approx(std, rel=0.05)

    def test_scaled_changes_sigma(self):
        assert LogNormalVariation(0.2).scaled(2.5).sigma == pytest.approx(0.5)

    def test_magnitude(self):
        assert LogNormalVariation(0.3).magnitude == 0.3

    def test_independent_draws_per_weight(self):
        w = np.ones(1000)
        out = LogNormalVariation(0.5).perturb(w, np.random.default_rng(0))
        assert np.unique(out).size > 990


class TestGaussian:
    def test_relative_to_max_weight(self):
        w = np.full(100_000, 2.0)
        out = GaussianVariation(0.1).perturb(w, np.random.default_rng(0))
        assert (out - w).std() == pytest.approx(0.1 * 2.0, rel=0.05)

    def test_zero_matrix_unchanged(self):
        w = np.zeros(10)
        np.testing.assert_allclose(
            GaussianVariation(0.5).perturb(w, np.random.default_rng(0)), w
        )

    def test_sigma_zero_identity(self):
        w = np.ones(5)
        np.testing.assert_allclose(
            GaussianVariation(0.0).perturb(w, np.random.default_rng(0)), w
        )


class TestStateDependent:
    def test_small_weights_less_perturbed(self):
        rng = np.random.default_rng(0)
        w = np.concatenate([np.full(50_000, 0.01), np.full(50_000, 1.0)])
        out = StateDependentVariation(0.05, 0.6).perturb(w, rng)
        rel = np.abs(np.log(out / w))
        small_dev = rel[:50_000].std()
        large_dev = rel[50_000:].std()
        assert large_dev > 3 * small_dev

    def test_negative_sigma_raises(self):
        with pytest.raises(ValueError):
            StateDependentVariation(-0.1, 0.5)


class TestStuckAt:
    def test_rates_respected(self):
        w = np.ones(200_000)
        model = StuckAtFaults(rate_low=0.05, rate_high=0.02)
        out = model.perturb(w, np.random.default_rng(0))
        assert (out == 0).mean() == pytest.approx(0.05, abs=0.005)
        # stuck-high saturates to max|w| = 1 here, same as nominal; count
        # via a scaled matrix instead
        w2 = np.full(200_000, 0.5)
        w2[0] = 1.0  # defines the scale
        out2 = model.perturb(w2, np.random.default_rng(1))
        assert (out2 == 1.0).mean() == pytest.approx(0.02, abs=0.005)

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            StuckAtFaults(rate_low=1.2)
        with pytest.raises(ValueError):
            StuckAtFaults(rate_low=0.7, rate_high=0.6)

    def test_sign_preserved_for_stuck_high(self):
        w = -np.ones(1000)
        out = StuckAtFaults(rate_high=0.5).perturb(w, np.random.default_rng(0))
        assert (out <= 0).all()


class TestColumnCorrelated:
    def test_shared_multiplier_per_output_row(self):
        """Every weight feeding one output unit (axis-0 slice) scales by
        the same factor; different units draw independent factors."""
        w = np.random.default_rng(0).normal(size=(6, 5)) + 3.0
        out = ColumnCorrelatedVariation(0.4).perturb(
            w, np.random.default_rng(7))
        factors = out / w
        per_row = factors.mean(axis=1)
        np.testing.assert_allclose(
            factors, np.broadcast_to(per_row[:, None], factors.shape),
            rtol=1e-12)
        assert np.unique(np.round(per_row, 12)).size == 6

    def test_conv_weight_shares_per_filter(self):
        w = np.random.default_rng(1).normal(size=(4, 3, 2, 2)) + 2.0
        out = ColumnCorrelatedVariation(0.3).perturb(
            w, np.random.default_rng(8))
        factors = (out / w).reshape(4, -1)
        np.testing.assert_allclose(
            factors, np.broadcast_to(factors[:, :1], factors.shape),
            rtol=1e-12)

    def test_consumes_one_draw_per_output(self):
        """rng consumption is shape[0] normals — the paired-seed unit the
        engines rely on (same stream state afterwards, every engine)."""
        w = np.ones((5, 7))
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        ColumnCorrelatedVariation(0.5).perturb(w, a)
        b.normal(0.0, 0.5, size=5)
        assert a.integers(2**63) == b.integers(2**63)

    def test_sigma_zero_identity_and_validation(self):
        w = np.random.default_rng(0).normal(size=(3, 3))
        assert ColumnCorrelatedVariation(0.0).perturb(
            w, np.random.default_rng(1)) is w
        with pytest.raises(ValueError):
            ColumnCorrelatedVariation(-0.1)

    def test_scaled_and_magnitude(self):
        assert ColumnCorrelatedVariation(0.2).scaled(2.0).sigma == \
            pytest.approx(0.4)
        assert ColumnCorrelatedVariation(0.2).magnitude == 0.2


def _out_of_place(model, weights, rng):
    """The draw expressions before the in-place rewrite, verbatim."""
    if isinstance(model, LogNormalVariation):
        theta = rng.normal(0.0, model.sigma, size=weights.shape)
        return np.asarray(weights * np.exp(theta), dtype=np.float64)
    scale = float(np.abs(weights).max())
    if isinstance(model, GaussianVariation):
        noise = rng.normal(0.0, model.sigma * scale, size=weights.shape)
        return np.asarray(weights + noise, dtype=np.float64)
    level = np.abs(weights) / scale
    sigma = model.sigma_low + (model.sigma_high - model.sigma_low) * level
    theta = rng.normal(0.0, 1.0, size=weights.shape) * sigma
    return np.asarray(weights * np.exp(theta), dtype=np.float64)


class TestInPlaceDraws:
    """The draws compute in place on their fresh sample: byte-equal to the
    out-of-place expressions, float64 for float32 weights too, and never
    a view of (or a write to) the weights."""

    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from([LogNormalVariation(0.5), GaussianVariation(0.2),
                               StateDependentVariation(0.1, 0.6)]),
        dtype=st.sampled_from([np.float64, np.float32]),
        shape=st.lists(st.integers(1, 6), min_size=0, max_size=4).map(tuple),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_out_of_place_expression(self, model, dtype, shape, seed):
        weights = np.random.default_rng(seed).normal(size=shape).astype(dtype)
        nominal = weights.copy()
        out = model.perturb(weights, np.random.default_rng(seed + 1))
        expected = _out_of_place(model, nominal, np.random.default_rng(seed + 1))
        assert out.dtype == expected.dtype == np.float64
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        assert not np.shares_memory(out, weights)
        assert weights.tobytes() == nominal.tobytes()


class TestNoVariation:
    def test_identity_and_magnitude(self):
        w = np.random.default_rng(0).normal(size=(3, 3))
        model = NoVariation()
        assert model.perturb(w, np.random.default_rng(1)) is w
        assert model.magnitude == 0.0


class TestDeterminism:
    @pytest.mark.parametrize("model", [
        LogNormalVariation(0.5),
        GaussianVariation(0.3),
        ColumnCorrelatedVariation(0.4),
        StateDependentVariation(0.1, 0.5),
        StuckAtFaults(0.1, 0.1),
    ])
    def test_same_seed_same_draw(self, model):
        w = np.random.default_rng(0).normal(size=(10, 10))
        a = model.perturb(w, np.random.default_rng(42))
        b = model.perturb(w, np.random.default_rng(42))
        np.testing.assert_allclose(a, b)
