"""Conductance mapping: round-trip exactness and physical constraints."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import ConductanceMapper


class TestEncodeDecode:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_roundtrip_exact(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(6, 7))
        mapper = ConductanceMapper()
        g_pos, g_neg, scale = mapper.encode(w)
        decoded = mapper.decode(g_pos, g_neg, scale)
        np.testing.assert_allclose(decoded, w, atol=1e-12 * max(1, np.abs(w).max()))

    def test_conductances_within_window(self):
        rng = np.random.default_rng(0)
        mapper = ConductanceMapper()
        assert (mapper.g_min, mapper.g_max) == (1e-6, 100e-6)
        g_pos, g_neg, _ = mapper.encode(rng.normal(size=(4, 4)))
        for g in (g_pos, g_neg):
            assert (g >= 1e-6 - 1e-18).all()
            assert (g <= 100e-6 + 1e-18).all()

    def test_differential_one_side_at_gmin(self):
        """For any weight, at least one of (G+, G-) sits at g_min — the
        standard one-sided differential coding."""
        rng = np.random.default_rng(1)
        mapper = ConductanceMapper()
        g_pos, g_neg, _ = mapper.encode(rng.normal(size=(5, 5)))
        at_min = (np.isclose(g_pos, mapper.g_min) |
                  np.isclose(g_neg, mapper.g_min))
        assert at_min.all()

    def test_saturation_beyond_scale(self):
        mapper = ConductanceMapper(w_scale=1.0)
        g_pos, g_neg, scale = mapper.encode(np.array([[5.0]]))
        decoded = mapper.decode(g_pos, g_neg, scale)
        assert decoded[0, 0] == pytest.approx(1.0)  # clipped to scale

    def test_zero_matrix_scale_fallback(self):
        mapper = ConductanceMapper()
        g_pos, g_neg, scale = mapper.encode(np.zeros((2, 2)))
        assert scale == 1.0
        np.testing.assert_allclose(mapper.decode(g_pos, g_neg, scale), 0.0)

    def test_explicit_scale_used(self):
        mapper = ConductanceMapper(w_scale=4.0)
        assert mapper.scale_for(np.array([[1.0]])) == 4.0

    def test_clip(self):
        mapper = ConductanceMapper()
        out = mapper.clip(np.array([0.5e-6, 50e-6, 300e-6]))
        np.testing.assert_allclose(out, [1e-6, 50e-6, 100e-6])
