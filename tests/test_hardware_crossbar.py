"""Crossbar MVM: ideal exactness, converters, noise, programming variation."""

import contextlib
import warnings

import numpy as np
import pytest

from repro.hardware import ADC, DAC, Crossbar
from repro.hardware.crossbar import InputScaleClipWarning
from repro.variation import LogNormalVariation, StuckAtFaults


@pytest.fixture()
def weights():
    return np.random.default_rng(0).normal(size=(8, 12))


class TestIdealChain:
    def test_matches_dense_matmul(self, weights):
        xbar = Crossbar(weights)
        x = np.random.default_rng(1).normal(size=(5, 12))
        np.testing.assert_allclose(xbar.mvm(x), x @ weights.T, atol=1e-10)

    def test_vector_input_squeezed(self, weights):
        xbar = Crossbar(weights)
        x = np.random.default_rng(2).normal(size=12)
        out = xbar.mvm(x)
        assert out.shape == (8,)
        np.testing.assert_allclose(out, weights @ x, atol=1e-10)

    def test_effective_weights_nominal(self, weights):
        np.testing.assert_allclose(
            Crossbar(weights).effective_weights(), weights, atol=1e-12
        )

    def test_dim_mismatch_raises(self, weights):
        with pytest.raises(ValueError):
            Crossbar(weights).mvm(np.zeros(5))

    def test_non_2d_weights_raise(self):
        with pytest.raises(ValueError):
            Crossbar(np.zeros(4))


class TestConverters:
    def test_adc_quantization_bounded_error(self, weights):
        bits = 10
        xbar = Crossbar(weights, adc=ADC(bits))
        x = np.random.default_rng(3).normal(size=(4, 12))
        exact = x @ weights.T
        out = xbar.mvm(x)
        # Full scale spans worst-case column current; error <= 1 LSB of it.
        span = xbar.mapper.g_max - xbar.mapper.g_min
        full_scale = np.abs(x).max() * span * 12 / span * xbar._scale
        lsb = 2 * full_scale / (2**bits - 1)
        assert np.abs(out - exact).max() <= lsb

    def test_more_adc_bits_reduce_error(self, weights):
        x = np.random.default_rng(4).normal(size=(4, 12))
        exact = x @ weights.T
        errs = []
        for bits in (4, 8, 12):
            out = Crossbar(weights, adc=ADC(bits)).mvm(x)
            errs.append(np.abs(out - exact).max())
        assert errs[0] > errs[1] > errs[2]

    def test_dac_quantization_changes_input_resolution(self, weights):
        x = np.random.default_rng(5).normal(size=(4, 12))
        coarse = Crossbar(weights, dac=DAC(2)).mvm(x)
        fine = Crossbar(weights, dac=DAC(12)).mvm(x)
        exact = x @ weights.T
        assert np.abs(fine - exact).max() < np.abs(coarse - exact).max()

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            ADC(0)


class TestReadNoise:
    def test_zero_noise_deterministic(self, weights):
        xbar = Crossbar(weights)
        x = np.random.default_rng(6).normal(size=(3, 12))
        np.testing.assert_allclose(xbar.mvm(x), xbar.mvm(x))

    def test_noise_varies_between_reads(self, weights):
        xbar = Crossbar(weights, read_noise_sigma=0.01)
        xbar.seed_read_noise(0)
        x = np.random.default_rng(7).normal(size=(3, 12))
        a, b = xbar.mvm(x), xbar.mvm(x)
        assert not np.allclose(a, b)

    def test_negative_noise_raises(self, weights):
        with pytest.raises(ValueError):
            Crossbar(weights, read_noise_sigma=-0.1)


class TestProgramming:
    def test_lognormal_programming_changes_effective_weights(self, weights):
        xbar = Crossbar(weights, clip_conductance=False)
        xbar.program(LogNormalVariation(0.3), seed=0)
        eff = xbar.effective_weights()
        assert not np.allclose(eff, weights)
        # signs preserved by multiplicative model on each plane
        np.testing.assert_array_equal(np.sign(eff), np.sign(weights))

    def test_conductance_domain_matches_weight_domain_stats(self, weights):
        """With one-sided differential coding and no clipping, log-normal
        conductance variation is exactly weight-domain log-normal (the
        paper's eq. 1-2)."""
        xbar = Crossbar(weights, clip_conductance=False)
        xbar.program(LogNormalVariation(0.4), seed=1)
        eff = xbar.effective_weights()
        mask = np.abs(weights) > 1e-3
        theta = np.log(np.abs(eff[mask] / weights[mask]))
        assert theta.std() == pytest.approx(0.4, rel=0.25)

    def test_program_seed_reproducible(self, weights):
        a = Crossbar(weights).program(LogNormalVariation(0.3), seed=5)
        b = Crossbar(weights).program(LogNormalVariation(0.3), seed=5)
        np.testing.assert_allclose(a.effective_weights(), b.effective_weights())

    def test_clipping_bounds_conductance(self, weights):
        xbar = Crossbar(weights, clip_conductance=True)
        xbar.program(LogNormalVariation(1.5), seed=2)  # huge variation
        assert (xbar.g_pos <= xbar.mapper.g_max + 1e-18).all()
        assert (xbar.g_neg <= xbar.mapper.g_max + 1e-18).all()

    def test_stuck_at_faults_programmable(self, weights):
        xbar = Crossbar(weights)
        xbar.program(StuckAtFaults(rate_low=0.3), seed=3)
        eff = xbar.effective_weights()
        assert not np.allclose(eff, weights)


class TestInputScale:
    """The DAC full-scale is per-call-independent, so results cannot depend
    on which other inputs share a batch."""

    def test_mvm_batch_size_invariant(self, weights):
        xbar = Crossbar(weights, dac=DAC(6), adc=ADC(10))
        x = np.random.default_rng(8).normal(size=(10, 12))
        # One outlier row dominates |x|.max(); with a per-batch scale the
        # other rows' quantization would change when it is present.
        x[0] *= 50.0
        full = xbar.mvm(x)
        rows = np.stack([xbar.mvm(x[i]) for i in range(10)])
        np.testing.assert_array_equal(full, rows)
        split = np.concatenate([xbar.mvm(x[:3]), xbar.mvm(x[3:])])
        np.testing.assert_array_equal(full, split)

    def test_all_zero_input_returns_zero(self, weights):
        xbar = Crossbar(weights, dac=DAC(6), adc=ADC(8))
        out = xbar.mvm(np.zeros((4, 12)))
        np.testing.assert_array_equal(out, np.zeros((4, 8)))

    def test_default_scale_is_mapper_calibrated(self, weights):
        xbar = Crossbar(weights)
        assert xbar.input_scale is None
        # ideal converters: exact result regardless of the full scale
        x = np.random.default_rng(9).normal(size=(3, 12))
        np.testing.assert_allclose(xbar.mvm(x), x @ weights.T, atol=1e-10)

    def test_explicit_input_scale_clips_dac(self, weights):
        small = Crossbar(weights, dac=DAC(8))
        small.calibrate_input_scale(np.full(3, -0.1))
        assert small.input_scale == 0.1
        x = np.full((1, 12), 10.0)  # far beyond full scale
        # every input clips to 0.1, so the result matches driving 0.1
        expected = small.mvm(np.full((1, 12), 0.1))
        np.testing.assert_allclose(small.mvm(x), expected, atol=1e-12)

    def test_invalid_input_scale_raises(self, weights):
        """Calibration is the one way to set the DAC range, and it refuses
        an all-zero range on a crossbar and on a tiled array alike,
        leaving the weight-scale proxy in place."""
        from repro.hardware import TiledCrossbarArray
        xbar = Crossbar(weights)
        arr = TiledCrossbarArray(weights, tile_rows=4, tile_cols=5)
        for target in (xbar, arr):
            with pytest.raises(ValueError, match="non-zero"):
                target.calibrate_input_scale(np.zeros((2, 12)))
        assert xbar.input_scale is None
        assert all(t.input_scale is None for row in arr.tiles for t in row)

    def test_tiled_array_batch_invariant(self, weights):
        from repro.hardware import TiledCrossbarArray
        arr = TiledCrossbarArray(weights, tile_rows=4, tile_cols=5,
                                 dac=DAC(6), adc=ADC(10))
        x = np.random.default_rng(10).normal(size=(6, 12))
        x[0] *= 30.0
        full = arr.mvm(x)
        rows = np.stack([arr.mvm(x[i]) for i in range(6)])
        np.testing.assert_array_equal(full, rows)

    def test_calibrate_input_scale(self, weights):
        xbar = Crossbar(weights, dac=DAC(8))
        samples = np.random.default_rng(11).normal(size=(100, 12)) * 4.0
        scale = xbar.calibrate_input_scale(samples)
        assert scale == pytest.approx(np.abs(samples).max())
        assert xbar.input_scale == scale
        with pytest.raises(ValueError):
            xbar.calibrate_input_scale(np.zeros(4))

    def test_tiled_calibrate_input_scale(self, weights):
        from repro.hardware import TiledCrossbarArray
        arr = TiledCrossbarArray(weights, tile_rows=4, tile_cols=5, dac=DAC(8))
        arr.calibrate_input_scale(np.ones(3) * 2.5)
        assert all(t.input_scale == 2.5 for row in arr.tiles for t in row)


class TestClipWarning:
    """Regression (ROADMAP, PR 2 review): with an ideal DAC and a real ADC
    on the default weight-scale full-scale proxy, activations beyond the
    weight scale can silently clip in-range MACs — the crossbar must say
    so, once, and calibration must silence it."""

    def _big_inputs(self, xbar):
        # Same-signed large inputs drive worst-case column currents well
        # beyond the weight-scale-derived ADC full scale.
        return np.full((3, 12), 40.0 * xbar._scale)

    def test_ideal_dac_real_adc_overflow_warns_once(self, weights):
        xbar = Crossbar(weights, dac=DAC(None), adc=ADC(8))
        x = self._big_inputs(xbar)
        with pytest.warns(InputScaleClipWarning, match="calibrate_input_scale"):
            xbar.mvm(x)
        with warnings_none():
            xbar.mvm(x)  # warned once already

    def test_calibrated_scale_does_not_warn(self, weights):
        xbar = Crossbar(weights, dac=DAC(None), adc=ADC(8))
        x = self._big_inputs(xbar)
        xbar.calibrate_input_scale(x)
        with warnings_none():
            xbar.mvm(x)

    def test_explicit_input_scale_does_not_warn(self, weights):
        """A calibrated range wider than the activations does not warn
        either."""
        xbar = Crossbar(weights, dac=DAC(None), adc=ADC(8))
        xbar.calibrate_input_scale(np.full(2, 100.0))
        with warnings_none():
            xbar.mvm(self._big_inputs(xbar))

    def test_in_range_activations_do_not_warn(self, weights):
        xbar = Crossbar(weights, dac=DAC(None), adc=ADC(8))
        x = np.random.default_rng(12).uniform(-1, 1, size=(3, 12)) * xbar._scale
        with warnings_none():
            xbar.mvm(x)

    def test_ideal_adc_never_warns(self, weights):
        xbar = Crossbar(weights)  # ideal DAC and ADC: nothing clips
        with warnings_none():
            xbar.mvm(self._big_inputs(xbar))

    def test_empty_batch_survives_clip_check(self, weights):
        xbar = Crossbar(weights, dac=DAC(None), adc=ADC(8))
        out = xbar.mvm(np.zeros((0, 12)))
        assert out.shape == (0, 8)

    def test_read_noise_tail_does_not_warn(self, weights):
        """The check reads noise-free MAC currents: read-noise excursions
        past full scale are not an input-scale problem."""
        xbar = Crossbar(weights, dac=DAC(None), adc=ADC(8),
                        read_noise_sigma=5.0)
        x = np.random.default_rng(13).uniform(-1, 1, size=(50, 12)) * xbar._scale
        with warnings_none():
            xbar.mvm(x)


class TestStackedProgramming:
    """program_batch + stacked mvm: the crossbar half of the vectorized
    Monte-Carlo engine's analog paired-seed contract."""

    def _paired_streams(self, n, root=7):
        from repro.utils.rng import spawn_rngs
        return spawn_rngs(root, n), spawn_rngs(root, n)

    def test_planes_bitwise_equal_scalar_program(self, weights):
        stacked_rngs, scalar_rngs = self._paired_streams(3)
        xbar = Crossbar(weights)
        xbar.program_batch(LogNormalVariation(0.4), stacked_rngs)
        assert xbar.n_stacked == 3
        assert xbar.g_pos.shape == (3,) + weights.shape
        for i, rng in enumerate(scalar_rngs):
            ref = Crossbar(weights).program(LogNormalVariation(0.4), rng)
            np.testing.assert_array_equal(xbar.g_pos[i], ref.g_pos)
            np.testing.assert_array_equal(xbar.g_neg[i], ref.g_neg)

    def test_stacked_mvm_shared_input_bitwise(self, weights):
        """Each sample slice of the stacked chain (quantizers + read noise)
        is bitwise what the scalar chain computes for that draw."""
        stacked_rngs, scalar_rngs = self._paired_streams(4)
        x = np.random.default_rng(20).normal(size=(5, 12))
        xbar = Crossbar(weights, dac=DAC(6), adc=ADC(8), read_noise_sigma=0.01)
        xbar.program_batch(LogNormalVariation(0.3), stacked_rngs)
        xbar.seed_read_noise_batch(stacked_rngs)
        out = xbar.mvm(x)
        assert out.shape == (4, 5, 8)
        for i, rng in enumerate(scalar_rngs):
            ref = Crossbar(weights, dac=DAC(6), adc=ADC(8),
                           read_noise_sigma=0.01)
            ref.program(LogNormalVariation(0.3), rng)
            ref.seed_read_noise(rng)
            np.testing.assert_array_equal(out[i], ref.mvm(x))

    def test_stacked_mvm_stacked_input(self, weights):
        """A per-sample (S, batch, in) activation block pairs with driving
        each sample's rows through that sample's programmed state."""
        stacked_rngs, scalar_rngs = self._paired_streams(3, root=9)
        x = np.random.default_rng(21).normal(size=(3, 4, 12))
        xbar = Crossbar(weights)
        xbar.program_batch(LogNormalVariation(0.5), stacked_rngs)
        out = xbar.mvm(x)
        assert out.shape == (3, 4, 8)
        for i, rng in enumerate(scalar_rngs):
            ref = Crossbar(weights).program(LogNormalVariation(0.5), rng)
            np.testing.assert_array_equal(out[i], ref.mvm(x[i]))

    def test_stacked_effective_weights(self, weights):
        rngs, _ = self._paired_streams(2)
        xbar = Crossbar(weights, clip_conductance=False)
        xbar.program_batch(LogNormalVariation(0.3), rngs)
        eff = xbar.effective_weights()
        assert eff.shape == (2,) + weights.shape
        assert not np.allclose(eff[0], eff[1])

    def test_sample_axis_mismatch_raises(self, weights):
        rngs, _ = self._paired_streams(2)
        xbar = Crossbar(weights).program_batch(LogNormalVariation(0.2), rngs)
        with pytest.raises(ValueError, match="sample axis"):
            xbar.mvm(np.zeros((3, 5, 12)))

    def test_read_stream_count_mismatch_raises(self, weights):
        rngs, _ = self._paired_streams(2)
        xbar = Crossbar(weights, read_noise_sigma=0.01)
        xbar.program_batch(LogNormalVariation(0.2), rngs)
        xbar.seed_read_noise_batch([0])
        with pytest.raises(ValueError, match="read-noise streams"):
            xbar.mvm(np.zeros((4, 12)))

    def test_empty_seed_list_raises(self, weights):
        with pytest.raises(ValueError):
            Crossbar(weights).program_batch(LogNormalVariation(0.2), [])

    def test_scalar_program_resets_stacked_state(self, weights):
        rngs, _ = self._paired_streams(2)
        xbar = Crossbar(weights).program_batch(LogNormalVariation(0.2), rngs)
        xbar.program(seed=0)
        assert xbar.n_stacked is None
        assert xbar.mvm(np.zeros((3, 12))).shape == (3, 8)

    def test_scalar_program_drops_stale_read_streams(self, weights):
        """Reprogramming to single-state must also drop the per-sample
        read streams: a later stacked-*input* mvm (single-state array,
        (S, batch, in) activations) would otherwise consume the stale
        per-draw streams instead of the scalar one — unpaired results, or
        a misleading stream-count error for a different S."""
        rngs, _ = self._paired_streams(2)
        xbar = Crossbar(weights, read_noise_sigma=0.01)
        xbar.program_batch(LogNormalVariation(0.2), rngs)
        xbar.seed_read_noise_batch(rngs)
        xbar.program(seed=0)
        xbar.seed_read_noise(5)
        x = np.random.default_rng(23).normal(size=(3, 4, 12))
        out = xbar.mvm(x)  # S=3 != 2 stale streams: must not raise
        ref = Crossbar(weights, read_noise_sigma=0.01)
        ref.program(seed=0)
        ref.seed_read_noise(5)
        np.testing.assert_array_equal(out, ref.mvm(x))

    def test_stacked_vector_input_squeezed(self, weights):
        rngs, _ = self._paired_streams(2)
        xbar = Crossbar(weights).program_batch(LogNormalVariation(0.2), rngs)
        out = xbar.mvm(np.random.default_rng(22).normal(size=12))
        assert out.shape == (2, 8)


class TestEffectiveWeightsIRDrop:
    """Regression: effective_weights ignored the IR-drop attenuation mvm
    applies, so readers of effective weights disagreed with what the array
    actually computes."""

    def test_decode_matches_mvm(self):
        w = np.random.default_rng(30).normal(size=(6, 8))
        xbar = Crossbar(w, wire_resistance=300.0)
        x = np.random.default_rng(31).normal(size=(4, 8))
        # Ideal converters, no noise: the MAC is exactly x @ W_eff.T.
        np.testing.assert_allclose(
            xbar.mvm(x), x @ xbar.effective_weights().T, atol=1e-12
        )

    def test_attenuated_decode_differs_from_raw(self):
        w = np.ones((5, 5))
        xbar = Crossbar(w, wire_resistance=400.0)
        eff = xbar.effective_weights()
        raw = xbar.effective_weights(include_ir_drop=False)
        assert (np.abs(eff) <= np.abs(raw) + 1e-15).all()
        assert not np.allclose(eff, raw)

    def test_raw_decode_is_exact_round_trip(self):
        w = np.random.default_rng(32).normal(size=(5, 7))
        xbar = Crossbar(w, wire_resistance=250.0)
        np.testing.assert_allclose(
            xbar.effective_weights(include_ir_drop=False), w, atol=1e-12
        )

    def test_zero_resistance_identical(self):
        w = np.random.default_rng(33).normal(size=(4, 4))
        xbar = Crossbar(w)
        np.testing.assert_array_equal(
            xbar.effective_weights(), xbar.effective_weights(include_ir_drop=False)
        )

    def test_tiled_stitching_matches_mvm(self):
        from repro.hardware import TiledCrossbarArray
        w = np.random.default_rng(34).normal(size=(11, 13))
        arr = TiledCrossbarArray(w, tile_rows=4, tile_cols=5,
                                 wire_resistance=200.0)
        x = np.random.default_rng(35).normal(size=(3, 13))
        np.testing.assert_allclose(
            arr.mvm(x), x @ arr.effective_weights().T, atol=1e-12
        )


@contextlib.contextmanager
def warnings_none():
    """Context manager asserting no InputScaleClipWarning is emitted."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", InputScaleClipWarning)
        yield
