"""Tiling large weight matrices onto fixed-size physical crossbars.

Real arrays are bounded (typically 128x128 .. 512x512 cells); a layer's
weight matrix is partitioned into tiles, each programmed on its own
crossbar, and partial sums are accumulated digitally across column tiles.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.conductance import ConductanceMapper
from repro.hardware.converters import ADC, DAC
from repro.hardware.crossbar import Crossbar
from repro.utils.rng import spawn_rngs, SeedLike
from repro.variation.models import NoVariation
from repro.variation.spec import parse_spec, VariationLike


def tile_ranges(size: int, tile: int) -> List[Tuple[int, int]]:
    """[(start, stop), ...] covering ``size`` in chunks of at most ``tile``."""
    if tile <= 0:
        raise ValueError(f"tile size must be positive, got {tile}")
    return [(start, min(start + tile, size)) for start in range(0, size, tile)]


class TiledCrossbarArray:
    """A weight matrix spread over a grid of fixed-size crossbars.

    The tile grid is (ceil(out/tile_rows), ceil(in/tile_cols)); an MVM runs
    every tile and digitally accumulates partial sums along the input
    (column) direction — the standard ISAAC/PRIME dataflow.
    """

    def __init__(
        self,
        weights: np.ndarray,
        tile_rows: int = 128,
        tile_cols: int = 128,
        dac: Optional[DAC] = None,
        adc: Optional[ADC] = None,
        read_noise_sigma: float = 0.0,
        clip_conductance: bool = True,
        wire_resistance: float = 0.0,
    ) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        self.weights_shape = weights.shape
        self.row_ranges = tile_ranges(weights.shape[0], tile_rows)
        self.col_ranges = tile_ranges(weights.shape[1], tile_cols)
        # Share one mapper scale across tiles so partial sums are consistent.
        shared = ConductanceMapper(w_scale=float(np.abs(weights).max()) or 1.0)
        self.tiles: List[List[Crossbar]] = [
            [
                Crossbar(
                    weights[r0:r1, c0:c1],
                    mapper=shared,
                    dac=dac,
                    adc=adc,
                    read_noise_sigma=read_noise_sigma,
                    clip_conductance=clip_conductance,
                    wire_resistance=wire_resistance,
                )
                for (c0, c1) in self.col_ranges
            ]
            for (r0, r1) in self.row_ranges
        ]

    @property
    def num_tiles(self) -> int:
        return len(self.row_ranges) * len(self.col_ranges)

    @property
    def n_stacked(self) -> Optional[int]:
        """Stacked programming samples shared by all tiles (``None`` when
        the array holds a single programmed state)."""
        return self.tiles[0][0].n_stacked

    def _flat_tiles(self) -> List[Crossbar]:
        return [tile for row in self.tiles for tile in row]

    def program(
        self, variation: "VariationLike" = NoVariation(), seed: SeedLike = None
    ) -> "TiledCrossbarArray":
        """Program every tile with independent variation streams.

        ``variation`` is any spec form (model / grammar string / dict);
        it is parsed once and shared across tiles. A generator ``seed``
        is consumed for exactly one 63-bit draw (the tile spawn), which
        is what lets the Monte-Carlo engines drive per-draw programming
        from one shared stream.
        """
        variation = parse_spec(variation)
        rngs = iter(spawn_rngs(seed, self.num_tiles))
        for row in self.tiles:
            for tile in row:
                tile.program(variation, next(rngs))
        return self

    def program_batch(
        self, variation: "VariationLike", seeds: Sequence[SeedLike]
    ) -> "TiledCrossbarArray":
        """Program ``len(seeds)`` stacked draws on every tile.

        Sample ``i`` spawns per-tile streams from ``seeds[i]`` exactly as
        a scalar :meth:`program` call would (consuming one draw from a
        generator seed), so tile plane ``(i, t)`` is bitwise equal to what
        the sequential loop programs for draw ``i`` — the tiled half of
        the analog paired-seed contract.
        """
        variation = parse_spec(variation)
        seeds = list(seeds)
        if not seeds:
            raise ValueError("program_batch needs at least one seed")
        per_sample = [spawn_rngs(seed, self.num_tiles) for seed in seeds]
        for t, tile in enumerate(self._flat_tiles()):
            tile.program_batch(variation, [streams[t] for streams in per_sample])
        return self

    def seed_read_noise(self, seed: SeedLike) -> None:
        """Seed read-cycle noise with one independent stream per tile.

        Previously only :class:`Crossbar` exposed ``seed_read_noise``, so
        read noise on tiled (hence all analog-layer) arrays could not be
        seeded or paired across Monte-Carlo engines. A generator ``seed``
        is consumed for exactly one draw, like :meth:`program`.
        """
        rngs = iter(spawn_rngs(seed, self.num_tiles))
        for tile in self._flat_tiles():
            tile.seed_read_noise(next(rngs))

    def seed_read_noise_batch(self, seeds: Sequence[SeedLike]) -> None:
        """Per-sample read-noise streams for stacked operation: sample ``i``
        spawns its per-tile streams from ``seeds[i]`` exactly as
        :meth:`seed_read_noise` would, keeping stacked reads bitwise paired
        with the per-draw loop."""
        per_sample = [spawn_rngs(seed, self.num_tiles) for seed in seeds]
        for t, tile in enumerate(self._flat_tiles()):
            tile.seed_read_noise_batch([streams[t] for streams in per_sample])

    def calibrate_input_scale(self, samples: np.ndarray) -> float:
        """Calibrate every tile's DAC full-scale from representative
        activations (see :meth:`Crossbar.calibrate_input_scale`). One
        shared input range keeps partial sums consistent across column
        tiles."""
        scale = float(np.abs(np.asarray(samples, dtype=np.float64)).max())
        if scale <= 0:
            raise ValueError("calibration samples must contain non-zero values")
        for row in self.tiles:
            for tile in row:
                tile.input_scale = scale
        return scale

    def effective_weights(self, include_ir_drop: bool = True) -> np.ndarray:
        """Stitch the decoded per-tile weights back into the full matrix.

        Per-tile IR-drop attenuation is folded in by default so the stitch
        matches what :meth:`mvm` computes (see
        :meth:`Crossbar.effective_weights`); pass ``include_ir_drop=False``
        for the raw conductance decode. Returns ``(S, out, in)`` when the
        tiles are programmed with stacked samples.
        """
        n_stacked = self.n_stacked
        shape = (
            self.weights_shape
            if n_stacked is None
            else (n_stacked,) + self.weights_shape
        )
        out = np.zeros(shape)
        for (r0, r1), row in zip(self.row_ranges, self.tiles):
            for (c0, c1), tile in zip(self.col_ranges, row):
                out[..., r0:r1, c0:c1] = tile.effective_weights(include_ir_drop)
        return out

    def mvm(self, x: np.ndarray) -> np.ndarray:
        """Full-matrix MVM via per-tile analog MACs + digital accumulation.

        Stacked operation mirrors :meth:`Crossbar.mvm`: with stacked-
        programmed tiles and/or a stacked ``(S, batch, in)`` input the
        result is ``(S, batch, out)``, with the per-tile partial sums
        accumulated in the same order as the scalar path (so each sample
        slice stays bitwise equal to a per-draw sequential evaluation).
        """
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None]
        if x.ndim not in (2, 3):
            raise ValueError(f"mvm input must be 1-D, 2-D or 3-D, got {x.shape}")
        if x.shape[-1] != self.weights_shape[1]:
            raise ValueError(
                f"input dim {x.shape[-1]} does not match matrix cols "
                f"{self.weights_shape[1]}"
            )
        n_stacked = self.n_stacked
        if n_stacked is None and x.ndim == 3:
            n_stacked = x.shape[0]
        batch = x.shape[-2]
        lead = () if n_stacked is None else (n_stacked,)
        out = np.zeros(lead + (batch, self.weights_shape[0]))
        for (r0, r1), row in zip(self.row_ranges, self.tiles):
            acc = np.zeros(lead + (batch, r1 - r0))
            for (c0, c1), tile in zip(self.col_ranges, row):
                acc += tile.mvm(x[..., c0:c1])
            out[..., r0:r1] = acc
        return out[..., 0, :] if squeeze else out
