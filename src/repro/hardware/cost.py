"""First-order energy / area / latency model for crossbar inference.

Per-component constants follow the ISAAC/PRIME ballpark (the paper cites
both as the platform class); they are deliberately coarse — the paper's
overhead metric is *weight count*, and this model exists to sanity-check
that the compensation layers' digital cost is indeed marginal relative to
the analog MAC energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.nn.graph import digital_subtrees, weighted_layers, weighted_layers_digital
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module


@dataclass
class CostReport:
    """Aggregated cost estimate for one inference."""

    analog_macs: int = 0
    digital_macs: int = 0
    crossbar_reads: int = 0
    energy_pj: float = 0.0
    area_mm2: float = 0.0
    per_layer: Dict[str, float] = field(default_factory=dict)

    @property
    def digital_fraction(self) -> float:
        total = self.analog_macs + self.digital_macs
        return self.digital_macs / total if total else 0.0


class CrossbarCostModel:
    """Estimate inference cost of a model at a given input resolution.

    Layers flagged ``digital = True`` (compensation generators and
    compensators) are charged at digital-MAC energy; everything else at
    analog-MAC energy plus ADC cost per crossbar read.
    """

    #: Energy per MAC on the crossbar and in digital logic, per ADC read
    #: (pJ), and array area per RRAM cell (um^2).
    ENERGY_ANALOG_MAC_PJ = 0.25
    ENERGY_DIGITAL_MAC_PJ = 1.0
    ENERGY_ADC_READ_PJ = 2.0
    AREA_PER_CELL_UM2 = 0.05

    def _layer_macs(self, layer: Module, spatial: int) -> int:
        if isinstance(layer, Conv2d):
            kh, kw = layer.kernel_size
            return layer.out_channels * layer.in_channels * kh * kw * spatial
        if isinstance(layer, Linear):
            return layer.out_features * layer.in_features
        return 0

    def estimate(self, model: Module, spatial_sites: int = 1) -> CostReport:
        """Cost of one forward pass.

        ``spatial_sites`` approximates output pixels per conv layer (a
        single shared number keeps the model first-order; the benches only
        compare relative costs).
        """
        report = CostReport()
        for name, layer in weighted_layers(model):
            macs = self._layer_macs(layer, spatial_sites)
            report.analog_macs += macs
            cells = layer.weight.size * 2  # differential pair
            report.area_mm2 += cells * self.AREA_PER_CELL_UM2 * 1e-6
            reads = spatial_sites if isinstance(layer, Conv2d) else 1
            report.crossbar_reads += reads
            energy = (macs * self.ENERGY_ANALOG_MAC_PJ
                      + reads * self.ENERGY_ADC_READ_PJ)
            report.energy_pj += energy
            report.per_layer[name] = energy
        for name, layer in digital_subtrees(model):
            for sub_name, sub in weighted_layers_digital(layer):
                macs = self._layer_macs(sub, spatial_sites)
                report.digital_macs += macs
                energy = macs * self.ENERGY_DIGITAL_MAC_PJ
                report.energy_pj += energy
                report.per_layer[f"{name}.{sub_name}"] = energy
        return report
