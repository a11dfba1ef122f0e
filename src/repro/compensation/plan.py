"""Compensation plans: which layers get compensation, and how wide.

A plan is the environment state of the paper's RL search (Fig. 6): a ratio
``S_i`` per layer, where ``S_i <= 0`` means no compensation and otherwise
the generator gets ``m_i = round(S_i * n_filters_i)`` filters. ``apply``
splices the corresponding wrappers into a deep copy of a model built around
a flat ``net`` Sequential (all ``repro.models`` follow that convention).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List

from repro.compensation.wrappers import (
    CompensatedConv2d,
    CompensatedLinear,
    compensation_parameter_count,
)
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.utils.rng import SeedLike, spawn_rngs
from repro.nn.graph import weighted_layers


@dataclass
class CompensationPlan:
    """Mapping from weighted-layer index (0-based) to compensation ratio."""

    ratios: Dict[int, float] = field(default_factory=dict)

    def active_layers(self) -> List[int]:
        return sorted(self.ratios)

    @property
    def num_compensated(self) -> int:
        return len(self.ratios)

    def filters_for(self, layer: Module, ratio: float) -> int:
        """Generator width for ``layer`` under ``ratio`` (at least 1)."""
        if isinstance(layer, Conv2d):
            n = layer.out_channels
        elif isinstance(layer, Linear):
            n = layer.out_features
        else:
            raise TypeError(f"cannot compensate layer type {type(layer).__name__}")
        return max(1, int(round(ratio * n)))

    def apply(self, model: Module, seed: SeedLike = 0) -> Module:
        """Return a deep copy of ``model`` with compensation spliced in.

        Requires each targeted weighted layer to live directly inside a
        :class:`Sequential` (true for every ``repro.models`` network).
        Original-layer weights are shared state *copies* — the source model
        is never mutated.
        """
        if not self.ratios:
            return copy.deepcopy(model)
        compensated = copy.deepcopy(model)
        layers = weighted_layers(compensated)
        # One child stream per weighted layer, indexed by layer position, so
        # a layer's compensation seed does not depend on which other layers
        # the plan happens to compensate.
        streams = None if seed is None else spawn_rngs(seed, len(layers))
        for offset, index in enumerate(sorted(self.ratios)):
            if index < 0 or index >= len(layers):
                raise IndexError(
                    f"plan targets layer {index} but model has {len(layers)} "
                    "weighted layers"
                )
            name, layer = layers[index]
            ratio = self.ratios[index]
            m = self.filters_for(layer, ratio)
            layer_seed = None if streams is None else streams[index]
            if isinstance(layer, Conv2d):
                wrapper: Module = CompensatedConv2d(layer, m, seed=layer_seed)
            else:
                wrapper = CompensatedLinear(layer, m, seed=layer_seed)
            _replace_module(compensated, name, wrapper)
        return compensated

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {r:.3f}" for i, r in sorted(self.ratios.items()))
        return f"CompensationPlan({{{inner}}})"


def _replace_module(root: Module, qualified_name: str, replacement: Module) -> None:
    """Replace the module at ``qualified_name`` (dot path) inside ``root``."""
    parts = qualified_name.split(".")
    parent = root
    for part in parts[:-1]:
        parent = parent._modules[part]
    leaf = parts[-1]
    if leaf not in parent._modules:
        raise KeyError(f"{qualified_name} not found under {type(root).__name__}")
    setattr(parent, leaf, replacement)
    parent._modules[leaf] = replacement


def plan_overhead(original_model: Module, compensated_model: Module) -> float:
    """The paper's overhead metric: compensation weights as a fraction of
    the original network's weights."""
    original_params = original_model.num_parameters()
    comp_params = compensation_parameter_count(compensated_model)
    return comp_params / original_params if original_params else 0.0
