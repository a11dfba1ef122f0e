"""Weight-variation models and injection machinery.

Implements the paper's log-normal device-variation model (eq. 1-2):

``w = w_nominal * exp(theta)``, ``theta ~ N(0, sigma^2)`` i.i.d. per weight,

plus additional models exercised by the ablation benches (additive
Gaussian, conductance-state-dependent, stuck-at faults) and the injection
context manager that perturbs a module tree's weights in place and restores
them afterwards.
"""

from repro.variation.models import (
    ColumnCorrelatedVariation,
    GaussianVariation,
    LogNormalVariation,
    NoVariation,
    StateDependentVariation,
    StuckAtFaults,
    VariationModel,
)
from repro.variation.nonidealities import ConductanceDrift, LevelQuantization
from repro.variation.spec import (
    Compose,
    LayerMap,
    VariationLike,
    from_dict,
    from_string,
    parse_spec,
    register_model,
    registered_kinds,
    scale_to,
    to_dict,
    to_string,
)
from repro.variation.injector import VariationInjector, weighted_layers

__all__ = [
    "VariationModel",
    "LogNormalVariation",
    "GaussianVariation",
    "ColumnCorrelatedVariation",
    "StateDependentVariation",
    "StuckAtFaults",
    "NoVariation",
    "LevelQuantization",
    "ConductanceDrift",
    "Compose",
    "LayerMap",
    "VariationLike",
    "parse_spec",
    "register_model",
    "registered_kinds",
    "scale_to",
    "to_dict",
    "from_dict",
    "to_string",
    "from_string",
    "VariationInjector",
    "weighted_layers",
]
