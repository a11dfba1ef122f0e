"""Error compensation (paper Section III-B, Fig. 5).

For a selected layer, a *generator* (m 1x1x(l+n) filters over the
concatenation of the layer's average-pooled input and its output feature
maps) produces compensation data, and a *compensator* (n 1x1x(n+m)
filters over the concatenation of the layer output and the compensation
data) produces the corrected feature maps. Both run on digital circuits and
are therefore immune to variations (they are flagged ``digital = True`` so
the variation injector and the crossbar mapper skip them).

Training: original weights stay frozen at their Lipschitz-regularized
values; generators and compensators train with the task loss while
variations are sampled onto the original weights every batch.
``fit_plan`` splices a plan into a copy of a model and trains it,
memoized by content; the RL search and the pipeline's ``finalize`` share
one memo.
"""

from repro.compensation.wrappers import (
    CompensatedConv2d,
    CompensatedLinear,
    compensation_parameter_count,
    is_compensated,
)
from repro.compensation.plan import CompensationPlan, plan_overhead
from repro.compensation.trainer import CompensationTrainer, fit_plan

__all__ = [
    "CompensatedConv2d",
    "CompensatedLinear",
    "is_compensated",
    "compensation_parameter_count",
    "CompensationPlan",
    "plan_overhead",
    "CompensationTrainer",
    "fit_plan",
]
