"""Evaluation under variations: Monte-Carlo accuracy, layer sweeps, tracing.

The paper evaluates every configuration by sampling the weight-variation
model 250 times and reporting mean and standard deviation of inference
accuracy; :class:`MonteCarloEvaluator` reproduces that protocol.
:func:`layer_sweep` reproduces Fig. 9's "variations from layer i to the
last layer" experiment — each point a :func:`tail_spec` — from which
:func:`select_candidates` derives the compensation-candidate prefix.
:class:`ErrorPropagationTracer` measures the per-layer feature
deviations that motivate error suppression (Fig. 4).
Sequential stopping (``evaluate(tolerance=...)``) lives in
``repro.evaluation.sequential``: the one 95% CLT interval and the
:class:`HalfWidthRule`. A sweep is one evaluation per point.
"""

from repro.evaluation.metrics import accuracy, recovery_ratio
from repro.evaluation.montecarlo import MCResult, MonteCarloEvaluator
from repro.evaluation.executor import (
    execute,
    IncrementalEvaluation,
    make_adapter,
)
from repro.evaluation.plan import build_plan, EvalPlan
from repro.evaluation.sequential import clt_interval, half_width, HalfWidthRule
from repro.evaluation.vectorized import stacked_accuracies, supports_sample_axis
from repro.evaluation.layer_sweep import layer_sweep, select_candidates, tail_spec
from repro.evaluation.tracer import ErrorPropagationTracer, LayerDeviation

__all__ = [
    "accuracy",
    "recovery_ratio",
    "MonteCarloEvaluator",
    "MCResult",
    "layer_sweep",
    "select_candidates",
    "tail_spec",
    "ErrorPropagationTracer",
    "LayerDeviation",
    "stacked_accuracies",
    "supports_sample_axis",
    "EvalPlan",
    "build_plan",
    "execute",
    "make_adapter",
    "IncrementalEvaluation",
    "HalfWidthRule",
    "clt_interval",
    "half_width",
]
