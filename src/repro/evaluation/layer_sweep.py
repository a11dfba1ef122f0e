"""Layer-wise variation sweeps and compensation-candidate selection.

Fig. 9 of the paper: after Lipschitz training, inject variations only into
layers ``i .. L`` and measure accuracy as ``i`` decreases. Lipschitz
regularization absorbs late-layer variations, but accuracy collapses once
early layers are included — those early layers become the candidates for
error compensation ("the first i layers when the variations in the i-th
layer to the last layer lead to an inference accuracy lower than 95% of the
original accuracy").

A tail subset is a variation spec, not a list of modules:
:func:`tail_spec` holds every layer before ``i`` at ``none``. So a sweep
point is pure data like any other evaluation — it fingerprints, caches,
runs as a store job, runs in its plan's form and runs on analog models.
A sweep is one evaluation per point.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.evaluation.montecarlo import MCResult, MonteCarloEvaluator
from repro.hardware.analog_layers import analog_layers
from repro.nn.graph import weighted_layers
from repro.nn.module import Module
from repro.variation.models import NoVariation, VariationModel
from repro.variation.spec import LayerMap, parse_spec, VariationLike

#: The paper's candidate rule: a tail injection must keep 95% of the
#: original accuracy.
CANDIDATE_THRESHOLD = 0.95


def _layer_names(model: Module) -> List[str]:
    """The layers Fig. 9 sweeps, in the paper's order: the crossbar arrays
    of an analogized model (the only layers its variation reaches), else
    the weighted layers."""
    return [name for name, _ in analog_layers(model) or weighted_layers(model)]


def tail_spec(
    model: Module, variation: "VariationLike", first: int
) -> VariationModel:
    """``variation`` injected only from layer ``first`` (0-based) to the last.

    Every layer before ``first`` is overridden to ``none``, keyed by its
    qualified name. Name keys beat index keys in ``LayerMap.model_for``,
    so the caller's own overrides cannot reach the silenced layers. A
    ``LayerMap`` input is merged flat rather than nested, so ``to_string``
    can still print the result. ``first == 0`` returns the spec
    unchanged: that point shares the plain evaluation's fingerprint.
    """
    spec = parse_spec(variation)
    names = _layer_names(model)
    if not 0 <= first <= len(names):
        raise ValueError(
            f"first must be in [0, {len(names)}] for this model, got {first}"
        )
    if first == 0:
        return spec
    silenced = {name: NoVariation() for name in names[:first]}
    if isinstance(spec, LayerMap):
        return LayerMap(spec.default, {**spec.overrides, **silenced})
    return LayerMap(spec, silenced)


def layer_sweep(
    model: Module,
    variation: "VariationLike",
    evaluator: MonteCarloEvaluator,
) -> List[Tuple[int, MCResult]]:
    """Accuracy with variations injected from layer ``i`` to the last layer.

    Returns ``[(i, MCResult), ...]`` for i = 1 .. L (1-indexed, matching the
    paper's x-axis; i = 1 means every layer is perturbed).

    Point ``i`` is one
    :meth:`~repro.evaluation.montecarlo.MonteCarloEvaluator.evaluate` of
    ``tail_spec(model, variation, i - 1)``. An evaluator with a
    ``tolerance`` makes every point adaptive, each stopping on its own
    rule: the absorbed late-layer tails stop early, the collapsing
    early-layer tails keep drawing.
    """
    return [
        (first + 1, evaluator.evaluate(model, tail_spec(model, variation, first)))
        for first in range(len(_layer_names(model)))
    ]


def select_candidates(
    model: Module,
    variation: "VariationLike",
    evaluator: MonteCarloEvaluator,
    original_accuracy: float,
    max_candidates: Optional[int] = None,
) -> List[int]:
    """Compensation-candidate layer indices (0-based) per the paper's rule.

    Sweeping ``i`` from the last layer backwards, find the largest ``i``
    whose tail-injection accuracy still reaches :data:`CANDIDATE_THRESHOLD`
    times ``original_accuracy``; all layers before it (the first ``i-1``
    layers, whose variations the suppression cannot absorb) are
    candidates. If even the last layer alone violates the threshold, every
    layer is a candidate.
    """
    n_layers = len(_layer_names(model))
    target = CANDIDATE_THRESHOLD * original_accuracy
    candidate_count = n_layers  # worst case: all layers
    for i in range(n_layers, 0, -1):
        result = evaluator.evaluate(model, tail_spec(model, variation, i - 1))
        if result.mean >= target:
            # Tail starting at layer i is fine; layers 0..i-2 remain suspect.
            candidate_count = i - 1
        else:
            break
    if max_candidates is not None:
        candidate_count = min(candidate_count, max_candidates)
    return list(range(candidate_count))
