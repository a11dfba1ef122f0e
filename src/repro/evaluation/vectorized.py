"""Sample-axis capability detection and the stacked accuracy kernel.

The vectorized Monte-Carlo engine installs sample-stacked weights
(``(S, *shape)`` per parameter) and runs one forward pass per data batch
for all S variation samples at once. That only works when every module in
the tree propagates the leading sample axis correctly, so eligibility is
decided by explicit declaration rather than by trying and hoping:
:func:`supports_sample_axis` admits a module when its class declares
``sample_aware`` truthy *and* all of its children do too. The
declaration takes three forms (``reprolint``'s AXS001 rule enforces that
every layer-library ``Module`` subclass picks one):

- leaves set a class attribute (``Linear``, ``Conv2d``, ``ReLU``,
  pooling, ``Flatten``, ``Identity``, the analog layers);
- mode-dependent modules compute it: batch norm exposes a property that
  is true **in eval mode only** — its eval forward is an affine
  per-channel fold that broadcasts over a sample axis, while its
  training forward computes batch statistics
  whose axes a stacked layout would corrupt. The Monte-Carlo evaluator
  forces eval mode before dispatching, so batch-norm models ride the
  vectorized engine; the stacked-training path of
  ``repro.core.training.Trainer`` sees ``training=True`` and correctly
  falls back to the sequential loop;
- containers and composite modules declare ``sample_aware = True`` when
  their forward purely delegates (``Sequential``, ``MLP``, ``LeNet5``,
  ``VGG``) or does its own stacked-layout-aware math on top of the
  children — the compensation wrappers (``CompensatedConv2d`` /
  ``CompensatedLinear``) handle stacked activations around their digital
  generator/compensator, so compensated models ride this engine instead
  of the loop (the RL search reward of ``repro.rl.env`` depends on this).

The analog crossbar layers (``AnalogLinear`` / ``AnalogConv2d``) are
sample-aware leaves too: their forwards broadcast the whole DAC → MAC →
read-noise → ADC chain over stacked activations and stacked-programmed
conductance planes (``TiledCrossbarArray.program_batch``), so analogized
models ride the vectorized Monte-Carlo engine through its analog variant
(see ``repro.evaluation.montecarlo``).

Anything else — mode-sensitive custom modules — makes the evaluator fall
back to the reference loop or the process pool. The ``sample_aware``
attribute is a *promise* that the module's forward is covered by stacked
kernel tests; see ``docs/ARCHITECTURE.md`` for the layout conventions a
sample-aware forward must preserve.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.autograd import no_grad, Tensor
from repro.data.dataset import ArrayDataset
from repro.nn.module import Module

# NOTE: there is deliberately no class tuple here. Eligibility is decided
# by the ``sample_aware`` declarations alone — a parallel list of "known
# good" leaf classes would be a second source of truth that can silently
# drift from the declarations (the old ``SAMPLE_AWARE_LEAVES`` back-compat
# tuple did exactly that risk, and nothing consumed it).


def supports_sample_axis(module: Module) -> bool:
    """True when every module in the tree handles a leading sample axis.

    Entirely attribute-driven: a module is admitted when its
    ``sample_aware`` declaration (class attribute, instance attribute, or
    property — see the module docstring) is truthy and every child is
    admitted too. No declaration means not admitted: falling back to the
    loop engine is always correct, just slower.
    """
    if not getattr(module, "sample_aware", False):
        return False
    return all(supports_sample_axis(child) for child in module.children())


def sample_axis_blockers(module: Module) -> List[str]:
    """Which modules keep the tree off the vectorized engine, by name.

    Returns ``"qualified.name (ClassName)"`` entries (the root as
    ``"(ClassName)"``) for every module whose ``sample_aware`` declaration
    is missing or falsy — the modules :func:`supports_sample_axis` rejects.
    Empty iff the tree is eligible. ``build_plan`` surfaces this as the
    plan's ``backend_reason`` when a requested vectorized run falls back
    to the per-draw loop form, so the silent-slowdown cause is named
    instead of guessed at.
    """
    blockers: List[str] = []
    for name, sub in module.named_modules():
        if not getattr(sub, "sample_aware", False):
            label = type(sub).__name__
            blockers.append(f"{name} ({label})" if name else f"({label})")
    return blockers


def stacked_accuracies(
    model: Module,
    dataset: ArrayDataset,
    n_stacked: int,
    batch_size: int = 64,
) -> np.ndarray:
    """Per-sample top-1 accuracies with stacked weights already installed.

    Expects the model to produce (S, N, K) logits for an (N, ...) batch —
    i.e. to be inside :meth:`VariationInjector.applied_stack`. Returns an
    ``(n_stacked,)`` float array. Eval mode and the previous training mode
    are handled like :func:`repro.evaluation.metrics.accuracy`.

    ``batch_size`` here is the engine's internal data blocking: per-image
    results are independent of it, and stacked intermediates are S times
    larger than ordinary ones, so a block that keeps ``S × block`` feature
    maps cache-resident is much faster than a throughput-sized eval batch.
    """
    was_training = model.training
    model.eval()
    correct = np.zeros(n_stacked, dtype=np.int64)
    try:
        with no_grad():
            for start in range(0, len(dataset), batch_size):
                images = dataset.images[start : start + batch_size]
                labels = dataset.labels[start : start + batch_size]
                logits = model(Tensor(images)).data
                if logits.ndim != 3 or logits.shape[0] != n_stacked:
                    raise RuntimeError(
                        "expected sample-stacked logits of shape "
                        f"({n_stacked}, N, K), got {logits.shape}; is the "
                        "model inside applied_stack and sample-aware?"
                    )
                correct += (logits.argmax(axis=-1) == labels).sum(axis=1)
    finally:
        model.train(was_training)
    return correct / len(dataset)
