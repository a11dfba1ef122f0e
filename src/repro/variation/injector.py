"""Injecting variations into module trees, and restoring them.

The injector perturbs ``Parameter.data`` in place (so the existing autograd
graph topology, optimizers and crossbar mappings keep their references) and
restores the nominal values on exit. Three orthogonal controls mirror the
paper's experiments:

- *which layers*: the variation spec itself — a layer whose spec resolves
  to ``none`` is not a target (Fig. 9 injects variations only from layer
  i to the last layer: ``repro.evaluation.layer_sweep.tail_spec``);
- *digital immunity*: modules flagged ``digital = True`` (compensation
  generators/compensators, eq.-(12) overhead weights) are skipped —
  the paper assumes they run on variation-free digital circuits;
- *protection masks*: per-parameter boolean masks holding selected weights
  at nominal value (the SRAM-protected weights of the baseline methods
  [8]/[9]).

**The paired-seed contract.** Every consumer of variations — the
Monte-Carlo reference loop (:meth:`VariationInjector.applied`), the
vectorized engine (:meth:`VariationInjector.sample_batch` /
:meth:`VariationInjector.stack_for` + :meth:`applied_stack`), the process
pool, and multi-draw compensation training — draws perturbations from
the *same* spawned rng streams in the *same* per-parameter order. Sample
``i`` of a stack is therefore bitwise equal to what the sequential loop
would have installed for sample ``i``, which is what makes engine choice
a pure performance knob (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from typing import TYPE_CHECKING

from repro.nn.graph import weighted_layers
from repro.nn.module import Module, Parameter
from repro.utils.rng import new_rng, spawn_rngs, SeedLike
from repro.variation.models import NoVariation, VariationModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec imports models)
    from repro.variation.spec import VariationLike

__all__ = [
    "VariationInjector",
    "WEIGHT_ATTR_NAMES",
    # Re-exported for backwards compatibility: the authoritative layer
    # ordering lives in repro.nn.graph (the canonical module-graph walk).
    "weighted_layers",
]

#: Parameter attribute names treated as crossbar-mapped weights. Biases and
#: batch-norm affine parameters are digital/peripheral state in typical
#: RRAM accelerators, matching the paper's weight-only variation model.
WEIGHT_ATTR_NAMES = ("weight",)


def _iter_target_params(
    module: Module,
) -> Iterator[Tuple[str, Parameter, Module]]:
    """Yield (qualified-name, parameter, owning module) triples of every
    non-digital weighted layer."""
    seen = set()
    name_of = {id(sub): name for name, sub in module.named_modules()}
    for _, sub in weighted_layers(module):
        if id(sub) in seen:
            continue
        seen.add(id(sub))
        for attr in WEIGHT_ATTR_NAMES:
            param = sub._parameters.get(attr)
            if param is not None:
                yield f"{name_of.get(id(sub), '?')}.{attr}", param, sub


class VariationInjector:
    """Reusable injector bound to a model and a variation source.

    Parameters
    ----------
    model:
        Module tree whose weights get perturbed.
    variation:
        A :class:`VariationModel`, a spec grammar string
        (``"lognormal:0.5+quant:4"``), or a spec dict — anything
        :func:`repro.variation.spec.parse_spec` accepts. A
        :class:`repro.variation.spec.LayerMap` resolves per weighted
        layer (name and paper layer index) before perturbing; layers that
        resolve to ``none`` are left at their nominal weights.
    protection_masks:
        Optional ``{qualified-param-name: bool array}``; entries that are
        ``True`` are held at their nominal value (digitally protected).
    dtype:
        Arithmetic dtype of the *installed* perturbations (``"float64"``,
        the historical bit-exact protocol, or ``"float32"``). Under either
        dtype the draw itself is generated in float64 — for float32 from
        the float32-rounded nominal (``nominal.astype(f32).astype(f64)``,
        idempotent whether the model already runs in float32 or not) and
        cast exactly once afterwards. Stream consumption depends only on
        parameter shapes, so the seed schedule is dtype-invariant and the
        per-dtype pairing contract holds on every engine.
    """

    def __init__(
        self,
        model: Module,
        variation: "VariationLike",
        protection_masks: Optional[Dict[str, np.ndarray]] = None,
        dtype: str = "float64",
    ) -> None:
        from repro.variation.spec import parse_spec

        self.model = model
        self.variation = parse_spec(variation)
        self.protection_masks = protection_masks or {}
        self.dtype = str(np.dtype(dtype))
        self._target_cache: Optional[
            List[Tuple[str, Parameter, VariationModel]]
        ] = None

    def _targets(self) -> List[Tuple[str, Parameter, VariationModel]]:
        """(param-name, parameter, resolved model) triples in injection order.

        The per-layer model comes from ``variation.model_for`` with the
        layer's qualified name and its index in the full
        :func:`weighted_layers` ordering (the paper's layer indexing) — a
        plain :class:`VariationModel` resolves to itself, a ``LayerMap``
        dispatches. Resolution is positionally stable, so the paired-seed
        contract is untouched: stream consumption per parameter depends
        only on the resolved model, identically in every engine.

        Layers resolving to :class:`NoVariation` are dropped: they draw
        nothing and keep their nominal weights, so dropping them is
        bitwise-neutral — and stacked execution then runs them once on
        the nominal weights instead of once per sample.

        Computed once per injector: an injector binds to the module tree
        as constructed (the Monte-Carlo loop calls :meth:`applied` per
        sample against a fixed model — build a fresh injector after
        structural surgery like ``CompensationPlan.apply``).
        """
        if self._target_cache is None:
            all_layers = weighted_layers(self.model)
            index_of = {id(sub): i for i, (_, sub) in enumerate(all_layers)}
            n_layers = len(all_layers)
            out = []
            for name, param, sub in _iter_target_params(self.model):
                layer_name = name.rsplit(".", 1)[0]
                model = self.variation.model_for(
                    layer_name, index_of.get(id(sub)), n_layers
                )
                if not isinstance(model, NoVariation):
                    out.append((name, param, model))
            self._target_cache = out
        return self._target_cache

    def target_parameters(self) -> List[Parameter]:
        """The :class:`Parameter` objects subject to variation, in the
        injection order shared by :meth:`sample`, :meth:`sample_batch` and
        :meth:`applied` (callers use this to check e.g. frozen-ness before
        choosing a stacked execution path)."""
        return [param for _, param, _ in self._targets()]

    def _draw(
        self,
        name: str,
        param: Parameter,
        variation: VariationModel,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One draw for one parameter — the *only* sampling site.

        Every consumer (loop, stacked, pool workers) goes through here,
        which is what makes the per-dtype pairing contract a
        single-point invariant: float64 perturbs the nominal
        directly (bit-identical to every historical run); float32 perturbs
        the float32-rounded nominal in float64 and casts the result once.
        """
        nominal = param.data
        if self.dtype == "float64":
            perturbed_data = variation.perturb(nominal, rng)
            mask = self.protection_masks.get(name)
            if mask is not None:
                perturbed_data = np.where(mask, nominal, perturbed_data)
            return perturbed_data
        base = nominal.astype(np.float32).astype(np.float64)
        perturbed_data = variation.perturb(base, rng)
        mask = self.protection_masks.get(name)
        if mask is not None:
            perturbed_data = np.where(mask, base, perturbed_data)
        return perturbed_data.astype(np.float32)

    def sample(self, seed: SeedLike = None) -> Dict[str, np.ndarray]:
        """Return ``{param-name: perturbed array}`` without touching the model."""
        rng = new_rng(seed)
        out = {}
        for name, param, variation in self._targets():
            out[name] = self._draw(name, param, variation, rng)
        return out

    def sample_batch(
        self, n_samples: int, seed: SeedLike = None
    ) -> Dict[str, np.ndarray]:
        """Draw all ``n_samples`` perturbations up front, stacked per param.

        Returns ``{param-name: (n_samples, *param.shape) array}``. Sample
        ``i`` consumes the ``i``-th spawned stream of ``seed`` and perturbs
        the target parameters in the same order as :meth:`applied` — so
        slice ``i`` of each stack is bitwise equal to what the reference
        per-sample loop would have installed with the same seed. This is
        the pairing contract the vectorized Monte-Carlo engine relies on.
        """
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        return self.stack_for(spawn_rngs(seed, n_samples))

    def stack_for(
        self, rngs: Sequence[np.random.Generator]
    ) -> Dict[str, np.ndarray]:
        """Like :meth:`sample_batch` but for explicit rng streams.

        Lets callers draw sample chunks incrementally (slices of one
        ``spawn_rngs`` list) without materializing every sample's weights
        at once, while keeping the per-stream pairing contract.
        """
        targets = self._targets()
        stacks: Dict[str, np.ndarray] = {
            name: np.empty((len(rngs),) + param.data.shape, dtype=self.dtype)
            for name, param, _ in targets
        }
        for i, rng in enumerate(rngs):
            for name, param, variation in targets:
                stacks[name][i] = self._draw(name, param, variation, rng)
        return stacks

    @contextlib.contextmanager
    def applied_stack(
        self, stacked: Dict[str, np.ndarray]
    ) -> Iterator["VariationInjector"]:
        """Context manager: install sample-stacked weights, restore on exit.

        ``stacked`` maps qualified parameter names (as produced by
        :meth:`sample_batch`) to ``(S, *param.shape)`` arrays. Inside the
        context every target parameter's ``data`` carries a leading sample
        axis, which the sample-aware forward kernels broadcast over.
        """
        saved: List[Tuple[Parameter, np.ndarray]] = []
        try:
            for name, param, _ in self._targets():
                stack = stacked.get(name)
                if stack is None:
                    continue
                if stack.shape[1:] != param.data.shape:
                    raise ValueError(
                        f"stack for {name} has per-sample shape "
                        f"{stack.shape[1:]}, parameter is {param.data.shape}"
                    )
                saved.append((param, param.data))
                param.data = stack
            yield self
        finally:
            for param, nominal in saved:
                param.data = nominal

    @contextlib.contextmanager
    def applied(self, seed: SeedLike = None) -> Iterator["VariationInjector"]:
        """Context manager: perturb in place, restore on exit."""
        saved: List[Tuple[Parameter, np.ndarray]] = []
        try:
            rng = new_rng(seed)
            for name, param, variation in self._targets():
                perturbed_data = self._draw(name, param, variation, rng)
                saved.append((param, param.data))
                param.data = perturbed_data
            yield self
        finally:
            for param, nominal in saved:
                param.data = nominal

