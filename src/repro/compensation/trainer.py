"""Training the generators and compensators (paper Section III-B).

"When training the weights in the generators and compensators ... the
weights in the original layers are fixed to the values after applying
Lipschitz constant regularization and stay non-trainable ... variations are
sampled statistically and applied to the corresponding weight values in the
original layer during each training batch."

A fit is a pure function of its inputs (base weights, plan, training spec,
config, data), so :func:`fit_plan` memoizes it by content: the RL search
scores the same plan under several overhead limits, and ``finalize``
delivers the winner the search already trained.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

import numpy as np

from repro.core.config import CompensationConfig
from repro.core.training import Trainer, TrainHistory
from repro.compensation.plan import CompensationPlan
from repro.compensation.wrappers import is_compensated
from repro.data.dataset import ArrayDataset
from repro.nn.module import Module
from repro.optim.optimizers import Adam, GRAD_CLIP
from repro.utils.digest import canonical_json, dataset_digest, weights_digest
from repro.utils.rng import SeedLike
from repro.variation.models import VariationModel
from repro.variation.spec import parse_spec, to_dict as spec_to_dict, VariationLike

#: Fit memo: content key -> the state a fit changed (the trainable
#: generator/compensator parameters).
FitMemo = Dict[str, Dict[str, np.ndarray]]


class CompensationTrainer:
    """Freeze the original network, train only compensation parameters.

    Parameters
    ----------
    model:
        A compensated model (output of :meth:`CompensationPlan.apply`).
    variation:
        The variation spec (model, grammar string, or spec dict) sampled
        per batch onto the (frozen) original weights during training —
        compensation must learn to fix *sampled* errors, not one fixed
        error. Each batch trains against one fresh draw, as the paper
        does. The gradient is clipped to
        :data:`~repro.optim.optimizers.GRAD_CLIP`.
    """

    def __init__(
        self,
        model: Module,
        variation: "VariationLike",
        lr: float = 1e-3,
        seed: SeedLike = 0,
    ) -> None:
        self.model = model
        trainable = self._freeze_non_compensation(model)
        if not trainable:
            raise ValueError(
                "model has no compensation parameters to train "
                "(apply a CompensationPlan first)"
            )
        self.trainer = Trainer(
            model,
            Adam(trainable, lr=lr),
            variation=variation,
            grad_clip=GRAD_CLIP,
            seed=seed,
        )

    @staticmethod
    def _freeze_non_compensation(model: Module) -> list:
        """Freeze everything except generator/compensator parameters.

        Returns the list of trainable (compensation) parameters.
        """
        digital_params = set()
        for module in model.modules():
            if is_compensated(module):
                for p in module.generator.parameters():
                    digital_params.add(id(p))
                for p in module.compensator.parameters():
                    digital_params.add(id(p))
        trainable = []
        for param in model.parameters():
            if id(param) in digital_params:
                param.unfreeze()
                trainable.append(param)
            else:
                param.freeze()
        return trainable

    def fit(
        self,
        train_data: ArrayDataset,
        epochs: int,
        batch_size: int = 32,
        val_data: Optional[ArrayDataset] = None,
    ) -> TrainHistory:
        """Train for ``epochs`` epochs.

        The history has one loss per epoch and, when ``val_data`` is
        given, one accuracy sweep of it after the last epoch (see
        :meth:`~repro.core.training.Trainer.fit`).
        """
        return self.trainer.fit(
            train_data, epochs=epochs, batch_size=batch_size, val_data=val_data
        )


def _fit_key(
    base_model: Module,
    plan: CompensationPlan,
    spec: VariationModel,
    train_data: ArrayDataset,
    config: CompensationConfig,
) -> str:
    """SHA-256 over every input a fit reads, by content."""
    payload = {
        "base": weights_digest(base_model),
        "ratios": sorted([int(i), float(r)] for i, r in plan.ratios.items()),
        "spec": spec_to_dict(spec),
        "lr": config.lr,
        "epochs": config.epochs,
        "seed": config.seed,
        "data": dataset_digest(train_data),
    }
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


def fit_plan(
    base_model: Module,
    plan: CompensationPlan,
    variation: "VariationLike",
    train_data: ArrayDataset,
    config: CompensationConfig,
    memo: Optional[FitMemo] = None,
) -> Module:
    """Splice ``plan`` into a copy of ``base_model`` and train it.

    Compensation trains under ``variation`` itself, the deployment
    scenario. A fit whose inputs ``memo`` already
    holds is a lookup: the copy gets the stored state, the same
    frozen/trainable split and train mode, which is bitwise what the fresh
    fit would have left (``docs/CONTRACTS.md``, the fit memo invariant).
    ``memo=None`` fits without remembering. A plan without compensated
    layers trains nothing and returns the plain copy.
    """
    model = plan.apply(base_model, seed=config.seed)
    if plan.num_compensated == 0:
        return model
    spec = parse_spec(variation)
    memo = {} if memo is None else memo
    key = _fit_key(base_model, plan, spec, train_data, config)
    entry = memo.get(key)
    if entry is not None:
        CompensationTrainer._freeze_non_compensation(model)
        model.load_state_dict({name: value.copy() for name, value in entry.items()})
        return model.train()
    CompensationTrainer(model, spec, lr=config.lr, seed=config.seed).fit(
        train_data, epochs=config.epochs
    )
    frozen = {name for name, p in model.named_parameters() if p.frozen}
    memo[key] = {
        name: value for name, value in model.state_dict().items() if name not in frozen
    }
    return model
