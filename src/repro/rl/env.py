"""The RL environment: plan -> (train compensation) -> reward (eq. 12)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compensation.plan import CompensationPlan, plan_overhead
from repro.compensation.trainer import FitMemo, fit_plan
from repro.core.config import CompensationConfig, EvalConfig, make_evaluator
from repro.data.dataset import ArrayDataset
from repro.nn.module import Module
from repro.utils.logging import get_logger
from repro.variation.spec import parse_spec, VariationLike

logger = get_logger("rl.env")


@dataclass
class EnvOutcome:
    """Everything the environment knows about one evaluated plan."""

    plan: CompensationPlan
    reward: float
    accuracy_mean: float
    accuracy_std: float
    overhead: float
    skipped: bool  # True when over the overhead limit (no training done)


class CompensationEnv:
    """Environment of Fig. 6.

    The state is the candidate layers' compensation ratios; an episode's
    action sequence fully determines the next state, so one ``step`` call
    evaluates one complete plan:

    1. build the compensated model (wrappers spliced on candidate layers);
    2. if overhead > limit: reward = -overhead, skip training (paper's
       fast-path);
    3. else: train generators/compensators under sampled variations and
       Monte-Carlo evaluate; reward = acc_mean - acc_std - overhead.

    Outcomes are cached by action tuple within one env — REINFORCE
    revisits good plans often. Compensation fits are memoized by content
    in ``memo`` (:func:`~repro.compensation.trainer.fit_plan`), which
    several envs and the pipeline's ``finalize`` can share: a plan scored
    under one overhead limit trains once for all of them. ``memo=None``
    gives the env its own. A caller that wants a scored plan's trained
    model calls ``fit_plan`` with ``env.memo`` and gets a lookup.
    """

    def __init__(
        self,
        base_model: Module,
        candidate_layers: List[int],
        variation: "VariationLike",
        train_data: ArrayDataset,
        eval_data: ArrayDataset,
        comp_config: CompensationConfig,
        eval_config: EvalConfig,
        overhead_limit: float = 0.03,
        memo: Optional[FitMemo] = None,
    ) -> None:
        if not candidate_layers:
            raise ValueError("need at least one candidate layer")
        if overhead_limit <= 0:
            raise ValueError(f"overhead limit must be positive, got {overhead_limit}")
        self.base_model = base_model
        self.candidate_layers = list(candidate_layers)
        self.variation = parse_spec(variation)
        self.train_data = train_data
        self.eval_data = eval_data
        self.comp_config = comp_config
        self.eval_config = eval_config
        self.overhead_limit = overhead_limit
        self.memo: FitMemo = {} if memo is None else memo
        # Reward evaluation follows the EvalConfig engine routing: the
        # compensation wrappers are sample-aware, so the reward's
        # Monte-Carlo estimate rides the vectorized engine. All engines
        # are seed-paired (see repro.evaluation.montecarlo), so rewards —
        # and therefore the whole search trajectory — are engine-invariant.
        self._evaluator = make_evaluator(
            eval_config, eval_data, eval_config.search_samples
        )
        self._cache: Dict[Tuple[float, ...], EnvOutcome] = {}

    @property
    def n_actions_steps(self) -> int:
        return len(self.candidate_layers)

    def plan_from_ratios(self, ratios: List[float]) -> CompensationPlan:
        """Map per-candidate ratios onto absolute weighted-layer indices."""
        if len(ratios) != len(self.candidate_layers):
            raise ValueError(
                f"expected {len(self.candidate_layers)} ratios, got {len(ratios)}"
            )
        mapping = {
            layer_index: ratio
            for layer_index, ratio in zip(self.candidate_layers, ratios)
            if ratio > 0
        }
        return CompensationPlan(mapping)

    def step(self, ratios: List[float]) -> EnvOutcome:
        """Evaluate one plan (cached by its ratio tuple)."""
        key = tuple(round(r, 6) for r in ratios)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        plan = self.plan_from_ratios(list(ratios))
        overhead = plan_overhead(
            self.base_model, plan.apply(self.base_model, seed=self.comp_config.seed)
        )

        if overhead > self.overhead_limit:
            outcome = EnvOutcome(
                plan=plan,
                reward=-overhead,
                accuracy_mean=0.0,
                accuracy_std=0.0,
                overhead=overhead,
                skipped=True,
            )
            self._cache[key] = outcome
            return outcome

        compensated = fit_plan(
            self.base_model,
            plan,
            self.variation,
            self.train_data,
            self.comp_config,
            memo=self.memo,
        )
        result = self._evaluator.evaluate(compensated, self.variation)
        reward = result.mean - result.std - overhead
        outcome = EnvOutcome(
            plan=plan,
            reward=reward,
            accuracy_mean=result.mean,
            accuracy_std=result.std,
            overhead=overhead,
            skipped=False,
        )
        logger.debug(
            "env step %s -> reward %.4f (acc %.4f±%.4f, overhead %.4f)",
            key,
            reward,
            result.mean,
            result.std,
            overhead,
        )
        self._cache[key] = outcome
        return outcome
