"""The end-to-end CorrectNet flow (paper Sections III + IV).

Stage order follows the paper exactly:

1. **Error suppression** — train the network with the modified Lipschitz
   regularization (eq. 10-11, ``k = 1``, ``lambda = lambda_bound(sigma)``).
2. **Candidate selection** — inject variations from layer ``i`` to the last
   layer, backwards, until accuracy falls below 95% of the original; the
   first ``i`` layers become compensation candidates (Fig. 9's criterion).
3. **RL search** — REINFORCE over compensation plans under each overhead
   limit (1%, 2%, 3%), reward per eq. (12); the best-accuracy solution
   across limits is selected (paper Section III-B, last paragraph).
4. **Compensation training** — generators/compensators trained with
   variations sampled per batch, originals frozen. Fits are memoized by
   content across the limits' searches and ``finalize``, so each distinct
   plan trains once per run and the winner is a lookup.
5. **Final evaluation** — full Monte-Carlo protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.compensation.plan import CompensationPlan, plan_overhead
from repro.compensation.trainer import FitMemo, fit_plan
from repro.core.config import make_evaluator, PipelineConfig
from repro.core.training import Trainer, TrainHistory
from repro.data.dataset import ArrayDataset
from repro.evaluation.layer_sweep import select_candidates
from repro.evaluation.metrics import accuracy, recovery_ratio
from repro.evaluation.montecarlo import MCResult, MonteCarloEvaluator
from repro.lipschitz.bounds import lambda_bound
from repro.lipschitz.regularizer import OrthogonalityRegularizer
from repro.nn.module import Module
from repro.optim.optimizers import Adam, GRAD_CLIP
from repro.rl.env import CompensationEnv
from repro.rl.search import RLSearch, SearchResult
from repro.utils.logging import get_logger

logger = get_logger("core.pipeline")


@dataclass
class CorrectNetResult:
    """One Table-I row plus the artifacts that produced it."""

    original_accuracy: float
    degraded: MCResult
    corrected: MCResult
    overhead: float
    compensated_layers: List[int]
    candidates: List[int]
    plan: CompensationPlan
    model: Module
    base_history: Optional[TrainHistory] = None
    search_results: Dict[float, SearchResult] = field(default_factory=dict)

    @property
    def recovery(self) -> float:
        """Corrected accuracy relative to the variation-free original."""
        return recovery_ratio(self.corrected.mean, self.original_accuracy)

    def summary_row(self) -> List:
        """[orig%, degraded%, corrected%, overhead%, #layers] as Table I."""
        return [
            100.0 * self.original_accuracy,
            100.0 * self.degraded.mean,
            100.0 * self.corrected.mean,
            100.0 * self.overhead,
            len(self.compensated_layers),
        ]


class CorrectNet:
    """Drive the full error-suppression + error-compensation flow.

    Parameters
    ----------
    model:
        An *untrained* model from ``repro.models`` (flat ``net``
        Sequential).
    train_data, test_data:
        Dataset splits; candidate selection and RL search evaluate on
        ``test_data``.
    config:
        A :class:`PipelineConfig`; ``fast_pipeline_config()`` for CI scale.
        Its ``resolved_variation()`` is the target scenario: the config's
        spec, else the paper's ``LogNormalVariation(config.sigma)``.
    """

    def __init__(
        self,
        model: Module,
        train_data: ArrayDataset,
        test_data: ArrayDataset,
        config: PipelineConfig,
    ) -> None:
        self.model = model
        self.train_data = train_data
        self.test_data = test_data
        self.config = config
        self.variation = config.resolved_variation()
        self.lam = lambda_bound(self.variation.magnitude)
        self.regularizer = OrthogonalityRegularizer(
            self.lam, beta=config.train.beta
        )
        # One compensation-fit memo for every limit's search and finalize;
        # keyed by content (base weights included), so it stays valid when
        # the base model is retrained.
        self.fit_memo: FitMemo = {}

    # ------------------------------------------------------------------
    # Stage 1: error suppression
    # ------------------------------------------------------------------
    def fit_base(self) -> TrainHistory:
        """Train ``model`` with the Lipschitz regularization of eq. (11).

        The history has one loss and one regularizer value per epoch and
        no accuracy: :meth:`run` sweeps the test split once, after this.
        """
        cfg = self.config.train
        trainer = Trainer(
            self.model,
            Adam(list(self.model.parameters()), lr=cfg.lr),
            regularizer=self.regularizer,
            grad_clip=GRAD_CLIP,
            seed=cfg.seed,
        )
        history = trainer.fit(
            self.train_data, epochs=cfg.epochs, batch_size=cfg.batch_size
        )
        logger.info("base training done: lambda %.4f", self.lam)
        return history

    # ------------------------------------------------------------------
    # Stage 2: candidate selection
    # ------------------------------------------------------------------
    def _full_evaluate(self, evaluator: MonteCarloEvaluator, model: Module) -> MCResult:
        """Full-protocol Monte-Carlo evaluation of ``model``.

        With ``config.eval.store_path`` set this goes through the
        fingerprinted result store (``repro.store``): identical logical
        inputs — weights, dataset, spec, seed schedule, stopping — become
        a cache lookup instead of a fresh run. The import stays lazy so
        store-less pipelines never touch sqlite.
        """
        store_path = self.config.eval.store_path
        if store_path is None:
            return evaluator.evaluate(model, self.variation)
        from repro.store.runner import cached_evaluate

        return cached_evaluate(store_path, evaluator, model, self.variation)

    def find_candidates(self, original_accuracy: float) -> List[int]:
        evaluator = make_evaluator(
            self.config.eval, self.test_data, self.config.eval.search_samples
        )
        candidates = select_candidates(
            self.model,
            self.variation,
            evaluator,
            original_accuracy,
            max_candidates=self.config.eval.max_candidates,
        )
        logger.info("compensation candidates: %s", candidates)
        return candidates

    # ------------------------------------------------------------------
    # Stage 3: RL search
    # ------------------------------------------------------------------
    def search(self, candidates: List[int]) -> Dict[float, SearchResult]:
        """One REINFORCE search per overhead limit; returns all of them."""
        results: Dict[float, SearchResult] = {}
        for limit in self.config.rl.overhead_limits:
            env = CompensationEnv(
                self.model,
                candidates,
                self.variation,
                self.train_data,
                self.test_data,
                self.config.compensation,
                self.config.eval,
                overhead_limit=limit,
                memo=self.fit_memo,
            )
            search = RLSearch(env, self.config.rl)
            results[limit] = search.run()
            logger.info(
                "limit %.0f%%: best reward %.4f acc %.4f overhead %.4f",
                100 * limit,
                results[limit].best.reward,
                results[limit].best.accuracy_mean,
                results[limit].best.overhead,
            )
        return results

    @staticmethod
    def _pick_best(results: Dict[float, SearchResult]):
        """Best non-skipped outcome by accuracy across limits (the paper
        selects 'the solution that generates the best accuracy')."""
        outcomes = [r.best for r in results.values() if not r.best.skipped]
        if not outcomes:
            outcomes = [r.best for r in results.values()]
        return max(outcomes, key=lambda o: o.accuracy_mean)

    # ------------------------------------------------------------------
    # Stage 4 + 5: final compensation training and evaluation
    # ------------------------------------------------------------------
    def finalize(self, plan: CompensationPlan) -> Module:
        """The chosen plan's trained compensated model.

        Trained exactly as the search trained it (same seed, data and
        epochs), so a plan the search scored is a memo lookup; an unscored
        plan trains here.
        """
        return fit_plan(
            self.model,
            plan,
            self.variation,
            self.train_data,
            self.config.compensation,
            memo=self.fit_memo,
        )

    def run(self, skip_base_training: bool = False) -> CorrectNetResult:
        """Execute the full pipeline and return the Table-I artifacts."""
        history = None if skip_base_training else self.fit_base()
        original_accuracy = accuracy(self.model, self.test_data)

        final_evaluator = make_evaluator(
            self.config.eval, self.test_data, self.config.eval.n_samples
        )
        degraded = self._full_evaluate(final_evaluator, self.model)
        logger.info(
            "original %.4f | degraded %.4f±%.4f",
            original_accuracy,
            degraded.mean,
            degraded.std,
        )

        candidates = self.find_candidates(original_accuracy)
        if candidates:
            search_results = self.search(candidates)
            best = self._pick_best(search_results)
            plan = best.plan
        else:
            search_results = {}
            plan = CompensationPlan()

        corrected_model = self.finalize(plan)
        corrected = self._full_evaluate(final_evaluator, corrected_model)
        overhead = plan_overhead(self.model, corrected_model)

        return CorrectNetResult(
            original_accuracy=original_accuracy,
            degraded=degraded,
            corrected=corrected,
            overhead=overhead,
            compensated_layers=plan.active_layers(),
            candidates=candidates,
            plan=plan,
            model=corrected_model,
            base_history=history,
            search_results=search_results,
        )
