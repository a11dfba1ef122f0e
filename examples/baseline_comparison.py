"""Comparing CorrectNet against the protection/retraining baselines.

Reproduces the Fig.-8 comparison on LeNet-5 / synthetic CIFAR-10: accuracy
at sigma = 0.5 versus weight overhead for

- [8]-style important-weight SRAM protection (with/without online retraining),
- [9]-style random sparse adaptation,
- [11]-style statistical (noise-aware) training,
- CorrectNet (suppression + compensation).

Run:  python examples/baseline_comparison.py
"""

from repro.baselines import (
    ImportantWeightProtection, RandomSparseAdaptation, StatisticalTraining,
)
from repro.compensation import CompensationPlan, CompensationTrainer, plan_overhead
from repro.core import Trainer
from repro.data import synth_cifar10
from repro.evaluation import MonteCarloEvaluator, accuracy
from repro.lipschitz import OrthogonalityRegularizer, lambda_bound
from repro.models import build_model
from repro.optim import Adam, CosineSchedule
from repro.utils.tables import format_table
from repro.variation import LogNormalVariation

SIGMA = 0.5
MC_SAMPLES = 10
EPOCHS = 25        # plain / Lipschitz base training
STAT_EPOCHS = 10   # statistical (noise-aware) training
COMP_EPOCHS = 8    # compensation training
ADAPT_STEPS = 15   # online-retraining steps of [8]/[9]


def main() -> None:
    train, test = synth_cifar10(train_per_class=48, test_per_class=16)
    variation = LogNormalVariation(SIGMA)

    print("training the plain baseline model ...")
    plain = build_model("lenet5", train, seed=0)
    opt = Adam(list(plain.parameters()), lr=3e-3)
    Trainer(plain, opt, seed=0).fit(
        train, epochs=EPOCHS, batch_size=32,
        scheduler=CosineSchedule(opt, EPOCHS, min_lr=3e-4),
    )
    print(f"clean accuracy: {100 * accuracy(plain, test):.2f}%")

    rows = []

    # [8] important-weight protection at several budgets
    for fraction in (0.02, 0.05, 0.10):
        method = ImportantWeightProtection(plain, fraction)
        res = method.evaluate(variation, test, n_samples=MC_SAMPLES, seed=5)
        rows.append(["[8] protect", 100 * res.overhead,
                     100 * res.accuracy_mean, "no"])
    adapted = ImportantWeightProtection(plain, 0.05).evaluate(
        variation, test, n_samples=MC_SAMPLES, seed=5,
        online_retraining=True, train_data=train, adapt_steps=ADAPT_STEPS,
    )
    rows.append(["[8] protect + online retrain", 100 * adapted.overhead,
                 100 * adapted.accuracy_mean, "yes"])

    # [9] random sparse adaptation
    rsa = RandomSparseAdaptation(plain, 0.05).evaluate(
        variation, test, n_samples=MC_SAMPLES, seed=5,
        online_retraining=True, train_data=train, adapt_steps=ADAPT_STEPS,
    )
    rows.append(["[9] RSA + online retrain", 100 * rsa.overhead,
                 100 * rsa.accuracy_mean, "yes"])

    # [11] statistical training
    print("running statistical (noise-aware) training ...")
    stat = StatisticalTraining(plain, variation, lr=3e-3)
    stat.fit(train, epochs=STAT_EPOCHS, batch_size=32)
    stat_res = stat.evaluate(test, n_samples=MC_SAMPLES, seed=5)
    rows.append(["[11] statistical training", 0.0,
                 100 * stat_res.accuracy_mean, "no"])

    # CorrectNet: suppression + compensation
    print("training CorrectNet (suppression + compensation) ...")
    lipschitz = build_model("lenet5", train, seed=0)
    reg = OrthogonalityRegularizer(lambda_bound(SIGMA), beta=1.0)
    opt = Adam(list(lipschitz.parameters()), lr=3e-3)
    Trainer(lipschitz, opt, regularizer=reg, seed=0).fit(
        train, epochs=EPOCHS, batch_size=32,
        scheduler=CosineSchedule(opt, EPOCHS, min_lr=3e-4),
    )
    compensated = CompensationPlan({0: 1.0, 1: 0.5}).apply(lipschitz, seed=1)
    CompensationTrainer(compensated, variation, lr=3e-3, seed=0).fit(
        train, epochs=COMP_EPOCHS, batch_size=32,
    )
    evaluator = MonteCarloEvaluator(test, n_samples=MC_SAMPLES, seed=5)
    cn = evaluator.evaluate(compensated, variation)
    rows.append(["CorrectNet", 100 * plan_overhead(lipschitz, compensated),
                 100 * cn.mean, "no"])

    print(f"\n=== accuracy @ sigma={SIGMA} vs overhead ===")
    print(format_table(
        ["method", "overhead %", "accuracy %", "needs online retrain"], rows
    ))


if __name__ == "__main__":
    main()
