"""Figure 8: CorrectNet versus the state of the art.

Operating points (overhead %, accuracy @ sigma=0.5) for:
- [8]-style important-weight protection, with and without online retraining;
- [9]-style random sparse adaptation (with retraining);
- [11]-style statistical (noise-aware) training — zero overhead;
- CorrectNet (from the Table-I pipeline run).

Expected shape: CorrectNet beats the non-retrained protection baselines at
lower overhead, and roughly matches the online-retrained ones without
needing per-chip retraining.
"""

import pytest

from repro.baselines import (
    ImportantWeightProtection, RandomSparseAdaptation, StatisticalTraining,
)
from repro.utils.tables import format_table
from repro.variation import LogNormalVariation

from conftest import PAIRS, SIGMA

BASELINE_PAIRS = ["lenet5-cifar10", "vgg16-cifar10"]
PROTECT_FRACTIONS = [0.02, 0.05, 0.10]


@pytest.mark.parametrize("key", BASELINE_PAIRS)
def test_fig8_baseline_comparison(benchmark, workbench, key):
    spec = PAIRS[key]
    model = workbench.plain_model(key)
    train, test = workbench.data(key)
    var = LogNormalVariation(SIGMA)
    n_samples = max(4, spec.mc_samples // 2)
    correctnet = workbench.correctnet_result(key)

    def run():
        rows = []
        for fraction in PROTECT_FRACTIONS:
            method = ImportantWeightProtection(model, fraction)
            static = method.evaluate(var, test, n_samples=n_samples, seed=31)
            rows.append(["[8] protect", 100 * static.overhead,
                         100 * static.accuracy_mean, "no"])
        # online retraining at the middle budget
        method = ImportantWeightProtection(model, PROTECT_FRACTIONS[1])
        adapted = method.evaluate(
            var, test, n_samples=n_samples, seed=31,
            online_retraining=True, train_data=train, adapt_steps=15,
        )
        rows.append(["[8] protect+retrain", 100 * adapted.overhead,
                     100 * adapted.accuracy_mean, "yes"])
        rsa = RandomSparseAdaptation(model, PROTECT_FRACTIONS[1])
        rsa_result = rsa.evaluate(
            var, test, n_samples=n_samples, seed=31,
            online_retraining=True, train_data=train, adapt_steps=15,
        )
        rows.append(["[9] RSA+retrain", 100 * rsa_result.overhead,
                     100 * rsa_result.accuracy_mean, "yes"])
        stat = StatisticalTraining(model, var, lr=spec.lr)
        stat.fit(train, epochs=max(5, spec.train_epochs // 3), batch_size=32)
        stat_result = stat.evaluate(test, n_samples=n_samples, seed=31)
        rows.append(["[11] statistical", 0.0,
                     100 * stat_result.accuracy_mean, "no"])
        rows.append(["CorrectNet", 100 * correctnet.overhead,
                     100 * correctnet.corrected.mean, "no"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n[Fig 8] {spec.paper_name} @ sigma={SIGMA}")
    print(format_table(
        ["method", "overhead %", "accuracy %", "online retrain"], rows
    ))

    cn = next(r for r in rows if r[0] == "CorrectNet")
    # Shape claim (the paper's central comparison): CorrectNet is at least
    # competitive with static protection at its smallest (comparable)
    # overhead budget, without any online retraining.
    static_smallest = min(
        (r for r in rows if r[0] == "[8] protect"), key=lambda r: r[1]
    )
    assert cn[2] > static_smallest[2] - 5.0, (
        "CorrectNet should be at least competitive with static protection "
        "at comparable overhead"
    )
