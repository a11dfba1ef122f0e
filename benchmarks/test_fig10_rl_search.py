"""Figure 10: quality of RL-explored compensation solutions.

The paper plots the (overhead, accuracy) of plans explored by the RL agent
for VGG16-Cifar100 and marks (a) the RL-selected plan and (b) exhaustive
compensation of all candidate layers. Expected shape: the RL pick reaches
accuracy comparable to exhaustive compensation at lower overhead.
"""

from repro.core.config import RLConfig
from repro.rl import CompensationEnv, RLSearch, exhaustive_search
from repro.utils.tables import format_table
from repro.variation import LogNormalVariation

from conftest import PAIRS, SIGMA

KEY = "lenet5-mnist"  # fast-mode stand-in for the paper's VGG16-Cifar100


def test_fig10_rl_vs_exhaustive(benchmark, workbench):
    spec = PAIRS[KEY]
    base = workbench.lipschitz_model(KEY)
    train, test = workbench.data(KEY)
    result = workbench.correctnet_result(KEY)
    candidates = result.candidates or [0, 1]
    config = workbench.pipeline_config(KEY)

    env = CompensationEnv(
        base, candidates, LogNormalVariation(SIGMA), train, test,
        config.compensation, config.eval,
        overhead_limit=spec.overhead_limits[-1],
    )

    def run():
        search = RLSearch(env, RLConfig(
            episodes=spec.rl_episodes, hidden_size=16,
            ratio_choices=(0.0, 0.25, 0.5, 1.0), seed=3,
        ))
        search_result = search.run()
        exhaustive = exhaustive_search(env)
        return search_result, exhaustive

    search_result, exhaustive = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for outcome in search_result.explored:
        rows.append([
            "explored", 100 * outcome.overhead,
            100 * outcome.accuracy_mean, outcome.skipped,
        ])
    rows.append(["RL best", 100 * search_result.best.overhead,
                 100 * search_result.best.accuracy_mean,
                 search_result.best.skipped])
    rows.append(["exhaustive (all layers)", 100 * exhaustive.overhead,
                 100 * exhaustive.accuracy_mean, exhaustive.skipped])
    print(f"\n[Fig 10] RL search on {spec.paper_name} "
          f"(candidates={candidates})")
    print(format_table(["solution", "overhead %", "accuracy %", "skipped"],
                       rows))

    best = search_result.best
    if not best.skipped:
        # Shape claims: RL's pick is at least comparable to exhaustive
        # compensation and respects the overhead budget it searched under.
        # (The paper's RL-beats-exhaustive-on-overhead outcome appears when
        # many candidate layers exist; with few candidates the RL pick may
        # spend slightly more overhead for more accuracy.)
        assert best.accuracy_mean >= exhaustive.accuracy_mean - 0.10
        assert best.overhead <= spec.overhead_limits[-1] + 1e-9
