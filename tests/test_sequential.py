"""Statistical tests for the sequential (adaptive) evaluation layer.

Everything here is seeded and deterministic: coverage tests draw synthetic
Bernoulli accuracy streams with known ``p`` from fixed seeds and assert on
the exact coverage counts those seeds produce (pinned to a band well below
the nominal level, so the assertions are robust to which seeds were
chosen while still catching a broken estimator); stopping-rule tests
assert structural properties — monotonicity in the tolerance, bound
enforcement — that hold for every stream; sweep tests check that a
sweep is one evaluation per point.
"""

from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import synth_mnist
from repro.evaluation import (
    executor,
    layer_sweep,
    MonteCarloEvaluator,
    tail_spec,
)
from repro.evaluation.sequential import (
    clt_interval,
    half_width,
    HalfWidthRule,
    Z_SCORE,
)
from repro.models.registry import build_model
from repro.variation.models import LogNormalVariation
from repro.variation.spec import scale_to


def bernoulli_stream(p, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.random(n) < p).astype(float).tolist()


# ---------------------------------------------------------------------------
# Interval estimators
# ---------------------------------------------------------------------------
class TestIntervals:
    def test_z_score_matches_known_quantiles(self):
        assert Z_SCORE == NormalDist().inv_cdf(0.5 + 0.95 / 2.0)
        assert Z_SCORE == pytest.approx(1.959964, abs=1e-5)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="zero draws"):
            clt_interval([])

    def test_single_draw_clt_is_degenerate(self):
        assert clt_interval([0.7]) == (0.7, 0.7)

    def test_clt_interval_centered_and_ordered(self):
        draws = bernoulli_stream(0.4, 50, seed=3)
        lo, hi = clt_interval(draws)
        mean = sum(draws) / len(draws)
        assert lo < mean < hi
        assert hi - lo == pytest.approx(2 * half_width(draws))

    def test_clt_width_shrinks_with_n(self):
        draws = bernoulli_stream(0.5, 400, seed=5)
        assert half_width(draws[:400]) < half_width(draws[:100]) < half_width(draws[:25])

    @pytest.mark.parametrize("p,n", [(0.3, 30), (0.9, 25)])
    def test_coverage_on_bernoulli_streams(self, p, n):
        """The CLT interval covers the true mean near the nominal 95% level.

        300 seeded streams; the exact counts for these seeds are ~93-96%.
        The lower bound (85%) catches an anti-conservative interval (e.g.
        a dropped sqrt(n) or a z/2 slip), the upper bound (100%) is
        structural.
        """
        n_seeds = 300
        covered = 0
        for seed in range(n_seeds):
            lo, hi = clt_interval(bernoulli_stream(p, n, seed))
            covered += lo <= p <= hi
        assert 0.85 * n_seeds <= covered <= n_seeds, covered


# ---------------------------------------------------------------------------
# Stopping rules
# ---------------------------------------------------------------------------
class TestStoppingRules:
    def test_never_fires_below_two_draws(self):
        # Even a zero-width stream cannot stop on one draw.
        rule = HalfWidthRule(tolerance=0.5, min_samples=1)
        assert not rule.satisfied([0.7])
        assert rule.satisfied([0.7, 0.7])

    def test_min_samples_enforced(self):
        rule = HalfWidthRule(tolerance=1.0, min_samples=10)
        constant = [0.5] * 20
        for k in range(1, 10):
            assert not rule.satisfied(constant[:k])
        assert rule.satisfied(constant[:10])

    def test_tighter_tolerance_needs_at_least_as_many_draws(self):
        # A continuous accuracy stream whose interval tightens gradually
        # (a Bernoulli stream can open with identical draws, collapsing
        # every tolerance onto the same trivial stop).
        rng = np.random.default_rng(11)
        draws = np.clip(0.6 + 0.15 * rng.standard_normal(4000), 0, 1).tolist()

        def draws_to_stop(tolerance):
            rule = HalfWidthRule(tolerance=tolerance)
            for k in range(1, len(draws) + 1):
                if rule.satisfied(draws[:k]):
                    return k
            return len(draws) + 1  # never stopped

        stops = [draws_to_stop(t) for t in (0.2, 0.1, 0.05, 0.02, 0.01)]
        assert stops == sorted(stops)
        assert stops[0] < stops[-1]  # the range actually spreads

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(tolerance=0.0), "tolerance"),
            (dict(tolerance=-0.1), "tolerance"),
            (dict(tolerance=0.1, min_samples=0), "min_samples"),
        ],
    )
    def test_half_width_rule_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            HalfWidthRule(**kwargs)


# ---------------------------------------------------------------------------
# Evaluator integration: tolerance / bounds / sweeps
# ---------------------------------------------------------------------------
class TestAdaptiveEvaluator:
    def test_loose_tolerance_stops_early(self, lenet, tiny_test):
        ev = MonteCarloEvaluator(tiny_test, n_samples=40, seed=9, vectorized=True,
                                 chunk_samples=4, tolerance=0.2)
        result = ev.evaluate(lenet, LogNormalVariation(0.3))
        assert result.stopped_early
        assert result.n_samples_used < 40
        assert result.ci_half_width <= 0.2
        assert result.ci_low <= result.mean <= result.ci_high

    def test_unreachable_tolerance_runs_to_cap(self, lenet, tiny_test):
        ev = MonteCarloEvaluator(tiny_test, n_samples=12, seed=9, vectorized=True,
                                 chunk_samples=4, tolerance=1e-9)
        result = ev.evaluate(lenet, LogNormalVariation(0.5))
        assert result.n_samples_used == 12  # max bound enforced
        assert not result.stopped_early

    def test_min_samples_floor(self, lenet, tiny_test):
        ev = MonteCarloEvaluator(tiny_test, n_samples=40, seed=9, vectorized=True,
                                 chunk_samples=2, tolerance=10.0, min_samples=10)
        floored = ev.evaluate(lenet, LogNormalVariation(0.3))
        assert floored.n_samples_used >= 10

    def test_tolerance_monotone_in_draws(self, lenet, tiny_test):
        used = [
            MonteCarloEvaluator(tiny_test, n_samples=64, seed=9, vectorized=True,
                                chunk_samples=4, tolerance=t)
            .evaluate(lenet, LogNormalVariation(0.4)).n_samples_used
            for t in (0.2, 0.05, 0.02)
        ]
        assert used == sorted(used)

    def test_constructor_validation(self, tiny_test):
        with pytest.raises(ValueError, match="tolerance"):
            MonteCarloEvaluator(tiny_test, tolerance=-0.1)
        with pytest.raises(ValueError, match="min_samples"):
            MonteCarloEvaluator(tiny_test, min_samples=0)

    def test_deterministic_variation_not_marked_early(self, lenet, tiny_test):
        ev = MonteCarloEvaluator(tiny_test, n_samples=20, seed=9, tolerance=0.1)
        result = ev.evaluate(lenet, "none")
        assert result.n_samples_used == 1
        assert not result.stopped_early

    def test_grid_concentrates_draws_on_wide_points(self, lenet, tiny_test):
        ev = MonteCarloEvaluator(tiny_test, n_samples=48, seed=9, vectorized=True,
                                 chunk_samples=4, tolerance=0.015)
        results = [ev.evaluate(lenet, scale_to(LogNormalVariation(0.3), s))
                   for s in [0.05, 0.8]]
        # sigma=0.05 is near-saturated (tight interval at the first look);
        # sigma=0.8 is noisy and keeps drawing.
        assert results[0].stopped_early
        assert results[0].n_samples_used < results[1].n_samples_used

    def test_grid_results_are_paired_prefixes(self, lenet, tiny_test):
        kwargs = dict(n_samples=32, seed=9, vectorized=True, chunk_samples=4)
        adaptive_ev = MonteCarloEvaluator(tiny_test, tolerance=0.05, **kwargs)
        fixed_ev = MonteCarloEvaluator(tiny_test, **kwargs)
        for sigma in [0.1, 0.4, 0.7]:
            spec = scale_to(LogNormalVariation(0.3), sigma)
            a = adaptive_ev.evaluate(lenet, spec)
            f = fixed_ev.evaluate(lenet, spec)
            assert a.accuracies == f.accuracies[: a.n_samples_used]

    def test_cross_backend_stop_point_invariance(self, lenet, tiny_test):
        kwargs = dict(n_samples=32, seed=9, chunk_samples=4, tolerance=0.06)
        results = [
            MonteCarloEvaluator(tiny_test, vectorized=True, **kwargs),
            MonteCarloEvaluator(tiny_test, vectorized=False, **kwargs),
            MonteCarloEvaluator(tiny_test, vectorized=False, n_workers=2, **kwargs),
            MonteCarloEvaluator(tiny_test, vectorized=True, n_workers=2, **kwargs),
        ]
        outs = [ev.evaluate(lenet, LogNormalVariation(0.35)) for ev in results]
        assert len({o.n_samples_used for o in outs}) == 1
        assert all(o.accuracies == outs[0].accuracies for o in outs)

    def test_cross_backend_stop_point_invariance_defaulted_chunk(self):
        """A pool of either form shrinks an adaptive plan's defaulted
        chunk to feed every worker (32 draws in chunks of 11 for 3
        workers), and still stops where the loop does: the look at draw
        16 falls inside a chunk and cuts it there."""
        from repro.data import synth_mnist
        from repro.models.registry import build_model

        train, test = synth_mnist(train_per_class=8, test_per_class=8)
        model = build_model("mlp", train, seed=0)
        kwargs = dict(n_samples=32, seed=3, tolerance=0.05, min_samples=2)
        evaluators = [
            MonteCarloEvaluator(test, **backend, **kwargs)
            for backend in (dict(vectorized=False), dict(vectorized=True),
                            dict(vectorized=False, n_workers=3),
                            dict(vectorized=True, n_workers=3))
        ]
        pools = [ev.plan(model.eval(), LogNormalVariation(0.5))
                 for ev in evaluators[2:]]
        assert [(p.backend, p.n_workers, p.chunk_samples) for p in pools] \
            == [("loop", 3, 11), ("vectorized", 3, 11)]
        outs = [ev.evaluate(model, LogNormalVariation(0.5))
                for ev in evaluators]
        assert [o.n_samples_used for o in outs] == [16, 16, 16, 16]
        assert all(o.accuracies == outs[0].accuracies for o in outs)


# ---------------------------------------------------------------------------
# Sweeps: one evaluation per point
# ---------------------------------------------------------------------------
#: Under it the untrained MLP's points stop at draw 16, 32 or 48 (the cap)
#: across the tolerances below.
_SWEEP_SPEC = LogNormalVariation(1.0)


@pytest.fixture(scope="module")
def synth_mlp():
    train, test = synth_mnist(train_per_class=8, test_per_class=8)
    return build_model("mlp", train, seed=0), test


class TestSweepsAreLoopsOfEvaluate:
    def test_adaptive_sweep_runs_one_pool_per_point(self, synth_mlp,
                                                   monkeypatch):
        """A pooled adaptive evaluator pools every point of a layer sweep
        and returns the in-process sweep's results."""
        model, test = synth_mlp
        pools = []
        run_pool = executor._run_pool

        def counted(evaluation):
            pools.append(evaluation.plan.variation)
            return run_pool(evaluation)

        monkeypatch.setattr(executor, "_run_pool", counted)
        kwargs = dict(n_samples=48, seed=3, chunk_samples=8, tolerance=0.05,
                      min_samples=2)
        pooled = layer_sweep(model, _SWEEP_SPEC,
                             MonteCarloEvaluator(test, n_workers=2, **kwargs))
        in_process = layer_sweep(model, _SWEEP_SPEC,
                                 MonteCarloEvaluator(test, **kwargs))
        assert pools == [tail_spec(model, _SWEEP_SPEC, first)
                         for first in range(len(pooled))]
        assert pooled == in_process
        assert all(result.stopped_early for _, result in pooled)

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_a_sweep_is_its_points_evaluations(self, synth_mlp, data):
        """``layer_sweep`` returns, point by point, what one ``evaluate``
        call per point returns: in every form, at every chunk size and
        tolerance."""
        model, test = synth_mlp
        tolerance = data.draw(st.sampled_from([0.005, 0.01, 0.02, 0.05]),
                              label="tolerance")
        chunk = data.draw(st.integers(1, 20), label="chunk")
        vectorized = data.draw(st.booleans(), label="vectorized")
        evaluator = MonteCarloEvaluator(
            test, n_samples=48, seed=9, vectorized=vectorized,
            chunk_samples=chunk, tolerance=tolerance,
        )
        swept = layer_sweep(model, _SWEEP_SPEC, evaluator)
        assert swept == [
            (first + 1, evaluator.evaluate(
                model, tail_spec(model, _SWEEP_SPEC, first)))
            for first in range(len(swept))
        ]
