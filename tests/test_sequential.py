"""Statistical tests for the sequential (adaptive) evaluation layer.

Everything here is seeded and deterministic: coverage tests draw synthetic
Bernoulli accuracy streams with known ``p`` from fixed seeds and assert on
the exact coverage counts those seeds produce (pinned to a band well below
the nominal level, so the assertions are robust to which seeds were
chosen while still catching a broken estimator); stopping-rule tests
assert structural properties — monotonicity in the tolerance, bound
enforcement, allocator determinism — that hold for every stream.
"""

import numpy as np
import pytest

from repro.evaluation import MonteCarloEvaluator
from repro.evaluation.sequential import (
    allocate_draws,
    CI_METHODS,
    clt_interval,
    half_width,
    HalfWidthRule,
    interval,
    wilson_interval,
    z_score,
)
from repro.variation.models import LogNormalVariation


def bernoulli_stream(p, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.random(n) < p).astype(float).tolist()


# ---------------------------------------------------------------------------
# Interval estimators
# ---------------------------------------------------------------------------
class TestIntervals:
    def test_z_score_matches_known_quantiles(self):
        assert z_score(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_score(0.99) == pytest.approx(2.575829, abs=1e-5)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5])
    def test_z_score_rejects_bad_confidence(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            z_score(confidence)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="zero draws"):
            interval([])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown CI method"):
            interval([0.5, 0.6], method="bogus")

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

    def test_wilson_stays_inside_unit_interval(self):
        for draws in ([0.0] * 10, [1.0] * 10, bernoulli_stream(0.5, 20, seed=1)):
            lo, hi = wilson_interval(draws)
            assert 0.0 <= lo <= hi <= 1.0

    def test_wilson_never_collapses_at_boundary(self):
        # A saturated configuration (all draws identical at 0 or 1) still
        # has nonzero Wilson width — it cannot stop with trivially few
        # draws — while the CLT interval degenerates to zero width there.
        assert half_width([1.0] * 5, method="wilson") > 0.0
        assert half_width([1.0] * 5, method="clt") == 0.0

    def test_higher_confidence_is_wider(self):
        draws = bernoulli_stream(0.6, 40, seed=7)
        for method in CI_METHODS:
            assert half_width(draws, 0.99, method) > half_width(draws, 0.9, method)

    @pytest.mark.parametrize("p,n", [(0.3, 30), (0.9, 25)])
    def test_coverage_on_bernoulli_streams(self, p, n):
        """Both estimators cover the true mean near the nominal 95% level.

        300 seeded streams; the exact counts for these seeds are ~93-96%.
        The lower bound (85%) catches estimators that are anti-conservative
        (e.g. a dropped sqrt(n) or a z/2 slip), the upper bound (100%)
        is structural.
        """
        n_seeds = 300
        for method in CI_METHODS:
            covered = 0
            for seed in range(n_seeds):
                lo, hi = interval(bernoulli_stream(p, n, seed), method=method)
                covered += lo <= p <= hi
            assert 0.85 * n_seeds <= covered <= n_seeds, (method, covered)

    def test_wilson_wider_than_clt_for_bernoulli_extremes(self):
        # Near-saturated streams: Wilson's boundary behaviour makes it the
        # conservative choice.
        draws = [1.0] * 18 + [0.0] * 2
        assert half_width(draws, method="wilson") >= half_width(draws, method="clt") * 0.9


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
            (dict(tolerance=0.1, confidence=1.0), "confidence"),
            (dict(tolerance=0.1, method="bogus"), "CI method"),
            (dict(tolerance=0.1, min_samples=0), "min_samples"),
        ],
    )
    def test_half_width_rule_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            HalfWidthRule(**kwargs)


# ---------------------------------------------------------------------------
# Sweep-level draw allocation
# ---------------------------------------------------------------------------
class FakePoint:
    """A SequentialPoint over a pre-baked accuracy stream."""

    def __init__(self, stream, chunk=4, rule=None):
        self.stream = list(stream)
        self.chunk = chunk
        self.rule = rule
        self.accuracies = []
        self.chunks_run = 0
        self._stopped = False

    @property
    def done(self):
        return self._stopped or len(self.accuracies) >= len(self.stream)

    def run_chunk(self):
        start = len(self.accuracies)
        stop = min(start + self.chunk, len(self.stream))
        self.accuracies.extend(self.stream[start:stop])
        self.chunks_run += 1
        if self.rule is not None and self.rule.satisfied(self.accuracies):
            self._stopped = True
        return stop - start


class TestAllocateDraws:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            allocate_draws([], -1, lambda accs: 0.0)

    def test_priming_ignores_budget(self):
        # Budget 0, but every point still receives its two priming draws —
        # otherwise a point with no draws could never compete for budget.
        points = [FakePoint(bernoulli_stream(0.5, 20, s), chunk=2) for s in range(3)]
        spent = allocate_draws(points, 0, lambda accs: half_width(accs))
        assert spent == 6
        assert all(len(p.accuracies) == 2 for p in points)

    def test_budget_is_soft_by_at_most_one_chunk(self):
        points = [FakePoint(bernoulli_stream(0.5, 100, s), chunk=8) for s in range(2)]
        spent = allocate_draws(points, 20, lambda accs: half_width(accs))
        assert 20 <= spent <= 20 + 8

    def test_widest_point_drains_the_budget(self):
        # A saturated (zero-spread) point competes with a noisy one: after
        # priming, every budget chunk must go to the noisy point.
        flat = FakePoint([0.8] * 50, chunk=5)
        noisy = FakePoint(bernoulli_stream(0.5, 50, seed=2), chunk=5)
        allocate_draws([flat, noisy], 30, lambda accs: half_width(accs))
        assert len(flat.accuracies) == 5  # priming chunk only
        assert len(noisy.accuracies) > len(flat.accuracies)

    def test_ties_break_to_lowest_index_deterministically(self):
        streams = [[0.5, 1.0] * 25] * 3  # identical streams -> identical widths
        runs = []
        for _ in range(2):
            points = [FakePoint(s, chunk=2) for s in streams]
            allocate_draws(points, 10, lambda accs: half_width(accs))
            runs.append([len(p.accuracies) for p in points])
        assert runs[0] == runs[1]
        # Lowest index wins every tie, so counts are non-increasing.
        assert runs[0] == sorted(runs[0], reverse=True)

    def test_stopped_points_get_no_more_chunks(self):
        rule = HalfWidthRule(tolerance=0.5, min_samples=2)
        point = FakePoint([0.7] * 40, chunk=4, rule=rule)
        allocate_draws([point], 40, lambda accs: half_width(accs))
        assert point.done and len(point.accuracies) == 4

    def test_exhausted_points_end_the_loop(self):
        points = [FakePoint(bernoulli_stream(0.5, 8, s), chunk=4) for s in range(2)]
        spent = allocate_draws(points, 10_000, lambda accs: half_width(accs))
        assert spent == 16  # every stream fully drained, then no actives


# ---------------------------------------------------------------------------
# Evaluator integration: tolerance / bounds / grid behaviour
# ---------------------------------------------------------------------------
class TestAdaptiveEvaluator:
    def test_loose_tolerance_stops_early(self, lenet, tiny_test):
        ev = MonteCarloEvaluator(tiny_test, n_samples=40, seed=9, vectorized=True,
                                 chunk_samples=4)
        result = ev.evaluate(lenet, LogNormalVariation(0.3), tolerance=0.2)
        assert result.stopped_early
        assert result.n_samples_used < 40
        assert result.ci_half_width <= 0.2
        assert result.ci_low <= result.mean <= result.ci_high

    def test_unreachable_tolerance_runs_to_cap(self, lenet, tiny_test):
        ev = MonteCarloEvaluator(tiny_test, n_samples=12, seed=9, vectorized=True,
                                 chunk_samples=4)
        result = ev.evaluate(lenet, LogNormalVariation(0.5), tolerance=1e-9)
        assert result.n_samples_used == 12  # max bound enforced
        assert not result.stopped_early

    def test_min_samples_floor(self, lenet, tiny_test):
        ev = MonteCarloEvaluator(tiny_test, n_samples=40, seed=9, vectorized=True,
                                 chunk_samples=2)
        floored = ev.evaluate(lenet, LogNormalVariation(0.3),
                              tolerance=10.0, min_samples=10)
        assert floored.n_samples_used >= 10

    def test_tolerance_monotone_in_draws(self, lenet, tiny_test):
        ev = MonteCarloEvaluator(tiny_test, n_samples=64, seed=9, vectorized=True,
                                 chunk_samples=4)
        used = [
            ev.evaluate(lenet, LogNormalVariation(0.4), tolerance=t).n_samples_used
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
                                 chunk_samples=4)
        results = ev.sweep_sigma(lenet, LogNormalVariation(0.3),
                                 [0.05, 0.8], tolerance=0.015)
        # sigma=0.05 is near-saturated (tight interval at the first look);
        # sigma=0.8 is noisy and keeps drawing.
        assert results[0].stopped_early
        assert results[0].n_samples_used < results[1].n_samples_used

    def test_grid_budget_only_mode(self, lenet, tiny_test):
        ev = MonteCarloEvaluator(tiny_test, n_samples=16, seed=9, vectorized=True,
                                 chunk_samples=4)
        results = ev.sweep_sigma(lenet, LogNormalVariation(0.3), [0.2, 0.6],
                                 draw_budget=16)
        total = sum(r.n_samples_used for r in results)
        assert total <= 16 + 4  # soft budget: at most one extra chunk
        assert all(r.n_samples_used >= 2 for r in results)  # priming floor

    def test_grid_results_are_paired_prefixes(self, lenet, tiny_test):
        ev = MonteCarloEvaluator(tiny_test, n_samples=32, seed=9, vectorized=True,
                                 chunk_samples=4)
        sigmas = [0.1, 0.4, 0.7]
        adaptive = ev.sweep_sigma(lenet, LogNormalVariation(0.3), sigmas,
                                  tolerance=0.05)
        fixed = ev.sweep_sigma(lenet, LogNormalVariation(0.3), sigmas)
        for a, f in zip(adaptive, fixed):
            assert a.accuracies == f.accuracies[: a.n_samples_used]

    def test_cross_backend_stop_point_invariance(self, lenet, tiny_test):
        kwargs = dict(n_samples=32, seed=9, chunk_samples=4)
        results = [
            MonteCarloEvaluator(tiny_test, vectorized=True, **kwargs),
            MonteCarloEvaluator(tiny_test, vectorized=False, **kwargs),
            MonteCarloEvaluator(tiny_test, vectorized=False, n_workers=2, **kwargs),
            MonteCarloEvaluator(tiny_test, vectorized=True, n_workers=2, **kwargs),
        ]
        outs = [
            ev.evaluate(lenet, LogNormalVariation(0.35), tolerance=0.06)
            for ev in results
        ]
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
