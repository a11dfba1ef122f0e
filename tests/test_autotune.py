"""The race between the per-draw and stacked forms.

With an injected clock, a vectorized evaluation runs its first chunk
per-draw and its second stacked, times both, and runs every later chunk in
the form with the lower seconds per draw. Every chunk's accuracies are the
same in either form, so a raced run must return the clockless run's
``MCResult`` bitwise, adaptive stop point included. Fake clocks steer the
choice, so no test depends on real timings. The front ends always inject
``time.perf_counter``, so their default engine races.
"""

import json
import logging
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.compensation.plan import CompensationPlan
from repro.data import ArrayDataset, DATASET_FACTORIES, synth_mnist
from repro.evaluation import (
    build_plan,
    execute,
    executor,
    IncrementalEvaluation,
    MonteCarloEvaluator,
    tail_spec,
)
from repro.evaluation.plan import LOOP_BATCH
from repro.hardware import analogize
from repro.models import LeNet5, MLP
from repro.variation import LogNormalVariation, NoVariation, scale_to
from repro.variation.injector import weighted_layers


class StepClock:
    """A fake seconds counter that only moves inside the two forms.

    ``forms`` (the fixture below) advances it by ``cost[form]`` seconds per
    draw, so the cheaper form wins the race.
    """

    def __init__(self, per_draw: float, stacked: float) -> None:
        self.cost = {"per-draw": per_draw, "stacked": stacked}
        self.now = 0.0
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return self.now


@pytest.fixture()
def forms(monkeypatch):
    """``(log, charge)``: ``log`` lists ``(form, draws)`` per form call;
    ``charge(clock)`` makes each call advance ``clock``."""
    log = []
    charged = []
    for form, name in (("per-draw", "_loop_accuracies"),
                       ("stacked", "_stacked_accuracies")):
        real = getattr(executor, name)

        def counted(model, dataset, adapter, plan, rngs,
                    _real=real, _form=form):
            log.append((_form, len(rngs)))
            for clock in charged:
                clock.now += clock.cost[_form] * len(rngs)
            return _real(model, dataset, adapter, plan, rngs)

        monkeypatch.setattr(executor, name, counted)
    return log, charged.append


def _never(*_):
    raise AssertionError("the clock was read")


def _blobs(n_per=8):
    """Three separable classes as (N, 1, 2, 2) images, for the tiny MLP."""
    local = np.random.default_rng(7)
    centers = np.array([[2.0, 0.0, 0.0, -2.0], [-2.0, 0.0, 0.0, 2.0],
                        [0.0, 2.0, -2.0, 0.0]])
    images = np.concatenate(
        [c + local.normal(0, 0.6, size=(n_per, 4)) for c in centers]
    )
    return ArrayDataset(images.reshape(-1, 1, 2, 2), np.repeat(np.arange(3), n_per))


def _lenet():
    return LeNet5(num_classes=10, in_channels=1, input_size=16,
                  width_multiplier=0.5, seed=0)


def _family(name, tiny_test):
    """A fresh model of ``name`` in eval mode, and a split it accepts."""
    if name == "mlp":
        model, data = MLP(4, [8], 3, seed=0), _blobs()
    elif name == "lenet5":
        model, data = _lenet(), tiny_test
    elif name == "compensated-lenet5":
        plan = CompensationPlan({0: 1.0, 1: 0.5, 3: 0.5})
        model, data = plan.apply(_lenet(), seed=1), tiny_test
    else:  # analog-mlp: programming variation plus per-read noise
        model = analogize(MLP(4, [8], 3, seed=0),
                          tile_size=8, read_noise_sigma=0.01)
        data = _blobs()
    model.eval()
    return model, data


def _race(plan, model, dataset, clock):
    """Run ``plan`` chunk by chunk with ``clock``; the finished evaluation."""
    with IncrementalEvaluation(plan, model, dataset, clock=clock) as evaluation:
        while not evaluation.done:
            evaluation.run_chunk()
    return evaluation


class TestFakeClocksSteerTheRace:
    @pytest.mark.parametrize("per_draw, stacked, winner", [
        (1.0, 3.0, "per-draw"),
        (3.0, 1.0, "stacked"),
    ])
    def test_cheaper_form_runs_from_the_third_chunk(
        self, forms, mlp, blob_dataset, per_draw, stacked, winner
    ):
        log, charge = forms
        clock = StepClock(per_draw, stacked)
        charge(clock)
        plan = build_plan(mlp, LogNormalVariation(0.5),
                          n_samples=11, seed=4, vectorized=True,
                          chunk_samples=3)
        evaluation = _race(plan, mlp, blob_dataset, clock)
        # Two timed chunks, then the winner for the two that remain; the
        # short last chunk runs in the winning form too.
        assert log == [("per-draw", 3), ("stacked", 3), (winner, 3),
                       (winner, 2)]
        assert clock.calls == 4
        # Seconds per draw, not per chunk.
        assert evaluation.race == {"per-draw": per_draw, "stacked": stacked}
        assert evaluation.winner == winner
        assert evaluation.result() == execute(plan, mlp, blob_dataset)

    def test_the_decision_is_logged(self, mlp, blob_dataset, caplog):
        plan = build_plan(mlp, LogNormalVariation(0.5),
                          n_samples=8, seed=4, vectorized=True,
                          chunk_samples=2)
        times = iter([0.0, 2e-3, 1.0, 1.0 + 8e-3])
        with caplog.at_level(logging.INFO, logger="repro.evaluation.executor"):
            _race(plan, mlp, blob_dataset, lambda: next(times))
        (record,) = caplog.records
        assert record.getMessage() == (
            "race: per-draw 1 ms/draw, stacked 4 ms/draw; later chunks run "
            "per-draw (2 left in the schedule)"
        )

    def test_resumed_run_races_the_next_two_chunks(self, forms, mlp,
                                                   blob_dataset):
        log, charge = forms
        plan = build_plan(mlp, LogNormalVariation(0.5),
                          n_samples=12, seed=4, vectorized=True,
                          chunk_samples=2)
        reference = execute(plan, mlp, blob_dataset)
        clock = StepClock(3.0, 1.0)
        charge(clock)
        del log[:]
        evaluation = IncrementalEvaluation(plan, mlp, blob_dataset,
                                           clock=clock)
        evaluation.resume(reference.accuracies[:4])
        with evaluation:
            while not evaluation.done:
                evaluation.run_chunk()
        assert log == [("per-draw", 2), ("stacked", 2), ("stacked", 2),
                       ("stacked", 2)]
        assert evaluation.winner == "stacked"
        assert evaluation.result() == reference

    def test_adaptive_stop_before_the_decision(self, forms, mlp,
                                               blob_dataset):
        """A rule that fires on a timed chunk ends the race undecided. The
        look at draw 16 cuts the first 20-draw chunk, which is still
        timed per draw evaluated."""
        log, charge = forms
        clock = StepClock(1.0, 2.0)
        charge(clock)
        plan = build_plan(mlp, LogNormalVariation(0.5),
                          n_samples=60, seed=4, vectorized=True,
                          chunk_samples=20, tolerance=0.5, min_samples=2)
        evaluation = _race(plan, mlp, blob_dataset, clock)
        assert log == [("per-draw", 20)]
        assert evaluation.race == {"per-draw": 1.0}
        assert evaluation.winner is None
        result = evaluation.result()
        assert result.n_samples_used == 16 and result.stopped_early
        assert result == execute(plan, mlp, blob_dataset)


class TestRaceIsBitwiseNeutral:
    """The loop is the abstract machine; a raced run refines it."""

    @settings(max_examples=24, deadline=None)
    @given(data=st.data())
    def test_raced_result_equals_the_clockless_result(self, tiny_test, data):
        family = data.draw(st.sampled_from(
            ["mlp", "lenet5", "compensated-lenet5", "analog-mlp"]),
            label="family")
        model, dataset = _family(family, tiny_test)
        n_samples = data.draw(st.integers(1, 20), label="S")
        chunk = data.draw(st.integers(1, 4), label="chunk")
        tolerance = data.draw(
            st.one_of(st.none(), st.sampled_from([0.05, 0.1, 0.2])),
            label="tolerance")
        favour = data.draw(st.sampled_from(["per-draw", "stacked"]),
                           label="favour")
        plan = build_plan(model, LogNormalVariation(0.4),
                          n_samples=n_samples, seed=5, vectorized=True,
                          chunk_samples=chunk, tolerance=tolerance,
                          min_samples=2)
        assert plan.backend == "vectorized"
        fast, slow = 1.0, 4.0
        first, second = (fast, slow) if favour == "per-draw" else (slow, fast)
        times = iter([0.0, first, 10.0, 10.0 + second])

        raced = _race(plan, model, dataset, lambda: next(times))
        clockless = execute(plan, model, dataset)
        assert raced.result() == clockless
        assert raced.result().stopped_early == clockless.stopped_early
        assert raced.result().n_samples_used == clockless.n_samples_used
        if raced.winner is not None:
            assert raced.winner == favour


class TestRaceOnGrids:
    @pytest.mark.parametrize("tolerance", [None, 0.1])
    def test_sweep_sigma(self, lenet, tiny_test, tolerance):
        kwargs = dict(n_samples=8, seed=2, vectorized=True, chunk_samples=2,
                      tolerance=tolerance)
        plain = MonteCarloEvaluator(tiny_test, **kwargs)
        raced = MonteCarloEvaluator(tiny_test, clock=time.perf_counter,
                                    **kwargs)
        spec = LogNormalVariation(0.5)
        for sigma in [0.2, 0.6]:
            point = scale_to(spec, sigma)
            assert raced.evaluate(lenet, point) == plain.evaluate(lenet, point)


class TestClockNeverCalled:
    @pytest.mark.parametrize("kwargs", [
        dict(vectorized=False),
        dict(vectorized=False, n_workers=2),
        dict(vectorized=True, n_workers=2),
    ], ids=["loop", "pool", "vectorized-pool"])
    def test_loop_and_pool_plans(self, mlp, blob_dataset, kwargs):
        ev = MonteCarloEvaluator(blob_dataset, n_samples=8, seed=1,
                                 chunk_samples=2, clock=_never, **kwargs)
        plain = MonteCarloEvaluator(blob_dataset, n_samples=8, seed=1,
                                    chunk_samples=2, **kwargs)
        spec = LogNormalVariation(0.5)
        assert ev.evaluate(mlp, spec) == plain.evaluate(mlp, spec)

    def test_deterministic_plan(self, mlp, blob_dataset):
        plan = build_plan(mlp, NoVariation(), n_samples=8,
                          seed=1, vectorized=True, chunk_samples=2)
        assert plan.deterministic
        assert execute(plan, mlp, blob_dataset, clock=_never).accuracies \
            == execute(plan, mlp, blob_dataset).accuracies
        assert _race(plan, mlp, blob_dataset, _never).race == {}

    def test_nominal_shortcut(self, mlp, blob_dataset):
        silent = tail_spec(mlp, LogNormalVariation(0.5),
                           len(weighted_layers(mlp)))
        plan = build_plan(mlp, silent, n_samples=8, seed=1,
                          vectorized=True, chunk_samples=2)
        assert _race(plan, mlp, blob_dataset, _never).result() \
            == execute(plan, mlp, blob_dataset)

    @pytest.mark.parametrize("chunk", [8, 4], ids=["one-chunk", "two-chunk"])
    def test_too_few_chunks_to_use_a_decision(self, mlp, blob_dataset,
                                              chunk):
        plan = build_plan(mlp, LogNormalVariation(0.5),
                          n_samples=8, seed=1, vectorized=True,
                          chunk_samples=chunk)
        evaluation = _race(plan, mlp, blob_dataset, _never)
        assert evaluation.winner is None
        assert evaluation.result() == execute(plan, mlp, blob_dataset)

    def test_no_clock_reads_no_time(self, monkeypatch, forms, mlp,
                                    blob_dataset):
        log, _ = forms
        plan = build_plan(mlp, LogNormalVariation(0.5),
                          n_samples=8, seed=1, vectorized=True,
                          chunk_samples=2)
        with monkeypatch.context() as patched:
            for name in ("perf_counter", "monotonic", "time",
                         "process_time"):
                patched.setattr(time, name, _never)
            evaluation = _race(plan, mlp, blob_dataset, None)
        assert log == [("stacked", 2)] * 4
        assert evaluation.race == {} and evaluation.winner is None


class TestAutotunePlan:
    """The clock never enters a plan, and never moves a result."""

    def test_tuned_plan_is_bitwise_neutral(self, mlp, blob_dataset):
        kwargs = dict(n_samples=12, seed=11, vectorized=True, chunk_samples=3)
        tuned = MonteCarloEvaluator(blob_dataset, clock=time.perf_counter,
                                    **kwargs)
        plain = MonteCarloEvaluator(blob_dataset, **kwargs)
        spec = LogNormalVariation(0.5)
        assert tuned.evaluate(mlp, spec) == plain.evaluate(mlp, spec)

    def test_restores_training_mode(self, mlp, blob_dataset):
        mlp.train()
        MonteCarloEvaluator(blob_dataset, n_samples=8, seed=11,
                            vectorized=True, chunk_samples=2,
                            clock=time.perf_counter).evaluate(
            mlp, LogNormalVariation(0.5))
        assert mlp.training

    def test_adaptive_knobs_survive_tuning(self, mlp, blob_dataset):
        """The clock leaves an adaptive plan's chunk size and rule as the
        caller set them. A weight-domain plan carries no data block, so the
        evaluator's ``data_block`` does not split it either: its passes
        follow the chunk."""
        kwargs = dict(n_samples=32, seed=11, vectorized=True,
                      chunk_samples=2, tolerance=0.02, min_samples=4)
        mlp.eval()
        spec = LogNormalVariation(0.5)
        tuned = MonteCarloEvaluator(blob_dataset, clock=time.perf_counter,
                                    data_block=16, **kwargs).plan(mlp, spec)
        assert tuned == MonteCarloEvaluator(blob_dataset, **kwargs).plan(
            mlp, spec)
        assert tuned.stopping is not None
        assert (tuned.chunk_samples, tuned.data_block) == (2, None)
        assert tuned.images_per_pass(tuned.chunk_samples) == LOOP_BATCH // 2


class TestAutotuneCLI:
    def test_adaptive_autotune_matches_the_loop(self, tmp_path, monkeypatch,
                                                capsys, caplog):
        """The default engine races, and with ``--tolerance`` returns the
        loop's draws: neither the race, the chunk size nor a pool of
        either form moves the stop point, which is the rule's first
        satisfied look."""
        monkeypatch.setitem(
            DATASET_FACTORIES, "synth_mnist",
            lambda: synth_mnist(train_per_class=20, test_per_class=1),
        )
        checkpoint = str(tmp_path / "mlp.npz")
        cli.train_main(["--model", "mlp", "--dataset", "synth_mnist",
                        "--epochs", "5", "--lr", "1e-2", "--save", checkpoint])
        dumps = {}
        for name, flags in (
            ("raced", ["--chunk-samples", "2"]),
            ("loop", ["--chunk-samples", "2", "--engine", "loop"]),
            ("chunk16", ["--chunk-samples", "16", "--engine", "loop"]),
            ("pool", ["--chunk-samples", "2", "--engine", "loop",
                      "--workers", "2"]),
            ("vectorized-pool", ["--chunk-samples", "2", "--workers", "2"]),
        ):
            dumps[name] = str(tmp_path / f"{name}.json")
            with caplog.at_level(logging.INFO,
                                 logger="repro.evaluation.executor"):
                assert cli.eval_main([
                    "--model", "mlp", "--dataset", "synth_mnist",
                    "--checkpoint", checkpoint, "--sigma", "0.7",
                    "--tolerance", "0.2", "--samples", "48",
                    "--dump-accuracies", dumps[name], *flags,
                ]) == 0
        capsys.readouterr()
        loop = json.load(open(dumps["loop"]))
        # The first look stopped the run: eight 2-draw chunks ran, so the
        # race decided after the second, long before the rule fired.
        assert len(loop) == 16
        assert json.load(open(dumps["raced"])) == loop
        assert json.load(open(dumps["chunk16"])) == loop
        assert json.load(open(dumps["pool"])) == loop
        assert json.load(open(dumps["vectorized-pool"])) == loop
        # Only the default engine's in-process run raced (pool workers
        # do not), and its log says so.
        races = [r for r in caplog.records
                 if r.getMessage().startswith("race:")]
        assert len(races) == 1
