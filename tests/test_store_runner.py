"""Job runner: resume is bitwise, dedup is zero-work, caching is real.

The acceptance properties of the evaluation service live here:

- a drained job's stored result is bitwise-identical to a direct
  ``execute()`` of the same plan;
- an interrupted-then-resumed job (cooperative preemption or crashed
  lease) is bitwise-identical to an uninterrupted run — including where
  an adaptive rule stops it, inside a chunk or at its end — which a
  property checks over drawn chunk sizes, claim sizes, caps and rules;
- resubmitting a finished evaluation is a cache hit and performs zero
  work;
- ``cached_evaluate`` returns the stored payload without re-executing,
  on a miss stores what executing the evaluator's plan returns, and
  refuses analog plans, which it cannot tell apart;
- a job whose chunk is below one is refused at materialization, before
  it can reach the store;
- a job row stored while requests still carried ``data_block`` and
  ``min_samples`` keeps its fingerprint and runs.

Evaluations run on a miniature dataset (the factory registry is patched)
so the whole file stays unit-test sized.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, HealthCheck, settings, strategies as st

from repro.data import DATASET_FACTORIES, synth_mnist
from repro.evaluation.executor import execute, IncrementalEvaluation
from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.evaluation.plan import build_plan
from repro.models.registry import build_model
from repro.store import JobRequest, materialize, ResultStore
from repro.store.runner import cached_evaluate, drain


def _tiny_factory():
    return synth_mnist(train_per_class=6, test_per_class=3)


@pytest.fixture(autouse=True)
def tiny_datasets(monkeypatch):
    monkeypatch.setitem(DATASET_FACTORIES, "synth_mnist", _tiny_factory)


def _request(**overrides):
    kwargs = dict(
        model="mlp",
        dataset="synth_mnist",
        variation={"kind": "lognormal", "sigma": 0.4},
        n_samples=6,
        seed=7,
        chunk_samples=2,
    )
    kwargs.update(overrides)
    return JobRequest(**kwargs)


@pytest.fixture()
def store(tmp_path):
    with ResultStore(str(tmp_path / "store.sqlite")) as s:
        yield s


def _direct_accuracies(request):
    m = materialize(request)
    return [float(a) for a in execute(m.plan, m.model, m.dataset).accuracies]


class TestDrain:
    def test_drained_result_is_bitwise_equal_to_direct_execute(self, store):
        request = _request()
        m = materialize(request)
        store.submit(m.fingerprint, m.request.to_dict())
        stats = drain(store, owner="w1")
        assert [o.status for o in stats.outcomes] == ["done"]
        stored = store.result(m.fingerprint)
        assert stored["accuracies"] == _direct_accuracies(request)
        assert store.job(m.fingerprint).state == "done"

    def test_resubmit_after_done_is_zero_work(self, store):
        request = _request()
        m = materialize(request)
        store.submit(m.fingerprint, m.request.to_dict())
        drain(store, owner="w1")
        attempts_before = store.job(m.fingerprint).attempts
        outcome = store.submit(m.fingerprint, m.request.to_dict())
        assert outcome.cache_hit
        stats = drain(store, owner="w2")
        assert stats.outcomes == []  # nothing claimable: zero work
        assert store.job(m.fingerprint).attempts == attempts_before

    def test_max_chunks_preempts_and_resume_is_bitwise(self, store):
        request = _request()
        m = materialize(request)
        store.submit(m.fingerprint, m.request.to_dict())
        first = drain(store, owner="w1", max_jobs=1, max_chunks_per_job=1)
        outcome = first.outcomes[0]
        assert outcome.status == "preempted"
        assert outcome.chunks_run == 1 and outcome.draws == 2
        assert store.job(m.fingerprint).state == "pending"
        second = drain(store, owner="w2")
        resumed = second.outcomes[0]
        assert resumed.status == "done" and resumed.resumed_draws == 2
        assert store.result(m.fingerprint)["accuracies"] == \
            _direct_accuracies(request)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(chunk=st.integers(1, 8), per_claim=st.integers(1, 3),
           cap=st.integers(17, 32), tolerance=st.sampled_from([None, 0.06]))
    def test_preempted_steps_drain_to_the_direct_result(
        self, chunk, per_claim, cap, tolerance
    ):
        """Drained ``per_claim`` chunks per claim, each claim resuming the
        last one's stored prefix, a job ends bitwise where a direct run
        ends, at every chunk size, and where an adaptive rule stops it
        (the cap is above the first look, at 16 draws)."""
        request = _request(n_samples=cap, chunk_samples=chunk,
                           tolerance=tolerance)
        with tempfile.TemporaryDirectory() as tmp, \
                ResultStore(os.path.join(tmp, "store.sqlite")) as store:
            m = materialize(request)
            store.submit(m.fingerprint, m.request.to_dict())
            held = 0
            for step in range(cap + 1):
                (outcome,) = drain(store, owner=f"w{step}", max_jobs=1,
                                   max_chunks_per_job=per_claim).outcomes
                assert outcome.resumed_draws == held
                assert outcome.draws > held or outcome.status == "done"
                held = outcome.draws
                if outcome.status == "done":
                    break
                assert outcome.status == "preempted"
            assert store.job(m.fingerprint).state == "done"
            assert store.result(m.fingerprint)["accuracies"] == \
                _direct_accuracies(request)

    def test_crashed_lease_resume_is_bitwise(self, store):
        """A runner that dies mid-job (chunks persisted, lease held) is
        fenced out and its job finishes bitwise-identically elsewhere."""
        from repro.store.db import StaleLeaseError

        request = _request()
        m = materialize(request)
        store.submit(m.fingerprint, m.request.to_dict())
        # Simulate the crash: claim with an already-expired lease and
        # persist one chunk, then never release.
        row = store.claim("crasher", lease_seconds=0.0)
        ev = IncrementalEvaluation(
            m.plan, m.model, m.dataset,
            on_chunk=lambda i, s, t, a: store.put_chunk(
                row.fingerprint, "crasher", i, s, t, list(a)),
        )
        with ev:
            ev.run_chunk()
        stats = drain(store, owner="rescuer")
        assert stats.done == 1
        assert stats.outcomes[0].resumed_draws == 2
        assert store.result(m.fingerprint)["accuracies"] == \
            _direct_accuracies(request)
        # The zombie is fenced out of the finished job.
        with pytest.raises(StaleLeaseError):
            store.put_chunk(row.fingerprint, "crasher", 1, 2, 4, [0.0, 0.0])

    def test_adaptive_job_resumes_to_the_same_stop_point(self, store):
        request = _request(tolerance=0.06, n_samples=24)
        m = materialize(request)
        direct = execute(m.plan, m.model, m.dataset)
        assert direct.stopped_early
        store.submit(m.fingerprint, m.request.to_dict())
        first = drain(store, owner="w1", max_jobs=1, max_chunks_per_job=1)
        assert first.outcomes[0].status == "preempted"
        drain(store, owner="w2")
        stored = store.result(m.fingerprint)
        assert stored["accuracies"] == [float(a) for a in direct.accuracies]
        assert stored["stopped_early"] == direct.stopped_early

    def test_job_killed_after_a_cut_chunk_finalizes_the_direct_result(
        self, store
    ):
        """At chunk 6 the rule's look at draw 16 cuts the third chunk:
        the runner persists [0, 6), [6, 12) and [12, 16). A runner killed
        before finalize leaves exactly that prefix, and a fresh drain
        finalizes the default-chunk run's result without evaluating
        another chunk."""
        request = _request(tolerance=0.06, n_samples=32, chunk_samples=6)
        m = materialize(request)
        default = materialize(replace(request, chunk_samples=None))
        assert default.fingerprint == m.fingerprint
        direct = execute(default.plan, default.model, default.dataset)
        assert direct.n_samples_used == 16
        store.submit(m.fingerprint, m.request.to_dict())
        row = store.claim("crasher", lease_seconds=0.0)
        persisted = []

        def emit(index, start, stop, accs):
            persisted.append((index, start, stop))
            store.put_chunk(row.fingerprint, "crasher", index, start, stop,
                            list(accs))

        with IncrementalEvaluation(m.plan, m.model, m.dataset,
                                   on_chunk=emit) as ev:
            while not ev.done:
                ev.run_chunk()
        # Killed here: the lease is held and nothing was finalized.
        assert persisted == [(0, 0, 6), (1, 6, 12), (2, 12, 16)]
        assert store.job(m.fingerprint).state != "done"
        stats = drain(store, owner="rescuer")
        (outcome,) = stats.outcomes
        assert outcome.status == "done"
        assert (outcome.resumed_draws, outcome.chunks_run) == (16, 0)
        assert store.result(m.fingerprint) == direct.to_dict()

    def test_fingerprint_mismatch_fails_the_job(self, store, tmp_path):
        train, _ = _tiny_factory()
        checkpoint = str(tmp_path / "ckpt.npz")
        model = build_model("mlp", train, seed=3)
        model.save(checkpoint)
        request = _request(checkpoint=checkpoint)
        m = materialize(request)
        store.submit(m.fingerprint, m.request.to_dict())
        # The checkpoint file changes between submit and run.
        build_model("mlp", train, seed=4).save(checkpoint)
        stats = drain(store, owner="w1")
        assert stats.failed == 1
        row = store.job(m.fingerprint)
        assert row.state == "failed"
        assert "fingerprint mismatch" in row.error

    def test_a_row_with_the_removed_knobs_keeps_its_fingerprint(self, store):
        """A row stored while requests carried ``data_block`` and
        ``min_samples`` loads (``from_dict`` ignores both keys),
        re-materializes to its stored fingerprint, the default stopping
        floor included, and runs to the direct result."""
        request = _request(tolerance=0.06, n_samples=24)
        m = materialize(request)
        stale = dict(m.request.to_dict(), data_block=64, min_samples=None)
        assert materialize(JobRequest.from_dict(stale)).fingerprint == \
            m.fingerprint
        store.submit(m.fingerprint, stale)
        stats = drain(store, owner="w1")
        assert [o.status for o in stats.outcomes] == ["done"]
        assert store.result(m.fingerprint)["accuracies"] == \
            _direct_accuracies(request)

    def test_run_job_requires_positive_max_chunks(self, store):
        with pytest.raises(ValueError, match="at least 1"):
            drain(store, owner="w", max_chunks_per_job=0)


class TestMaterializeValidation:
    @pytest.mark.parametrize("knob", [dict(chunk_samples=0),
                                      dict(chunk_samples=-3)],
                             ids=["chunk-0", "chunk-neg"])
    def test_non_positive_chunk_or_block_is_refused(self, knob):
        (name,) = knob
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            materialize(_request(**knob))


class TestMaterializeSplit:
    def test_a_second_materialize_reuses_the_read_only_split(self, monkeypatch):
        """One split per factory: later jobs on the dataset reuse it and its
        digest, and cannot write to it."""
        calls = []

        def counting_factory():
            calls.append(1)
            return _tiny_factory()

        monkeypatch.setitem(DATASET_FACTORIES, "synth_mnist", counting_factory)
        first = materialize(_request())
        second = materialize(_request(variation={"kind": "lognormal", "sigma": 0.2}))
        assert len(calls) == 1
        assert second.dataset is first.dataset
        for array in (first.dataset.images, first.dataset.labels):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # The cached split fingerprints as the fresh one does.
        _, test = _tiny_factory()
        assert np.array_equal(first.dataset.images, test.images)
        assert first.fingerprint == materialize(_request()).fingerprint

    def test_a_swapped_factory_gets_its_own_split(self, monkeypatch):
        """The memo keys on the factory object, not the registry name."""
        before = materialize(_request())

        def smaller():
            return synth_mnist(train_per_class=6, test_per_class=2)

        monkeypatch.setitem(DATASET_FACTORIES, "synth_mnist", smaller)
        after = materialize(_request())
        assert len(after.dataset) == 20 and len(before.dataset) == 30
        assert after.fingerprint != before.fingerprint

    def test_the_factory_output_stays_writable(self, monkeypatch):
        """Only the cached views are read-only: arrays the factory hands
        out elsewhere keep their flags."""
        train, test = _tiny_factory()
        monkeypatch.setitem(DATASET_FACTORIES, "synth_mnist", lambda: (train, test))
        materialize(_request())
        assert test.images.flags.writeable and train.labels.flags.writeable


class TestCachedEvaluate:
    def test_a_hit_returns_what_the_miss_executed(self, tmp_path):
        """A miss stores the result of executing the evaluator's plan, and
        a hit returns it bitwise."""
        train, test = _tiny_factory()
        model = build_model("mlp", train, seed=0)
        evaluator = MonteCarloEvaluator(test, n_samples=8, seed=7,
                                        vectorized=True, chunk_samples=2)
        path = str(tmp_path / "cache.sqlite")
        result = cached_evaluate(path, evaluator, model, "lognormal:0.3")
        model.eval()
        executed = execute(evaluator.plan(model, "lognormal:0.3"), model,
                           test)
        assert result == executed
        assert cached_evaluate(path, evaluator, model, "lognormal:0.3") \
            == executed

    def test_miss_executes_and_matches_direct(self, tmp_path):
        train, test = _tiny_factory()
        model = build_model("mlp", train, seed=0)
        evaluator = MonteCarloEvaluator(test, n_samples=5, seed=7,
                                        vectorized=True)
        path = str(tmp_path / "cache.sqlite")
        result = cached_evaluate(path, evaluator, model, "lognormal:0.3")
        direct = evaluator.evaluate(model, "lognormal:0.3")
        assert result.accuracies == direct.accuracies

    def test_hit_returns_the_stored_payload_without_executing(self, tmp_path):
        train, test = _tiny_factory()
        model = build_model("mlp", train, seed=0)
        evaluator = MonteCarloEvaluator(test, n_samples=5, seed=7,
                                        vectorized=True)
        path = str(tmp_path / "cache.sqlite")
        cached_evaluate(path, evaluator, model, "lognormal:0.3")
        # Plant a sentinel payload under the fingerprint: a second call
        # must return it verbatim — proof it looked up rather than ran.
        from repro.store.fingerprint import plan_fingerprint

        model.eval()
        fingerprint = plan_fingerprint(
            evaluator.plan(model, "lognormal:0.3"), model, test
        )
        model.train()
        sentinel = {"accuracies": [0.123], "stopped_early": False,
                    "confidence": 0.95, "ci_method": "clt"}
        with ResultStore(path) as store:
            store.put_result(fingerprint, sentinel)
        again = cached_evaluate(path, evaluator, model, "lognormal:0.3")
        assert again.accuracies == [0.123]

    def test_restores_training_mode(self, tmp_path):
        train, test = _tiny_factory()
        model = build_model("mlp", train, seed=0)
        model.train()
        evaluator = MonteCarloEvaluator(test, n_samples=3, seed=7)
        cached_evaluate(str(tmp_path / "c.sqlite"), evaluator, model,
                        "lognormal:0.3")
        assert model.training

    def test_analog_plans_are_refused(self, tmp_path):
        """An analogized model's ``state_dict`` is empty, so two chips with
        different weights and converters digest alike and would share one
        cache entry. ``cached_evaluate`` refuses them and records nothing;
        analog evaluations go through store jobs."""
        from repro.hardware import ADC, analogize
        from repro.utils.digest import weights_digest

        train, test = _tiny_factory()
        chips = [
            analogize(build_model("mlp", train, seed=seed), adc=ADC(bits))
            for seed, bits in ((0, 8), (1, 3))
        ]
        assert weights_digest(chips[0]) == weights_digest(chips[1])
        evaluator = MonteCarloEvaluator(test, n_samples=4, seed=7)
        path = str(tmp_path / "c.sqlite")
        for chip in chips:
            with pytest.raises(ValueError, match="store job"):
                cached_evaluate(path, evaluator, chip, "lognormal:0.3")
        with ResultStore(path) as store:
            assert store.jobs() == []


class TestIncrementalResume:
    """The executor-side resume contract the runner builds on."""

    def _plan(self, mlp, **overrides):
        kwargs = dict(n_samples=6, seed=5, vectorized=True, chunk_samples=2)
        kwargs.update(overrides)
        mlp.eval()
        return build_plan(mlp, "lognormal:0.4", **kwargs)

    def test_resume_must_precede_run_chunk(self, mlp, blob_dataset):
        plan = self._plan(mlp)
        ev = IncrementalEvaluation(plan, mlp, blob_dataset)
        with ev:
            ev.run_chunk()
        with pytest.raises(RuntimeError, match="must precede"):
            ev.resume([0.5, 0.5])

    def test_resume_rejects_misaligned_prefix(self, mlp, blob_dataset):
        plan = self._plan(mlp)
        ev = IncrementalEvaluation(plan, mlp, blob_dataset)
        with pytest.raises(ValueError, match="not aligned"):
            ev.resume([0.5])  # one draw into a 2-draw chunk

    def test_resume_rejects_prefix_past_schedule(self, mlp, blob_dataset):
        plan = self._plan(mlp)
        ev = IncrementalEvaluation(plan, mlp, blob_dataset)
        with pytest.raises(ValueError, match="extends past"):
            ev.resume([0.5] * 8)

    def _cut_plan(self, mlp):
        """32 draws in chunks of 6: the look at draw 16 falls inside
        chunk [12, 18), and constant draws satisfy the rule there."""
        return self._plan(mlp, n_samples=32, chunk_samples=6, tolerance=0.1)

    def test_resume_accepts_a_last_row_cut_at_a_satisfied_look(
        self, mlp, blob_dataset
    ):
        ev = IncrementalEvaluation(self._cut_plan(mlp), mlp, blob_dataset)
        ev.resume([0.5] * 16)
        assert ev.done and ev.result().n_samples_used == 16

    def test_resume_rejects_a_prefix_past_a_satisfied_look(
        self, mlp, blob_dataset
    ):
        ev = IncrementalEvaluation(self._cut_plan(mlp), mlp, blob_dataset)
        with pytest.raises(ValueError, match="extends past"):
            ev.resume([0.5] * 18)  # the whole chunk, past the look at 16

    @pytest.mark.parametrize("prefix", [
        [0.5] * 15,        # short row that ends before any look
        [0.0, 1.0] * 8,    # short row at a look the rule does not accept
    ], ids=["off-look", "unsatisfied-look"])
    def test_resume_rejects_a_short_row_off_a_satisfied_look(
        self, mlp, blob_dataset, prefix
    ):
        ev = IncrementalEvaluation(self._cut_plan(mlp), mlp, blob_dataset)
        with pytest.raises(ValueError, match="not aligned"):
            ev.resume(prefix)

    def test_streamed_chunks_reassemble_the_full_run(self, mlp, blob_dataset):
        """The runner's loop streams each chunk through ``on_chunk`` in
        schedule order, and the stream reassembles what ``execute``
        returns in every form and at every worker count."""
        for vectorized in (True, False):
            seen = []
            evaluation = IncrementalEvaluation(
                self._plan(mlp, vectorized=vectorized), mlp, blob_dataset,
                on_chunk=lambda i, s, t, a: seen.append((i, s, t, list(a))),
            )
            with evaluation:
                while not evaluation.done:
                    evaluation.run_chunk()
            assert [i for i, *_ in seen] == [0, 1, 2], vectorized
            streamed = [a for *_, accs in seen for a in accs]
            for n_workers in (0, 2):
                plan = self._plan(mlp, vectorized=vectorized,
                                  n_workers=n_workers)
                result = execute(plan, mlp, blob_dataset)
                assert streamed == result.accuracies, (vectorized, n_workers)
