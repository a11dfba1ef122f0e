"""Plan fingerprints: canonical, content-addressed, execution-blind.

The invariant under test (docs/CONTRACTS.md "Fingerprint invariant"):
two plans fingerprint identically iff they describe the same *logical*
evaluation — weights, dataset, spec, seed schedule, domain, stopping —
and never differ because of execution knobs, dict insertion order, numpy
scalar types, or the interpreter's hash randomization.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data import DATASET_FACTORIES, synth_mnist
from repro.data.dataset import ArrayDataset
from repro.evaluation import (
    execute,
    layer_sweep,
    MonteCarloEvaluator,
    tail_spec,
)
from repro.evaluation.plan import build_plan
from repro.evaluation.sequential import HalfWidthRule
from repro.models import MLP
from repro.models.registry import build_model
from repro.store import JobRequest, materialize, ResultStore
from repro.store.fingerprint import (
    canonical_json,
    dataset_digest,
    fingerprint_payload,
    plan_fingerprint,
    stopping_payload,
    weights_digest,
)
from repro.store.runner import drain
from repro.utils.rng import spawn_rngs
from repro.variation.spec import to_dict


def _model():
    return MLP(4, [8], 3, seed=0)


def _dataset():
    images = np.arange(2 * 1 * 2 * 2, dtype=np.float64).reshape(2, 1, 2, 2) / 7.0
    return ArrayDataset(images, np.array([0, 1]))


def _blobs(n_per=10):
    """Three noisy classes as (N, 1, 2, 2) images: under ``lognormal:0.8``
    on seed 9 the untrained MLP's draws spread enough that tolerances in
    [0.02, 0.2] stop at draw 16, 32, 48 or not at all."""
    local = np.random.default_rng(7)
    centers = np.array([[2.0, 0.0, 0.0, -2.0], [-2.0, 0.0, 0.0, 2.0],
                        [0.0, 2.0, -2.0, 0.0]])
    images = np.concatenate(
        [c + local.normal(0, 0.6, size=(n_per, 4)) for c in centers]
    )
    return ArrayDataset(images.reshape(-1, 1, 2, 2),
                        np.repeat(np.arange(3), n_per))


def _plan(model, variation="lognormal:0.4", **overrides):
    kwargs = dict(n_samples=5, seed=9, vectorized=True)
    kwargs.update(overrides)
    return build_plan(model, variation, **kwargs)


class TestCanonicalJson:
    def test_key_insertion_order_is_invisible(self):
        a = {"x": 1, "y": {"b": 2.0, "a": [3, 4]}}
        b = {"y": {"a": [3, 4], "b": 2.0}, "x": 1}
        assert canonical_json(a) == canonical_json(b)

    def test_numpy_scalars_coerce_to_python(self):
        assert canonical_json({"v": np.float64(0.5)}) == canonical_json({"v": 0.5})
        assert canonical_json({"v": np.int32(7)}) == canonical_json({"v": 7})
        assert canonical_json({"v": np.bool_(True)}) == canonical_json({"v": True})

    def test_tuples_and_lists_are_the_same_sequence(self):
        assert canonical_json({"v": (1, 2)}) == canonical_json({"v": [1, 2]})

    def test_nan_and_inf_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"v": float("nan")})
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"v": float("inf")})

    def test_non_string_keys_rejected(self):
        with pytest.raises(ValueError, match="keys must be str"):
            canonical_json({1: "x"})

    def test_unserializable_values_rejected(self):
        with pytest.raises(ValueError, match="not canonically serializable"):
            canonical_json({"v": object()})


class TestContentDigests:
    def test_weights_digest_tracks_content_not_identity(self):
        assert weights_digest(_model()) == weights_digest(_model())
        perturbed = _model()
        params = dict(perturbed.named_parameters())
        next(iter(params.values())).data += 1e-6
        assert weights_digest(perturbed) != weights_digest(_model())

    def test_dataset_digest_tracks_content(self):
        assert dataset_digest(_dataset()) == dataset_digest(_dataset())
        other = _dataset()
        shifted = ArrayDataset(other.images + 1e-9, other.labels)
        assert dataset_digest(shifted) != dataset_digest(other)


class TestFingerprintInvariant:
    @settings(max_examples=40, deadline=None)
    @given(
        knobs=st.fixed_dictionaries({
            "vectorized": st.booleans(),
            "n_workers": st.integers(0, 3),
            "chunk_samples": st.one_of(st.none(), st.integers(1, 7)),
            "data_block": st.integers(1, 128),
        }),
        tolerance=st.one_of(st.none(), st.sampled_from([0.02, 0.1])),
    )
    def test_execution_knobs_are_provably_excluded(self, knobs, tolerance):
        """Backend, workers, chunking, data blocking: every plan
        fingerprints like its reference, fixed-S or adaptive."""
        model, dataset = _model(), _dataset()
        reference = plan_fingerprint(
            _plan(model, tolerance=tolerance), model, dataset
        )
        plan = _plan(model, tolerance=tolerance, **knobs)
        assert plan_fingerprint(plan, model, dataset) == reference

    @settings(max_examples=50, deadline=None)
    @given(
        chunk=st.integers(1, 40),
        vectorized=st.booleans(),
        n_workers=st.sampled_from([0, 2]),
        tolerance=st.one_of(st.none(), st.floats(0.02, 0.2)),
        min_samples=st.one_of(st.none(), st.integers(1, 40)),
        n_samples=st.integers(1, 64),
    )
    @example(chunk=2, vectorized=False, n_workers=0, tolerance=0.1,
             min_samples=None, n_samples=64)
    @example(chunk=6, vectorized=False, n_workers=2, tolerance=0.06,
             min_samples=None, n_samples=64)
    @example(chunk=6, vectorized=True, n_workers=2, tolerance=0.06,
             min_samples=None, n_samples=64)
    @example(chunk=40, vectorized=True, n_workers=0, tolerance=0.045,
             min_samples=20, n_samples=64)
    def test_execution_knobs_never_move_the_result(
        self, chunk, vectorized, n_workers, tolerance, min_samples, n_samples
    ):
        """The result-level form of the exclusion above: any chunk, in
        either form, in-process or from a 2-worker pool, returns the
        default-chunk loop run's ``MCResult``, fixed-S or adaptive,
        because the rule's looks do not move with the chunking."""
        model, dataset = _model(), _blobs()
        model.eval()
        common = dict(n_samples=n_samples, seed=9, tolerance=tolerance,
                      min_samples=min_samples)
        reference = execute(
            build_plan(model, "lognormal:0.8", **common),
            model, dataset,
        )
        plan = build_plan(model, "lognormal:0.8", chunk_samples=chunk,
                          vectorized=vectorized, n_workers=n_workers,
                          **common)
        assert plan.backend == ("vectorized" if vectorized else "loop")
        assert execute(plan, model, dataset).to_dict() == reference.to_dict()

    def test_chunk_2_and_16_jobs_drain_to_one_result(self, tmp_path):
        """Two jobs that differ only in ``chunk_samples`` share a
        fingerprint, so the store serves one result to both: it must be
        the one either would compute. On ``mlp``, ``synth_mnist``,
        ``lognormal:0.3``, S=64, tolerance 0.05 and seed 3, both stop at
        the rule's first look, 16 draws (a chunk-2 job used to stop
        after 4)."""
        prints, results = set(), []
        for chunk in (2, 16):
            request = JobRequest(
                model="mlp", dataset="synth_mnist",
                variation={"kind": "lognormal", "sigma": 0.3},
                n_samples=64, seed=3, tolerance=0.05, chunk_samples=chunk,
            )
            m = materialize(request)
            prints.add(m.fingerprint)
            with ResultStore(str(tmp_path / f"chunk{chunk}.sqlite")) as store:
                store.submit(m.fingerprint, m.request.to_dict())
                assert drain(store, owner="w").done == 1
                results.append(store.result(m.fingerprint))
        assert len(prints) == 1
        assert results[0] == results[1]
        assert len(results[0]["accuracies"]) == 16
        assert results[0]["stopped_early"]

    def test_request_with_a_dropped_key_still_loads(self):
        """Requests stored before the CI method left ``JobRequest`` carry
        its key; ``from_dict`` ignores it and rebuilds the same request."""
        request = JobRequest(
            model="mlp", dataset="synth_mnist",
            variation={"kind": "lognormal", "sigma": 0.3},
            n_samples=4, seed=3, tolerance=0.05,
        )
        stored = dict(request.to_dict(), ci_method="clt")
        assert JobRequest.from_dict(stored) == request

    def test_logical_inputs_all_enter_the_hash(self):
        model, dataset = _model(), _dataset()
        reference = plan_fingerprint(_plan(model), model, dataset)
        distinct = [
            _plan(model, n_samples=6),
            _plan(model, seed=10),
            build_plan(model, "lognormal:0.5",
                       n_samples=5, seed=9, vectorized=True),
            _plan(model, tolerance=0.05),
        ]
        prints = {plan_fingerprint(p, model, dataset) for p in distinct}
        assert reference not in prints
        assert len(prints) == len(distinct)

    def test_model_and_dataset_content_enter_the_hash(self):
        model, dataset = _model(), _dataset()
        plan = _plan(model)
        reference = plan_fingerprint(plan, model, dataset)
        perturbed = _model()
        params = dict(perturbed.named_parameters())
        next(iter(params.values())).data += 1e-6
        assert plan_fingerprint(plan, perturbed, dataset) != reference
        shifted = ArrayDataset(dataset.images + 1e-9, dataset.labels)
        assert plan_fingerprint(plan, model, shifted) != reference

    def test_analog_params_enter_the_hash(self):
        """The job store hashes a request's analog parameters next to the
        pre-``analogize`` weight digest (``materialize``)."""
        plan = _plan(_model())
        bare = fingerprint_payload(plan, "m", "d")
        analog = fingerprint_payload(plan, "m", "d",
                                     analog={"dac_bits": 6, "tile_size": 128})
        assert canonical_json(bare) != canonical_json(analog)

    def test_tail_specs_fingerprint_by_first(self):
        """Fig. 9's layer subsets are specs: the all-layers point is the
        plain evaluation, and every other start layer is its own entry."""
        model, dataset = _model(), _dataset()
        prints = [
            plan_fingerprint(
                _plan(model, variation=tail_spec(model, "lognormal:0.4",
                                                          first)),
                model, dataset,
            )
            for first in range(3)
        ]
        assert prints[0] == plan_fingerprint(_plan(model), model,
                                             dataset)
        assert len(set(prints)) == 3

    def test_live_generator_seed_rejected(self):
        plan = _plan(_model(), seed=spawn_rngs(0, 1)[0])
        with pytest.raises(ValueError, match="portable seed"):
            fingerprint_payload(plan, "m", "d")

    def test_stopping_rule_canonical_forms(self):
        assert stopping_payload(None) is None
        rule = HalfWidthRule(tolerance=0.02, min_samples=4)
        payload = stopping_payload(rule)
        assert payload is not None and payload["kind"] == "half_width"
        assert payload["tolerance"] == 0.02

        class Exotic:
            def satisfied(self, accs):
                return False

        with pytest.raises(ValueError, match="no canonical fingerprint"):
            stopping_payload(Exotic())


class TestStoredBytes:
    """Literal bytes the store has written — a stopping payload, an
    adaptive plan's fingerprint, an adaptive result — stay what stored
    rows and caches hold."""

    def test_stopping_payload(self):
        assert stopping_payload(HalfWidthRule(0.02)) == {
            "kind": "half_width", "tolerance": 0.02, "confidence": 0.95,
            "method": "clt", "min_samples": 4,
        }

    def test_adaptive_plan_fingerprint(self):
        model, dataset = _model(), _dataset()
        assert plan_fingerprint(_plan(model, tolerance=0.05), model,
                                dataset) == (
            "9922b91565490a7196ebc34533af3be4"
            "9d242eba4dd017594506e49a7a8e403e"
        )

    def test_adaptive_result_payload(self):
        result = MonteCarloEvaluator(
            _blobs(), n_samples=48, seed=9, tolerance=0.1
        ).evaluate(_model(), "lognormal:0.8")
        assert result.to_dict() == {
            "accuracies": [
                0.3, 0.13333333333333333, 0.03333333333333333, 0.0,
                0.4666666666666667, 0.3333333333333333, 0.3333333333333333,
                0.1, 0.3333333333333333, 0.3, 0.23333333333333334,
                0.3333333333333333, 0.3333333333333333, 0.4,
                0.3333333333333333, 0.3333333333333333,
            ],
            "stopped_early": True,
            "confidence": 0.95,
            "ci_method": "clt",
        }


_SUBPROCESS_SCRIPT = """
import numpy as np
from repro.data.dataset import ArrayDataset
from repro.evaluation.plan import build_plan
from repro.models import MLP
from repro.store.fingerprint import plan_fingerprint

model = MLP(4, [8], 3, seed=0)
images = np.arange(2 * 1 * 2 * 2, dtype=np.float64).reshape(2, 1, 2, 2) / 7.0
dataset = ArrayDataset(images, np.array([0, 1]))
plan = build_plan(model, "lognormal:0.4",
                  n_samples=5, seed=9, vectorized=True)
print(plan_fingerprint(plan, model, dataset))
"""


class TestCrossProcessStability:
    def test_same_hex_across_hash_randomized_processes(self):
        """PYTHONHASHSEED must not leak into the fingerprint: the same
        inputs hash to the same hex in any interpreter."""
        model, dataset = _model(), _dataset()
        local = plan_fingerprint(_plan(model), model, dataset)
        hexes = []
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src_dir, env.get("PYTHONPATH")) if p
            )
            out = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_SCRIPT],
                capture_output=True, text=True, env=env, check=True,
            )
            hexes.append(out.stdout.strip())
        assert set(hexes) == {local}
        assert len(local) == 64  # sha256 hex


class TestTailSpecJobs:
    def test_job_drains_to_the_layer_sweep_point(self, tmp_path, monkeypatch):
        """A layer-sweep point is a portable job: it drains to the
        accuracies ``layer_sweep`` measures, and a resubmit is a
        zero-work cache hit."""
        monkeypatch.setitem(
            DATASET_FACTORIES, "synth_mnist",
            lambda: synth_mnist(train_per_class=6, test_per_class=3),
        )
        train, test = DATASET_FACTORIES["synth_mnist"]()
        model = build_model("mlp", train, seed=0)
        request = JobRequest(
            model="mlp", dataset="synth_mnist",
            variation=to_dict(tail_spec(model, "lognormal:0.4", 1)),
            n_samples=6, seed=7, chunk_samples=2,
        )
        evaluator = MonteCarloEvaluator(test, n_samples=6, seed=7)
        point = layer_sweep(model, "lognormal:0.4", evaluator)[1][1]
        with ResultStore(str(tmp_path / "store.sqlite")) as store:
            m = materialize(request)
            store.submit(m.fingerprint, m.request.to_dict())
            assert [o.status for o in drain(store, owner="w1").outcomes] == \
                ["done"]
            assert store.result(m.fingerprint)["accuracies"] == \
                point.accuracies
            assert store.submit(m.fingerprint, m.request.to_dict()).cache_hit
            assert drain(store, owner="w2").outcomes == []
