"""ResNet / attention families: branch graphs on every Monte-Carlo engine.

The graph-general sample-axis contract, end to end: models with residual
fan-in (``resnet8``) and attention blocks (``attnmlp``) must ride the
loop, vectorized and pool engines with identical per-draw results in the
weight domain — ``resnet8`` additionally after ``analogize`` — and every
consumer of layer ordering (injector, cost model, layer sweep,
``analogize``) must agree on the one canonical walk.
"""

import subprocess
import sys

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd import Tensor, no_grad
from repro.data import synth_cifar10
from repro.evaluation import MonteCarloEvaluator, supports_sample_axis
from repro.evaluation.vectorized import sample_axis_blockers
from repro.hardware import analog_layers, analogize
from repro.hardware.cost import CrossbarCostModel
from repro.models import AttnMLP, build_model, available_models, ResNet8
from repro.utils.rng import spawn_rngs
from repro.variation import LogNormalVariation, VariationInjector, weighted_layers

COMPOSED_SPEC = "lognormal:0.4+quant:4"


@pytest.fixture(scope="module")
def cifar():
    return synth_cifar10(train_per_class=2, test_per_class=2)


@pytest.fixture(scope="module")
def cifar_test(cifar):
    return cifar[1]


def _resnet(cifar, name="resnet8"):
    return build_model(name, cifar[0], width=0.25, seed=0)


def _attnmlp(cifar):
    return build_model("attnmlp", cifar[0], width=0.25, seed=0)


class TestResNet8:
    def test_forward_shape(self, cifar):
        model = _resnet(cifar)
        assert model(Tensor(np.zeros((2, 3, 16, 16)))).shape == (2, 10)

    def test_ten_weighted_layers_in_execution_order(self, cifar):
        """Stem, three blocks (body convs before the downsample shortcut),
        head — the canonical walk's order is the paper's layer indexing."""
        names = [name for name, _ in weighted_layers(_resnet(cifar))]
        assert names == [
            "net.0",
            "net.2.residual.body.0",
            "net.2.residual.body.2",
            "net.3.residual.body.0",
            "net.3.residual.body.2",
            "net.3.residual.shortcut.0",
            "net.4.residual.body.0",
            "net.4.residual.body.2",
            "net.4.residual.shortcut.0",
            "net.6",
        ]

    def test_stacked_forward_shape(self, cifar):
        model = _resnet(cifar).eval()
        inj = VariationInjector(model, LogNormalVariation(0.3))
        with no_grad(), inj.applied_stack(inj.stack_for(spawn_rngs(0, 3))):
            logits = model(Tensor(np.zeros((2, 3, 16, 16))))
        assert logits.shape == (3, 2, 10)


class TestAttnMLP:
    def test_forward_shape(self, cifar):
        model = _attnmlp(cifar)
        assert model(Tensor(np.zeros((2, 3, 16, 16)))).shape == (2, 10)

    def test_eight_weighted_layers(self, cifar):
        names = [name for name, _ in weighted_layers(_attnmlp(cifar))]
        assert names == [
            "patch_embed",
            "attn_block.body.1.q_proj",
            "attn_block.body.1.k_proj",
            "attn_block.body.1.v_proj",
            "attn_block.body.1.out_proj",
            "mlp_block.body.1.linear",
            "mlp_block.body.3.linear",
            "head",
        ]

    def test_sample_aware(self, cifar):
        model = _attnmlp(cifar).eval()
        assert supports_sample_axis(model)
        assert sample_axis_blockers(model) == []

    def test_stacked_forward_shape(self, cifar):
        model = _attnmlp(cifar).eval()
        inj = VariationInjector(model, LogNormalVariation(0.3))
        with no_grad(), inj.applied_stack(inj.stack_for(spawn_rngs(2, 4))):
            logits = model(Tensor(np.zeros((3, 3, 16, 16))))
        assert logits.shape == (4, 3, 10)


class TestRegistry:
    def test_new_families_listed(self):
        names = available_models()
        assert "resnet8" in names
        assert "attnmlp" in names

    @pytest.mark.parametrize("name", ["resnet8", "attnmlp"])
    def test_build_and_forward(self, cifar, name):
        model = build_model(name, cifar[0], width=0.25, seed=0)
        assert model(Tensor(np.zeros((2, 3, 16, 16)))).shape == (2, 10)

    @pytest.mark.parametrize("name", ["resnet8", "attnmlp"])
    def test_deterministic_by_seed(self, cifar, name):
        a = build_model(name, cifar[0], width=0.25, seed=3)
        b = build_model(name, cifar[0], width=0.25, seed=3)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


class TestStackedParity:
    """Stacked weight-domain logits vs the per-draw reference loop.

    The stacked weights themselves are bitwise paired (``stack_for``
    slice i == the loop's draw i); logits follow to the float ulp — exactly
    for the batched-matmul attention path, and within GEMM-lowering ulp
    noise for the conv path (the tolerance the stacked conv kernels are
    specified to, see ``tests/test_autograd_functional.py``). Stacked
    passes run under ``no_grad``, as the engine runs them.
    """

    def _pairs(self, model, n=3, seed=7):
        inj = VariationInjector(model, LogNormalVariation(0.4))
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3, 16, 16)))
        stacks = inj.stack_for(spawn_rngs(seed, n))
        with no_grad():
            with inj.applied_stack(stacks):
                stacked = model(x).data.copy()
            loop = []
            for s in range(n):
                with inj.applied_stack(
                    {name: arr[s][None] for name, arr in stacks.items()}
                ):
                    loop.append(model(x).data[0])
        return stacked, np.stack(loop)

    def test_resnet8_logits_paired_to_ulp(self, cifar):
        stacked, loop = self._pairs(_resnet(cifar).eval())
        np.testing.assert_allclose(stacked, loop, rtol=0, atol=1e-12)

    def test_attnmlp_logits_paired_bitwise(self, cifar):
        stacked, loop = self._pairs(_attnmlp(cifar).eval())
        np.testing.assert_array_equal(stacked, loop)


class TestEnginePairing:
    """Loop, vectorized and pool produce identical accuracy lists under a
    composed spec — engine choice stays a pure performance knob on branch
    graphs."""

    def _results(self, model, dataset, n_samples=4, seed=9):
        return [
            MonteCarloEvaluator(dataset, n_samples=n_samples, seed=seed,
                                **kwargs).evaluate(model, COMPOSED_SPEC)
            for kwargs in (dict(vectorized=False),
                           dict(vectorized=True, chunk_samples=3),
                           dict(vectorized=False, n_workers=2),
                           dict(vectorized=True, n_workers=2))
        ]

    @pytest.mark.parametrize("name", ["resnet8", "attnmlp"])
    def test_all_engines_agree(self, cifar, cifar_test, name):
        model = build_model(name, cifar[0], width=0.25, seed=0)
        loop, vec, pool, vec_pool = self._results(model, cifar_test)
        assert vec.accuracies == loop.accuracies
        assert pool.accuracies == loop.accuracies
        assert vec_pool.accuracies == loop.accuracies
        assert len(loop.accuracies) == 4

    def test_vectorized_plan_granted(self, cifar, cifar_test):
        model = _resnet(cifar).eval()
        ev = MonteCarloEvaluator(cifar_test, n_samples=2, vectorized=True)
        plan = ev.plan(model, COMPOSED_SPEC)
        assert plan.backend == "vectorized"
        assert plan.backend_reason is None


class TestResNet8Analog:
    """Residual graphs in the analog domain: ``analogize`` preserves the
    branch topology and the analog engines stay paired."""

    def test_topology_and_order_preserved(self, cifar):
        model = _resnet(cifar)
        digital_names = [name for name, _ in weighted_layers(model)]
        analog = analogize(model, variation=LogNormalVariation(0.3), seed=5)
        assert [name for name, _ in analog_layers(analog)] == digital_names
        # the residual containers survive conversion
        assert isinstance(analog.net[2].residual, nn.Residual)
        assert isinstance(analog.net[3].residual.shortcut, nn.Sequential)

    def test_forward_after_analogize(self, cifar):
        model = _resnet(cifar)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 16, 16)))
        clean = model(x).data.copy()
        analog = analogize(model, variation=LogNormalVariation(0.5), seed=5)
        out = analog(x).data
        assert out.shape == (2, 10)
        assert not np.allclose(out, clean)

    def test_analog_engines_agree(self, cifar, cifar_test):
        analog = analogize(_resnet(cifar), tile_size=16,
                           read_noise_sigma=0.002)
        loop = MonteCarloEvaluator(cifar_test, n_samples=3, seed=4,
                                   vectorized=False)
        vec = MonteCarloEvaluator(cifar_test, n_samples=3, seed=4,
                                  vectorized=True, chunk_samples=2)
        r_loop = loop.evaluate(analog, COMPOSED_SPEC)
        r_vec = vec.evaluate(analog, COMPOSED_SPEC)
        assert r_vec.accuracies == r_loop.accuracies
        assert len(r_vec.accuracies) == 3

    _SNIPPET = (
        "import numpy as np\n"
        "from repro.hardware import analogize, analog_layers\n"
        "from repro.models import ResNet8\n"
        "from repro.variation import LogNormalVariation\n"
        "m = ResNet8(num_classes=10, in_channels=3, base_width=4, seed=0)\n"
        "analogize(m, variation=LogNormalVariation(0.5), seed={seed!r})\n"
        "digest = [float(l.array.effective_weights().sum())\n"
        "          for _, l in analog_layers(m)]\n"
        "print(repr(digest))\n"
    )

    def _digest_in_subprocess(self, seed, hashseed):
        import os
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", self._SNIPPET.format(seed=seed)],
            capture_output=True, text=True, env=env, check=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        return out.stdout.strip()

    @pytest.mark.parametrize("seed", [1234, "chip-b"])
    def test_seeding_stable_across_hash_randomization(self, seed):
        """Branch-graph traversal must not leak hash order into per-layer
        programming seeds: the same seed programs the same chip in any
        process."""
        a = self._digest_in_subprocess(seed, hashseed=1)
        b = self._digest_in_subprocess(seed, hashseed=2)
        assert a == b


class TestCanonicalWalkAgreement:
    """Every layer-ordering consumer sees the same layers in the same
    order — the whole point of the shared graph walk."""

    def test_cost_model_names_match_walk(self, cifar):
        model = _resnet(cifar)
        report = CrossbarCostModel().estimate(model, spatial_sites=16)
        assert list(report.per_layer) == [
            name for name, _ in weighted_layers(model)
        ]

    def test_injector_order_matches_walk(self, cifar):
        model = _resnet(cifar)
        inj = VariationInjector(model, LogNormalVariation(0.3))
        drawn = list(inj.stack_for(spawn_rngs(0, 1)))
        assert drawn == [
            f"{name}.weight" for name, _ in weighted_layers(model)
        ]

    def test_layer_sweep_indexes_every_layer(self, cifar, cifar_test):
        from repro.evaluation import layer_sweep

        model = _attnmlp(cifar)
        ev = MonteCarloEvaluator(cifar_test, n_samples=1, seed=0,
                                 vectorized=True)
        results = layer_sweep(model, LogNormalVariation(0.2), ev)
        assert [i for i, _ in results] == list(
            range(1, len(weighted_layers(model)) + 1)
        )


class TestEligibilityIsAttributeDriven:
    """Satellite regression: vectorized-engine eligibility has exactly one
    source of truth — the ``sample_aware`` declarations."""

    def test_no_leaf_allowlist_exists(self):
        import repro.evaluation.vectorized as vectorized

        assert not hasattr(vectorized, "SAMPLE_AWARE_LEAVES")

    def test_ad_hoc_declared_module_is_admitted(self):
        """A module the library has never heard of rides the vectorized
        engine purely by declaring the attribute — no registry to update,
        nothing to drift."""

        class Doubler(nn.Module):
            sample_aware = True

            def forward(self, x):
                return x * 2.0

        model = nn.Sequential(nn.Flatten(), Doubler(),
                              nn.Linear(4, 3, seed=0))
        model.eval()
        assert supports_sample_axis(model)
        assert sample_axis_blockers(model) == []

    def test_undeclared_module_is_named_as_blocker(self):
        class Mystery(nn.Module):
            def forward(self, x):
                return x

        model = nn.Sequential(nn.Flatten(), Mystery())
        model.eval()
        assert not supports_sample_axis(model)
        assert sample_axis_blockers(model) == ["1 (Mystery)"]
