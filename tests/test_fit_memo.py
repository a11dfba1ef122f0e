"""The compensation-fit memo: keyed on every input a fit reads, and a hit
is bitwise the fresh fit.

``fit_plan`` trains a plan's generators/compensators once per distinct
input and rebuilds the trained model from the stored state afterwards.
The RL search (one env per overhead limit) and ``CorrectNet.finalize``
share one memo, so a run trains each distinct plan once.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compensation import CompensationPlan, CompensationTrainer, fit_plan
from repro.core import CorrectNet, PipelineConfig
from repro.core.config import CompensationConfig, EvalConfig, RLConfig
from repro.data import ArrayDataset, synth_cifar10
from repro.models import LeNet5, MLP, build_model
from repro.variation import LogNormalVariation


def _fresh_fit(base, plan, spec, data, config):
    """The unmemoized recipe, spelled out: splice, then train."""
    model = plan.apply(base, seed=config.seed)
    CompensationTrainer(model, spec, lr=config.lr, seed=config.seed).fit(
        data, epochs=config.epochs
    )
    return model


def _assert_same_fit(actual, expected):
    """Byte-equal state, equal ``requires_grad`` and ``training`` flags."""
    got, want = actual.state_dict(), expected.state_dict()
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name
    assert [(n, p.requires_grad) for n, p in actual.named_parameters()] == [
        (n, p.requires_grad) for n, p in expected.named_parameters()
    ]
    assert [(n, m.training) for n, m in actual.named_modules()] == [
        (n, m.training) for n, m in expected.named_modules()
    ]


def _family(name, tiny_train):
    if name == "lenet5":
        return LeNet5(num_classes=10, in_channels=1, input_size=16,
                      width_multiplier=0.5, seed=0), tiny_train
    train, _ = synth_cifar10(train_per_class=2, test_per_class=1)
    return build_model(name, train, width=0.25, seed=0), train


class TestHitIsAFreshFit:
    @pytest.mark.parametrize("base_mode", ["train", "eval"])
    @pytest.mark.parametrize("family", ["lenet5", "resnet8"])
    def test_hit_equals_fresh_fit(self, family, base_mode, tiny_train,
                                  fit_calls):
        base, data = _family(family, tiny_train)
        # The degraded evaluation leaves the pipeline's base in eval mode.
        base.train(base_mode == "train")
        plan = CompensationPlan({0: 0.5, 1: 1.0})
        spec = LogNormalVariation(0.3)
        config = CompensationConfig(epochs=1, lr=3e-3, seed=0)
        memo = {}
        fit_plan(base, plan, spec, data, config, memo=memo)
        assert len(fit_calls) == 1
        hit = fit_plan(base, plan, spec, data, config, memo=memo)
        assert len(fit_calls) == 1  # a lookup, not a fit
        fresh = _fresh_fit(base, plan, spec, data, config)
        _assert_same_fit(hit, fresh)

    def test_entry_holds_no_frozen_parameter(self, tiny_train):
        """The entry is what a fit changed: the frozen network stays out."""
        base, data = _family("resnet8", tiny_train)
        plan = CompensationPlan({0: 0.5})
        config = CompensationConfig(epochs=1, seed=0)
        memo = {}
        fitted = fit_plan(base, plan, LogNormalVariation(0.3), data, config,
                          memo=memo)
        (entry,) = memo.values()
        frozen = {n for n, p in fitted.named_parameters() if p.frozen}
        assert frozen and not frozen & set(entry)

    def test_hit_does_not_alias_the_entry(self, tiny_train):
        base, data = _family("resnet8", tiny_train)
        plan = CompensationPlan({0: 0.5})
        config = CompensationConfig(epochs=1, seed=0)
        memo = {}
        fit_plan(base, plan, LogNormalVariation(0.3), data, config, memo=memo)
        (entry,) = memo.values()
        snapshot = {name: value.copy() for name, value in entry.items()}
        hit = fit_plan(base, plan, LogNormalVariation(0.3), data, config,
                       memo=memo)
        for p in hit.parameters():
            p.data += 1.0
        for name, value in entry.items():
            assert value.tobytes() == snapshot[name].tobytes(), name

    def test_uncompensated_plan_trains_nothing(self, lenet, tiny_train,
                                               fit_calls):
        memo = {}
        model = fit_plan(lenet, CompensationPlan(), LogNormalVariation(0.3),
                         tiny_train, CompensationConfig(epochs=1), memo=memo)
        assert not fit_calls and not memo
        _assert_same_fit(model, lenet)


# --- key sensitivity -------------------------------------------------------

_BASE_CONFIG = dict(epochs=1, lr=1e-2, seed=0)

#: One replacement-value strategy per fit input; each value differs from
#: the base input built by ``_inputs``.
_CHANGES = {
    "weight": st.integers(0, 4 * 8 - 1),
    "ratio": st.floats(0.05, 2.0).filter(lambda r: r != 0.5),
    "sigma": st.floats(0.0, 1.0).filter(lambda s: s != 0.3),
    "lr": st.floats(1e-4, 1e-1).filter(lambda v: v != 1e-2),
    "epochs": st.just(0),
    "seed": st.integers(1, 2**31 - 1),
    "label": st.tuples(st.integers(0, 23), st.integers(1, 2)),
}


def _inputs(field=None, value=None):
    """Every ``fit_plan`` input, built from scratch; ``field`` changed."""
    base = MLP(4, [8], 3, flatten_input=True, seed=0)
    if field == "weight":  # one ulp on one element of the first layer
        weight = next(base.parameters()).data
        weight.flat[value] = np.nextafter(weight.flat[value], np.inf)
    images = np.linspace(-2.0, 2.0, 24 * 4).reshape(24, 1, 2, 2)
    labels = np.arange(24) % 3
    if field == "label":
        index, shift = value
        labels[index] = (labels[index] + shift) % 3
    config = dict(_BASE_CONFIG)
    if field in config:
        config[field] = value
    plan = CompensationPlan({0: value if field == "ratio" else 0.5})
    spec = LogNormalVariation(value if field == "sigma" else 0.3)
    return (base, plan, spec, ArrayDataset(images, labels),
            CompensationConfig(**config))


class TestKeyCoversEveryInput:
    def test_every_config_field_is_varied(self):
        """Ties the property below to the config: a field added to
        ``CompensationConfig`` fails here until the property varies it,
        and then fails the property until ``_fit_key`` reads it."""
        fields = {f.name for f in dataclasses.fields(CompensationConfig)}
        assert set(_BASE_CONFIG) == fields
        assert fields <= set(_CHANGES)

    @pytest.mark.parametrize("field", sorted(_CHANGES))
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_one_changed_input_misses(self, field, data):
        value = data.draw(_CHANGES[field])
        memo = {}
        fit_plan(*_inputs(), memo=memo)
        fit_plan(*_inputs(), memo=memo)
        assert len(memo) == 1  # rebuilt independently: a hit
        fit_plan(*_inputs(field, value), memo=memo)
        assert len(memo) == 2  # one input changed: a miss


# --- the pipeline ----------------------------------------------------------

def _tiny_pipeline(tiny_mnist):
    train, test = tiny_mnist
    model = LeNet5(num_classes=10, in_channels=1, input_size=16,
                   width_multiplier=0.5, seed=0)
    config = PipelineConfig(
        sigma=0.5,
        compensation=CompensationConfig(epochs=1, lr=3e-3, seed=0),
        rl=RLConfig(episodes=3, hidden_size=8, ratio_choices=(0.0, 0.5, 1.0),
                    overhead_limits=(0.5, 1.0), seed=0),
        eval=EvalConfig(n_samples=2, search_samples=2, seed=7),
    )
    return CorrectNet(model, train, test, config)


class TestPipelineTrainsEachPlanOnce:
    def test_one_fit_per_distinct_plan_and_none_in_finalize(self, tiny_mnist,
                                                            fit_calls):
        net = _tiny_pipeline(tiny_mnist)
        results = net.search([0, 1])
        trained = [
            {tuple(sorted(o.plan.ratios.items())) for o in r.explored
             if not o.skipped and o.plan.num_compensated}
            for r in results.values()
        ]
        # Both limits scored a common plan, so the memo has work to do.
        assert trained[0] & trained[1]
        assert len(fit_calls) == len(set.union(*trained))
        best = net._pick_best(results)
        assert best.plan.num_compensated
        net.finalize(best.plan)
        assert len(fit_calls) == len(set.union(*trained))

    def test_finalize_trains_at_the_deployment_spec(self, tiny_mnist):
        """``finalize`` delivers the model the search scores: trained at
        the deployment variation itself."""
        net = _tiny_pipeline(tiny_mnist)
        plan = CompensationPlan({0: 0.5})
        delivered = net.finalize(plan)
        expected = _fresh_fit(net.model, plan, LogNormalVariation(0.5),
                              net.train_data, net.config.compensation)
        _assert_same_fit(delivered, expected)

    def test_memo_misses_after_the_base_is_retrained(self, tiny_mnist,
                                                     fit_calls):
        net = _tiny_pipeline(tiny_mnist)
        plan = CompensationPlan({0: 0.5})
        net.finalize(plan)
        net.finalize(plan)
        assert len(fit_calls) == 1
        next(net.model.parameters()).data *= 0.5
        net.finalize(plan)
        assert len(fit_calls) == 2
