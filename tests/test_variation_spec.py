"""The variation-spec API: registry, grammar, Compose/LayerMap semantics,
serialization round-trips, engine pairing, and the back-compat shim."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.utils.digest import canonical_json
from repro.variation import (
    ColumnCorrelatedVariation,
    Compose,
    ConductanceDrift,
    GaussianVariation,
    LayerMap,
    LevelQuantization,
    LogNormalVariation,
    NoVariation,
    StateDependentVariation,
    StuckAtFaults,
    VariationInjector,
    VariationModel,
    from_dict,
    from_string,
    parse_spec,
    register_model,
    registered_kinds,
    scale_to,
    to_dict,
    to_string,
    weighted_layers,
)

ALL_LEAVES = [
    NoVariation(),
    LogNormalVariation(0.5),
    GaussianVariation(0.2),
    ColumnCorrelatedVariation(0.15),
    StateDependentVariation(0.1, 0.4),
    StuckAtFaults(0.01, 0.02),
    LevelQuantization(4),
    ConductanceDrift(1e5, nu_median=0.03, nu_sigma=0.2),
]

_LEAF_SPECS = st.one_of(
    st.just(NoVariation()),
    st.builds(LogNormalVariation, st.floats(0.0, 2.0)),
    st.builds(GaussianVariation, st.floats(0.0, 1.0)),
    st.builds(ColumnCorrelatedVariation, st.floats(0.0, 1.0)),
    st.builds(StateDependentVariation, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.builds(StuckAtFaults, st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
    st.builds(LevelQuantization, st.integers(1, 8)),
    st.builds(ConductanceDrift, st.floats(1.0, 1e17), st.floats(0.0, 0.1),
              st.floats(0.0, 1.0)),
)
_CHAIN_SPECS = st.one_of(
    _LEAF_SPECS, st.lists(_LEAF_SPECS, min_size=2, max_size=3).map(Compose)
)
#: Layer indices, module names, and digit-named modules (the children of a
#: bare Sequential), which the string grammar cannot tell from indices.
_LAYER_KEYS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["net.0", "head", "attn_block.body.1.q_proj", "3", "-1"]),
)
_MAP_PARTS = st.one_of(
    _CHAIN_SPECS,
    st.builds(LayerMap, _CHAIN_SPECS,
              st.dictionaries(_LAYER_KEYS, _CHAIN_SPECS, min_size=1, max_size=2)),
)


def _grammar_expressible(spec):
    """Chains under at most one top-level LayerMap, keyed by indices or by
    names that are not digits: what ``to_string`` documents it can print."""
    if not isinstance(spec, LayerMap):
        return True
    parts = [spec.default, *spec.overrides.values()]
    return not any(isinstance(part, LayerMap) for part in parts) and not any(
        isinstance(key, str) and key.lstrip("-").isdigit()
        for key in spec.overrides
    )


class TestRegistryRoundTrips:
    @pytest.mark.parametrize("model", ALL_LEAVES, ids=lambda m: type(m).__name__)
    def test_dict_round_trip(self, model):
        payload = to_dict(model)
        assert payload["kind"] in registered_kinds()
        # Through real JSON, as an experiment record would store it.
        restored = from_dict(json.loads(json.dumps(payload)))
        assert restored == model

    @pytest.mark.parametrize("model", ALL_LEAVES, ids=lambda m: type(m).__name__)
    def test_string_round_trip(self, model):
        assert from_string(to_string(model)) == model

    def test_composed_round_trips(self):
        spec = LogNormalVariation(0.5) | ConductanceDrift(1e5) | LevelQuantization(4)
        assert from_dict(json.loads(json.dumps(to_dict(spec)))) == spec
        assert from_string(to_string(spec)) == spec

    def test_layermap_round_trips(self):
        spec = LayerMap(
            LogNormalVariation(0.5),
            {0: LogNormalVariation(0.5) | LevelQuantization(4),
             -1: NoVariation(),
             "net.2": GaussianVariation(0.1)},
        )
        assert from_dict(json.loads(json.dumps(to_dict(spec)))) == spec
        assert from_string(to_string(spec)) == spec

    @settings(max_examples=100, deadline=None)
    @given(default=_MAP_PARTS,
           overrides=st.none() | st.dictionaries(_LAYER_KEYS, _MAP_PARTS,
                                                  max_size=3))
    def test_generated_specs_round_trip_to_one_fingerprint(self, default,
                                                           overrides):
        """Over leaves, chains and LayerMaps: the dict round trip is exact;
        the string round trip is exact, or ``to_string`` refuses the spec
        for one of its two documented reasons; and the fingerprint payload
        is the same after either. A LayerMap without overrides would be a
        second spelling of its default, so it cannot be built."""
        if overrides == {}:
            with pytest.raises(ValueError, match="at least one override"):
                LayerMap(default, overrides)
            return
        spec = default if overrides is None else LayerMap(default, overrides)
        fingerprint = canonical_json(to_dict(spec))
        via_dict = from_dict(json.loads(json.dumps(to_dict(spec))))
        assert via_dict == spec
        assert canonical_json(to_dict(via_dict)) == fingerprint
        if not _grammar_expressible(spec):
            with pytest.raises(ValueError,
                               match="to_dict instead|inside a chain"):
                to_string(spec)
            return
        via_string = from_string(to_string(spec))
        assert via_string == spec
        assert canonical_json(to_dict(via_string)) == fingerprint

    def test_layermap_digit_named_module_keys_survive_json(self):
        """Bare Sequential models have digit-string qualified names ('3');
        the dict form must keep them distinct from int indices through
        real JSON, and the (ambiguous) string grammar must refuse them."""
        spec = LayerMap(LogNormalVariation(0.5),
                        {"3": NoVariation(), 3: GaussianVariation(0.2)})
        restored = from_dict(json.loads(json.dumps(to_dict(spec))))
        assert restored == spec
        assert restored.overrides["3"] == NoVariation()
        assert restored.overrides[3] == GaussianVariation(0.2)
        with pytest.raises(ValueError, match="to_dict instead"):
            to_string(LayerMap(LogNormalVariation(0.5), {"3": NoVariation()}))

    def test_layermap_legacy_object_overrides_accepted(self):
        """Hand-written dict payloads may use a JSON object; digit strings
        then mean indices."""
        spec = from_dict({
            "kind": "layermap",
            "default": {"kind": "lognormal", "sigma": 0.5},
            "overrides": {"0": {"kind": "none"}, "net.1": {"kind": "gaussian", "sigma": 0.1}},
        })
        assert spec.overrides[0] == NoVariation()
        assert spec.overrides["net.1"] == GaussianVariation(0.1)

    def test_equal_specs_hash_equal(self):
        """hash/eq invariant holds for equal LayerMaps built with
        different override insertion order (set/dict dedup of scenarios)."""
        a = LayerMap("lognormal:0.5", {0: "none", "net.3": "quant:4"})
        b = LayerMap("lognormal:0.5", {"net.3": "quant:4", 0: "none"})
        assert a == b
        # hash() here exercises VariationModel.__hash__ itself, not a seed.
        assert hash(a) == hash(b)  # reprolint: disable=RNG003
        assert len({a, b}) == 1
        c = parse_spec("lognormal:0.5+quant:4")
        assert hash(c) == hash(LogNormalVariation(0.5) | LevelQuantization(4))  # reprolint: disable=RNG003

    def test_structural_scaling_picks_nearest_magnitude(self):
        """Standalone quantization sweeps pick the bit-width whose
        magnitude is nearest the request (magnitude is exponential in
        bits, so dividing the bit count would overshoot)."""
        got = scale_to(LevelQuantization(4), 0.12)
        assert got.bits == 3  # magnitude 1/7 ~ 0.143, nearest to 0.12
        assert scale_to(LevelQuantization(4), 1.0 / 15).bits == 4  # identity
        assert LevelQuantization(4).scaled(1.0) == LevelQuantization(4)

    def test_equality_is_structural(self):
        assert LogNormalVariation(0.5) == LogNormalVariation(0.5)
        assert LogNormalVariation(0.5) != LogNormalVariation(0.6)
        assert LogNormalVariation(0.5) != GaussianVariation(0.5)
        assert (LogNormalVariation(0.5) | LevelQuantization(4)) == Compose(
            [LogNormalVariation(0.5), LevelQuantization(4)]
        )

    def test_register_model_conflicts(self):
        class Custom(VariationModel):
            pass

        with pytest.raises(ValueError):
            register_model("lognormal", Custom)  # name taken
        with pytest.raises(ValueError):
            register_model("bad name!", Custom)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown spec kind"):
            from_dict({"kind": "warp_drive"})
        with pytest.raises(ValueError, match="unknown spec kind"):
            from_string("warp_drive:9")


class TestStringGrammar:
    def test_single_atom(self):
        assert from_string("lognormal:0.5") == LogNormalVariation(0.5)
        assert from_string("none") == NoVariation()
        assert from_string("quant:4") == LevelQuantization(4)

    def test_chain_parses_to_compose(self):
        spec = from_string("lognormal:0.5+quant:4")
        assert isinstance(spec, Compose)
        assert spec.models == [LogNormalVariation(0.5), LevelQuantization(4)]

    def test_keyword_arguments(self):
        spec = from_string("drift:1e5,nu_sigma=0.2")
        assert spec == ConductanceDrift(1e5, nu_sigma=0.2)

    def test_exponent_plus_does_not_split_chains(self):
        """'+' doubles as float exponent sign; the grammar must keep
        "1e+07" whole while still splitting "none+quant:4"."""
        big = ConductanceDrift(1e7)
        assert from_string(to_string(big)) == big  # formats without 'e+'
        assert from_string("drift:1e+07") == big  # user-typed form parses
        assert from_string("lognormal:0.5+drift:1e+05").models == [
            LogNormalVariation(0.5), ConductanceDrift(1e5)]
        assert from_string("none+quant:4").models == [
            NoVariation(), LevelQuantization(4)]

    def test_float_round_trip_is_exact(self):
        """to_string emits the shortest exact decimal form, so awkward
        floats survive the string round-trip bit-for-bit."""
        for model in (LogNormalVariation(1.0 / 3.0),
                      ConductanceDrift(12345678901.0, nu_median=1 / 7),
                      ConductanceDrift(1e16)):
            assert from_string(to_string(model)) == model

    def test_bool_values_parse_back(self):
        assert from_string(to_string(LogNormalVariation(0.5))) is not None
        from repro.variation.spec import _format_value, _parse_value
        assert _parse_value(_format_value(True)) is True
        assert _parse_value(_format_value(False)) is False

    def test_whitespace_tolerated(self):
        assert from_string(" lognormal:0.5 + quant:4 ") == from_string(
            "lognormal:0.5+quant:4"
        )

    def test_layer_overrides(self):
        spec = from_string("lognormal:0.5;@0=lognormal:0.5+quant:4;@-1=none")
        assert isinstance(spec, LayerMap)
        assert spec.default == LogNormalVariation(0.5)
        assert spec.overrides[0] == Compose(
            [LogNormalVariation(0.5), LevelQuantization(4)]
        )
        assert spec.overrides[-1] == NoVariation()

    def test_name_selector(self):
        spec = from_string("lognormal:0.5;@net.0=none")
        assert spec.overrides["net.0"] == NoVariation()

    @pytest.mark.parametrize("bad", [
        "", "  ", "lognormal:0.5;0=none", "lognormal:0.5;@0", "+lognormal:0.5",
        "lognormal:0.5;@1.5=none", "lognormal:sigma=0.5,0.4",
    ])
    def test_malformed_strings_raise(self, bad):
        with pytest.raises(ValueError):
            from_string(bad)

    def test_parse_spec_shim(self):
        model = LogNormalVariation(0.5)
        assert parse_spec(model) is model  # bare models pass through
        assert parse_spec("lognormal:0.5") == model
        assert parse_spec({"kind": "lognormal", "sigma": 0.5}) == model
        with pytest.raises(TypeError):
            parse_spec(0.5)


class TestComposeSemantics:
    def test_matches_sequential_application(self):
        spec = LogNormalVariation(0.5) | ConductanceDrift(1e5) | LevelQuantization(4)
        w = np.random.default_rng(1).normal(size=(6, 5))
        got = spec.perturb(w, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        expected = w
        for stage in spec.models:
            expected = stage.perturb(expected, rng)
        np.testing.assert_array_equal(got, expected)

    def test_or_flattens(self):
        a, b, c = LogNormalVariation(0.1), GaussianVariation(0.2), NoVariation()
        assert (a | b | c).models == [a, b, c]
        assert Compose([Compose([a, b]), c]).models == [a, b, c]

    def test_or_accepts_strings_both_sides(self):
        assert (LogNormalVariation(0.5) | "quant:4").models == [
            LogNormalVariation(0.5), LevelQuantization(4)]
        assert ("quant:4" | LogNormalVariation(0.5)).models == [
            LevelQuantization(4), LogNormalVariation(0.5)]

    def test_magnitude_and_scaling(self):
        spec = LogNormalVariation(0.5) | ConductanceDrift(1e5, nu_median=0.02)
        assert spec.magnitude == 0.5
        doubled = spec.scaled(2.0)
        assert doubled.models[0].sigma == pytest.approx(1.0)
        assert doubled.models[1].nu_median == pytest.approx(0.04)
        assert scale_to(spec, 1.0).magnitude == pytest.approx(1.0)
        with pytest.raises(ValueError):
            scale_to(NoVariation(), 1.0)

    def test_structural_components_fixed_under_scaling(self):
        """Sweeping a composed spec's magnitude must not change the
        hardware: quantization bit-width (structural) stays fixed and the
        resulting magnitude tracks the request exactly."""
        spec = parse_spec("lognormal:0.01+quant:4")
        assert spec.magnitude == pytest.approx(0.01)  # quant excluded
        rescaled = scale_to(spec, 0.5)
        assert rescaled.models[0] == LogNormalVariation(0.5)
        assert rescaled.models[1] == LevelQuantization(4)  # bits unchanged
        assert rescaled.magnitude == pytest.approx(0.5)
        # Same rule per layer.
        lm = LayerMap(LogNormalVariation(0.1), {0: LevelQuantization(4)})
        lm2 = scale_to(lm, 0.2)
        assert lm2.default == LogNormalVariation(0.2)
        assert lm2.overrides[0] == LevelQuantization(4)
        # A standalone quant model still rescales its resolution when
        # explicitly asked (the pre-spec behavior).
        assert LevelQuantization(4).scaled(2.0).bits != 4

    def test_zero_sigma_chain_still_perturbs(self, mlp, blob_dataset):
        """A chain whose stochastic parts are zero still applies its
        structural parts: magnitude must not report 0, or the evaluator
        would short-circuit to a clean pass and silently skip e.g.
        quantization."""
        spec = parse_spec("lognormal:0+quant:2")
        assert spec.magnitude > 0
        assert LayerMap(NoVariation(), {0: LevelQuantization(2)}).magnitude > 0
        w = np.random.default_rng(0).normal(size=(5, 5))
        assert not np.array_equal(
            spec.perturb(w, np.random.default_rng(1)), w)
        ev = MonteCarloEvaluator(blob_dataset, n_samples=3, seed=0)
        result = ev.evaluate(mlp, spec)
        # Not short-circuited: the full per-sample protocol ran.
        assert len(result.accuracies) == 3
        # ...but sweeping it is a hard error, not N identical mislabeled
        # points: scaling cannot move a structural-only magnitude.
        with pytest.raises(ValueError, match="cannot scale"):
            scale_to(spec, 0.5)
        # A zero target stays legal (stochastic parts off, hardware stays).
        zeroed = scale_to(parse_spec("lognormal:0.5+quant:4"), 0.0)
        assert zeroed.models[0] == LogNormalVariation(0.0)
        assert zeroed.models[1] == LevelQuantization(4)

    def test_keyword_only_params_serialize_as_keywords(self):
        """Registered third-party models with keyword-only args must
        round-trip through the grammar."""
        from repro.variation.spec import _REGISTRY, _KIND_OF

        class KwOnly(VariationModel):
            def __init__(self, sigma: float, *, clip: float = 1.0) -> None:
                self.sigma = float(sigma)
                self.clip = float(clip)

            def perturb(self, weights, rng):
                return weights

            @property
            def magnitude(self):
                return self.sigma

        register_model("kwonlytest", KwOnly)
        try:
            model = KwOnly(0.5, clip=2.0)
            text = to_string(model)
            assert "clip=2" in text
            assert from_string(text) == model
            assert from_dict(json.loads(json.dumps(to_dict(model)))) == model
        finally:
            _REGISTRY.pop("kwonlytest")
            _KIND_OF.pop(KwOnly)

    def test_empty_compose_raises(self):
        with pytest.raises(ValueError):
            Compose([])


class TestLayerMapSemantics:
    def test_resolution_precedence(self):
        name_override = GaussianVariation(0.3)
        index_override = LevelQuantization(3)
        spec = LayerMap(LogNormalVariation(0.5),
                        {"net.0": name_override, 0: index_override})
        # Name beats index; index beats default; negative counts from end.
        assert spec.model_for("net.0", 0, 4) is name_override
        assert spec.model_for("net.2", 0, 4) is index_override
        assert spec.model_for("net.4", 2, 4) == LogNormalVariation(0.5)
        tail = LayerMap(LogNormalVariation(0.5), {-1: NoVariation()})
        assert tail.model_for("net.4", 3, 4) == NoVariation()
        assert tail.model_for("net.2", 1, 4) == LogNormalVariation(0.5)

    def test_perturb_without_context_uses_default(self):
        spec = LayerMap(NoVariation(), {0: LogNormalVariation(5.0)})
        w = np.ones((3, 3))
        np.testing.assert_array_equal(spec.perturb(w, np.random.default_rng(0)), w)

    def test_plain_model_resolves_to_itself(self):
        model = LogNormalVariation(0.5)
        assert model.model_for("net.0", 0, 4) is model

    def test_injector_applies_per_layer(self, mlp):
        """A LayerMap that silences all but layer 0 draws layer 0 exactly
        as the plain model does, and nothing else: ``none`` layers are
        not variation targets."""
        base = LogNormalVariation(0.7)
        name, layer = weighted_layers(mlp)[0]
        injector = VariationInjector(mlp, LayerMap(NoVariation(), {0: base}))
        assert [id(p) for p in injector.target_parameters()] == \
            [id(layer.weight)]
        mapped = injector.sample(seed=3)
        plain = VariationInjector(mlp, base).sample(seed=3)
        assert list(mapped) == [f"{name}.weight"]
        np.testing.assert_array_equal(mapped[f"{name}.weight"],
                                      plain[f"{name}.weight"])

    def test_nested_layermap_keeps_inner_overrides(self, lenet):
        """The outer map resolves unmatched layers through the inner map,
        also after a dict round-trip."""
        inner = LayerMap(LogNormalVariation(0.5), {0: NoVariation()})
        spec = from_dict(to_dict(LayerMap(inner, {1: GaussianVariation(0.3)})))
        assert spec.model_for("net.0", 0, 5) == NoVariation()
        assert spec.model_for("net.3", 1, 5) == GaussianVariation(0.3)
        assert spec.model_for("net.7", 2, 5) == LogNormalVariation(0.5)
        name, layer = weighted_layers(lenet)[0]
        nominal = layer.weight.data.copy()
        with VariationInjector(lenet, spec).applied(seed=0):
            np.testing.assert_array_equal(layer.weight.data, nominal)


class TestEnginePairing:
    """The acceptance bar: composed and per-layer specs yield bitwise
    identical per-sample accuracies through every engine."""

    SPEC = "lognormal:0.5+quant:4+drift:1e4"

    def test_composed_spec_loop_vs_vectorized(self, lenet, tiny_test):
        loop = MonteCarloEvaluator(tiny_test, n_samples=6, seed=11,
                                   vectorized=False)
        vec = MonteCarloEvaluator(tiny_test, n_samples=6, seed=11,
                                  vectorized=True, chunk_samples=4)
        r_loop = loop.evaluate(lenet, self.SPEC)
        r_vec = vec.evaluate(lenet, self.SPEC)
        assert r_loop.accuracies == r_vec.accuracies

    def test_composed_spec_loop_vs_pool(self, mlp, blob_dataset):
        loop = MonteCarloEvaluator(blob_dataset, n_samples=5, seed=11,
                                   vectorized=False)
        pool = MonteCarloEvaluator(blob_dataset, n_samples=5, seed=11,
                                   vectorized=False, n_workers=2)
        r_loop = loop.evaluate(mlp, self.SPEC)
        r_pool = pool.evaluate(mlp, self.SPEC)
        assert r_loop.accuracies == r_pool.accuracies

    def test_layermap_loop_vs_vectorized(self, lenet, tiny_test):
        spec = "lognormal:0.6;@0=lognormal:0.6+quant:4;@-1=none"
        loop = MonteCarloEvaluator(tiny_test, n_samples=5, seed=7,
                                   vectorized=False)
        vec = MonteCarloEvaluator(tiny_test, n_samples=5, seed=7,
                                  vectorized=True, chunk_samples=2)
        r_loop = loop.evaluate(lenet, spec)
        r_vec = vec.evaluate(lenet, spec)
        assert r_loop.accuracies == r_vec.accuracies

    def test_layermap_loop_vs_pool(self, mlp, blob_dataset):
        spec = LayerMap(LogNormalVariation(0.5), {-1: GaussianVariation(0.3)})
        loop = MonteCarloEvaluator(blob_dataset, n_samples=4, seed=5,
                                   vectorized=False)
        pool = MonteCarloEvaluator(blob_dataset, n_samples=4, seed=5,
                                   vectorized=False, n_workers=2)
        assert loop.evaluate(mlp, spec).accuracies == \
            pool.evaluate(mlp, spec).accuracies

    def test_string_dict_and_model_agree(self, mlp, blob_dataset):
        ev = MonteCarloEvaluator(blob_dataset, n_samples=4, seed=3)
        as_string = ev.evaluate(mlp, "lognormal:0.5+quant:4")
        as_model = ev.evaluate(
            mlp, LogNormalVariation(0.5) | LevelQuantization(4))
        as_dict = ev.evaluate(
            mlp, to_dict(LogNormalVariation(0.5) | LevelQuantization(4)))
        assert as_string.accuracies == as_model.accuracies == as_dict.accuracies

    def test_colcorr_composes_through_every_engine(self, lenet, tiny_test):
        """The correlated per-column model (grammar: colcorr) rides the
        loop, vectorized and pool backends bitwise-paired, composed with
        the paper's i.i.d. model."""
        spec = "lognormal:0.4+colcorr:0.15"
        results = [
            MonteCarloEvaluator(tiny_test, n_samples=4, seed=17, **kwargs)
            .evaluate(lenet, spec).accuracies
            for kwargs in (dict(vectorized=False),
                           dict(vectorized=True, chunk_samples=3),
                           dict(vectorized=False, n_workers=2),
                           dict(vectorized=True, n_workers=2))
        ]
        assert all(result == results[0] for result in results)

    def test_colcorr_grammar_round_trip(self):
        spec = parse_spec("colcorr:0.25")
        assert spec == ColumnCorrelatedVariation(0.25)
        assert to_string(LogNormalVariation(0.5) | spec) == \
            "lognormal:0.5+colcorr:0.25"

    def test_colcorr_analog_programming_pairs(self, mlp, blob_dataset):
        """colcorr applies at crossbar programming time too: the stacked
        analog backend stays paired with the per-draw loop."""
        from repro.hardware import analogize

        model = analogize(mlp, tile_size=8)
        spec = "lognormal:0.3+colcorr:0.1"
        loop = MonteCarloEvaluator(blob_dataset, n_samples=3, seed=5,
                                   vectorized=False)
        vec = MonteCarloEvaluator(blob_dataset, n_samples=3, seed=5,
                                  vectorized=True, chunk_samples=2)
        assert loop.evaluate(model, spec).accuracies == \
            vec.evaluate(model, spec).accuracies

    def test_sweep_is_spec_scaling(self, mlp, blob_dataset):
        spec = parse_spec("lognormal:0.5+drift:1e4")
        ev = MonteCarloEvaluator(blob_dataset, n_samples=3, seed=9)
        swept = ev.sweep_sigma(mlp, spec, [0.25, 0.5])
        manual = [ev.evaluate(mlp, scale_to(spec, s)) for s in [0.25, 0.5]]
        assert [r.accuracies for r in swept] == [r.accuracies for r in manual]


class TestPipelineConfigRoundTrip:
    def test_round_trip_with_composed_spec(self):
        from repro.core.config import PipelineConfig, fast_pipeline_config

        cfg = fast_pipeline_config(sigma=0.4, seed=3)
        cfg.variation = parse_spec("lognormal:0.4+quant:4+drift:1e5")
        blob = json.dumps(cfg.to_dict())
        restored = PipelineConfig.from_dict(json.loads(blob))
        assert restored == cfg
        assert restored.resolved_variation() == cfg.variation

    def test_string_spec_normalized_at_construction(self):
        from repro.core.config import PipelineConfig

        a = PipelineConfig(variation="lognormal:0.5+quant:4")
        b = PipelineConfig(
            variation=LogNormalVariation(0.5) | LevelQuantization(4))
        assert a == b
        assert isinstance(a.variation, Compose)

    def test_default_resolves_to_paper_model(self):
        from repro.core.config import PipelineConfig

        cfg = PipelineConfig(sigma=0.3)
        assert cfg.resolved_variation() == LogNormalVariation(0.3)
        blob = cfg.to_dict()
        assert blob["variation"] is None
        assert PipelineConfig.from_dict(json.loads(json.dumps(blob))) == cfg


class TestBackCompatShims:
    def test_bare_model_still_works_everywhere(self, mlp, blob_dataset):
        """The pre-spec calling convention — a lone VariationModel threaded
        positionally — is untouched."""
        model = LogNormalVariation(0.5)
        ev = MonteCarloEvaluator(blob_dataset, n_samples=3, seed=1)
        assert len(ev.evaluate(mlp, model).accuracies) == 3
        injector = VariationInjector(mlp, model)
        with injector.applied(0):
            pass
        assert injector.variation is model

    def test_trainer_accepts_spec_string(self, mlp, blob_dataset):
        from repro.core.training import Trainer
        from repro.optim.optimizers import Adam

        trainer = Trainer(mlp, Adam(list(mlp.parameters()), lr=1e-3),
                          variation="lognormal:0.3+quant:6", seed=0)
        history = trainer.fit(blob_dataset, epochs=1, batch_size=16)
        assert len(history.loss) == 1

    def test_analogize_layermap_per_layer(self, mlp):
        """analogize resolves LayerMap overrides before programming: a map
        silencing every layer but the last must leave the other arrays at
        nominal conductance."""
        import copy

        from repro.hardware.analog_layers import analogize

        nominal = [m.weight.data.copy() for _, m in weighted_layers(mlp)]
        spec = LayerMap(NoVariation(), {-1: LogNormalVariation(0.8)})
        analog = analogize(copy.deepcopy(mlp), variation=spec, seed=4)
        arrays = [m.array for m in analog.modules() if hasattr(m, "array")]
        assert len(arrays) == len(nominal) >= 2
        for arr, w in zip(arrays[:-1], nominal[:-1]):
            np.testing.assert_allclose(arr.effective_weights(), w, atol=1e-9)
        assert not np.allclose(arrays[-1].effective_weights(), nominal[-1])
