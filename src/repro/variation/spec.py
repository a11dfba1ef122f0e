"""Declarative, serializable variation specs.

The paper's experiments use a single log-normal weight-variation model, but
real analog-IMC deployments face a *stack* of effects (programming noise,
quantization, drift, ...) that can differ per layer. This module turns
``VariationModel`` into the unit of a small declarative algebra:

- :class:`Compose` chains models in programming order —
  ``lognormal(0.5) | drift(t=1e5) | quant(bits=4)`` — drawing from one rng
  stream so every Monte-Carlo engine (loop / vectorized / pool) stays
  bitwise-paired;
- :class:`LayerMap` overrides the stack per layer (Fig. 9-style layer
  sensitivity: e.g. protect the first layer, quantize only the last);
- a **registry** maps every model class to a short *kind* name and gives
  all specs ``to_dict`` / ``from_dict`` plus a compact string grammar for
  configs and CLIs.

String grammar
--------------
::

    atom     := kind [":" arg ("," arg)*]      e.g.  lognormal:0.5
    arg      := value | key "=" value          e.g.  quant:4   drift:1e5,nu_sigma=0.2
    chain    := atom ("+" atom)*               e.g.  lognormal:0.5+quant:4
    override := "@" selector "=" chain         selector: layer index (negative
                                               counts from the last weighted
                                               layer) or qualified layer name
    spec     := chain (";" override)*          e.g.  lognormal:0.5;@0=none

``"lognormal:0.5+quant:4"`` parses to
``Compose([LogNormalVariation(0.5), LevelQuantization(4)])``;
``"lognormal:0.5;@-1=lognormal:0.5+quant:4"`` to a :class:`LayerMap` whose
last weighted layer additionally quantizes. :func:`parse_spec` accepts a
model (returned unchanged — the back-compat shim), a grammar string, or a
``to_dict`` payload, so every API boundary can take any of the three.

Paired-seed contract: a composed spec consumes the per-sample rng stream
component by component inside one ``perturb`` call. All engines call
``perturb`` once per (sample, parameter) in the same order, so composition
preserves the bitwise equivalence documented in
``repro.variation.injector``.
"""

from __future__ import annotations

import inspect
import re
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
    cast,
)

import numpy as np

from repro.variation.models import (
    ColumnCorrelatedVariation,
    FloatArray,
    GaussianVariation,
    LogNormalVariation,
    NoVariation,
    StateDependentVariation,
    StuckAtFaults,
    VariationModel,
)
from repro.variation.nonidealities import ConductanceDrift, LevelQuantization

#: Anything convertible to a variation spec at an API boundary.
VariationLike = Union[VariationModel, str, Mapping[str, Any]]

_REGISTRY: Dict[str, Type[VariationModel]] = {}
_KIND_OF: Dict[Type[VariationModel], str] = {}


def register_model(kind: str, cls: Type[VariationModel]) -> Type[VariationModel]:
    """Register ``cls`` under ``kind`` in the spec registry.

    Third-party models call this once to gain serialization and grammar
    support; the class's ``__init__`` signature defines its parameters.
    """
    if not kind or not kind.replace("_", "").isalnum():
        raise ValueError(f"invalid spec kind {kind!r}")
    existing = _REGISTRY.get(kind)
    if existing is not None and existing is not cls:
        raise ValueError(f"spec kind {kind!r} already registered to {existing}")
    _REGISTRY[kind] = cls
    _KIND_OF[cls] = kind
    return cls


def registered_kinds() -> List[str]:
    """Sorted kind names currently in the registry."""
    return sorted(_REGISTRY)


def kind_of(model: VariationModel) -> str:
    """Registry kind of ``model``'s class (raises for unregistered classes)."""
    try:
        return _KIND_OF[type(model)]
    except KeyError:
        raise ValueError(
            f"{type(model).__name__} is not in the spec registry; call "
            "repro.variation.spec.register_model first"
        ) from None


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------
class Compose(VariationModel):
    """Chain of models applied in programming order.

    ``Compose([a, b]).perturb(w, rng)`` is ``b.perturb(a.perturb(w, rng),
    rng)`` — the same rng stream feeds each stage sequentially, exactly as
    if the stages were programmed one after another. Nested composes
    flatten, so ``a | b | c`` has three components, not two.
    """

    def __init__(self, models: Sequence[VariationLike]) -> None:
        flat: List[VariationModel] = []
        for m in models:
            m = parse_spec(m)
            if isinstance(m, Compose):
                flat.extend(m.models)
            else:
                flat.append(m)
        if not flat:
            raise ValueError("Compose needs at least one model")
        self.models = flat

    def perturb(self, weights: FloatArray, rng: np.random.Generator) -> FloatArray:
        for model in self.models:
            weights = model.perturb(weights, rng)
        return weights

    def scaled(self, factor: float) -> "Compose":
        """Scale the stochastic components; structural components (e.g.
        quantization bit-width — fixed hardware) pass through unchanged, so
        ``scale_to``/``sweep_sigma`` over a composed spec sweep the effect
        strength on *the same hardware* and the reported magnitude scales
        linearly as documented."""
        return Compose(
            [m if m.structural else m.scaled(factor) for m in self.models]
        )

    @property
    def magnitude(self) -> float:
        # Sweepable (stochastic) components define the magnitude; but a
        # chain whose stochastic parts are all zero still perturbs through
        # its structural parts, and must not report 0 (the evaluator's
        # no-op short-circuit and lambda_bound sizing key off this).
        sweepable = [m.magnitude for m in self.models if not m.structural]
        if sweepable and max(sweepable) > 0:
            return max(sweepable)
        return max(m.magnitude for m in self.models)

    def model_for(
        self,
        layer_name: Optional[str] = None,
        layer_index: Optional[int] = None,
        n_layers: Optional[int] = None,
    ) -> VariationModel:
        resolved = [m.model_for(layer_name, layer_index, n_layers) for m in self.models]
        if all(r is m for r, m in zip(resolved, self.models)):
            return self
        return Compose(resolved)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "compose", "models": [to_dict(m) for m in self.models]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Compose":
        return cls([from_dict(m) for m in payload["models"]])

    def __repr__(self) -> str:
        return " | ".join(repr(m) for m in self.models)


class LayerMap(VariationModel):
    """Per-layer overrides over a default spec.

    Keys of ``overrides`` are either weighted-layer indices (the paper's
    layer ordering, ``repro.variation.injector.weighted_layers``; negative
    indices count from the last layer) or qualified module names
    (``"net.0"``). Name matches take precedence over index matches. A
    layer without an override resolves through the default, so a nested
    ``LayerMap`` default keeps its own overrides. Without layer context
    (:meth:`perturb` on a bare array, e.g. a lone crossbar), the default
    applies. At least one override is required: a map without any would
    be a second spelling of its default, with a different fingerprint.
    """

    def __init__(
        self,
        default: VariationLike,
        overrides: Optional[Mapping[Union[int, str], VariationLike]] = None,
    ) -> None:
        self.default = parse_spec(default)
        parsed: Dict[Union[int, str], VariationModel] = {}
        for key, value in (overrides or {}).items():
            if not isinstance(key, (int, str)):
                raise TypeError(
                    f"override keys are layer indices or names, got {key!r}"
                )
            parsed[key] = parse_spec(value)
        if not parsed:
            raise ValueError(
                "LayerMap needs at least one override; use the default "
                f"spec {self.default!r} itself"
            )
        self.overrides = parsed

    def model_for(
        self,
        layer_name: Optional[str] = None,
        layer_index: Optional[int] = None,
        n_layers: Optional[int] = None,
    ) -> VariationModel:
        if layer_name is not None and layer_name in self.overrides:
            return self.overrides[layer_name]
        if layer_index is not None:
            if layer_index in self.overrides:
                return self.overrides[layer_index]
            if n_layers is not None and (layer_index - n_layers) in self.overrides:
                return self.overrides[layer_index - n_layers]
        return self.default.model_for(layer_name, layer_index, n_layers)

    def perturb(self, weights: FloatArray, rng: np.random.Generator) -> FloatArray:
        return self.default.perturb(weights, rng)

    def scaled(self, factor: float) -> "LayerMap":
        # Same structural-component rule as Compose.scaled: magnitude
        # sweeps keep per-layer hardware properties fixed.
        def _scale(m: VariationModel) -> VariationModel:
            return m if m.structural else m.scaled(factor)

        return LayerMap(
            _scale(self.default),
            {k: _scale(v) for k, v in self.overrides.items()},
        )

    @property
    def magnitude(self) -> float:
        # Same zero-guard as Compose.magnitude: all-zero stochastic parts
        # must not hide structural perturbations from the evaluator.
        entries = [self.default] + list(self.overrides.values())
        sweepable = [m.magnitude for m in entries if not m.structural]
        if sweepable and max(sweepable) > 0:
            return max(sweepable)
        return max(m.magnitude for m in entries)

    def to_dict(self) -> Dict[str, Any]:
        # Overrides serialize as [key, payload] pairs, not a JSON object:
        # object keys are always strings, which would silently turn an
        # index 3 and a digit-named module "3" into the same key. A list
        # preserves the int/str distinction through real JSON.
        return {
            "kind": "layermap",
            "default": to_dict(self.default),
            "overrides": [[k, to_dict(v)] for k, v in self.overrides.items()],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LayerMap":
        raw = payload.get("overrides", [])
        pairs: List[Tuple[Union[int, str], Any]] = []
        if isinstance(raw, Mapping):
            # Legacy / hand-written object form: digit strings mean indices
            # (a digit-named module cannot be expressed in this form).
            for key, value in raw.items():
                parsed_key: Union[int, str] = key
                if isinstance(key, str) and (
                    key.isdigit() or (key.startswith("-") and key[1:].isdigit())
                ):
                    parsed_key = int(key)
                pairs.append((parsed_key, value))
        else:
            pairs = [(key, value) for key, value in raw]
        return cls(
            from_dict(payload["default"]),
            {key: from_dict(value) for key, value in pairs},
        )

    def __repr__(self) -> str:
        return f"LayerMap(default={self.default!r}, overrides={self.overrides!r})"


# ---------------------------------------------------------------------------
# Serialization: dicts
# ---------------------------------------------------------------------------
def _init_params(cls: Type[VariationModel]) -> List[inspect.Parameter]:
    """Constructor parameters of a registered model, in declaration order."""
    sig = inspect.signature(cls.__init__)
    return [
        p
        for name, p in sig.parameters.items()
        if name != "self"
        and p.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    ]


def to_dict(model: VariationModel) -> Dict[str, Any]:
    """JSON-serializable payload: ``{"kind": ..., <parameters>}``.

    Combinators override ``to_dict``; leaf models are introspected — every
    constructor argument is stored under an attribute of the same name
    (true for all built-in models, the convention for registered ones).
    """
    custom = getattr(model, "to_dict", None)
    if custom is not None:
        return cast(Dict[str, Any], custom())
    payload: Dict[str, Any] = {"kind": kind_of(model)}
    for param in _init_params(type(model)):
        if not hasattr(model, param.name):
            raise ValueError(
                f"{type(model).__name__}.{param.name} is a constructor "
                "argument but not an attribute; define to_dict()/from_dict()"
            )
        payload[param.name] = getattr(model, param.name)
    return payload


def from_dict(payload: Mapping[str, Any]) -> VariationModel:
    """Inverse of :func:`to_dict` via the registry."""
    if "kind" not in payload:
        raise ValueError(f"spec dict needs a 'kind' key, got {dict(payload)}")
    kind = payload["kind"]
    cls = _REGISTRY.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown spec kind {kind!r}; registered: {registered_kinds()}"
        )
    custom = getattr(cls, "from_dict", None)
    if custom is not None:
        return cast(VariationModel, custom(payload))
    kwargs = {k: v for k, v in payload.items() if k != "kind"}
    # The registry holds arbitrary model classes; their constructor
    # signatures are only known at runtime (that is the point of the
    # introspection fallback), so the call is typed as dynamic.
    factory = cast(Callable[..., VariationModel], cls)
    return factory(**kwargs)


# ---------------------------------------------------------------------------
# Serialization: the string grammar
# ---------------------------------------------------------------------------
def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        # repr is the shortest *exact* decimal form, so the string
        # round-trip reproduces the parameter bit-for-bit. Strip the
        # exponent's '+' ("1e+16" -> "1e16"): '+' is the chain separator,
        # and float() reads the plus-less form identically.
        return repr(value).replace("+", "")
    return str(value)


def _parse_value(text: str) -> Union[bool, int, float, str]:
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _atom_to_string(model: VariationModel) -> str:
    kind = kind_of(model)
    params = _init_params(type(model))
    values = [getattr(model, p.name) for p in params]
    # Drop the longest suffix of arguments still at their defaults.
    keep = len(params)
    while keep > 0:
        p = params[keep - 1]
        if p.default is inspect.Parameter.empty:
            break
        if values[keep - 1] != p.default:
            break
        keep -= 1
    if keep == 0:
        return kind
    pieces: List[str] = []
    for p, v in zip(params[:keep], values[:keep]):
        if p.kind is inspect.Parameter.KEYWORD_ONLY:
            pieces.append(f"{p.name}={_format_value(v)}")
        else:
            pieces.append(_format_value(v))
    return f"{kind}:{','.join(pieces)}"


def _chain_to_string(model: VariationModel) -> str:
    if isinstance(model, Compose):
        return "+".join(_chain_to_string(m) for m in model.models)
    if isinstance(model, LayerMap):
        raise ValueError(
            "a LayerMap cannot appear inside a chain; nest it at the top "
            "level (or use to_dict for arbitrary structure)"
        )
    return _atom_to_string(model)


def to_string(model: VariationModel) -> str:
    """Compact grammar form (see module docstring). Round-trips through
    :func:`from_string` for any spec expressible in the grammar: chains of
    registered leaf models, optionally under one top-level ``LayerMap``."""
    if isinstance(model, LayerMap):
        parts = [_chain_to_string(model.default)]
        for key, value in model.overrides.items():
            if isinstance(key, str) and (
                key.isdigit() or (key.startswith("-") and key[1:].isdigit())
            ):
                # A digit selector always parses back as an index; a
                # digit-*named* module key would silently retarget.
                raise ValueError(
                    f"layer-name override {key!r} is indistinguishable "
                    "from an index in the string grammar; serialize this "
                    "spec with to_dict instead"
                )
            parts.append(f"@{key}={_chain_to_string(value)}")
        return ";".join(parts)
    return _chain_to_string(model)


def _parse_atom(text: str) -> VariationModel:
    text = text.strip()
    if not text:
        raise ValueError("empty spec atom")
    kind, _, argtext = text.partition(":")
    kind = kind.strip()
    cls = _REGISTRY.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown spec kind {kind!r}; registered: {registered_kinds()}"
        )
    args: List[Any] = []
    kwargs: Dict[str, Any] = {}
    if argtext.strip():
        for piece in argtext.split(","):
            key, sep, value = piece.partition("=")
            if sep:
                kwargs[key.strip()] = _parse_value(value)
            else:
                if kwargs:
                    raise ValueError(
                        f"positional argument after keyword in {text!r}"
                    )
                args.append(_parse_value(piece))
    factory = cast(Callable[..., VariationModel], cls)
    return factory(*args, **kwargs)


#: Chain separator: a '+' that is not a float exponent sign, i.e. not
#: sitting between a digit-'e' pair and a digit as in "1e+07".
_CHAIN_SPLIT = re.compile(r"(?<![0-9][eE])\+|\+(?![0-9])")


def _parse_chain(text: str) -> VariationModel:
    atoms = [_parse_atom(piece) for piece in _CHAIN_SPLIT.split(text)]
    if len(atoms) == 1:
        return atoms[0]
    return Compose(atoms)


def from_string(text: str) -> VariationModel:
    """Parse the compact grammar (see module docstring)."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"empty variation spec string: {text!r}")
    clauses = [c.strip() for c in text.split(";")]
    default = _parse_chain(clauses[0])
    if len(clauses) == 1:
        return default
    overrides: Dict[Union[int, str], VariationModel] = {}
    for clause in clauses[1:]:
        if not clause.startswith("@"):
            raise ValueError(
                f"override clause must look like '@layer=spec', got {clause!r}"
            )
        selector, sep, chain = clause[1:].partition("=")
        if not sep or not chain.strip():
            raise ValueError(
                f"override clause must look like '@layer=spec', got {clause!r}"
            )
        key = _parse_value(selector)
        if isinstance(key, float):
            raise ValueError(f"layer selector must be int or name, got {selector!r}")
        overrides[key] = _parse_chain(chain)
    return LayerMap(default, overrides)


# ---------------------------------------------------------------------------
# Boundary helpers
# ---------------------------------------------------------------------------
def parse_spec(value: VariationLike) -> VariationModel:
    """Coerce a model / grammar string / dict payload into a model.

    A bare :class:`VariationModel` passes through unchanged — this is the
    back-compat shim every API boundary relies on.
    """
    if isinstance(value, VariationModel):
        return value
    if isinstance(value, str):
        return from_string(value)
    if isinstance(value, Mapping):
        return from_dict(value)
    raise TypeError(
        f"cannot interpret {value!r} as a variation spec (expected a "
        "VariationModel, a grammar string, or a to_dict payload)"
    )


def scale_to(model: VariationModel, magnitude: float) -> VariationModel:
    """Rescale ``model`` so its reported magnitude equals ``magnitude``.

    Sigma sweeps (``MonteCarloEvaluator.sweep_sigma``) are this applied
    over a grid: each point is the same spec at a different magnitude.
    Inside composed and per-layer specs, *structural* components (fixed
    hardware properties like quantization bit-width) are held constant —
    only the stochastic effect strengths scale, which is what makes the
    resulting magnitude track the request linearly. A *standalone*
    structural model, by contrast, rescales its resolution when asked
    (that is the only thing a sweep over it can mean), so its resulting
    magnitude is the nearest value its discrete parameter can represent,
    not necessarily ``magnitude`` exactly.
    """
    base = model.magnitude
    if base <= 0:
        raise ValueError(
            "cannot rescale a zero-magnitude spec (its scaled copies would "
            "all be identical)"
        )
    scaled = model.scaled(magnitude / base)
    # Composite specs whose stochastic parts are all zero (e.g.
    # "lognormal:0+quant:4") report their structural magnitude, which
    # scaling cannot move — a sweep over them would return N identical
    # points mislabeled as a grid. A zero target is the exception: it
    # legitimately zeroes the stochastic parts while the structural
    # hardware stays (and keeps reporting its fixed magnitude).
    if (
        magnitude > 0
        and not model.structural
        and not np.isclose(scaled.magnitude, magnitude, rtol=1e-9, atol=0.0)
    ):
        raise ValueError(
            f"cannot scale {model!r} to magnitude {magnitude}: its "
            f"sweepable components only reach {scaled.magnitude} (zero-"
            "magnitude stochastic parts, or a saturating parameter)"
        )
    return scaled


# ---------------------------------------------------------------------------
# Built-in registrations
# ---------------------------------------------------------------------------
register_model("none", NoVariation)
register_model("lognormal", LogNormalVariation)
register_model("gaussian", GaussianVariation)
register_model("colcorr", ColumnCorrelatedVariation)
register_model("statedep", StateDependentVariation)
register_model("stuckat", StuckAtFaults)
register_model("quant", LevelQuantization)
register_model("drift", ConductanceDrift)
register_model("compose", Compose)
register_model("layermap", LayerMap)
