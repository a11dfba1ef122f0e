"""Per-layer timing by wrapping the program's public functions at run time.

Only the traced run installs the wrappers, and :meth:`Instrumentation.
uninstall` puts every original back. Nothing under ``src/`` is edited:
a target is a ``(module, attribute)`` pair, patched on its owner (and, for
a plain function, on every ``repro`` module that imported the same object
by name). A target that no longer exists after a refactor is recorded as
missing, and its metrics are reported missing instead of failing the run.

:data:`PER_LAYER` is the per-layer metric list; ``BENCHMARK.json``
declares the same list, and :func:`layer_metrics` computes it from spans.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Span, Tracer, outermost, self_share_within, totals_by_name

#: Wrapper executions in this process. Untraced runs assert it stays 0.
WRAPPER_CALLS = [0]

Before = Callable[[Tracer, tuple, dict], Optional[Dict[str, Any]]]
After = Callable[[Tracer, Span, tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    span: str  # span name the wrapped calls record under
    module: str
    attr: str  # "function" or "Class.method"
    aliases: bool = False  # also patch other repro modules' bindings of it
    subclasses: bool = False  # also patch overrides in loaded subclasses
    before: Optional[Before] = None
    after: Optional[After] = None


def _shape(x: Any) -> Tuple[int, ...]:
    return tuple(getattr(getattr(x, "data", x), "shape", ()))


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs.get(name)


def _conv_macs(tracer, span, args, kwargs, result) -> None:
    weight = _shape(_arg(args, kwargs, 1, "weight"))
    span.attrs["macs"] = math.prod(_shape(result)) * math.prod(weight[-3:])


def _linear_macs(tracer, span, args, kwargs, result) -> None:
    span.attrs["macs"] = math.prod(_shape(result)) * _shape(args[0])[-1]


def _perturb_elems(tracer, span, args, kwargs, result) -> None:
    span.attrs["elems"] = math.prod(_shape(_arg(args, kwargs, 1, "weights")))


def _count_applies(tracer, args, kwargs):
    return {"applies": tracer.opened["compensation.apply"]}


def _env_step(tracer, span, args, kwargs, result) -> None:
    # A step that spliced no compensation into a model was a cache hit.
    span.attrs["cache_hit"] = tracer.opened["compensation.apply"] == span.attrs.pop("applies")
    span.attrs["skipped"] = bool(getattr(result, "skipped", False))


def _plan_digest(tracer, args, kwargs):
    """Initial compensated-model weights: equal for repeated fits of one plan."""
    model = getattr(args[0], "model", None)
    if model is None:
        return None
    h = hashlib.sha1()
    for name, p in sorted(model.named_parameters(), key=lambda kv: kv[0]):
        h.update(name.encode())
        h.update(p.data.tobytes())
    return {"plan": h.hexdigest()}


def _chunk_draws(tracer, span, args, kwargs, result) -> None:
    span.attrs["draws"] = int(result)
    evaluation = args[0]
    plan = evaluation.plan
    if plan.stopping is not None and evaluation.done:
        span.attrs["adaptive_draws"] = len(evaluation.accuracies)
        span.attrs["adaptive_cap"] = plan.n_samples


def _submit(tracer, span, args, kwargs, result) -> None:
    span.attrs["cache_hit"] = bool(result.cache_hit)


def _job_status(tracer, span, args, kwargs, result) -> None:
    span.attrs["failed"] = result.status == "failed"
    span.attrs["stale"] = result.status == "stale"


TARGETS: List[Target] = [
    Target("core.fit_base", "repro.core.pipeline", "CorrectNet.fit_base"),
    Target("core.find_candidates", "repro.core.pipeline", "CorrectNet.find_candidates"),
    Target("core.search", "repro.core.pipeline", "CorrectNet.search"),
    Target("core.finalize", "repro.core.pipeline", "CorrectNet.finalize"),
    Target("core.full_evaluate", "repro.core.pipeline", "CorrectNet._full_evaluate"),
    Target("core.trainer_fit", "repro.core.training", "Trainer.fit"),
    # Only the trainer's own binding: the per-epoch accuracy sweeps.
    Target("core.train_accuracy", "repro.core.training", "accuracy"),
    Target("rl.env_step", "repro.rl.env", "CompensationEnv.step",
           before=_count_applies, after=_env_step),
    Target("rl.agent", "repro.rl.agent", "ReinforceAgent.update"),
    Target("rl.agent", "repro.rl.policy", "RNNPolicy.sample"),
    Target("compensation.fit", "repro.compensation.trainer", "CompensationTrainer.fit",
           before=_plan_digest),
    Target("compensation.apply", "repro.compensation.plan", "CompensationPlan.apply"),
    Target("optim.step", "repro.optim.optimizers", "Optimizer.step", subclasses=True),
    Target("optim.clip", "repro.optim.optimizers", "clip_grad_norm", aliases=True),
    Target("lipschitz.penalty", "repro.lipschitz.regularizer",
           "OrthogonalityRegularizer.penalty"),
    Target("autograd.backward", "repro.autograd.tensor", "Tensor.backward"),
    Target("autograd.conv2d", "repro.autograd.functional", "conv2d",
           aliases=True, after=_conv_macs),
    Target("autograd.linear", "repro.autograd.functional", "linear",
           aliases=True, after=_linear_macs),
    Target("autograd.avg_pool2d", "repro.autograd.functional", "avg_pool2d", aliases=True),
    Target("autograd.max_pool2d", "repro.autograd.functional", "max_pool2d", aliases=True),
    Target("autograd.softmax", "repro.autograd.functional", "softmax", aliases=True),
    Target("autograd.matmul", "repro.autograd.tensor", "Tensor.matmul"),
    Target("autograd.fanin_add", "repro.autograd.functional", "fanin_add", aliases=True),
    Target("autograd.cross_entropy", "repro.autograd.functional", "cross_entropy",
           aliases=True),
    Target("variation.perturb", "repro.variation.models", "VariationModel.perturb",
           subclasses=True, after=_perturb_elems),
    Target("evaluation.evaluate", "repro.evaluation.montecarlo",
           "MonteCarloEvaluator.evaluate"),
    Target("evaluation.build_plan", "repro.evaluation.plan", "build_plan", aliases=True),
    Target("evaluation.run_chunk", "repro.evaluation.executor",
           "IncrementalEvaluation.run_chunk", after=_chunk_draws),
    Target("hardware.analogize", "repro.hardware.analog_layers", "analogize", aliases=True),
    Target("hardware.program_batch", "repro.hardware.tiling",
           "TiledCrossbarArray.program_batch"),
    Target("hardware.mvm", "repro.hardware.tiling", "TiledCrossbarArray.mvm"),
    Target("store.submit", "repro.store.db", "ResultStore.submit", after=_submit),
    Target("store.claim", "repro.store.db", "ResultStore.claim"),
    Target("store.put_chunk", "repro.store.db", "ResultStore.put_chunk"),
    Target("store.finalize", "repro.store.db", "ResultStore.finalize"),
    Target("store.result", "repro.store.db", "ResultStore.result"),
    Target("store.renew", "repro.store.db", "ResultStore.renew"),
    Target("store.materialize", "repro.store.jobs", "materialize", aliases=True),
    Target("store.digest", "repro.store.fingerprint", "weights_digest", aliases=True),
    Target("store.digest", "repro.store.fingerprint", "dataset_digest", aliases=True),
    Target("store.run_job", "repro.store.runner", "run_job", aliases=True,
           after=_job_status),
    Target("data.synth", "repro.data.synthetic", "make_synthetic", aliases=True),
]

#: Weighted layers whose forward time is reported, by model and
#: ``repro.nn.graph.module_walk`` name.
NN_LAYERS: Dict[str, List[str]] = {
    "lenet5": ["net.0", "net.3", "net.7", "net.9", "net.11"],
    "attnmlp": [
        "patch_embed",
        "attn_block.body.1.q_proj",
        "attn_block.body.1.k_proj",
        "attn_block.body.1.v_proj",
        "attn_block.body.1.out_proj",
        "mlp_block.body.1.linear",
        "mlp_block.body.3.linear",
        "head",
    ],
    "resnet8": [
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
    ],
}

PIPELINE_STAGES = ["fit_base", "find_candidates", "search", "finalize", "full_evaluate"]
MC_LEGS = ["lenet5", "attnmlp", "resnet8"]

_TIMED = [
    ("core.trainer_fit", ("calls", "s")),
    ("core.train_accuracy", ("calls", "s")),
    ("rl.env_step", ("calls", "s")),
    ("rl.agent", ("s",)),
    ("compensation.fit", ("calls", "s")),
    ("compensation.apply", ("calls", "s")),
    ("optim.step", ("calls", "s")),
    ("optim.clip", ("s",)),
    ("lipschitz.penalty", ("calls", "s")),
    ("autograd.backward", ("calls", "s")),
    ("autograd.conv2d", ("calls", "s")),
    ("autograd.linear", ("calls", "s")),
    ("autograd.avg_pool2d", ("s",)),
    ("autograd.max_pool2d", ("s",)),
    ("autograd.softmax", ("s",)),
    ("autograd.matmul", ("s",)),
    ("autograd.fanin_add", ("s",)),
    ("autograd.cross_entropy", ("s",)),
    ("variation.perturb", ("calls", "s")),
    ("evaluation.evaluate", ("calls", "s")),
    ("evaluation.build_plan", ("s",)),
    ("evaluation.run_chunk", ("calls", "s", "self_s")),
    ("hardware.analogize", ("s",)),
    ("hardware.program_batch", ("calls", "s")),
    ("hardware.mvm", ("calls", "s")),
    ("store.submit", ("calls", "s")),
    ("store.claim", ("calls", "s")),
    ("store.put_chunk", ("calls", "s")),
    ("store.finalize", ("calls", "s")),
    ("store.result", ("calls", "s")),
    ("store.materialize", ("calls", "s")),
    ("store.digest", ("s",)),
    ("store.renew", ("calls",)),
    ("data.synth", ("calls", "s")),
]

Compute = Callable[[List[Span]], float]


@dataclass(frozen=True)
class Derived:
    """A per-layer metric computed from the outermost calls of one span."""

    span: str
    unit: str
    compute: Compute
    per_round: bool = True  # divided by the rounds; ratios are not


def _sum(key: str) -> Compute:
    """Sum of a span attribute over the calls (a true flag counts 1)."""
    return lambda calls: float(sum(s.attrs.get(key, 0) for s in calls))


def _ratio(numerator: str, denominator: str) -> Compute:
    def ratio(calls: List[Span]) -> float:
        total = _sum(denominator)(calls)
        return _sum(numerator)(calls) / total if total else 0.0

    return ratio


def _distinct_plans(fits: List[Span]) -> float:
    return float(len({s.attrs.get("plan", i) for i, s in enumerate(fits)}))


def _useful_ratio(fits: List[Span]) -> float:
    return _distinct_plans(fits) / len(fits) if fits else 0.0


_DERIVED: Dict[str, Derived] = {
    "rl.env_step.cache_hits": Derived("rl.env_step", "count", _sum("cache_hit")),
    "rl.env_step.skipped": Derived("rl.env_step", "count", _sum("skipped")),
    "compensation.fit.distinct": Derived("compensation.fit", "count", _distinct_plans),
    "compensation.fit.useful_ratio": Derived(
        "compensation.fit", "ratio", _useful_ratio, per_round=False
    ),
    "autograd.conv2d.macs": Derived("autograd.conv2d", "MAC", _sum("macs")),
    "autograd.linear.macs": Derived("autograd.linear", "MAC", _sum("macs")),
    "variation.perturb.elems": Derived("variation.perturb", "count", _sum("elems")),
    "evaluation.draws": Derived("evaluation.run_chunk", "count", _sum("draws")),
    "evaluation.draws_used_ratio": Derived(
        "evaluation.run_chunk", "ratio", _ratio("adaptive_draws", "adaptive_cap"),
        per_round=False,
    ),
    "store.cache_hits": Derived("store.submit", "count", _sum("cache_hit")),
    "store.jobs_failed": Derived("store.run_job", "count", _sum("failed")),
    "store.jobs_stale": Derived("store.run_job", "count", _sum("stale")),
}

_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def _per_layer() -> List[Tuple[str, str]]:
    out = [(f"core.{stage}.s", "s") for stage in PIPELINE_STAGES]
    for base, kinds in _TIMED:
        out += [(f"{base}.{k}", _UNITS[k]) for k in kinds]
    out += [(name, derived.unit) for name, derived in _DERIVED.items()]
    for model, layers in NN_LAYERS.items():
        out += [(f"nn.{model}.{layer}.forward.s", "s") for layer in layers]
    out += [(f"core.{stage}.uncovered_share", "ratio") for stage in PIPELINE_STAGES]
    out += [(f"mc.{leg}.uncovered_share", "ratio") for leg in MC_LEGS]
    out += [(f"mc.{leg}.run_chunk_self_share", "ratio") for leg in MC_LEGS]
    out += [("trace.overhead_s", "s"), ("trace.overhead_share", "ratio")]
    return out


#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = _per_layer()


def _source_span(metric: str) -> str:
    """The span a per-layer metric is computed from."""
    if metric in _DERIVED:
        return _DERIVED[metric].span
    if metric.startswith(("mc.", "trace.")):
        return ""
    if metric.startswith("nn."):
        return "nn"
    return metric.rsplit(".", 1)[0]


class Instrumentation:
    """Installs the wrappers of :data:`TARGETS` and the per-layer forward
    wrappers, records into ``tracer``, and restores every original."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: List[str] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._originals: Dict[int, Tuple[Any, Any]] = {}  # id(wrapper) -> (wrapper, original)
        # id(layer) -> (layer, span name); holding the layer keeps its id
        # from being reused by a later object, such as a compensated copy.
        self._layer_names: Dict[int, Tuple[Any, str]] = {}
        self._installed = False

    # -- registration --------------------------------------------------
    def register_model(self, name: str, model: Any) -> None:
        """Name ``model``'s weighted layers for the ``nn.*`` forward spans
        and wrap their classes' ``forward`` (once per class)."""
        try:
            from repro.nn.graph import weighted_layers

            layers = weighted_layers(model)
        except (ImportError, AttributeError) as exc:
            self.missing.append(f"nn (repro.nn.graph:weighted_layers: {exc})")
            return
        for walk_name, layer in layers:
            if walk_name in NN_LAYERS.get(name, ()):
                self._layer_names[id(layer)] = (layer, f"nn.{name}.{walk_name}.forward")
                self._wrap_forward(type(layer))

    # -- patching ------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, replacement)

    def _wrap_forward(self, cls: type) -> None:
        owner = next(c for c in cls.__mro__ if "forward" in vars(c))
        if any(o is owner and a == "forward" for o, a, _, _ in self._patches):
            return
        fn = vars(owner)["forward"]
        names = self._layer_names
        tracer = self.tracer

        def forward(module, *args, **kwargs):
            WRAPPER_CALLS[0] += 1
            layer, name = names.get(id(module), (None, ""))
            if layer is not module:
                return fn(module, *args, **kwargs)
            index = tracer.begin(name)
            try:
                return fn(module, *args, **kwargs)
            finally:
                tracer.end(index)

        self._patch(owner, "forward", forward)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer, name, before, after = self.tracer, target.span, target.before, target.after

        def wrapper(*args, **kwargs):
            WRAPPER_CALLS[0] += 1
            attrs = before(tracer, args, kwargs) if before is not None else None
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            span = tracer.spans[index]
            if attrs:
                span.attrs.update(attrs)
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        self._originals[id(wrapper)] = (wrapper, fn)
        return wrapper

    def _install_target(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, method = target.attr.split(".")
            base = getattr(module, cls_name)
            owners = [base]
            if target.subclasses:
                owners += [c for c in dict.fromkeys(_all_subclasses(base)) if method in vars(c)]
            for owner in owners:
                fn = getattr(owner, method)
                self._patch(owner, method, self._wrap(fn, target))
            return
        fn = getattr(module, target.attr)
        wrapped = self._wrap(fn, target)
        self._patch(module, target.attr, wrapped)
        if not target.aliases:
            return
        for name, holder in list(sys.modules.items()):
            if holder is None or holder is module or not name.startswith("repro"):
                continue
            for attr, value in list(vars(holder).items()):
                if value is fn:
                    self._patch(holder, attr, wrapped)

    def install(self) -> "Instrumentation":
        if self._installed:
            raise RuntimeError("instrumentation already installed")
        self._installed = True
        for target in TARGETS:
            try:
                self._install_target(target)
            except (ImportError, AttributeError, ValueError) as exc:
                self.missing.append(f"{target.span} ({target.module}:{target.attr}: {exc})")
        return self

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        # A module first imported while tracing bound the wrappers by name.
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        self._originals.clear()
        self._layer_names.clear()
        self._installed = False

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    @property
    def missing_spans(self) -> set:
        return {m.split(" ", 1)[0] for m in self.missing}


def _all_subclasses(cls: type) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out += _all_subclasses(sub)
    return out


def layer_metrics(
    tracer: Tracer, n_ops: int, missing_spans: set
) -> Tuple[Dict[str, float], List[str]]:
    """Per-operation values of :data:`PER_LAYER` from ``tracer``'s spans.

    Returns the metrics and the names reported missing (their span's wrap
    target no longer exists); trace-overhead metrics are the caller's.
    """
    spans = tracer.spans
    totals = totals_by_name(spans)
    per_op = 1.0 / max(n_ops, 1)
    values: Dict[str, float] = {}

    def total(name: str, field: str) -> float:
        t = totals.get(name)
        if t is None:
            return 0.0
        return {"calls": t.calls, "s": t.total_s, "self_s": t.self_s}[field]

    for stage in PIPELINE_STAGES:
        values[f"core.{stage}.s"] = total(f"core.{stage}", "s") * per_op
    for base, kinds in _TIMED:
        for kind in kinds:
            values[f"{base}.{kind}"] = total(base, kind) * per_op
    for model, layers in NN_LAYERS.items():
        for layer in layers:
            values[f"nn.{model}.{layer}.forward.s"] = (
                total(f"nn.{model}.{layer}.forward", "s") * per_op
            )

    calls: Dict[str, List[Span]] = {}
    for s, top in zip(spans, outermost(spans)):
        if top:
            calls.setdefault(s.name, []).append(s)
    for name, derived in _DERIVED.items():
        value = derived.compute(calls.get(derived.span, []))
        values[name] = value * per_op if derived.per_round else value

    for stage in PIPELINE_STAGES:
        values[f"core.{stage}.uncovered_share"] = _mean_share(spans, f"core.{stage}", None)
    for leg in MC_LEGS:
        values[f"mc.{leg}.uncovered_share"] = _mean_share(spans, f"mc.{leg}", None)
        values[f"mc.{leg}.run_chunk_self_share"] = _mean_share(
            spans, f"mc.{leg}", "evaluation.run_chunk"
        )

    missing = [
        name for name, _ in PER_LAYER
        if _source_span(name) in missing_spans
        or (name.startswith("nn.") and "nn" in missing_spans)
    ]
    for name in missing:
        values.pop(name, None)
    return values, missing


def _mean_share(spans: List[Span], name: str, inner: Optional[str]) -> float:
    """Mean over ``name`` spans of the self-time share of ``inner`` spans
    inside them (``None``: of the span itself, i.e. its uncovered share)."""
    shares = [
        self_share_within(spans, i, inner or name)
        for i, s in enumerate(spans)
        if s.name == name
    ]
    return sum(shares) / len(shares) if shares else 0.0
