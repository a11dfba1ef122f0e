"""Public API surface: every documented name imports, __all__ is honest,
every exported name, public function and public method has a caller
outside the tests, every config and request field is set by one, and
every defaulted parameter is passed by one."""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import (
    CompensationConfig, EvalConfig, PipelineConfig, RLConfig, TrainConfig,
)
from repro.store.jobs import AnalogParams, JobRequest

REPO_ROOT = Path(__file__).resolve().parents[1]

SUBPACKAGES = [
    "repro.autograd",
    "repro.nn",
    "repro.optim",
    "repro.data",
    "repro.variation",
    "repro.hardware",
    "repro.lipschitz",
    "repro.compensation",
    "repro.rl",
    "repro.evaluation",
    "repro.baselines",
    "repro.models",
    "repro.core",
    "repro.utils",
]


class TestPublicAPI:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        module = importlib.import_module(name)
        assert module is not None

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert getattr(module, symbol, None) is not None, (
                f"{name}.__all__ lists {symbol!r} but it does not resolve"
            )

    def test_version_string(self):
        import repro
        parts = repro.__version__.split(".")
        assert len(parts) == 3

    def test_core_lazy_exports(self):
        from repro import core
        assert core.CorrectNet is not None
        assert core.CorrectNetResult is not None
        with pytest.raises(AttributeError):
            core.DoesNotExist

    def test_paper_equations_accessible(self):
        """The names that map directly to the paper's equations exist and
        compose (a documentation-level contract)."""
        from repro.lipschitz import lambda_bound  # eq. 10
        from repro.lipschitz import OrthogonalityRegularizer  # eq. 11
        from repro.variation import LogNormalVariation  # eq. 1-2
        from repro.rl import CompensationEnv  # eq. 12 reward

        lam = lambda_bound(0.5)
        assert 0 < lam < 1
        assert OrthogonalityRegularizer(lam).lam == lam
        assert LogNormalVariation(0.5).sigma == 0.5
        assert CompensationEnv is not None

    def test_cli_import_loads_no_store(self):
        """Train, eval and search never pay for the result store:
        ``import repro.cli`` loads neither ``repro.store`` nor ``sqlite3``
        (the fit memo keys on ``repro.utils.digest``)."""
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        script = (
            "import sys, repro.cli; print(sorted(name for name in "
            "sys.modules if name == 'sqlite3' or name == 'repro.store' "
            "or name.startswith('repro.store.')))"
        )
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, env=env,
                             check=True)
        assert out.stdout.strip() == "[]"


#: Public names that nothing outside the tests calls, each with the
#: reason it stays. A name here that gains a caller fails the guard too,
#: so the map cannot go stale.
KEPT = {
    "gradcheck": "test tooling: checks an op's backward against central "
                 "differences (tests/test_autograd_gradcheck.py)",
    "ErrorPropagationTracer": "Fig. 4's per-layer error instrument, which "
                              "tests/test_integration_suppression.py asserts",
    "amplification_profile": "Fig. 4's instrument: the tracer's per-layer "
                             "error amplification",
    "calibrate_input_scale": "the DAC-range calibration that ROADMAP item 5 "
                             "wires into the analog paths",
    "multiplier_stats": "closed-form reference that property tests check "
                        "sampled multipliers against",
    "mean_attenuation": "closed-form reference that property tests check "
                        "sampled drift against",
    "scale_to": "the magnitude-grid sweep surface (Figs. 2 and 7 are "
                "scale_to plus evaluate per point), which "
                "tests/test_variation_spec.py checks",
}


def _caller_files():
    """The program's own sources: the library, the paper benchmarks, the
    examples and the benchmark harness (not its tests or its outputs)."""
    yield from sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    yield from sorted((REPO_ROOT / "benchmarks").rglob("*.py"))
    yield from sorted((REPO_ROOT / "examples").rglob("*.py"))
    yield from sorted((REPO_ROOT / "perfbench").glob("*.py"))


def _public_defs(tree):
    """Public top-level functions and public methods of every class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}"


def _public_names_and_uses():
    """``({public name: where it is declared}, {used names})``.

    A public name is an ``__all__`` entry anywhere, or a function or
    method under ``src/repro`` (:func:`_public_defs`) whose name does not
    start with ``_``. A use is a loaded name, an attribute, an imported
    name or a component of an import's module path. An ``__init__.py``
    import is a re-export, not a use, and neither an ``__all__`` entry
    nor a definition counts.

    The match is by name: a method stays unflagged when any function,
    attribute or variable of the same name is used anywhere, so an
    unrelated ``report.violations`` hides a caller-less ``violations``
    method. Such a method has to be found by hand.
    """
    src = REPO_ROOT / "src" / "repro"
    names, uses = {}, set()
    for path in _caller_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = str(path.relative_to(REPO_ROOT))
        reexports = path.name == "__init__.py"
        if src in path.parents:
            for qualified in _public_defs(tree):
                name = qualified.rsplit(".", 1)[-1]
                if not name.startswith("_"):
                    names.setdefault(name, f"{qualified} in {where}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                for entry in node.value.elts:
                    names.setdefault(entry.value, where)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.add(node.id)
            elif isinstance(node, ast.Attribute):
                uses.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
                if isinstance(node, ast.ImportFrom) and node.module:
                    uses.update(node.module.split("."))
                for alias in node.names:
                    uses.update(alias.name.split("."))
    return names, uses


def test_every_export_has_a_caller():
    """The library keeps only what CorrectNet's flows call: every name in
    an ``__all__``, and every public function and method under
    ``src/repro``, is used by ``src/``, ``benchmarks/``, ``examples/`` or
    ``perfbench/``, or is in ``KEPT`` with a reason."""
    names, uses = _public_names_and_uses()
    uncalled = {name for name in names if name not in uses}
    dead = sorted(uncalled - set(KEPT))
    assert not dead, (
        "public, but nothing outside the tests uses it: "
        + ", ".join(f"{name} ({names[name]})" for name in dead)
        + ". Delete it, or add it to KEPT with the reason it stays."
    )
    stale = sorted(set(KEPT) - uncalled)
    assert not stale, (
        f"KEPT names that are no longer uncalled public names: {stale}. "
        "Drop them from KEPT."
    )


#: The settable surface: every field of these classes is a setting.
SETTINGS = (TrainConfig, CompensationConfig, RLConfig, EvalConfig,
            PipelineConfig, JobRequest, AnalogParams)

#: Settings that nothing outside the tests sets, each with the reason it
#: stays. A field here that gains a setter fails the guard too.
KEPT_SETTINGS = {
    "EvalConfig.store_path": "the pipeline's opt-in result-store cache, on "
                             "which ROADMAP item 1 builds the persisted fit "
                             "memo",
}


def _settings_set():
    """``{"Class.field"}`` of the settings a caller file sets.

    A field is set by a call to its class that passes it by keyword
    (``EvalConfig(max_candidates=3)``), or by an assignment through a
    ``PipelineConfig`` slot (``config.eval.tolerance = ...``). Other
    attribute assignments do not count: ``self.optimizer.lr = ...`` sets
    an optimizer's rate, not ``RLConfig.lr``.
    """
    classes = {cls.__name__ for cls in SETTINGS}
    defaults = PipelineConfig()
    slots = {
        f.name: type(getattr(defaults, f.name)).__name__
        for f in dataclasses.fields(PipelineConfig)
        if dataclasses.is_dataclass(getattr(defaults, f.name))
    }
    found = set()
    for path in _caller_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in classes:
                    found.update(f"{name}.{kw.arg}" for kw in node.keywords
                                 if kw.arg is not None)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Attribute)
                            and target.value.attr in slots):
                        found.add(f"{slots[target.value.attr]}.{target.attr}")
    return found


def test_every_setting_is_set():
    """A config or request field is a knob every test and benchmark must
    cover, so each one is set by ``src/``, ``benchmarks/``, ``examples/``
    or ``perfbench/`` (:func:`_settings_set`), or is in ``KEPT_SETTINGS``
    with a reason. A value nothing sets belongs in a constant."""
    declared = {f"{cls.__name__}.{f.name}"
                for cls in SETTINGS for f in dataclasses.fields(cls)}
    unset = declared - _settings_set()
    never = sorted(unset - set(KEPT_SETTINGS))
    assert not never, (
        f"settings that nothing outside the tests sets: {never}. Fold each "
        "into the constant it always takes, or add it to KEPT_SETTINGS with "
        "the reason it stays."
    )
    stale = sorted(set(KEPT_SETTINGS) - unset)
    assert not stale, (
        f"KEPT_SETTINGS entries that are set or no longer declared: {stale}. "
        "Drop them from KEPT_SETTINGS."
    )


_ARGV = ("the console-script seam: None reads sys.argv, and the CLI tests "
         "drive the main with a list")
_GRADCHECK = "test tooling, like gradcheck itself (KEPT)"
_UNCLIPPED = ("the unclipped mode that the weight-domain equivalence tests "
              "compare the conductance domain against")
_RAW_DECODE = "the raw conductance decode that the round-trip tests check"
_FIG4 = "Fig. 4's instrument, which is KEPT"

#: Defaulted parameters that nothing outside the tests passes, each with
#: the reason it stays. An entry that gains a caller fails the guard too.
KEPT_PARAMETERS = {
    **{f"{main}(argv)": _ARGV for main in (
        "repro.cli.train_main", "repro.cli.eval_main",
        "repro.cli.search_main", "repro.cli.jobs_main",
        "repro.cli.query_main", "repro.cli.main",
        "repro.store.cli.jobs_main", "repro.store.cli.query_main",
        "repro.lint.cli.main",
    )},
    "repro.autograd.gradcheck.gradcheck(eps)": _GRADCHECK,
    "repro.autograd.gradcheck.gradcheck(atol)": _GRADCHECK,
    "repro.autograd.gradcheck.gradcheck(rtol)": _GRADCHECK,
    "repro.autograd.gradcheck.numerical_gradient(eps)": _GRADCHECK,
    "repro.hardware.crossbar.Crossbar(clip_conductance)": _UNCLIPPED,
    "repro.hardware.tiling.TiledCrossbarArray(clip_conductance)": _UNCLIPPED,
    "repro.hardware.crossbar.Crossbar.effective_weights(include_ir_drop)":
        _RAW_DECODE,
    "repro.hardware.tiling.TiledCrossbarArray.effective_weights"
    "(include_ir_drop)": _RAW_DECODE,
    "repro.evaluation.tracer.ErrorPropagationTracer.amplification_profile"
    "(n_samples)": _FIG4,
    "repro.evaluation.tracer.ErrorPropagationTracer.amplification_profile"
    "(seed)": _FIG4,
    "repro.store.db.ResultStore(clock)": "the injected clock (DET001) that "
                                         "the lease tests fake",
    "repro.rl.policy.RNNPolicy.sample(greedy)": "the deterministic decode "
                                                "through which the bandit "
                                                "test reads the learned "
                                                "policy",
}


def _signature(node, method):
    """``(names a positional argument fills, {defaulted name: default})``
    of a function, lambda or method (``self``/``cls`` skipped)."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaults = dict(zip(positional[len(positional) - len(args.defaults):],
                        args.defaults))
    defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults)
                    if d is not None)
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in getattr(node, "decorator_list", ()))
    return (positional[1:] if method and not static else positional), defaults


def _literal(node):
    try:
        return True, ast.literal_eval(node)
    except (ValueError, TypeError):
        return False, None


def _callee(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _parameters():
    """``({key: (definition, parameter)}, {passed (definition, parameter)})``.

    The keys (``"repro.store.db.ResultStore(busy_timeout_s)"``) name the
    defaulted parameters of public functions and public methods of public
    classes under ``src/repro``; an ``__init__`` is keyed by its class.
    Which parameters are passed is the least fixed point of the rule in
    :func:`test_every_parameter_is_passed`, over every definition and call
    in :func:`_caller_files`.
    """
    src = REPO_ROOT / "src" / "repro"
    parents, signatures, defs, calls, public = {}, {}, {}, [], {}
    for path in _caller_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        module = (".".join(path.relative_to(src.parent).with_suffix("").parts)
                  if src in path.parents else None)
        for node in ast.walk(tree):
            parents.update((child, node) for child in ast.iter_child_nodes(node))
            if isinstance(node, ast.Call):
                calls.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = parents.get(node)
            method = isinstance(owner, ast.ClassDef)
            init = method and node.name == "__init__"
            name = owner.name if init else node.name
            signatures[node] = _signature(node, method)
            defs.setdefault(name, []).append(node)
            if module and not name.startswith("_") and (
                    isinstance(owner, ast.Module)
                    or method and not owner.name.startswith("_")):
                shown = name if init or not method else f"{owner.name}.{name}"
                public.update((f"{module}.{shown}({param})", (node, param))
                              for param in signatures[node][1])
    passed = set()

    def own_parameter(call, name):
        """The innermost function enclosing ``call`` with a parameter
        ``name``, or None."""
        scope = parents.get(call)
        while scope is not None:
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                args = scope.args
                if name in {a.arg for a in args.posonlyargs + args.args
                            + args.kwonlyargs + [args.vararg, args.kwarg]
                            if a is not None}:
                    return scope
            scope = parents.get(scope)
        return None

    def counts(value, callee, param, call):
        """Whether ``value`` passes ``param`` (see the test's rule)."""
        scope = own_parameter(call, value.id) if isinstance(
            value, ast.Name) else None
        if scope is not None:
            # A lambda is the one enclosing scope that is not in ``defs``.
            defaults = (signatures[scope] if scope in signatures
                        else _signature(scope, False))[1]
            return value.id not in defaults or (scope, value.id) in passed
        is_literal, literal = _literal(value)
        return not is_literal or any(
            _literal(signatures[node][1][param]) != (True, literal)
            for node in defs[callee] if param in signatures[node][1])

    changed = True
    while changed:
        changed = False
        for call in calls:
            callee, args = _callee(call.func), call.args
            if callee == "partial" and args:
                callee, args = _callee(args[0]), args[1:]
            star = (any(isinstance(arg, ast.Starred) for arg in args)
                    or any(kw.arg is None for kw in call.keywords))
            for node in defs.get(callee, ()):
                positional, defaults = signatures[node]
                bound = list(zip(positional, args)) + [
                    (kw.arg, kw.value) for kw in call.keywords]
                hits = defaults if star else [
                    param for param, value in bound if param in defaults
                    and counts(value, callee, param, call)]
                new = {(node, param) for param in hits} - passed
                passed |= new
                changed = changed or bool(new)
    return public, passed


def test_every_parameter_is_passed():
    """A defaulted parameter is a knob, so some call in ``src/``,
    ``benchmarks/``, ``examples/`` or ``perfbench/`` passes it, or it is
    in ``KEPT_PARAMETERS`` with a reason. A value nothing passes belongs
    in a constant.

    The rule, over the defaulted parameters of public functions and of
    public methods of public classes under ``src/repro``: a call that
    names the callee (by name, like the export guard; ``partial(f, ...)``
    counts as a call of ``f``) passes a parameter by keyword or by
    position, unless the argument is a literal equal to the default of
    every same-named definition that declares it. A ``*``/``**`` call
    passes every parameter. An argument that is the enclosing function's
    own defaulted parameter counts only when that parameter is passed
    itself (a required one always is), which is what catches a default
    forwarded down a chain of calls.

    Blind spots: a call matches every definition of its name, so a call of
    an unrelated same-named function hides an unpassed parameter (that is
    how ``RandomSparseAdaptation.evaluate`` and its flipped
    ``online_retraining`` default went unseen: the protection baseline's
    callers pass that name). ``super().__init__(...)`` passes nothing.
    """
    public, passed = _parameters()
    unpassed = {key for key, entry in public.items() if entry not in passed}
    never = sorted(unpassed - set(KEPT_PARAMETERS))
    assert not never, (
        f"defaulted parameters that nothing outside the tests passes: "
        f"{never}. Fold each into the constant it always takes, or add it "
        "to KEPT_PARAMETERS with the reason it stays."
    )
    stale = sorted(set(KEPT_PARAMETERS) - unpassed)
    assert not stale, (
        f"KEPT_PARAMETERS entries that are passed or no longer declared: "
        f"{stale}. Drop them from KEPT_PARAMETERS."
    )
