"""The repo-contract rules.

Each rule encodes one invariant this codebase depends on, with the
historical bug that motivates it documented in ``docs/CONTRACTS.md``.
Rule IDs are grouped by contract family:

- ``RNG``  — deterministic randomness discipline (``repro.utils.rng``)
- ``DET``  — no hidden nondeterminism in engine paths
- ``AXS``  — the ``(S, ...)`` sample-axis conventions
- ``SPEC`` — variation-spec registry completeness
- ``TAPE`` — a cycle-free autograd tape
- ``HYG``  — general Python hygiene

Scopes: *library* rules skip ``tests/``/``benchmarks/``/``examples/``
(fixtures legitimately build raw generators and toy modules); engine
rules apply only under ``evaluation/``/``hardware/``/``variation/``;
sample-axis rules only where layer classes live.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.engine import LintContext, Rule, SourceFile, Violation

#: Engine paths: code on the Monte-Carlo hot path, where results must be a
#: pure function of (model, dataset, spec, seed schedule) — plus the
#: result store, whose fingerprints and persisted chunks must stay exactly
#: that pure (wall-clock for lease bookkeeping enters only through an
#: injected clock, never a direct call).
ENGINE_DIR_NAMES = ("evaluation", "hardware", "variation", "store")

#: Where layer/model classes live: every ``Module`` subclass here is a
#: candidate for the vectorized engine's eligibility walk.
AXIS_DIR_NAMES = ("nn", "hardware", "models", "compensation")

#: The one module allowed to construct numpy generators.
_RNG_MODULE_SUFFIX = ("utils", "rng.py")

#: numpy.random attributes that are *not* the legacy global-state API.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Generator/seed constructors that must stay inside ``utils/rng``.
_RNG_CONSTRUCTORS = frozenset({"default_rng", "SeedSequence"})

_WALL_CLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
    }
)

#: Attribute-method calls whose semantics depend on the array's rank:
#: a sample-aware forward using them needs an explicit stacked-rank branch.
_RANK_SENSITIVE_METHODS = frozenset(
    {"reshape", "transpose", "ravel", "flatten", "swapaxes"}
)

#: Reduction methods that become rank-sensitive when given a *non-negative*
#: axis: counting axes from the front means different things for (N, ...)
#: and stacked (S, ...) activations. Negative (trailing) axes are
#: layout-safe — the sample axis always leads.
_AXIS_REDUCTION_METHODS = frozenset(
    {"mean", "sum", "var", "std", "max", "min", "prod", "argmax", "argmin"}
)


def _const_axis_values(expr: ast.expr) -> List[int]:
    """Integer axis values statically readable from an axis expression.

    Handles ``2``, ``-1`` (a ``USub`` node in the AST) and tuples/lists of
    those; anything dynamic contributes nothing (the rule stays precise
    rather than guessing).
    """
    if isinstance(expr, ast.Constant) and type(expr.value) is int:
        return [expr.value]
    if (
        isinstance(expr, ast.UnaryOp)
        and isinstance(expr.op, ast.USub)
        and isinstance(expr.operand, ast.Constant)
        and type(expr.operand.value) is int
    ):
        return [-expr.operand.value]
    if isinstance(expr, (ast.Tuple, ast.List)):
        values: List[int] = []
        for elt in expr.elts:
            values.extend(_const_axis_values(elt))
        return values
    return []


def _has_front_counted_axis(call: ast.Call) -> bool:
    """True when a reduction call names a non-negative constant axis."""
    axis: Optional[ast.expr] = None
    for kw in call.keywords:
        if kw.arg == "axis":
            axis = kw.value
    if axis is None and call.args:
        # method-style ``x.mean(0)``; module-style ``np.mean(x, 0)`` has the
        # array first, but its positional axis never parses as one here
        # because arrays are names/attributes, not integer constants.
        axis = call.args[0]
    if axis is None:
        return False
    return any(v >= 0 for v in _const_axis_values(axis))


def _dotted(node: ast.expr) -> Tuple[str, ...]:
    """``np.random.seed`` -> ``("np", "random", "seed")``; else ``()``."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return tuple(reversed(parts))
    return ()


def _is_np_random(chain: Tuple[str, ...]) -> bool:
    return len(chain) >= 3 and chain[0] in ("np", "numpy") and chain[1] == "random"


class _LibraryRule(Rule):
    """Base for rules that do not apply to test/benchmark/example code."""

    def applies_to(self, src: SourceFile) -> bool:
        return not src.is_test_scope


class LegacyNumpyRandomRule(Rule):
    """RNG001 — no legacy global-state numpy randomness, anywhere.

    ``np.random.seed`` mutates process-global state and every legacy
    drawing function reads it, so two call sites silently couple their
    streams; the paired-seed contract requires every draw to come from an
    explicit ``Generator`` handed down the call chain.
    """

    id = "RNG001"
    name = "legacy-numpy-random"
    summary = (
        "np.random.seed / legacy global-state draws are banned; pass an "
        "explicit Generator from repro.utils.rng"
    )

    def check(self, src: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                chain = _dotted(node.func)
                if _is_np_random(chain) and chain[2] not in _NP_RANDOM_ALLOWED:
                    what = ".".join(chain)
                    yield self.violation(
                        src,
                        node,
                        f"legacy global-state call {what}(); draw from an "
                        "explicit Generator (repro.utils.rng.new_rng)",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _NP_RANDOM_ALLOWED:
                            yield self.violation(
                                src,
                                node,
                                f"import of legacy numpy.random.{alias.name}; "
                                "use repro.utils.rng",
                            )


class RngConstructionRule(_LibraryRule):
    """RNG002 — generators are constructed only inside ``utils/rng``.

    ``new_rng``/``spawn_rngs`` centralize seed coercion (string seeds are
    SHA-digested, generators pass through) — a stray ``default_rng(seed)``
    bypasses that and silently diverges for string seeds.
    """

    id = "RNG002"
    name = "rng-construction-outside-utils"
    summary = (
        "default_rng()/SeedSequence() construction is reserved to "
        "repro/utils/rng.py; call new_rng()/spawn_rngs() instead"
    )

    def applies_to(self, src: SourceFile) -> bool:
        if src.parts[-2:] == _RNG_MODULE_SUFFIX:
            return False
        return super().applies_to(src)

    def check(self, src: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                chain = _dotted(node.func)
                name = chain[-1] if chain else ""
                banned = name in _RNG_CONSTRUCTORS and (
                    len(chain) == 1 or _is_np_random(chain)
                )
                if not banned and _is_np_random(chain) and name == "Generator":
                    banned = True
                if banned:
                    yield self.violation(
                        src,
                        node,
                        f"{name}() constructed outside repro/utils/rng.py; "
                        "route through new_rng()/spawn_rngs()",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name in _RNG_CONSTRUCTORS | {"Generator"}:
                            yield self.violation(
                                src,
                                node,
                                f"importing numpy.random.{alias.name} invites "
                                "local construction; use repro.utils.rng",
                            )


class HashSeedRule(Rule):
    """RNG003 — no ``hash()``-derived values (seeds in particular).

    Python's ``hash`` of strings is salted per process (PYTHONHASHSEED),
    so ``hash((seed, i))`` produces different "deterministic" seeds in
    every worker — the bug the analog layer conversion shipped in PR 4.
    ``spawn_rngs`` is the sanctioned per-index derivation. The only
    exempt location is a ``__hash__`` implementation itself.
    """

    id = "RNG003"
    name = "hash-derived-seed"
    summary = (
        "builtin hash() is process-salted for strings; derive per-index "
        "seeds with repro.utils.rng.spawn_rngs"
    )

    def check(self, src: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        yield from self._walk(src, src.tree, inside_hash=False)

    def _walk(
        self, src: SourceFile, node: ast.AST, inside_hash: bool
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            child_inside = inside_hash
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_inside = child.name == "__hash__"
            if (
                not inside_hash
                and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "hash"
            ):
                yield self.violation(
                    src,
                    child,
                    "hash() is salted per process for str inputs; use "
                    "spawn_rngs()/new_rng() for seed derivation",
                )
            yield from self._walk(src, child, child_inside)


class WallClockRule(_LibraryRule):
    """DET001 — no wall-clock or environment reads in engine paths.

    A Monte-Carlo result must be a pure function of (model, dataset,
    spec, seed schedule); ``time.time()`` / ``os.environ`` sneak an
    eleventh input in and break run-to-run and cross-process pairing.
    """

    id = "DET001"
    name = "wall-clock-in-engine"
    summary = (
        "evaluation/hardware/variation code must not read wall clocks or "
        "os.environ (results must be pure functions of plan + seed)"
    )

    def applies_to(self, src: SourceFile) -> bool:
        return super().applies_to(src) and src.in_dirs(ENGINE_DIR_NAMES)

    def check(self, src: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                chain = _dotted(node.func)
                if len(chain) >= 2 and (chain[-2], chain[-1]) in _WALL_CLOCK_CALLS:
                    yield self.violation(
                        src,
                        node,
                        f"wall-clock call {'.'.join(chain)}() in an engine "
                        "path; thread timing through the caller if needed",
                    )
                elif chain[-2:] == ("os", "getenv"):
                    yield self.violation(
                        src, node, "os.getenv() read in an engine path"
                    )
            elif isinstance(node, ast.Attribute):
                chain = _dotted(node)
                if chain[-2:] == ("os", "environ"):
                    yield self.violation(
                        src, node, "os.environ read in an engine path"
                    )


class SetIterationRule(_LibraryRule):
    """DET002 — no direct iteration over set expressions in engine paths.

    Set iteration order is hash-order: stable for ints within a process
    but salted across processes for strings — iterating a set of layer
    names inside an engine would reorder seed consumption per worker.
    """

    id = "DET002"
    name = "set-iteration-in-engine"
    summary = (
        "iterating a set literal/set() in engine paths is hash-ordered; "
        "iterate sorted(...) for a deterministic order"
    )

    def applies_to(self, src: SourceFile) -> bool:
        return super().applies_to(src) and src.in_dirs(ENGINE_DIR_NAMES)

    def check(self, src: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                if isinstance(it, ast.Set) or (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Name)
                    and it.func.id in ("set", "frozenset")
                ):
                    yield self.violation(
                        src,
                        it,
                        "iteration over a set expression is hash-ordered; "
                        "wrap it in sorted(...)",
                    )


class SampleAwareDeclarationRule(_LibraryRule):
    """AXS001 — every layer-library ``Module`` subclass declares
    ``sample_aware`` explicitly.

    The vectorized engine's eligibility walk is attribute-driven
    (``repro.evaluation.vectorized.supports_sample_axis``): a module with
    no declaration silently falls back to the reference loop — a
    performance bug that shipped twice before the walk was made explicit.
    A declaration is a class attribute, a property, or an instance
    assignment in ``__init__``; inheriting one from a project class other
    than ``Module`` itself also counts.
    """

    id = "AXS001"
    name = "sample-aware-declaration"
    summary = (
        "Module subclasses in layer libraries must declare sample_aware "
        "(True/False/property) so vectorized eligibility is explicit"
    )

    def applies_to(self, src: SourceFile) -> bool:
        return super().applies_to(src) and src.in_dirs(AXIS_DIR_NAMES)

    def check(self, src: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        module_subclasses = ctx.subclass_names_of("Module")
        for info in ctx.classes:
            if info.path != src.display_path:
                continue
            if info.name not in module_subclasses:
                continue
            if ctx.declares_sample_aware(info):
                continue
            yield Violation(
                rule_id=self.id,
                path=src.display_path,
                line=info.line,
                col=info.node.col_offset + 1,
                message=(
                    f"Module subclass {info.name} does not declare "
                    "sample_aware; without it the module silently falls "
                    "off the vectorized Monte-Carlo fast path"
                ),
            )


class StackedBranchRule(_LibraryRule):
    """AXS002 — ``sample_aware = True`` forwards with rank-sensitive ops
    must dispatch on the stacked rank.

    ``reshape``/``transpose``/... mean different things for ``(N, ...)``
    and stacked ``(S, ...)`` activations; a sample-aware forward using
    them without an ``ndim`` branch almost certainly corrupts the stacked
    layout (the pre-PR-1 ``Flatten`` failure mode). Reductions with a
    *non-negative* constant axis (``x.mean(axis=1)``) are rank-sensitive
    for the same reason — axes counted from the front shift under the
    sample axis — while trailing (negative) axes are layout-safe.
    """

    id = "AXS002"
    name = "stacked-branch-missing"
    summary = (
        "a sample_aware=True forward that reshapes/transposes or reduces "
        "over a front-counted axis must branch on ndim to handle stacked "
        "(S, ...) activations"
    )

    def applies_to(self, src: SourceFile) -> bool:
        return super().applies_to(src) and src.in_dirs(AXIS_DIR_NAMES)

    def check(self, src: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        for info in ctx.classes:
            if info.path != src.display_path or not info.sample_aware_true:
                continue
            forward = next(
                (
                    stmt
                    for stmt in info.node.body
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "forward"
                ),
                None,
            )
            if forward is None:
                continue
            rank_sensitive: Optional[ast.AST] = None
            has_ndim = False
            for node in ast.walk(forward):
                if isinstance(node, ast.Attribute):
                    if node.attr == "ndim":
                        has_ndim = True
                    elif node.attr in _RANK_SENSITIVE_METHODS and rank_sensitive is None:
                        rank_sensitive = node
                if (
                    rank_sensitive is None
                    and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _AXIS_REDUCTION_METHODS
                    and _has_front_counted_axis(node)
                ):
                    rank_sensitive = node
            if rank_sensitive is not None and not has_ndim:
                yield self.violation(
                    src,
                    rank_sensitive,
                    f"{info.name}.forward declares sample_aware=True and "
                    "uses a rank-sensitive op without an ndim dispatch for "
                    "stacked (S, ...) activations",
                )


def _registered_class_names() -> Optional[FrozenSet[str]]:
    """Class names known to the live spec registry (semi-static import).

    Importing ``repro.variation.spec`` executes the same registration
    calls the library runs at import time, so the cross-check sees
    exactly what ``from_dict``/``from_string`` would accept.
    """
    try:
        from repro.variation import spec
    except Exception:  # pragma: no cover - spec import is part of the package
        return None
    return frozenset(cls.__name__ for cls in spec._REGISTRY.values())


class SpecRegistryRule(_LibraryRule):
    """SPEC001 — every concrete ``VariationModel`` subclass is registered.

    The spec registry is what makes scenarios zero-engine-change plugins:
    an unregistered model cannot serialize (``to_dict``) or round-trip
    through configs/CLIs, so sweeps silently lose it.
    """

    id = "SPEC001"
    name = "spec-registry-completeness"
    summary = (
        "concrete VariationModel subclasses must be registered via "
        "repro.variation.spec.register_model"
    )

    _registered: Optional[FrozenSet[str]] = None
    _resolved = False

    def applies_to(self, src: SourceFile) -> bool:
        return super().applies_to(src) and src.in_dirs(("variation",))

    def check(self, src: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        if not SpecRegistryRule._resolved:
            SpecRegistryRule._registered = _registered_class_names()
            SpecRegistryRule._resolved = True
        registered = SpecRegistryRule._registered
        if registered is None:
            return
        spec_subclasses = ctx.subclass_names_of("VariationModel")
        for info in ctx.classes:
            if info.path != src.display_path:
                continue
            if info.name not in spec_subclasses or info.name.startswith("_"):
                continue
            if "perturb" not in info.method_names:
                continue  # abstract intermediates have nothing to register
            if info.name in registered:
                continue
            yield Violation(
                rule_id=self.id,
                path=src.display_path,
                line=info.line,
                col=info.node.col_offset + 1,
                message=(
                    f"concrete VariationModel {info.name} is not in the "
                    "spec registry; call register_model() so it "
                    "serializes and parses like every other spec"
                ),
            )


class SpecSerializationPairRule(_LibraryRule):
    """SPEC002 — ``to_dict`` and ``from_dict`` come in pairs.

    A spec class overriding only one direction round-trips through
    configs into a different object (or not at all) — the registry's
    introspection fallback only covers classes that override *neither*.
    """

    id = "SPEC002"
    name = "spec-serialization-pair"
    summary = (
        "a VariationModel overriding to_dict must override from_dict "
        "(and vice versa) so registry round-trips stay exact"
    )

    def applies_to(self, src: SourceFile) -> bool:
        return super().applies_to(src) and src.in_dirs(("variation",))

    def check(self, src: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        spec_subclasses = ctx.subclass_names_of("VariationModel")
        for info in ctx.classes:
            if info.path != src.display_path or info.name not in spec_subclasses:
                continue
            has_to = "to_dict" in info.method_names
            has_from = "from_dict" in info.method_names
            if has_to != has_from:
                missing = "from_dict" if has_to else "to_dict"
                yield Violation(
                    rule_id=self.id,
                    path=src.display_path,
                    line=info.line,
                    col=info.node.col_offset + 1,
                    message=(
                        f"{info.name} overrides "
                        f"{'to_dict' if has_to else 'from_dict'} but not "
                        f"{missing}; serialization must round-trip"
                    ),
                )


def _scope_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Every node of ``func``'s own scope: nested ``def``/``lambda``/
    ``class`` nodes are yielded, their bodies are not."""
    for child in ast.iter_child_nodes(func):
        yield child
        if not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            yield from _scope_nodes(child)


def _local_names(closure: ast.AST) -> FrozenSet[str]:
    """Names a closure binds itself (parameters and plain assignments)."""
    names: Set[str] = set()
    if isinstance(closure, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = closure.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            names.add(arg.arg)
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                names.add(extra.arg)
    for node in _scope_nodes(closure):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return frozenset(names)


class TapeClosureRule(_LibraryRule):
    """TAPE001 — a backward closure must not reference the tensor it is
    attached to.

    ``out -> out._backward -> out`` is a reference cycle: the graph it
    closes over (every parent activation) then waits for Python's cyclic
    GC instead of being freed by reference count. Before the tape was
    made cycle-free, the Monte-Carlo benchmark peaked at about nine times
    the memory it needs. A closure receives the output gradient as its
    argument, and captures the output array — not the tensor — when it
    needs the value.

    Flags a nested function (or lambda) passed to a ``_make_child`` call
    (or as a ``backward=`` argument), or assigned to ``x._backward``, that
    loads a name its enclosing function binds to that call's result (or
    the ``x`` it is assigned to). Closures bind late, so a ``def`` written
    before the binding counts too.
    """

    id = "TAPE001"
    name = "tape-closure-captures-output"
    summary = (
        "a _backward closure must not reference the tensor it is attached "
        "to; take the output gradient as its argument and capture arrays"
    )

    def applies_to(self, src: SourceFile) -> bool:
        return super().applies_to(src) and src.in_dirs(("autograd",))

    def check(self, src: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        for func in ast.walk(src.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(src, func)

    def _check_scope(
        self, src: SourceFile, func: ast.AST
    ) -> Iterator[Violation]:
        scope = list(_scope_nodes(func))
        nested = {
            node.name: node
            for node in scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

        def closure_of(expr: ast.expr) -> Optional[ast.AST]:
            if isinstance(expr, ast.Lambda):
                return expr
            if isinstance(expr, ast.Name):
                return nested.get(expr.id)
            return None

        # Names bound to each call's result: ``out = recorder(...)``.
        bound_to: Dict[int, Set[str]] = {}
        for node in scope:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound_to.setdefault(id(node.value), set()).add(target.id)

        attached: List[Tuple[ast.AST, Set[str]]] = []
        for node in scope:
            if isinstance(node, ast.Call):
                chain = _dotted(node.func)
                candidates: List[ast.expr] = [
                    kw.value for kw in node.keywords if kw.arg == "backward"
                ]
                if chain[-1:] == ("_make_child",):
                    candidates += node.args
                names = bound_to.get(id(node), set())
                for expr in candidates:
                    closure = closure_of(expr)
                    if closure is not None and names:
                        attached.append((closure, names))
            elif isinstance(node, ast.Assign):
                closure = closure_of(node.value)
                if closure is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "_backward"
                        and isinstance(target.value, ast.Name)
                    ):
                        attached.append((closure, {target.value.id}))

        for closure, names in attached:
            own = _local_names(closure)
            for node in ast.walk(closure):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in names
                    and node.id not in own
                ):
                    yield self.violation(
                        src,
                        node,
                        f"backward closure reads {node.id!r}, the tensor it is "
                        "attached to (a reference cycle); take the output "
                        "gradient as the argument and capture arrays instead",
                    )
                    break


class MutableDefaultRule(Rule):
    """HYG001 — no mutable default arguments."""

    id = "HYG001"
    name = "mutable-default-arg"
    summary = "mutable default arguments ([] / {} / set()) are shared across calls"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, src: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in self._MUTABLE_CALLS
                )
                if mutable:
                    yield self.violation(
                        src,
                        default,
                        f"mutable default argument in {node.name}(); "
                        "default to None and create inside the body",
                    )


class BareExceptRule(Rule):
    """HYG002 — no bare ``except:`` (it swallows KeyboardInterrupt too)."""

    id = "HYG002"
    name = "bare-except"
    summary = "bare except: catches SystemExit/KeyboardInterrupt; name the exception"

    def check(self, src: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    src,
                    node,
                    "bare except:; catch Exception (or something narrower)",
                )


#: Every active rule, in documentation order (docs/CONTRACTS.md mirrors it).
ALL_RULES: Sequence[Type[Rule]] = (
    LegacyNumpyRandomRule,
    RngConstructionRule,
    HashSeedRule,
    WallClockRule,
    SetIterationRule,
    SampleAwareDeclarationRule,
    StackedBranchRule,
    SpecRegistryRule,
    SpecSerializationPairRule,
    TapeClosureRule,
    MutableDefaultRule,
    BareExceptRule,
)
