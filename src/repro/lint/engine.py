"""The ``reprolint`` rule engine.

``repro.lint`` exists because this repository's central guarantees — the
paired-seed bitwise-equivalence contract across Monte-Carlo backends, the
``(S, ...)`` sample-axis conventions, and the zero-engine-change spec
registry — are *design-level* invariants: runtime tests catch their
violations only after the violating code has already been written, wired
and shipped through review. The linter turns each contract into an
AST-level rule (see ``repro.lint.rules`` and ``docs/CONTRACTS.md``) that
fails fast in CI, before a single test runs.

The engine is deliberately dependency-free (stdlib ``ast`` + ``tokenize``
only) so it can gate CI without installing anything beyond the library
itself.

Architecture
------------

- :class:`SourceFile` — one parsed file: AST, source lines and the
  suppression table extracted from ``# reprolint: disable=...`` comments.
- :class:`LintContext` — repo-wide facts shared by all rules: the
  name-based class-inheritance graph across every scanned file (so rules
  can ask "is this a ``Module`` subclass?" without importing user code)
  and per-class declaration facts.
- :class:`Rule` — one invariant: an ID, a summary, a path scope and a
  ``check`` that yields :class:`Violation` objects.
- :func:`run_lint` — parse everything once, build the context, run every
  rule over every in-scope file, drop suppressed violations, and return a
  :class:`Report`.

Suppression syntax
------------------

A violation is suppressed by a trailing (or same-line) comment::

    devs = self.trace(x, seed=hash((s, i)))  # reprolint: disable=RNG003

``disable=`` takes a comma-separated list of rule IDs; a bare
``# reprolint: disable`` suppresses every rule on that line. Suppressions
are counted in the report so a tree full of opt-outs is still visible.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Matches one suppression comment. ``ids`` empty means "all rules".
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable(?:=(?P<ids>[A-Z0-9,\s]+))?"
)

#: Directory names treated as *test* scope: library-only rules (RNG
#: construction, determinism, sample-axis, spec-registry) do not apply
#: there — test fixtures legitimately build generators and tiny modules —
#: while hygiene and hash-seed rules still do.
TEST_DIR_NAMES = frozenset({"tests", "benchmarks", "examples"})


@dataclass(frozen=True)
class Violation:
    """One rule hit, anchored to a file position."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


@dataclass(frozen=True)
class ClassInfo:
    """Declaration facts about one ``class`` statement, for hierarchy rules."""

    name: str
    path: str
    line: int
    #: Simple names of the declared bases (``nn.Module`` -> ``Module``).
    bases: Tuple[str, ...]
    #: ``sample_aware`` declared on the class itself: a class-level
    #: assignment, a property/method of that name, or an instance
    #: assignment in ``__init__``.
    declares_sample_aware: bool
    #: The class-level declaration is the literal ``True``.
    sample_aware_true: bool
    method_names: FrozenSet[str]
    node: ast.ClassDef


class SourceFile:
    """One parsed source file plus its suppression table."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree = ast.parse(source, filename=display_path)
        self.suppressions = _suppression_table(source)
        #: Path components used for rule scoping (``tests``/``nn``/...).
        self.parts: Tuple[str, ...] = path.parts

    @property
    def is_test_scope(self) -> bool:
        return any(part in TEST_DIR_NAMES for part in self.parts)

    def in_dirs(self, names: Iterable[str]) -> bool:
        wanted = set(names)
        return any(part in wanted for part in self.parts)

    def suppressed(self, violation: Violation) -> bool:
        ids = self.suppressions.get(violation.line)
        if ids is None:
            return False
        return not ids or violation.rule_id in ids


def _suppression_table(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> suppressed rule IDs (empty set = all rules)."""
    table: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            ids = match.group("ids")
            parsed = frozenset(
                part.strip() for part in ids.split(",") if part.strip()
            ) if ids else frozenset()
            table[tok.start[0]] = parsed
    except tokenize.TokenError:
        # A file the AST parser accepted but the tokenizer chokes on is
        # effectively unreachable; treat it as having no suppressions.
        pass
    return table


class LintContext:
    """Repo-wide facts shared by every rule.

    The class-inheritance graph is *name-based*: an edge links a class to
    the simple (rightmost-dotted) names of its declared bases across every
    scanned file. That deliberately over-approximates (same-named classes
    merge), which for contract rules is the right direction — a class that
    merely looks like a ``Module`` subclass should declare its sample-axis
    behaviour too.
    """

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = list(files)
        self.classes: List[ClassInfo] = []
        for src in self.files:
            for node in ast.walk(src.tree):
                if isinstance(node, ast.ClassDef):
                    self.classes.append(_class_info(src, node))
        self._by_name: Dict[str, List[ClassInfo]] = {}
        for info in self.classes:
            self._by_name.setdefault(info.name, []).append(info)

    def subclass_names_of(self, *roots: str) -> Set[str]:
        """Transitive subclass closure over the name graph, roots excluded."""
        known = set(roots)
        changed = True
        while changed:
            changed = False
            for info in self.classes:
                if info.name in known:
                    continue
                if any(base in known for base in info.bases):
                    known.add(info.name)
                    changed = True
        return known - set(roots)

    def declares_sample_aware(self, info: ClassInfo) -> bool:
        """True when ``info`` or a scanned ancestor below ``Module``
        declares ``sample_aware``. Ancestry follows the name graph."""
        seen: Set[str] = set()
        frontier = [info]
        while frontier:
            current = frontier.pop()
            if current.declares_sample_aware:
                return True
            for base in current.bases:
                if base == "Module" or base in seen:
                    continue
                seen.add(base)
                frontier.extend(self._by_name.get(base, []))
        return False


def _class_info(src: SourceFile, node: ast.ClassDef) -> ClassInfo:
    bases = tuple(_base_name(b) for b in node.bases if _base_name(b))
    declares = False
    is_true = False
    methods: Set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.add(stmt.name)
            if stmt.name == "sample_aware":
                declares = True  # property-style declaration
            if stmt.name == "__init__" and _assigns_self_attr(stmt, "sample_aware"):
                declares = True
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "sample_aware":
                declares = True
                value = getattr(stmt, "value", None)
                if isinstance(value, ast.Constant) and value.value is True:
                    is_true = True
    return ClassInfo(
        name=node.name,
        path=src.display_path,
        line=node.lineno,
        bases=bases,
        declares_sample_aware=declares,
        sample_aware_true=is_true,
        method_names=frozenset(methods),
        node=node,
    )


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] style bases
        return _base_name(node.value)
    return ""


def _assigns_self_attr(func: ast.FunctionDef, attr: str) -> bool:
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == attr
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return True
    return False


class Rule:
    """One machine-checked repo contract.

    Subclasses set ``id``/``name``/``summary`` and implement ``check``.
    ``applies_to`` narrows the rule to the paths where the invariant
    lives (see ``docs/CONTRACTS.md`` for each rule's scope rationale).
    """

    id: str = ""
    name: str = ""
    summary: str = ""

    def applies_to(self, src: SourceFile) -> bool:
        return True

    def check(self, src: SourceFile, ctx: LintContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, src: SourceFile, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule_id=self.id,
            path=src.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


@dataclass
class Report:
    """Outcome of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    rules_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "clean" if self.ok else f"{len(self.violations)} violation(s)"
        suffix = f", {self.suppressed} suppressed" if self.suppressed else ""
        return (
            f"reprolint: {status} in {self.files_checked} file(s) "
            f"({self.rules_run} rules{suffix})"
        )


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list."""
    seen: Set[Path] = set()
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            if any(part.startswith(".") for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return out


def run_lint(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[Report, List[str]]:
    """Lint ``paths`` (files or directories) with ``rules``.

    Returns the report plus a list of parse-error strings (files that do
    not parse are reported, not crashed on — the linter must never be the
    component that takes CI down).
    """
    if rules is None:
        from repro.lint.rules import ALL_RULES

        rules = [cls() for cls in ALL_RULES]
    sources: List[SourceFile] = []
    errors: List[str] = []
    for path in collect_files(paths):
        display = str(path)
        try:
            text = path.read_text(encoding="utf-8")
            sources.append(SourceFile(path, display, text))
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{display}: {exc}")
    ctx = LintContext(sources)
    report = Report(files_checked=len(sources), rules_run=len(rules))
    for src in sources:
        for rule in rules:
            if not rule.applies_to(src):
                continue
            for violation in rule.check(src, ctx):
                if src.suppressed(violation):
                    report.suppressed += 1
                else:
                    report.violations.append(violation)
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return report, errors
