"""Public API surface: every documented name imports, __all__ is honest,
and every exported name has a caller outside the tests."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

        lam = lambda_bound(0.5, k=1.0)
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


#: Exported names that nothing outside the tests calls, each with the
#: reason it stays exported. A name here that gains a caller fails the
#: guard too, so the map cannot go stale.
KEPT = {
    "gradcheck": "test tooling: checks an op's backward against central "
                 "differences (tests/test_autograd_gradcheck.py)",
    "ErrorPropagationTracer": "Fig. 4's per-layer error instrument, which "
                              "tests/test_integration_suppression.py asserts",
}


def _caller_files():
    """The program's own sources: the library, the paper benchmarks, the
    examples and the benchmark harness (not its tests or its outputs)."""
    yield from sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    yield from sorted((REPO_ROOT / "benchmarks").rglob("*.py"))
    yield from sorted((REPO_ROOT / "examples").rglob("*.py"))
    yield from sorted((REPO_ROOT / "perfbench").glob("*.py"))


def _exports_and_uses():
    """``({exported name: where it is exported}, {used names})``.

    A use is a loaded name, an attribute, an imported name or a component
    of an import's module path. An ``__init__.py`` import is a re-export,
    not a use, and neither an ``__all__`` entry nor a definition counts.
    """
    exports, uses = {}, set()
    for path in _caller_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        reexports = path.name == "__init__.py"
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                where = str(path.relative_to(REPO_ROOT))
                for entry in node.value.elts:
                    exports.setdefault(entry.value, where)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.add(node.id)
            elif isinstance(node, ast.Attribute):
                uses.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
                if isinstance(node, ast.ImportFrom) and node.module:
                    uses.update(node.module.split("."))
                for alias in node.names:
                    uses.update(alias.name.split("."))
    return exports, uses


def test_every_export_has_a_caller():
    """The library exports only what CorrectNet's flows call: every name
    in an ``__all__`` is used by ``src/``, ``benchmarks/``, ``examples/``
    or ``perfbench/``, or is in ``KEPT`` with a reason."""
    exports, uses = _exports_and_uses()
    uncalled = {name for name in exports if name not in uses}
    dead = sorted(uncalled - set(KEPT))
    assert not dead, (
        "exported, but nothing outside the tests uses it: "
        + ", ".join(f"{name} ({exports[name]})" for name in dead)
        + ". Delete it, or add it to KEPT with the reason it stays."
    )
    stale = sorted(set(KEPT) - uncalled)
    assert not stale, (
        f"KEPT names that are no longer uncalled exports: {stale}. "
        "Drop them from KEPT."
    )
