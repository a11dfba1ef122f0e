"""Public API surface: every documented name imports and __all__ is honest."""

import importlib
import os
import subprocess
import sys

import pytest

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
