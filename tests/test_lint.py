"""Tests for ``repro.lint`` (reprolint).

Each rule gets one flagging fixture and one passing fixture, written to a
tmp tree whose directory names trigger the rule's path scoping (library
rules skip ``tests``-like dirs; engine rules only fire under
``evaluation``/``hardware``/``variation``; sample-axis rules under the
layer-library dirs). A final test self-runs the full rule set on
``src/repro`` and asserts the shipped tree is clean, and an
importorskip-gated test runs ``mypy --strict`` on the annotated core.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, Violation, collect_files, main, run_lint
from repro.lint.rules import (
    BareExceptRule,
    HashSeedRule,
    LegacyNumpyRandomRule,
    MutableDefaultRule,
    RngConstructionRule,
    SampleAwareDeclarationRule,
    SetIterationRule,
    SpecRegistryRule,
    SpecSerializationPairRule,
    StackedBranchRule,
    TapeClosureRule,
    WallClockRule,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(tmp_path, relpath, code, rule_cls=None):
    """Write ``code`` at ``tmp_path/relpath`` and lint it with one rule
    (or the full set when ``rule_cls`` is None)."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code))
    rules = None if rule_cls is None else [rule_cls()]
    report, errors = run_lint([path], rules=rules)
    assert not errors
    return report


def rule_ids(report):
    return [v.rule_id for v in report.violations]


# ---------------------------------------------------------------------------
# RNG001 — legacy global-state numpy randomness
# ---------------------------------------------------------------------------
class TestLegacyNumpyRandom:
    def test_flags_seed_and_legacy_draws(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/stuff.py",
            """
            import numpy as np
            np.random.seed(3)
            x = np.random.normal(0.0, 1.0)
            """,
            LegacyNumpyRandomRule,
        )
        assert rule_ids(report) == ["RNG001", "RNG001"]

    def test_flags_legacy_import(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/stuff.py",
            "from numpy.random import randint\n",
            LegacyNumpyRandomRule,
        )
        assert rule_ids(report) == ["RNG001"]

    def test_passes_generator_usage(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/stuff.py",
            """
            from repro.utils.rng import new_rng
            rng = new_rng(0)
            x = rng.normal(0.0, 1.0)
            """,
            LegacyNumpyRandomRule,
        )
        assert report.ok

    def test_applies_even_in_test_scope(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "tests/test_stuff.py",
            "import numpy as np\nnp.random.seed(3)\n",
            LegacyNumpyRandomRule,
        )
        assert rule_ids(report) == ["RNG001"]


# ---------------------------------------------------------------------------
# RNG002 — generator construction outside utils/rng
# ---------------------------------------------------------------------------
class TestRngConstruction:
    def test_flags_default_rng_in_library(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/engine.py",
            """
            import numpy as np
            rng = np.random.default_rng(3)
            seq = np.random.SeedSequence(7)
            """,
            RngConstructionRule,
        )
        assert rule_ids(report) == ["RNG002", "RNG002"]

    def test_flags_bare_name_import_and_call(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/engine.py",
            """
            from numpy.random import default_rng
            rng = default_rng(3)
            """,
            RngConstructionRule,
        )
        assert rule_ids(report) == ["RNG002", "RNG002"]

    def test_passes_inside_utils_rng(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "utils/rng.py",
            "import numpy as np\nrng = np.random.default_rng(3)\n",
            RngConstructionRule,
        )
        assert report.ok

    def test_passes_in_test_scope(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "tests/test_engine.py",
            "import numpy as np\nrng = np.random.default_rng(3)\n",
            RngConstructionRule,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# RNG003 — hash()-derived seeds
# ---------------------------------------------------------------------------
class TestHashSeed:
    def test_flags_hash_derived_seed(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/engine.py",
            """
            def layer_seed(seed, index):
                return hash((seed, index)) % 2**31
            """,
            HashSeedRule,
        )
        assert rule_ids(report) == ["RNG003"]

    def test_passes_inside_dunder_hash(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/engine.py",
            """
            class Spec:
                def __hash__(self):
                    return hash((type(self).__name__, self.sigma))
            """,
            HashSeedRule,
        )
        assert report.ok

    def test_suppression_comment(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/engine.py",
            """
            def check(a, b):
                return hash(a) == hash(b)  # reprolint: disable=RNG003
            """,
            HashSeedRule,
        )
        assert report.ok
        assert report.suppressed == 2

    def test_bare_disable_suppresses_all_rules(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/engine.py",
            "seed = hash('chip-a')  # reprolint: disable\n",
            HashSeedRule,
        )
        assert report.ok
        assert report.suppressed == 1

    def test_suppression_of_other_rule_does_not_hide(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/engine.py",
            "seed = hash('chip-a')  # reprolint: disable=HYG001\n",
            HashSeedRule,
        )
        assert rule_ids(report) == ["RNG003"]


# ---------------------------------------------------------------------------
# DET001 — wall clock / environment reads in engine paths
# ---------------------------------------------------------------------------
class TestWallClock:
    def test_flags_time_and_environ_in_engine_dir(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "evaluation/engine.py",
            """
            import os
            import time
            start = time.time()
            flag = os.environ.get("FAST")
            level = os.getenv("LEVEL")
            """,
            WallClockRule,
        )
        assert rule_ids(report) == ["DET001", "DET001", "DET001"]

    def test_passes_outside_engine_dirs(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "utils/timing.py",
            "import time\nstart = time.time()\n",
            WallClockRule,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# DET002 — set iteration in engine paths
# ---------------------------------------------------------------------------
class TestSetIteration:
    def test_flags_set_literal_iteration(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "variation/engine.py",
            """
            def names(layers):
                out = []
                for name in {"a", "b", "c"}:
                    out.append(name)
                return out
            """,
            SetIterationRule,
        )
        assert rule_ids(report) == ["DET002"]

    def test_flags_set_call_in_comprehension(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "hardware/engine.py",
            "vals = [v for v in set((1, 2, 3))]\n",
            SetIterationRule,
        )
        assert rule_ids(report) == ["DET002"]

    def test_passes_sorted_iteration(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "evaluation/engine.py",
            """
            def names(keys):
                return [k for k in sorted(set(keys))]
            """,
            SetIterationRule,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# AXS001 — sample_aware declarations on layer-library Module subclasses
# ---------------------------------------------------------------------------
class TestSampleAwareDeclaration:
    def test_flags_undeclared_module_subclass(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "nn/layers.py",
            """
            class Module:
                pass

            class Squish(Module):
                def forward(self, x):
                    return x
            """,
            SampleAwareDeclarationRule,
        )
        assert rule_ids(report) == ["AXS001"]
        assert "Squish" in report.violations[0].message

    def test_passes_with_declaration_forms(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "nn/layers.py",
            """
            class Module:
                pass

            class ClassAttr(Module):
                sample_aware = False

            class InstanceAttr(Module):
                def __init__(self, axis):
                    self.sample_aware = axis == -1

            class PropertyStyle(Module):
                @property
                def sample_aware(self):
                    return not self.training
            """,
            SampleAwareDeclarationRule,
        )
        assert report.ok

    def test_inherited_declaration_counts(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "nn/layers.py",
            """
            class Module:
                pass

            class Base(Module):
                sample_aware = True

            class Child(Base):
                def forward(self, x):
                    return x
            """,
            SampleAwareDeclarationRule,
        )
        assert report.ok

    def test_skips_non_layer_dirs(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "core/trainer.py",
            """
            class Module:
                pass

            class Helper(Module):
                pass
            """,
            SampleAwareDeclarationRule,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# AXS002 — stacked-activation branch in sample_aware forwards
# ---------------------------------------------------------------------------
class TestStackedBranch:
    def test_flags_rank_sensitive_forward_without_ndim(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "nn/layers.py",
            """
            class Module:
                pass

            class Flatten(Module):
                sample_aware = True

                def forward(self, x):
                    return x.reshape(x.shape[0], -1)
            """,
            StackedBranchRule,
        )
        assert rule_ids(report) == ["AXS002"]

    def test_passes_with_ndim_dispatch(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "nn/layers.py",
            """
            class Module:
                pass

            class Flatten(Module):
                sample_aware = True

                def forward(self, x):
                    if x.ndim == 5:
                        return x.reshape(x.shape[0], x.shape[1], -1)
                    return x.reshape(x.shape[0], -1)
            """,
            StackedBranchRule,
        )
        assert report.ok

    def test_passes_elementwise_forward(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "nn/layers.py",
            """
            class Module:
                pass

            class ReLU(Module):
                sample_aware = True

                def forward(self, x):
                    return x.relu()
            """,
            StackedBranchRule,
        )
        assert report.ok

    def test_flags_front_counted_axis_reduction(self, tmp_path):
        """A mean over axis 1 indexes from the front: under a leading
        sample axis it reduces the wrong dimension."""
        report = lint_snippet(
            tmp_path,
            "nn/pool.py",
            """
            class Module:
                pass

            class ChannelPool(Module):
                sample_aware = True

                def forward(self, x):
                    return x.mean(axis=(2, 3))
            """,
            StackedBranchRule,
        )
        assert rule_ids(report) == ["AXS002"]

    def test_passes_trailing_axis_reduction(self, tmp_path):
        """Negative axes count from the back — layout-safe under the
        leading sample axis, no dispatch needed (the LayerNorm shape)."""
        report = lint_snippet(
            tmp_path,
            "nn/norm.py",
            """
            class Module:
                pass

            class Norm(Module):
                sample_aware = True

                def forward(self, x):
                    mean = x.mean(axis=-1, keepdims=True)
                    return (x - mean) / x.var(axis=(-2, -1)) ** 0.5
            """,
            StackedBranchRule,
        )
        assert report.ok

    def test_passes_axis_reduction_with_ndim_dispatch(self, tmp_path):
        """The GlobalAvgPool2d shape: front-counted axes are fine once the
        forward dispatches on the stacked rank."""
        report = lint_snippet(
            tmp_path,
            "nn/pool.py",
            """
            class Module:
                pass

            class GlobalPool(Module):
                sample_aware = True

                def forward(self, x):
                    if x.ndim == 5:
                        return x.mean(axis=(3, 4))
                    return x.mean(axis=(2, 3))
            """,
            StackedBranchRule,
        )
        assert report.ok

    def test_passes_full_reduction_without_axis(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "nn/stat.py",
            """
            class Module:
                pass

            class Mean(Module):
                sample_aware = True

                def forward(self, x):
                    return x - x.mean()
            """,
            StackedBranchRule,
        )
        assert report.ok


class TestAxisRulesCoverRepo:
    """The shipped layer library itself satisfies the axis rules — in
    particular the new structural/attention modules declare sample_aware
    (AXS001) and every rank-sensitive forward dispatches on ndim
    (AXS002)."""

    def test_structural_and_attention_modules_declared(self):
        import repro.nn as nn
        from repro.models import AttnMLP, BasicBlock, ResNet8

        for cls in (nn.Add, nn.Concat, nn.Residual, nn.GlobalAvgPool2d,
                    nn.LayerNorm, nn.SelfAttention, BasicBlock, ResNet8,
                    AttnMLP):
            # declared on the class or inherited from a project base other
            # than Module itself (Add/Concat inherit from _Branches) —
            # exactly what AXS001 accepts
            assert any(
                "sample_aware" in vars(base)
                for base in cls.__mro__
                if base is not nn.Module
            ), cls.__name__

    def test_repo_layer_library_is_clean(self):
        root = REPO_ROOT / "src" / "repro"
        report, errors = run_lint(
            [root / "nn", root / "models"],
            rules=[SampleAwareDeclarationRule(), StackedBranchRule()],
        )
        assert not errors
        assert report.ok, [v.message for v in report.violations]


# ---------------------------------------------------------------------------
# SPEC001 — spec-registry completeness
# ---------------------------------------------------------------------------
class TestSpecRegistry:
    def test_flags_unregistered_concrete_model(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "variation/extra.py",
            """
            class VariationModel:
                pass

            class BrandNewVariation(VariationModel):
                def perturb(self, weights, rng):
                    return weights
            """,
            SpecRegistryRule,
        )
        assert rule_ids(report) == ["SPEC001"]
        assert "BrandNewVariation" in report.violations[0].message

    def test_passes_registered_name_and_abstract_base(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "variation/extra.py",
            """
            class VariationModel:
                pass

            class GaussianVariation(VariationModel):
                def perturb(self, weights, rng):
                    return weights

            class _Internal(VariationModel):
                def perturb(self, weights, rng):
                    return weights

            class AbstractIntermediate(VariationModel):
                def scaled(self, factor):
                    return self
            """,
            SpecRegistryRule,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# SPEC002 — to_dict/from_dict pairing
# ---------------------------------------------------------------------------
class TestSpecSerializationPair:
    def test_flags_one_sided_serialization(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "variation/extra.py",
            """
            class VariationModel:
                pass

            class Lopsided(VariationModel):
                def to_dict(self):
                    return {"kind": "lopsided"}
            """,
            SpecSerializationPairRule,
        )
        assert rule_ids(report) == ["SPEC002"]

    def test_passes_paired_or_absent(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "variation/extra.py",
            """
            class VariationModel:
                pass

            class Paired(VariationModel):
                def to_dict(self):
                    return {"kind": "paired"}

                @classmethod
                def from_dict(cls, payload):
                    return cls()

            class Introspected(VariationModel):
                pass
            """,
            SpecSerializationPairRule,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# TAPE001 — backward closures must not reference their own output
# ---------------------------------------------------------------------------
class TestTapeClosure:
    def test_flags_closure_reading_its_output(self, tmp_path):
        # The def precedes the binding of ``out``: closures bind late.
        report = lint_snippet(
            tmp_path,
            "autograd/tensor.py",
            """
            import numpy as np

            class Tensor:
                def exp(self):
                    def _backward(gout):
                        self._accumulate(gout * out.data)

                    out = self._make_child(
                        np.exp(self.data), (self,), "exp", _backward
                    )
                    return out
            """,
            TapeClosureRule,
        )
        assert rule_ids(report) == ["TAPE001"]

    def test_flags_closure_assigned_to_its_output(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "autograd/functional.py",
            """
            def softmax(x, prob):
                out = Tensor(prob)

                def _backward():
                    x._accumulate(prob * out.grad)

                out._backward = _backward
                return out
            """,
            TapeClosureRule,
        )
        assert rule_ids(report) == ["TAPE001"]

    def test_flags_lambda_passed_as_backward(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "autograd/functional.py",
            """
            def tanh(x, val):
                out = Tensor._make_child(
                    val, (x,), "tanh", lambda g: x._accumulate(g * out.data)
                )
                return out
            """,
            TapeClosureRule,
        )
        assert rule_ids(report) == ["TAPE001"]

    def test_passes_captured_array_form(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "autograd/tensor.py",
            """
            import numpy as np

            class Tensor:
                def exp(self):
                    val = np.exp(self.data)

                    def _backward(gout):
                        self._accumulate(gout * val)

                    out = self._make_child(val, (self,), "exp", _backward)
                    return out

                def shadowed(self):
                    def _backward(out):
                        self._accumulate(out)

                    out = self._make_child(self.data, (self,), "id", _backward)
                    return out
            """,
            TapeClosureRule,
        )
        assert report.ok

    def test_skips_code_outside_autograd(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "nn/layers.py",
            """
            def exp(self):
                def _backward(gout):
                    self._accumulate(gout * out.data)

                out = self._make_child(self.data, (self,), "exp", _backward)
                return out
            """,
            TapeClosureRule,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# HYG001 — mutable default arguments
# ---------------------------------------------------------------------------
class TestMutableDefault:
    def test_flags_mutable_defaults(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/helpers.py",
            """
            def collect(x, out=[], lookup={}, *, seen=set()):
                return out
            """,
            MutableDefaultRule,
        )
        assert rule_ids(report) == ["HYG001", "HYG001", "HYG001"]

    def test_passes_none_default(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/helpers.py",
            """
            def collect(x, out=None, shape=(1, 2)):
                out = [] if out is None else out
                return out
            """,
            MutableDefaultRule,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# HYG002 — bare except
# ---------------------------------------------------------------------------
class TestBareExcept:
    def test_flags_bare_except(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/helpers.py",
            """
            def safe(fn):
                try:
                    return fn()
                except:
                    return None
            """,
            BareExceptRule,
        )
        assert rule_ids(report) == ["HYG002"]

    def test_passes_typed_except(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/helpers.py",
            """
            def safe(fn):
                try:
                    return fn()
                except ValueError:
                    return None
            """,
            BareExceptRule,
        )
        assert report.ok


# ---------------------------------------------------------------------------
# Engine behaviour
# ---------------------------------------------------------------------------
class TestEngine:
    def test_all_rules_have_unique_ids_and_docs(self):
        ids = [cls.id for cls in ALL_RULES]
        assert len(ids) == len(set(ids))
        assert len(ids) >= 6
        for cls in ALL_RULES:
            assert cls.id and cls.name and cls.summary

    def test_violations_sorted_and_formatted(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/multi.py",
            """
            import numpy as np

            def f(out=[]):
                np.random.seed(0)
                return out
            """,
        )
        assert rule_ids(report) == ["HYG001", "RNG001"]
        lines = [v.format() for v in report.violations]
        assert all(str(tmp_path / "pkg/multi.py") in line for line in lines)
        assert "HYG001" in lines[0] and "RNG001" in lines[1]

    def test_parse_errors_reported_not_raised(self, tmp_path):
        bad = tmp_path / "pkg" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        report, errors = run_lint([bad])
        assert report.ok
        assert len(errors) == 1 and "broken.py" in errors[0]

    def test_collect_files_skips_hidden_and_dedupes(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
        files = collect_files([tmp_path, tmp_path / "pkg" / "a.py"])
        assert [f.name for f in files] == ["a.py"]

    def test_suppression_counted_in_summary(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "pkg/engine.py",
            "seed = hash('x')  # reprolint: disable=RNG003\n",
            HashSeedRule,
        )
        assert "suppressed" in report.summary()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for cls in ALL_RULES:
            assert cls.id in out

    def test_exit_one_on_violation(self, tmp_path, capsys):
        bad = tmp_path / "pkg" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nnp.random.seed(0)\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RNG001" in out

    def test_exit_zero_on_clean(self, tmp_path, capsys):
        good = tmp_path / "pkg" / "good.py"
        good.parent.mkdir(parents=True)
        good.write_text("x = 1\n")
        assert main([str(good)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_exit_two_on_unknown_rule(self, capsys):
        assert main(["--select", "NOPE999", "src"]) == 2

    def test_select_subset(self, tmp_path, capsys):
        bad = tmp_path / "pkg" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nnp.random.seed(0)\n")
        assert main(["--select", "HYG002", str(bad)]) == 0


# ---------------------------------------------------------------------------
# The self-run contract and the strict-typing gate
# ---------------------------------------------------------------------------
class TestSelfRun:
    def test_src_repro_is_clean(self):
        report, errors = run_lint([REPO_ROOT / "src" / "repro"])
        assert not errors
        assert report.ok, "\n".join(v.format() for v in report.violations)
        assert report.rules_run >= 6
        assert report.files_checked > 50

    def test_tests_are_clean_too(self):
        report, errors = run_lint([REPO_ROOT / "tests"])
        assert not errors
        assert report.ok, "\n".join(v.format() for v in report.violations)


def test_mypy_strict_core():
    pytest.importorskip("mypy")
    targets = [
        "src/repro/utils",
        "src/repro/variation/models.py",
        "src/repro/variation/spec.py",
        "src/repro/evaluation/plan.py",
        "src/repro/evaluation/executor.py",
        "src/repro/lint",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict", *targets],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
