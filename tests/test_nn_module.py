"""Module system: registration, traversal, state dicts, freezing."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn.module import Module, Parameter


class TestRegistration:
    def test_parameters_discovered(self, mlp):
        names = [n for n, _ in mlp.named_parameters()]
        assert "net.1.weight" in names  # net.0 is the Flatten
        assert "net.1.bias" in names

    def test_nested_module_traversal(self, lenet):
        module_names = [n for n, _ in lenet.named_modules()]
        assert "net" in module_names
        assert "net.0" in module_names

    def test_num_parameters_counts_scalars(self):
        layer = nn.Linear(3, 2, seed=0)
        assert layer.num_parameters() == 3 * 2 + 2


class TestModes:
    def test_train_eval_propagates(self, lenet):
        lenet.eval()
        assert all(not m.training for m in lenet.modules())
        lenet.train()
        assert all(m.training for m in lenet.modules())


class TestFreezing:
    def test_freeze_drops_requires_grad(self):
        p = Parameter(np.ones(3))
        p.freeze()
        assert p.frozen and not p.requires_grad
        p.unfreeze()
        assert not p.frozen and p.requires_grad

    def test_module_freeze_recursive(self, mlp):
        mlp.freeze()
        assert all(p.frozen for p in mlp.parameters())
        mlp.unfreeze()
        assert all(not p.frozen for p in mlp.parameters())


class TestStateDict:
    def test_roundtrip_exact(self, mlp):
        state = mlp.state_dict()
        other = type(mlp)(4, [8], 3, seed=99)
        before = next(other.parameters()).data.copy()
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(mlp.named_parameters(), other.named_parameters()):
            np.testing.assert_allclose(a.data, b.data)
        assert not np.allclose(before, next(other.parameters()).data)

    def test_state_dict_is_copy(self, mlp):
        state = mlp.state_dict()
        state["net.1.weight"][:] = 999.0
        assert not np.allclose(
            dict(mlp.named_parameters())["net.1.weight"].data, 999.0
        )

    def test_shape_mismatch_raises(self, mlp):
        state = mlp.state_dict()
        state["net.1.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)

    def test_unknown_key_raises(self, mlp):
        with pytest.raises(KeyError):
            mlp.load_state_dict({"nonexistent": np.zeros(1)})

    def test_save_load_file(self, mlp, tmp_path):
        path = str(tmp_path / "model.npz")
        mlp.save(path)
        other = type(mlp)(4, [8], 3, seed=5)
        other.load(path)
        for (_, a), (_, b) in zip(mlp.named_parameters(), other.named_parameters()):
            np.testing.assert_allclose(a.data, b.data)


class TestForwardProtocol:
    def test_base_forward_raises(self):
        with pytest.raises(NotImplementedError):
            Module()(1)

    def test_repr_contains_structure(self, lenet):
        text = repr(lenet)
        assert "Conv2d" in text and "Linear" in text
