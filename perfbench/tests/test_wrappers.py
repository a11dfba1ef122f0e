"""Wrappers are installed only while tracing and restored afterwards."""

import sys

import instrument
from instrument import Instrumentation, Target, layer_metrics
from spans import Tracer


def snapshot():
    """Every attribute of every loaded repro module and of its classes."""
    import repro.core.pipeline  # noqa: F401 — load every wrapped module
    import repro.hardware  # noqa: F401
    import repro.store  # noqa: F401

    state = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            state[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    state[(name, attr, cattr)] = cvalue
    return state


def test_uninstall_restores_every_original():
    from repro.autograd import functional
    from repro.data import synth_mnist
    from repro.models.registry import build_model
    from repro.nn import layers

    train, _ = synth_mnist(train_per_class=1, test_per_class=1)
    model = build_model("lenet5", train)
    before = snapshot()
    conv2d, forward = functional.conv2d, vars(layers.Conv2d)["forward"]

    instr = Instrumentation(Tracer()).install()
    instr.register_model("lenet5", model)
    assert functional.conv2d is not conv2d
    assert vars(layers.Conv2d)["forward"] is not forward
    assert instr.missing == []
    instr.uninstall()

    after = snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    assert set(after) == set(before)


def test_wrapped_calls_record_spans():
    from repro.autograd import Tensor, functional
    import numpy as np

    tracer = Tracer()
    with Instrumentation(tracer):
        functional.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))))
    names = [s.name for s in tracer.spans]
    assert names == ["autograd.linear", "autograd.matmul"]
    assert tracer.spans[0].attrs["macs"] == 2 * 4 * 3


def test_a_missing_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(instrument, "TARGETS", instrument.TARGETS + [
        Target("core.search", "repro.core.pipeline", "CorrectNet.no_such_stage"),
    ])
    instr = Instrumentation(Tracer()).install()
    instr.uninstall()
    assert [m.split(" ")[0] for m in instr.missing] == ["core.search"]
    values, missing = layer_metrics(instr.tracer, 1, instr.missing_spans)
    assert missing == ["core.search.s", "core.search.uncovered_share"]
    assert "core.search.s" not in values and "core.fit_base.s" in values


def test_bindings_made_while_tracing_are_restored(monkeypatch):
    import types

    from repro.autograd import functional

    conv2d = functional.conv2d
    instr = Instrumentation(Tracer()).install()
    # A module imported mid-trace binds the wrapped function by name.
    probe = types.ModuleType("repro._perfbench_probe")
    probe.conv2d = functional.conv2d
    monkeypatch.setitem(sys.modules, probe.__name__, probe)
    instr.uninstall()
    assert probe.conv2d is conv2d and functional.conv2d is conv2d
