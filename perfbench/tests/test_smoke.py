"""Smoke runs of every workload at tiny sizes, traced and untraced."""

import dataclasses
import functools
import json

import pytest

import instrument
import run
import workloads
from workloads import Leg


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    from repro.data import synth_mnist

    def data_factory(seed):
        return functools.partial(synth_mnist, train_per_class=6, test_per_class=4,
                                 seed=workloads.DATA_SEED_BASE + seed)

    full_config = workloads.PipelineLenet5.config

    def config(self, seed):
        cfg = full_config(self, seed)
        return dataclasses.replace(
            cfg,
            train=dataclasses.replace(cfg.train, epochs=1),
            compensation=dataclasses.replace(cfg.compensation, epochs=1),
            rl=dataclasses.replace(cfg.rl, episodes=2),
            eval=dataclasses.replace(cfg.eval, n_samples=4, search_samples=2),
        )

    monkeypatch.setattr(workloads.PipelineLenet5, "config", config)
    monkeypatch.setattr(workloads, "data_factory", data_factory)
    monkeypatch.setattr(workloads, "CHECKPOINT_EPOCHS", dict.fromkeys(workloads.CHECKPOINT_EPOCHS, 1))
    monkeypatch.setattr(workloads.MCProtocol, "legs",
                        [Leg("lenet5", 4, None), Leg("attnmlp", 4, None), Leg("resnet8", 4, 2)])
    monkeypatch.setattr(workloads.JobService, "sigmas", [0.5])
    monkeypatch.setattr(workloads.JobService, "cap", 8)
    monkeypatch.setattr(workloads.JobService, "analog_sigmas", [0.5])
    monkeypatch.setattr(workloads.JobService, "analog_samples", 4)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "DIGESTS", tmp_path / "digests.json")  # tiny sizes: other outputs


def emitted(capsys, argv):
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] and result["failed"] == 0, "\n".join(out[:-1])
    return result


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_declared_metric(tiny, capsys, workload):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    args = ["--workload", workload, "--seed", "3", "--seconds", "0"]

    calls_before = instrument.WRAPPER_CALLS[0]
    plain = emitted(capsys, args + ["--trace", "0"])
    assert instrument.WRAPPER_CALLS[0] == calls_before  # untraced: no wrapper ran
    assert plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = emitted(capsys, args + ["--trace", "1"])
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
