"""BENCHMARK.json matches the code: names, units and per-layer metrics."""

import json
import re
from pathlib import Path

import pytest

from instrument import NN_LAYERS, PER_LAYER
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def all_metrics():
    return SPEC["end_to_end"] + SPEC["per_layer"]


def test_every_metric_name_and_unit_is_well_formed():
    names = [m["name"] for m in all_metrics()]
    assert len(names) == len(set(names))
    for metric in all_metrics():
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
    for name, unit in PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_per_layer_list_is_the_code_list():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


def test_end_to_end_metrics_have_bounds():
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert names == {"setup_s", "op_s", "peak_rss_mb"}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_are_the_code_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("model", sorted(NN_LAYERS))
def test_layer_names_are_the_canonical_walk_names(model):
    from repro.data import synth_mnist
    from repro.models.registry import build_model
    from repro.nn.graph import weighted_layers

    train, _ = synth_mnist(train_per_class=1, test_per_class=1)
    walk = [name for name, _ in weighted_layers(build_model(model, train))]
    assert walk == NN_LAYERS[model]
