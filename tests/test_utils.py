"""Utilities: rng discipline, tables, logging."""

import logging

import numpy as np
import pytest

from repro.utils import (
    format_table, get_logger, new_rng, set_verbosity, spawn_rngs,
)
from repro.utils.rng import RngMixin


class TestRng:
    def test_new_rng_from_int(self):
        a, b = new_rng(5), new_rng(5)
        assert a.random() == b.random()

    def test_new_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert new_rng(gen) is gen

    def test_spawn_deterministic(self):
        a = spawn_rngs(7, 3)
        b = spawn_rngs(7, 3)
        for x, y in zip(a, b):
            assert x.random() == y.random()

    def test_spawn_streams_independent(self):
        streams = spawn_rngs(7, 2)
        assert streams[0].random() != streams[1].random()

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_mixin_reseed(self):
        class Thing(RngMixin):
            pass

        t = Thing()
        t.reseed(3)
        first = t.rng.random()
        t.reseed(3)
        assert t.rng.random() == first


class TestTables:
    def test_alignment_and_separator(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 20.0]])
        lines = text.split("\n")
        assert len(lines) == 4
        assert "-+-" in lines[1]
        assert "1.50" in text

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestLogging:
    def test_namespaced(self):
        logger = get_logger("sub")
        assert logger.name == "repro.sub"

    def test_set_verbosity_idempotent(self):
        set_verbosity(logging.INFO)
        set_verbosity(logging.INFO)
        assert len(logging.getLogger("repro").handlers) == 1
