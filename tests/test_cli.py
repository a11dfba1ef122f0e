"""CLI entry points (smoke level: tiny settings, real code paths)."""

import json

import numpy as np
import pytest

from repro import cli
from repro.evaluation.montecarlo import MCResult


@pytest.fixture(autouse=True)
def small_datasets(monkeypatch):
    """Swap the dataset registry's factories for miniature versions."""
    from repro.data import DATASET_FACTORIES, synth_mnist

    def tiny_mnist():
        return synth_mnist(train_per_class=6, test_per_class=3)

    monkeypatch.setitem(DATASET_FACTORIES, "synth_mnist", tiny_mnist)


class TestTrainCLI:
    def test_train_and_save(self, tmp_path, capsys):
        path = str(tmp_path / "model.npz")
        code = cli.train_main([
            "--model", "mlp", "--dataset", "synth_mnist",
            "--epochs", "2", "--save", path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "final val accuracy" in out
        assert (tmp_path / "model.npz").exists()

    def test_train_with_regularization(self, capsys):
        code = cli.train_main([
            "--model", "mlp", "--dataset", "synth_mnist",
            "--epochs", "1", "--sigma", "0.5",
        ])
        assert code == 0

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit):
            cli.train_main(["--dataset", "imagenet", "--epochs", "1"])


class TestEvalCLI:
    def test_eval_checkpoint(self, tmp_path, capsys):
        path = str(tmp_path / "model.npz")
        cli.train_main(["--model", "mlp", "--dataset", "synth_mnist",
                        "--epochs", "1", "--save", path])
        capsys.readouterr()
        code = cli.eval_main([
            "--model", "mlp", "--dataset", "synth_mnist",
            "--checkpoint", path, "--sigma", "0.4", "--samples", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean acc" in out

    def test_eval_json_payload_matches_table_fields(self, tmp_path, capsys):
        path = str(tmp_path / "model.npz")
        cli.train_main(["--model", "mlp", "--dataset", "synth_mnist",
                        "--epochs", "1", "--save", path])
        capsys.readouterr()
        code = cli.eval_main([
            "--model", "mlp", "--dataset", "synth_mnist",
            "--checkpoint", path, "--samples", "3",
            "--variation", "lognormal:0.4", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variation"] == "lognormal:0.4"
        assert payload["draws"] == 3
        result = MCResult.from_dict(payload["result"])
        assert payload["mean"] == result.mean
        assert payload["std"] == result.std
        assert payload["ci95"] == result.ci_half_width
        assert 0.0 <= payload["clean_accuracy"] <= 1.0

    def test_pool_is_not_an_engine(self, capsys):
        """``--workers`` makes a pool of either form; ``pool`` is no
        ``--engine`` choice."""
        with pytest.raises(SystemExit) as exit_info:
            cli.eval_main(["--checkpoint", "unused.npz", "--engine", "pool"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'pool'" in capsys.readouterr().err

    def test_adaptive_runs_agree_across_forms(self, tmp_path, monkeypatch,
                                              capsys):
        """With ``--tolerance``, the default engine returns the loop's
        draws: neither the form, the chunk size nor a pool of either form
        moves the stop point, which is the rule's first satisfied look."""
        from repro.data import DATASET_FACTORIES, synth_mnist

        monkeypatch.setitem(
            DATASET_FACTORIES, "synth_mnist",
            lambda: synth_mnist(train_per_class=20, test_per_class=1),
        )
        checkpoint = str(tmp_path / "mlp.npz")
        cli.train_main(["--model", "mlp", "--dataset", "synth_mnist",
                        "--epochs", "5", "--lr", "1e-2", "--save", checkpoint])
        dumps = {}
        for name, flags in (
            ("vectorized", ["--chunk-samples", "2"]),
            ("loop", ["--chunk-samples", "2", "--engine", "loop"]),
            ("chunk16", ["--chunk-samples", "16", "--engine", "loop"]),
            ("pool", ["--chunk-samples", "2", "--engine", "loop",
                      "--workers", "2"]),
            ("vectorized-pool", ["--chunk-samples", "2", "--workers", "2"]),
        ):
            dumps[name] = str(tmp_path / f"{name}.json")
            assert cli.eval_main([
                "--model", "mlp", "--dataset", "synth_mnist",
                "--checkpoint", checkpoint, "--sigma", "0.7",
                "--tolerance", "0.2", "--samples", "48",
                "--dump-accuracies", dumps[name], *flags,
            ]) == 0
        capsys.readouterr()
        loop = json.load(open(dumps["loop"]))
        assert len(loop) == 16  # the first look stopped the run
        for name, path in dumps.items():
            assert json.load(open(path)) == loop, name


class TestVariationSpecCLI:
    def test_eval_with_spec_string(self, tmp_path, capsys):
        path = str(tmp_path / "model.npz")
        cli.train_main(["--model", "mlp", "--dataset", "synth_mnist",
                        "--epochs", "1", "--save", path])
        capsys.readouterr()
        code = cli.eval_main([
            "--model", "mlp", "--dataset", "synth_mnist",
            "--checkpoint", path, "--samples", "3",
            "--variation", "lognormal:0.5+quant:4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lognormal:0.5+quant:4" in out
        assert "mean acc" in out

    def test_eval_spec_overrides_sigma(self, tmp_path, capsys):
        """--variation wins over --sigma; results are pinned to the spec."""
        path = str(tmp_path / "model.npz")
        cli.train_main(["--model", "mlp", "--dataset", "synth_mnist",
                        "--epochs", "1", "--save", path])
        capsys.readouterr()

        def run(extra):
            code = cli.eval_main([
                "--model", "mlp", "--dataset", "synth_mnist",
                "--checkpoint", path, "--samples", "3", "--engine", "loop",
            ] + extra)
            assert code == 0
            return capsys.readouterr().out

        spec_out = run(["--sigma", "0.1", "--variation", "lognormal:0.7"])
        sigma_out = run(["--sigma", "0.7"])
        # Same seed path, same effective model: identical result rows
        # modulo the printed variation column.
        assert spec_out.splitlines()[-1].split()[1:] == \
            sigma_out.splitlines()[-1].split()[1:]

    def test_eval_bad_spec_raises(self, tmp_path):
        path = str(tmp_path / "model.npz")
        cli.train_main(["--model", "mlp", "--dataset", "synth_mnist",
                        "--epochs", "1", "--save", path])
        with pytest.raises(ValueError, match="unknown spec kind"):
            cli.eval_main([
                "--model", "mlp", "--dataset", "synth_mnist",
                "--checkpoint", path, "--variation", "warp_drive:9",
            ])

    def test_module_dispatcher(self, tmp_path, capsys):
        path = str(tmp_path / "model.npz")
        assert cli.main(["train", "--model", "mlp", "--dataset",
                         "synth_mnist", "--epochs", "1", "--save", path]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--model", "mlp", "--dataset", "synth_mnist",
                         "--checkpoint", path, "--samples", "2",
                         "--variation", "lognormal:0.5+drift:1e4"]) == 0
        assert "mean acc" in capsys.readouterr().out
        assert cli.main(["frobnicate"]) == 2
        assert cli.main([]) == 2


class TestSearchCLI:
    def test_full_pipeline_smoke(self, capsys, monkeypatch):
        # shrink the pipeline further for CI speed
        from repro.core import config as config_module

        original = config_module.fast_pipeline_config

        def tiny_config(sigma=0.5, seed=0, variation=None):
            cfg = original(sigma=sigma, seed=seed, variation=variation)
            cfg.train.epochs = 2
            cfg.compensation.epochs = 1
            cfg.rl.episodes = 1
            cfg.eval.n_samples = 2
            cfg.eval.search_samples = 1
            cfg.eval.max_candidates = 1
            return cfg

        monkeypatch.setattr(cli, "fast_pipeline_config", tiny_config)
        code = cli.search_main(["--model", "mlp", "--dataset", "synth_mnist"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery ratio" in out
