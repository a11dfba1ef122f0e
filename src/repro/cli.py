"""Command-line entry points.

``correctnet-train`` — train a model (optionally Lipschitz-regularized) and
save it; ``correctnet-eval`` — Monte-Carlo evaluate a saved model under
variations; ``correctnet-search`` — run the full CorrectNet pipeline and
print the Table-I style row; ``correctnet-jobs`` / ``correctnet-query`` —
the evaluation service (fingerprinted result store + resumable job
runner, see ``repro.store``). ``python -m repro.cli
{train,eval,search,jobs,query}`` dispatches to the same entry points
without installed console scripts.

Variation scenarios are named on the command line through the spec grammar
(see ``repro.variation.spec``): ``--variation "lognormal:0.5+quant:4"``
composes the paper's log-normal model with 4-bit level quantization;
``--variation "lognormal:0.5;@0=none"`` protects the first weighted layer.
``--sigma`` remains the shorthand for the paper's single log-normal model.
``correctnet-eval --analog`` deploys the checkpoint onto the crossbar
simulator first (optionally with ``--dac-bits/--adc-bits/--read-noise``),
so the same scenarios evaluate through the full analog chain — on any
engine, seed-paired. ``correctnet-eval --engine {vectorized,loop}``
picks the Monte-Carlo form and ``--workers N`` runs it in an N-process
pool; the two choices are independent. ``--tolerance`` (eval and
search) switches the Monte-Carlo protocol to sequential stopping: draw
until the confidence interval on mean accuracy is tight enough, up to
``--max-samples``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.config import fast_pipeline_config
from repro.core.pipeline import CorrectNet
from repro.core.training import Trainer
from repro.data import DATASET_FACTORIES
from repro.evaluation.metrics import accuracy
from repro.evaluation.montecarlo import MonteCarloEvaluator
from repro.lipschitz.bounds import lambda_bound
from repro.lipschitz.regularizer import OrthogonalityRegularizer
from repro.models.registry import available_models, build_model
from repro.optim.optimizers import Adam, GRAD_CLIP
from repro.utils.logging import set_verbosity
from repro.utils.tables import format_table
from repro.variation.models import LogNormalVariation, VariationModel
from repro.variation.spec import parse_spec, to_string

def _load_data(name: str):
    if name not in DATASET_FACTORIES:
        raise SystemExit(
            f"unknown dataset {name!r}; choose from {list(DATASET_FACTORIES)}"
        )
    return DATASET_FACTORIES[name]()


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        default="lenet5",
        help="|".join(available_models()),
    )
    parser.add_argument(
        "--dataset", default="synth_mnist", help=f"{list(DATASET_FACTORIES)}"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--verbose", action="store_true")


def _add_variation_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--variation", default=None, metavar="SPEC",
        help="variation spec in the grammar of repro.variation.spec, e.g. "
        "'lognormal:0.5+quant:4' or 'lognormal:0.5;@0=none'; overrides "
        "--sigma when given",
    )


def _add_chunk_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chunk-samples", type=int, default=None, metavar="S",
        help="Monte-Carlo draws evaluated per stacked pass; bounds the peak "
        "memory of stacked weights/conductance planes without changing "
        "results (chunking is bitwise-neutral, --tolerance runs included: "
        "the stopping rule keeps its own look schedule), so a store job "
        "records it outside its fingerprint",
    )


def _add_dtype_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dtype", choices=["float64", "float32"], default="float64",
        help="Monte-Carlo evaluation arithmetic: float64 (the bit-exact "
        "historical protocol) or float32 (half the memory traffic). "
        "Results are seed-paired across engines per dtype, but a float32 "
        "result is not float64's and fingerprints apart. Weight-domain only",
    )


def _add_adaptive_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tolerance", type=float, default=None, metavar="T",
        help="stop sampling once the 95%% confidence interval on mean "
        "accuracy has half-width <= T (e.g. 0.02 for +/-2%%); the draws "
        "evaluated are a bitwise prefix of the fixed-S run on the same "
        "seed (see repro.evaluation.sequential)",
    )
    parser.add_argument(
        "--max-samples", type=int, default=None, metavar="S",
        help="cap on Monte-Carlo draws for adaptive runs (default: the "
        "fixed sample count)",
    )


def _add_analog_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--analog", action="store_true",
        help="deploy the model onto simulated RRAM crossbars "
        "(repro.hardware.analogize) before evaluating; --variation then "
        "applies at programming time, in the conductance domain, and all "
        "engines run the full DAC/MAC/read-noise/ADC chain (seed-paired)",
    )
    parser.add_argument(
        "--dac-bits", type=int, default=None,
        help="analog input DAC resolution (default: ideal converter)",
    )
    parser.add_argument(
        "--adc-bits", type=int, default=None,
        help="analog output ADC resolution (default: ideal converter)",
    )
    parser.add_argument(
        "--read-noise", type=float, default=0.0,
        help="relative sigma of per-read cycle noise on bitline currents",
    )
    parser.add_argument(
        "--tile-size", type=int, default=128,
        help="physical crossbar tile size for --analog",
    )


def _check_analog_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject what :func:`_add_analog_args`' flags cannot mean: crossbar
    flags without ``--analog``, and ``--analog`` with ``--dtype float32``."""
    if not args.analog:
        ignored = [
            flag
            for flag, given in [
                ("--dac-bits", args.dac_bits is not None),
                ("--adc-bits", args.adc_bits is not None),
                ("--read-noise", args.read_noise != 0.0),
                ("--tile-size", args.tile_size != 128),
            ]
            if given
        ]
        if ignored:
            parser.error(
                f"{', '.join(ignored)} only take effect with --analog "
                "(without it the evaluation is purely weight-domain)"
            )
    elif args.dtype != "float64":
        parser.error(
            "--dtype float32 is weight-domain only: the crossbar simulator "
            "is float64 physics (see repro.evaluation.plan)"
        )


def _resolve_variation(args) -> VariationModel:
    """The scenario a command should run: --variation spec, else the
    paper's log-normal model at --sigma."""
    if getattr(args, "variation", None):
        return parse_spec(args.variation)
    return LogNormalVariation(args.sigma)


def train_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Train a model, optionally with Lipschitz regularization")
    _common_args(parser)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--sigma", type=float, default=0.0, help="if > 0, apply Lipschitz regularization sized for this sigma")
    _add_variation_arg(parser)
    parser.add_argument("--beta", type=float, default=1e-3)
    parser.add_argument("--save", default=None, help="path for the .npz checkpoint")
    args = parser.parse_args(argv)
    if args.verbose:
        set_verbosity()

    train, test = _load_data(args.dataset)
    model = build_model(args.model, train, seed=args.seed)
    regularizer = None
    # Regularization strength is sized for the deployment scenario's
    # magnitude: a --variation spec supplies it directly, --sigma is the
    # log-normal shorthand.
    reg_sigma = _resolve_variation(args).magnitude
    if reg_sigma > 0:
        regularizer = OrthogonalityRegularizer(lambda_bound(reg_sigma), beta=args.beta)
    trainer = Trainer(
        model,
        Adam(list(model.parameters()), lr=args.lr),
        regularizer=regularizer,
        grad_clip=GRAD_CLIP,
        seed=args.seed,
    )
    history = trainer.fit(
        train, epochs=args.epochs, batch_size=args.batch_size, val_data=test
    )
    print(f"final val accuracy: {history.val_accuracy:.4f}")
    if args.save:
        model.save(args.save)
        print(f"saved checkpoint to {args.save}")
    return 0


def eval_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Monte-Carlo evaluate a checkpoint under weight variations")
    _common_args(parser)
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--sigma", type=float, default=0.5)
    _add_variation_arg(parser)
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument(
        "--engine", choices=["vectorized", "loop"], default="vectorized",
        help="MC form every chunk runs in: vectorized (stacked-weight "
        "passes; models without sample-aware kernels fall back to the "
        "loop) or the per-draw reference loop. Both are seed-paired: "
        "identical results",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run the chosen --engine form in a pool of N worker "
        "processes, one chunk per task (N <= 1: in-process). Seed-paired "
        "with the in-process run",
    )
    _add_chunk_args(parser)
    _add_adaptive_args(parser)
    _add_dtype_arg(parser)
    parser.add_argument(
        "--dump-accuracies", default=None, metavar="PATH",
        help="write the per-draw accuracies (seed-schedule order) to PATH "
        "as JSON — e.g. for checking the adaptive/fixed paired-prefix "
        "contract across invocations",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the result as JSON on stdout (same numbers as the "
        "table, plus the serialized MCResult) instead of the table",
    )
    _add_analog_args(parser)
    args = parser.parse_args(argv)
    if args.verbose:
        set_verbosity()
    _check_analog_args(parser, args)

    train, test = _load_data(args.dataset)
    model = build_model(args.model, train, seed=args.seed)
    model.load(args.checkpoint)
    if args.analog:
        from repro.hardware import ADC, DAC, analog_layers, analogize

        analogize(
            model,
            tile_size=args.tile_size,
            dac=DAC(args.dac_bits),
            adc=ADC(args.adc_bits),
            read_noise_sigma=args.read_noise,
        )
        # The clean-accuracy read below consumes read noise; seed it so the
        # printout is deterministic (the evaluator reseeds per draw anyway).
        for i, (_, layer) in enumerate(analog_layers(model)):
            layer.seed_read_noise(args.seed + i)
    clean = accuracy(model, test)
    evaluator = MonteCarloEvaluator(
        test,
        n_samples=args.max_samples if args.max_samples else args.samples,
        vectorized=args.engine == "vectorized",
        n_workers=args.workers,
        chunk_samples=args.chunk_samples,
        tolerance=args.tolerance,
        dtype=args.dtype,
    )
    variation = _resolve_variation(args)
    result = evaluator.evaluate(model, variation)
    if args.dump_accuracies:
        import json

        with open(args.dump_accuracies, "w") as fh:
            json.dump(result.accuracies, fh)
    if args.as_json:
        import json

        print(
            json.dumps(
                {
                    "variation": to_string(variation),
                    "clean_accuracy": float(clean),
                    "mean": result.mean,
                    "std": result.std,
                    "ci95": result.ci_half_width,
                    "draws": result.n_samples_used,
                    "result": result.to_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        format_table(
            ["variation", "clean acc %", "mean acc %", "std %",
             "ci95 ±%", "draws"],
            [[to_string(variation), 100 * clean, 100 * result.mean,
              100 * result.std, 100 * result.ci_half_width,
              result.n_samples_used]],
        )
    )
    return 0


def search_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run the full CorrectNet pipeline (suppression + RL-compensation)")
    _common_args(parser)
    parser.add_argument("--sigma", type=float, default=0.5)
    _add_variation_arg(parser)
    _add_chunk_args(parser)
    _add_adaptive_args(parser)
    _add_dtype_arg(parser)
    args = parser.parse_args(argv)
    if args.verbose:
        set_verbosity()

    train, test = _load_data(args.dataset)
    model = build_model(args.model, train, seed=args.seed)
    variation = _resolve_variation(args)
    config = fast_pipeline_config(
        sigma=variation.magnitude, seed=args.seed, variation=variation
    )
    if args.chunk_samples is not None:
        config.eval.chunk_samples = args.chunk_samples
    if args.tolerance is not None:
        config.eval.tolerance = args.tolerance
    if args.max_samples is not None:
        config.eval.n_samples = args.max_samples
    config.eval.dtype = args.dtype
    result = CorrectNet(model, train, test, config).run()
    print(
        format_table(
            ["orig %", "degraded %", "corrected %", "overhead %", "#layers"],
            [result.summary_row()],
        )
    )
    print(f"recovery ratio: {result.recovery:.3f}")
    return 0


def jobs_main(argv: Optional[List[str]] = None) -> int:
    """``correctnet-jobs``: submit/run/status/gc against a result store.

    Imported lazily so plain train/eval invocations never pay for (or
    depend on) the store package.
    """
    from repro.store.cli import jobs_main as real_jobs_main

    return real_jobs_main(argv)


def query_main(argv: Optional[List[str]] = None) -> int:
    """``correctnet-query``: reconstruct results from a store file."""
    from repro.store.cli import query_main as real_query_main

    return real_query_main(argv)


_COMMANDS = {
    "train": train_main,
    "eval": eval_main,
    "search": search_main,
    "jobs": jobs_main,
    "query": query_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.cli {train,eval,search} [args...]`` dispatcher —
    the console-script entry points without needing an installed package
    (used by the CI spec-matrix smoke job)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in _COMMANDS:
        print(
            f"usage: python -m repro.cli {{{','.join(_COMMANDS)}}} [options]",
            file=sys.stderr,
        )
        return 2
    return _COMMANDS[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
