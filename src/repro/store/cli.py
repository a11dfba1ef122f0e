"""Entry points for the evaluation service.

``correctnet-jobs`` drives the write side of the store —

- ``submit`` fingerprints an evaluation (or a ``--sweep-sigmas`` family
  of them) and enqueues the job rows; resubmitting an already-finished
  evaluation is a pure cache hit and performs zero work;
- ``run`` drains claimable jobs under a lease, chunk-by-chunk and
  resumable — start N of these concurrently against one store and every
  job still executes exactly once;
- ``status`` shows the queue with per-job draw progress;
- ``gc`` folds finished jobs' chunks away and resets dead leases.

``correctnet-query`` is the read side: sweep curves (or single jobs)
reconstructed from finalized results, printing the same mean/std/ci95/
draws columns as ``correctnet-eval`` — or ``--json`` for machines.

Submitting and running are deliberately separable processes: submit
needs the checkpoint (the fingerprint digests the weights), run
re-materializes and re-verifies, query needs only the store file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.cli import (
    _add_adaptive_args,
    _add_analog_args,
    _add_chunk_args,
    _add_dtype_arg,
    _add_variation_arg,
    _check_analog_args,
    _resolve_variation,
)
from repro.data import DATASET_FACTORIES
from repro.store.db import ResultStore, SubmitOutcome
from repro.store.jobs import AnalogParams, JobRequest, materialize
from repro.store.query import job_point, sweep_points, sweep_table, SweepPoint
from repro.store.runner import drain
from repro.utils.tables import format_table
from repro.variation.models import LogNormalVariation
from repro.variation.spec import to_dict as spec_to_dict


def _store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", required=True, metavar="PATH",
        help="sqlite result-store file (created on first use)",
    )


def _submit_parser(
    sub: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> argparse.ArgumentParser:
    p = sub.add_parser(
        "submit", help="fingerprint evaluations and enqueue them as jobs"
    )
    _store_arg(p)
    p.add_argument("--model", default="lenet5")
    p.add_argument("--dataset", default="synth_mnist",
                   help=f"{sorted(DATASET_FACTORIES)}")
    p.add_argument("--checkpoint", default=None,
                   help=".npz checkpoint to evaluate (default: seed-built "
                   "weights)")
    p.add_argument("--model-seed", type=int, default=0,
                   help="build seed for the model skeleton (and its weights "
                   "when no checkpoint is given)")
    p.add_argument("--seed", type=int, default=1234,
                   help="Monte-Carlo seed (the seed schedule's root)")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--sigma", type=float, default=0.5)
    _add_variation_arg(p)
    _add_adaptive_args(p)
    _add_chunk_args(p)
    _add_dtype_arg(p)
    _add_analog_args(p)
    p.add_argument("--sweep-sigmas", default=None, metavar="S1,S2,...",
                   help="submit one log-normal job per sigma (overrides "
                   "--sigma/--variation); requires --sweep-key")
    p.add_argument("--sweep-key", default=None, metavar="NAME",
                   help="group jobs into a named sweep for correctnet-query")
    return p


def _run_parser(sub: "argparse._SubParsersAction[argparse.ArgumentParser]") -> None:
    p = sub.add_parser("run", help="claim and execute jobs until drained")
    _store_arg(p)
    p.add_argument("--owner", default=None,
                   help="runner identity for leases (default: pid-derived)")
    p.add_argument("--lease", type=float, default=60.0, metavar="SECONDS",
                   help="lease duration; a crashed runner's job becomes "
                   "claimable again this long after its last renewal")
    p.add_argument("--max-jobs", type=int, default=None, metavar="N",
                   help="stop after claiming N jobs")
    p.add_argument("--max-chunks", type=int, default=None, metavar="N",
                   help="run at most N chunks per claim, then release the "
                   "job back to pending (cooperative preemption)")


def _status_parser(sub: "argparse._SubParsersAction[argparse.ArgumentParser]") -> None:
    p = sub.add_parser("status", help="show the job queue")
    _store_arg(p)
    p.add_argument("--json", action="store_true", dest="as_json")


def _gc_parser(sub: "argparse._SubParsersAction[argparse.ArgumentParser]") -> None:
    p = sub.add_parser("gc", help="fold finished chunks, reset dead leases")
    _store_arg(p)
    p.add_argument("--drop-failed", action="store_true",
                   help="also delete failed job rows for a clean resubmit")


def _request_from_args(
    args: argparse.Namespace,
    variation: Dict[str, Any],
    sweep_param: Optional[float],
) -> JobRequest:
    analog = None
    if args.analog:
        analog = AnalogParams(
            tile_size=args.tile_size,
            dac_bits=args.dac_bits,
            adc_bits=args.adc_bits,
            read_noise=args.read_noise,
        )
    return JobRequest(
        model=args.model,
        dataset=args.dataset,
        variation=variation,
        n_samples=args.max_samples if args.max_samples else args.samples,
        seed=args.seed,
        model_seed=args.model_seed,
        checkpoint=args.checkpoint,
        tolerance=args.tolerance,
        dtype=args.dtype,
        analog=analog,
        chunk_samples=args.chunk_samples,
        sweep_key=args.sweep_key,
        sweep_param=sweep_param,
    )


def _outcome_note(outcome: SubmitOutcome) -> str:
    if outcome.cache_hit:
        return "cache hit (result already stored; zero work)"
    if outcome.created:
        return "queued"
    return f"dedup (job already {outcome.state})"


def _cmd_submit(args: argparse.Namespace) -> int:
    requests: List[JobRequest] = []
    if args.sweep_sigmas is not None:
        if not args.sweep_key:
            raise SystemExit("--sweep-sigmas requires --sweep-key")
        for token in args.sweep_sigmas.split(","):
            sigma = float(token)
            spec = spec_to_dict(LogNormalVariation(sigma))
            requests.append(_request_from_args(args, spec, sigma))
    else:
        model = _resolve_variation(args)
        requests.append(_request_from_args(args, spec_to_dict(model), None))
    with ResultStore(args.store) as store:
        for request in requests:
            materialized = materialize(request)
            outcome = store.submit(
                materialized.fingerprint,
                materialized.request.to_dict(),
                sweep_key=request.sweep_key,
                sweep_param=request.sweep_param,
            )
            print(f"{materialized.fingerprint}  {_outcome_note(outcome)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    owner = args.owner if args.owner else f"runner-{os.getpid()}"
    with ResultStore(args.store) as store:
        stats = drain(
            store,
            owner=owner,
            lease_seconds=args.lease,
            max_jobs=args.max_jobs,
            max_chunks_per_job=args.max_chunks,
        )
        for outcome in stats.outcomes:
            line = (
                f"{outcome.fingerprint[:12]}  {outcome.status}  "
                f"draws={outcome.draws} (+{outcome.draws - outcome.resumed_draws})"
            )
            if outcome.error:
                line += f"  {outcome.error}"
            print(line)
    print(
        f"{len(stats.outcomes)} claims: {stats.done} done, "
        f"{stats.failed} failed, {stats.chunks_run} chunks run"
    )
    return 0 if stats.failed == 0 else 1


def _cmd_status(args: argparse.Namespace) -> int:
    with ResultStore(args.store) as store:
        rows = store.jobs()
        if args.as_json:
            body = [
                {
                    "fingerprint": row.fingerprint,
                    "state": row.state,
                    "attempts": row.attempts,
                    "submits": row.submits,
                    "draws": store.draws_stored(row.fingerprint),
                    "target": row.request.get("n_samples"),
                    "sweep_key": row.sweep_key,
                    "sweep_param": row.sweep_param,
                    "cache_hits": max(0, row.submits - 1),
                    "error": row.error,
                }
                for row in rows
            ]
            print(json.dumps(body, indent=2, sort_keys=True))
            return 0
        table_rows: List[List[object]] = [
            [
                row.fingerprint[:12],
                row.state,
                row.attempts,
                row.submits,
                f"{store.draws_stored(row.fingerprint)}"
                f"/{row.request.get('n_samples', '?')}",
                row.sweep_key or "",
                "" if row.sweep_param is None else row.sweep_param,
                row.error or "",
            ]
            for row in rows
        ]
    print(
        format_table(
            ["job", "state", "attempts", "submits", "draws", "sweep",
             "param", "error"],
            table_rows,
        )
    )
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    with ResultStore(args.store) as store:
        counts = store.gc(drop_failed=args.drop_failed)
    print(
        f"chunks folded: {counts['chunks_folded']}, leases reset: "
        f"{counts['leases_reset']}, failed dropped: {counts['failed_dropped']}"
    )
    return 0


def jobs_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="correctnet-jobs",
        description="Submit, run and inspect store-backed evaluation jobs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    submit = _submit_parser(sub)
    _run_parser(sub)
    _status_parser(sub)
    _gc_parser(sub)
    args = parser.parse_args(argv)
    if args.command == "submit":
        _check_analog_args(submit, args)
    handlers = {
        "submit": _cmd_submit,
        "run": _cmd_run,
        "status": _cmd_status,
        "gc": _cmd_gc,
    }
    return handlers[args.command](args)


def query_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="correctnet-query",
        description="Reconstruct evaluation results from a store file",
    )
    _store_arg(parser)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--sweep", metavar="KEY",
                        help="print the named sweep's curve")
    target.add_argument("--fingerprint", metavar="FP",
                        help="print a single job by full fingerprint")
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)
    with ResultStore(args.store) as store:
        points: List[SweepPoint]
        if args.sweep is not None:
            points = sweep_points(store, args.sweep)
        else:
            point = job_point(store, args.fingerprint)
            if point is None:
                print(f"no job {args.fingerprint!r} in {args.store}",
                      file=sys.stderr)
                return 1
            points = [point]
    if args.as_json:
        print(json.dumps([p.payload() for p in points], indent=2,
                         sort_keys=True))
        return 0
    header, rows = sweep_table(points)
    print(format_table(header, rows))
    return 0
