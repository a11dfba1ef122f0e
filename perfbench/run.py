#!/usr/bin/env python3
"""The CorrectNet benchmark: one workload per process, one JSON line out.

    python3 perfbench/run.py --workload mc-protocol --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 20      # every workload, each in its own process

A run pins BLAS to one thread and the allocator to reusing freed
memory, sets the workload up several times
(``setup_s`` is the median), runs the workload's untimed warm-up rounds,
then runs timed rounds until ``--seconds`` have passed (at least one),
then checks the outputs outside the timed region.
It prints a table of the workload's metrics (median, quartiles, sample
count) and, as its last line, ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
is a separate run that wraps the program's layers and reports the
per-layer metrics plus the tracing overhead. Each run writes its full
record, environment stamp included, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
sys.path.insert(0, str(HERE))


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and the inter-quartile spread as a share of the median."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def _table(rows: List[List[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows)


def _load_digests() -> Dict[str, Any]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        record_digests: bool = False) -> Dict[str, Any]:
    from envstamp import stamp
    from instrument import WRAPPER_CALLS, Instrumentation, layer_metrics
    from spans import Tracer
    from workloads import WORKLOADS, Round

    workload = WORKLOADS[workload_name]
    wrapper_calls_at_start = WRAPPER_CALLS[0]
    env = stamp(ROOT, workload_name, seed, seconds)
    workdir = OUT / "work" / f"{workload_name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    # Set-up, several times: setup_s is the median. Three seconds of it, so
    # a slow spell of the host cannot cover most of a short set-up's samples.
    setup_times: List[float] = []
    while len(setup_times) < 3 or (sum(setup_times) < 3.0 and len(setup_times) < 200):
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)

    rounds: List[Round] = []
    untraced: List[Round] = []
    errors: List[str] = []
    tracer = Tracer(run_id=f"{workload_name}-seed{seed}")
    instr: Optional[Instrumentation] = None
    # Untimed rounds first: the workload's warm-up rounds, which pay the
    # one-time costs (lazy imports, first use of a code path); a traced run
    # always has one, then the reference its one traced round is compared
    # with. Their outputs join the repeated-run check.
    for _ in range(2 if trace else workload.warmup_rounds):
        gc.collect()
        untraced.append(workload.round(state, None))
    if trace:
        instr = Instrumentation(tracer).install()
    start = time.perf_counter()
    try:
        while not rounds or (not trace and time.perf_counter() - start < seconds):
            gc.collect()  # the previous round's garbage is not this round's cost
            rounds.append(workload.round(state, instr))
    except Exception:  # a failing round ends the run; it is reported, not raised
        errors.append(traceback.format_exc())
        failed_round = Round()
        failed_round.fail(f"round-{len(rounds)}", "raised")
        rounds.append(failed_round)
    finally:
        if instr is not None:
            instr.uninstall()
    check_failures = [] if errors else workload.check(state)

    # Output checks: repeated rounds agree, and at the recorded seed (any
    # seed for a pinned workload) the outputs equal the recorded digests,
    # when those were recorded on this BLAS core and thread count (either
    # may change the rounding of a trained checkpoint).
    every = untraced + rounds
    attempted = sum(len(r.ops) for r in every)
    failed = sum(d is None for r in every for d in r.ops.values()) + len(check_failures)
    errors += check_failures
    reference: Dict[str, str] = {}
    for r in every:
        for op, d in r.ops.items():
            if d is None:
                continue
            reference.setdefault(op, d)
            if d != reference[op]:
                failed += 1
                errors.append(f"{op}: output differs between repeated rounds")
    notes: List[str] = []
    recorded = _load_digests().get(workload_name)
    blas = {k: env[k] for k in ("blas_core", "blas_threads")}
    if record_digests:
        book = _load_digests()
        book[workload_name] = {"seed": seed, **blas, "ops": reference}
        DIGESTS.write_text(json.dumps(book, indent=2, sort_keys=True) + "\n")
    elif recorded and (workload.pinned or seed == recorded["seed"]):
        if any(recorded.get(k) != v for k, v in blas.items()):
            notes.append(f"digest check skipped: recorded on BLAS core "
                         f"{recorded['blas_core']} with {recorded.get('blas_threads')} "
                         f"threads, running on {env['blas_core']} with "
                         f"{env['blas_threads']}")
        else:
            for op, want in recorded["ops"].items():
                if reference.get(op) != want:
                    failed += 1
                    errors.append(f"{op}: output differs from the recorded digest")

    wrapper_calls = WRAPPER_CALLS[0] - wrapper_calls_at_start
    if not trace and wrapper_calls:
        errors.append(f"untraced run executed {wrapper_calls} wrapper calls")
        failed += 1

    samples: Dict[str, List[float]] = {
        "setup_s": setup_times,
        "op_s": [r.seconds for r in rounds if r.ops and None not in r.ops.values()],
    }
    for part, _ in workload.parts:
        samples[part] = [r.parts[part] for r in rounds if part in r.parts]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    missing: List[str] = []
    if trace:
        metrics, missing = layer_metrics(tracer, len(rounds), instr.missing_spans)
        reference, traced = untraced[-1].seconds, rounds[0].seconds
        metrics["trace.overhead_s"] = traced - reference
        metrics["trace.overhead_share"] = (traced - reference) / reference
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.dump(str(OUT / "spans" / f"{workload_name}-seed{seed}.jsonl"))
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s": statistics.median(samples["op_s"]) if samples["op_s"] else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
    record = {
        "stamp": env,
        "trace": trace,
        "correct": failed == 0 and not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "peak_rss_mb": peak_rss_mb,
        "rounds": [{"seconds": r.seconds, "parts": r.parts, "ops": r.ops} for r in rounds],
        "untraced_seconds": [r.seconds for r in untraced],
        "missing": missing,
        "missing_targets": instr.missing if instr else [],
        "errors": errors,
        "notes": notes,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def report(record: Dict[str, Any], units: Dict[str, str]) -> str:
    """Human-readable table of one run's record."""
    env = record["stamp"]
    lines = [
        f"# {env['workload']} seed={env['seed']} seconds={env['seconds']} "
        f"cores={env['cpu_count']} blas={env['blas']} {env['blas_version']} "
        f"core={env['blas_core']} threads={env['blas_threads']} "
        f"numpy={env['numpy']} python={env['python']} "
        f"commit={env['git_commit']} src={env['source_digest']}"
    ]
    rows = [["metric", "unit", "n", "median", "q1", "q3", "spread"]]
    for name, values in record["samples"].items():
        if values:
            q = quartiles(values)
            rows.append([name, units.get(name, ""), str(q["n"]), f"{q['median']:.4f}",
                         f"{q['q1']:.4f}", f"{q['q3']:.4f}", f"{100 * q['spread']:.1f}%"])
    rows.append(["peak_rss_mb", "MB", "1", f"{record['peak_rss_mb']:.1f}", "", "", ""])
    rows.append(["ops_attempted", "count", "", str(record["attempted"]), "", "", ""])
    rows.append(["ops_failed", "count", "", str(record["failed"]), "", "", ""])
    lines.append(_table(rows))
    if record["trace"]:
        per_layer = [["layer metric", "value"]] + [
            [k, f"{v:.6g}"] for k, v in record["metrics"].items()
        ]
        lines.append(_table(per_layer))
    for name in record["missing"]:
        lines.append(f"# missing layer metric: {name}")
    for message in record["errors"] + record["notes"]:
        lines.append(f"# {message.rstrip()}")
    return "\n".join(lines)


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process, one after the other."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests as the reference")
    args = parser.parse_args(argv)
    # Before numpy loads: one BLAS thread (the load is one client on one
    # core, so a busy neighbour on a shared host cannot stall a second
    # thread), and an allocator that reuses freed memory (pin_allocator).
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    from envstamp import pin_allocator

    pin_allocator()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return run_all(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.record_digests)
    units = {"setup_s": "s", "op_s": "s", **dict(WORKLOADS[args.workload].parts)}
    print(report(record, units))
    metrics = {}
    if args.trace:
        from instrument import PER_LAYER

        units.update(dict(PER_LAYER))
    else:
        units["peak_rss_mb"] = "MB"
    for name, value in record["metrics"].items():
        metrics[name] = {"value": value, "unit": units.get(name, "")}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
