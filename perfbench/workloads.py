"""The three workloads: set-up, one timed round, and output checks.

Inputs come from the workload seed only where that leaves the amount of
work unchanged. ``mc-protocol`` derives everything from it: the
synthetic dataset, model initialisation, trained checkpoints and
Monte-Carlo seed; its work is fixed by S. The other two pin all their
inputs to :data:`PINNED_SEED`, because their work depends on the
inputs: the RL search trains a seed-dependent number of distinct plans
(one pipeline took 11-21 s over seeds 1-6 on a 2-core box), and
adaptive jobs stop at seed-dependent draw counts (608-704 draws over
Monte-Carlo seeds 1-6).

The program is driven only through its public entry points:
``CorrectNet(...).run()``, ``MonteCarloEvaluator(...).evaluate`` and the
store's ``materialize`` / ``ResultStore`` / ``drain`` / query functions.

An operation (the unit counted in ``attempted``/``failed``) is a pipeline
run, a Monte-Carlo leg, or a store job (each submission and each
resubmission of the grid). One call of :meth:`Workload.round` runs one
round: a pipeline run, the three legs, or one cycle of the job grid.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

SIGMA = 0.5
#: synth_mnist's own default seed; workload seed 0 reproduces the CLI data.
DATA_SEED_BASE = 11
#: The seed of the inputs that pinned workloads use whatever ``--seed`` is.
PINNED_SEED = 0


def digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class Round:
    """One timed round: its wall-clock, named sub-measurements, and each
    operation it ran, mapped to its output digest (None: the op failed)."""

    seconds: float = 0.0
    parts: Dict[str, float] = field(default_factory=dict)
    ops: Dict[str, Optional[str]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def fail(self, op: str, message: str) -> None:
        self.ops[op] = None
        self.errors.append(f"{op}: {message}")


def _span(instr: Any, name: str):
    """A benchmark-level span when tracing, nothing otherwise."""
    if instr is None:
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def scope():
        index = instr.tracer.begin(name)
        try:
            yield
        finally:
            instr.tracer.end(index)

    return scope()


def data_factory(seed: int):
    """The workload's synth-MNIST split factory (320 eval images)."""
    from repro.data import synth_mnist

    return functools.partial(synth_mnist, seed=DATA_SEED_BASE + seed)


#: Checkpoint training epochs per model in set-up.
CHECKPOINT_EPOCHS = {"lenet5": 2, "attnmlp": 3, "resnet8": 1}


def _train_checkpoint(name: str, train, seed: int, path: Path) -> None:
    """What ``correctnet-train --sigma 0.5`` does: Lipschitz-regularized
    Adam training, saved as a checkpoint."""
    from repro.core.training import Trainer
    from repro.lipschitz.bounds import lambda_bound
    from repro.lipschitz.regularizer import OrthogonalityRegularizer
    from repro.models.registry import build_model
    from repro.optim.optimizers import Adam

    model = build_model(name, train, seed=seed)
    trainer = Trainer(
        model,
        Adam(list(model.parameters()), lr=3e-3),
        regularizer=OrthogonalityRegularizer(lambda_bound(SIGMA), beta=1e-3),
        grad_clip=5.0,
        seed=seed,
    )
    trainer.fit(train, epochs=CHECKPOINT_EPOCHS[name], batch_size=32)
    model.save(str(path))


def _load(name: str, train, seed: int, path: Path):
    from repro.models.registry import build_model

    model = build_model(name, train, seed=seed)
    model.load(str(path))
    return model


class Workload:
    name = ""
    why = ""
    #: True when the outputs do not depend on ``--seed`` (pinned inputs),
    #: so the recorded digests apply at every seed.
    pinned = False
    #: Untimed rounds before the timed ones in an untraced run. A round
    #: longer than a few seconds gets none: it would double the run.
    warmup_rounds = 0
    #: (name, unit) of the sub-measurements each round reports.
    parts: List[Tuple[str, str]] = []

    def setup(self, seed: int, workdir: Path) -> Any:
        raise NotImplementedError

    def round(self, state: Any, instr: Any) -> Round:
        raise NotImplementedError

    def check(self, state: Any) -> List[str]:
        """Output checks run outside the timed region; failure messages."""
        return []


class PipelineLenet5(Workload):
    name = "pipeline-lenet5"
    why = "one fast-config CorrectNet.run() on LeNet5: training-bound (fits, RL steps)"
    pinned = True  # so every run's Table-I row is checked against the recorded one
    parts = [("pipeline_s", "s")]

    def setup(self, seed: int, workdir: Path) -> Any:
        train, test = data_factory(PINNED_SEED)()
        return {"seed": PINNED_SEED, "train": train, "test": test}

    def config(self, seed: int) -> Any:
        """``correctnet-search --model lenet5``'s configuration."""
        from repro.core.config import fast_pipeline_config
        from repro.variation.models import LogNormalVariation

        variation = LogNormalVariation(SIGMA)
        return fast_pipeline_config(sigma=SIGMA, seed=seed, variation=variation)

    def round(self, state: Any, instr: Any) -> Round:
        from repro.core.pipeline import CorrectNet
        from repro.models.registry import build_model

        seed = state["seed"]
        config = self.config(seed)
        model = build_model("lenet5", state["train"], seed=seed)
        if instr is not None:
            instr.register_model("lenet5", model)
        t0 = time.perf_counter()
        result = CorrectNet(model, state["train"], state["test"], config).run()
        seconds = time.perf_counter() - t0
        row = result.summary_row()
        out = Round(seconds, {"pipeline_s": seconds}, {"pipeline": digest(row)})
        if not (0.0 <= row[2] <= 100.0 and row[3] >= 0.0):
            out.fail("pipeline", f"implausible Table-I row {row}")
        return out


@dataclass(frozen=True)
class Leg:
    model: str
    samples: int
    chunk: Optional[int]  # None: the evaluator's default chunk, as the CLI


class MCProtocol(Workload):
    name = "mc-protocol"
    why = "fixed-S Monte-Carlo at sigma 0.5 on trained checkpoints: forward kernels only"
    # A round of about 3 s, so a run's median is over several rounds: the
    # host's speed drifts by 10-20% over tens of seconds.
    legs = [
        Leg("lenet5", 64, None),
        Leg("attnmlp", 32, None),
        # At the default chunk of 16 one resnet8 chunk peaks near 4.7 GB.
        Leg("resnet8", 8, 4),
    ]
    warmup_rounds = 1
    parts = [(f"mc_{leg.model}_draws_per_s", "1/s") for leg in legs]

    def setup(self, seed: int, workdir: Path) -> Any:
        train, test = data_factory(seed)()
        models = {}
        for leg in self.legs:
            path = workdir / f"{leg.model}.npz"
            _train_checkpoint(leg.model, train, seed, path)
            models[leg.model] = _load(leg.model, train, seed, path)
        return {"seed": seed, "test": test, "models": models}

    def _evaluator(self, state: Any, leg: Leg, vectorized: bool = True, samples: int = 0):
        from repro.evaluation.montecarlo import MonteCarloEvaluator

        # correctnet-eval's settings: the vectorized backend, default chunk.
        kwargs = {} if leg.chunk is None else {"chunk_samples": leg.chunk}
        return MonteCarloEvaluator(
            state["test"], n_samples=samples or leg.samples, seed=state["seed"],
            vectorized=vectorized, **kwargs,
        )

    def round(self, state: Any, instr: Any) -> Round:
        from repro.variation.models import LogNormalVariation

        if instr is not None:
            for name, model in state["models"].items():
                instr.register_model(name, model)
        out = Round()
        accuracies = {}
        for leg in self.legs:
            evaluator = self._evaluator(state, leg)
            t0 = time.perf_counter()
            with _span(instr, f"mc.{leg.model}"):
                result = evaluator.evaluate(state["models"][leg.model], LogNormalVariation(SIGMA))
            seconds = time.perf_counter() - t0
            out.seconds += seconds
            out.parts[f"mc_{leg.model}_draws_per_s"] = leg.samples / seconds
            accuracies[leg.model] = list(result.accuracies)
            out.ops[leg.model] = digest(accuracies[leg.model])
            if len(result.accuracies) != leg.samples:
                out.fail(leg.model, f"{len(result.accuracies)} draws, want {leg.samples}")
        state["accuracies"] = accuracies
        return out

    def check(self, state: Any) -> List[str]:
        """The first chunk of each leg equals the loop backend's draws."""
        from repro.variation.models import LogNormalVariation

        failures = []
        variation = LogNormalVariation(SIGMA)
        for leg in self.legs:
            model = state["models"][leg.model]
            model.eval()
            chunk = self._evaluator(state, leg).plan(model, variation).chunk_samples
            loop = self._evaluator(state, leg, vectorized=False, samples=chunk)
            reference = list(loop.evaluate(model, variation).accuracies)
            if reference != state["accuracies"][leg.model][:chunk]:
                failures.append(f"{leg.model}: first chunk differs from the loop backend")
        return failures


class JobService(Workload):
    name = "job-service"
    why = "sqlite job store: adaptive + analog jobs drained by one runner, then cache-hit resubmits"
    parts = [("sweep_s", "s"), ("resubmit_s", "s")]
    pinned = True
    sigmas = [0.1, 0.2, 0.3, 0.4, 0.5]
    cap = 96  # draws an adaptive job may use at most
    analog_sigmas = [0.2, 0.5]
    analog_samples = 24

    def setup(self, seed: int, workdir: Path) -> Any:
        train, _ = data_factory(PINNED_SEED)()
        checkpoint = workdir / "lenet5.npz"
        _train_checkpoint("lenet5", train, PINNED_SEED, checkpoint)
        # Jobs name their dataset in the registry: PINNED_SEED's split.
        return {"seed": PINNED_SEED, "dataset": "synth_mnist", "checkpoint": str(checkpoint),
                "workdir": workdir}

    def requests(self, state: Any) -> List[Any]:
        from repro.store.jobs import AnalogParams, JobRequest
        from repro.variation.spec import parse_spec, to_dict

        common = dict(model="lenet5", dataset=state["dataset"], seed=state["seed"],
                      model_seed=PINNED_SEED, checkpoint=state["checkpoint"])
        out = []
        for suffix in ("", "+quant:4"):
            for sigma in self.sigmas:
                out.append(JobRequest(
                    variation=to_dict(parse_spec(f"lognormal:{sigma}{suffix}")),
                    n_samples=self.cap, tolerance=0.02,
                    sweep_key=f"lognormal{suffix}", sweep_param=sigma, **common,
                ))
        for sigma in self.analog_sigmas:
            out.append(JobRequest(
                variation=to_dict(parse_spec(f"lognormal:{sigma}")),
                n_samples=self.analog_samples,
                analog=AnalogParams(adc_bits=8, read_noise=0.02),
                sweep_key="analog", sweep_param=sigma, **common,
            ))
        return out

    def _submit_all(self, store: Any, requests: List[Any]) -> List[Any]:
        from repro.store import materialize

        outcomes = []
        for request in requests:
            m = materialize(request)
            outcomes.append(store.submit(
                m.fingerprint, m.request.to_dict(),
                sweep_key=request.sweep_key, sweep_param=request.sweep_param,
            ))
        return outcomes

    def round(self, state: Any, instr: Any) -> Round:
        from repro.store import ResultStore, drain, sweep_points

        requests = self.requests(state)
        # A fresh store each round, so every job runs and every resubmit hits.
        store_path = Path(tempfile.mkdtemp(dir=state["workdir"])) / "jobs.sqlite"
        out = Round()
        with ResultStore(str(store_path)) as store:
            t0 = time.perf_counter()
            submitted = self._submit_all(store, requests)
            stats = drain(store, owner="perfbench-runner")
            t1 = time.perf_counter()
            resubmitted = self._submit_all(store, requests)
            again = drain(store, owner="perfbench-runner")
            points = [p for key in sorted({r.sweep_key for r in requests})
                      for p in sweep_points(store, key)]
            t2 = time.perf_counter()
        out.seconds = t2 - t0
        out.parts = {"sweep_s": t1 - t0, "resubmit_s": t2 - t1}
        status = {o.fingerprint: o.status for o in stats.outcomes}
        results = {p.fingerprint: p.result for p in points}
        for request, first, second in zip(requests, submitted, resubmitted):
            label = f"{request.sweep_key}@{request.sweep_param}"
            result = results.get(first.fingerprint)
            if status.get(first.fingerprint) != "done" or result is None:
                out.fail(f"job:{label}", f"ended {status.get(first.fingerprint)}")
            else:
                out.ops[f"job:{label}"] = digest(result.to_dict())
            if second.cache_hit and not again.chunks_run:
                out.ops[f"resubmit:{label}"] = digest(second.fingerprint)
            else:
                out.fail(f"resubmit:{label}", f"not a zero-work cache hit ({second.state}, "
                         f"{again.chunks_run} chunks run after resubmit)")
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PipelineLenet5(), MCProtocol(), JobService())
}
