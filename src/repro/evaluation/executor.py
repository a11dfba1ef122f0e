"""Executing an :class:`~repro.evaluation.plan.EvalPlan`.

One driver runs any plan in the plan's form (per-draw loop or stacked
chunks), in-process or from a process pool. What used to distinguish
the six Monte-Carlo engine bodies (plain vs analog, each times three
backends) is now a **model adapter**: the one object that knows how to
apply a draw (or a stacked chunk of draws) to the model and how to
restore the model afterwards.

- :class:`WeightAdapter` — weight-domain models (plain, compensated). A
  draw is :meth:`VariationInjector.applied`; a chunk is ``stack_for`` +
  ``applied_stack`` (sample-stacked parameter arrays). Restoration is
  per-application: the injector puts nominal values back on context exit.
- :class:`AnalogAdapter` — crossbar-deployed models. A draw programs every
  analog layer from the draw's stream (one tile-programming spawn plus,
  when the array models read noise, one read-noise spawn, in traversal
  order); a chunk programs stacked conductance planes via
  ``program_batch``/``seed_read_noise_batch`` on the same streams.
  Restoration is run-scoped: ``preserved_programming`` snapshots the
  deployed chip state around the whole evaluation.

Both adapters consume exactly one logical draw per (sample, target) from
the plan's seed schedule, in the same order — that single fact is the
entire cross-backend bitwise contract, and it is now stated (and tested)
once instead of per engine.

A pool (``plan.n_workers > 1``) hands ``(model, dataset, plan)`` to
each worker once, through the executor initializer, and rebuilds the
adapter there. Under Linux ``fork`` those arguments are inherited, not
copied: workers share the parent's pages. The plan is pure data, so any
start method can ship it. Task payloads carry only one chunk's
``(start, stop)`` span, because workers re-derive their rng streams
from the plan's seed schedule (``spawn_rngs`` is deterministic). Every
worker runs its chunks in the plan's form: the stacked kernels when the
plan is vectorized and has targets to draw, the per-draw reference loop
otherwise (workers do not race). The parent keeps a bounded window of
chunk tasks in flight and lands their results strictly in schedule
order, so ``MCResult.accuracies[i]`` is stream ``i``'s draw in every
form and at every worker count — the property downstream CI
computation relies on.

Eval dtype: a ``dtype="float32"`` plan evaluates a float32 *rounding* of
the model — every parameter and image cast exactly once at run
scope (:func:`_dtype_scope` in-process, permanently on the worker's
private copy in the pool), before the first draw. The injector follows
the parameters' dtype: draws keep being generated in float64 from the
float32 nominal and cast back once (:meth:`VariationInjector._draw`).
Stream consumption depends only on shapes, so the seed schedule is
dtype-invariant and the bitwise pairing contract holds *per dtype*
across every form and worker count.

Chunk landing and sequential (adaptive) stopping: every backend
evaluates chunk by chunk and lands each chunk through
:meth:`IncrementalEvaluation.land_chunk` — append the draws, cut the
chunk at the first look of the plan's ``stopping`` rule that the prefix
satisfies (:data:`~repro.evaluation.sequential.LOOK_EVERY`), then stream
the kept draws through ``on_chunk`` — in seed-schedule order. The
in-process backends land the chunks they evaluate; the pool lands its
workers' chunks and discards any still in flight when the rule fires. A
fixed-S run is a run whose rule never fires. The looks belong to the
rule, not to the chunking, so the stop point is engine- and
chunk-invariant and an adaptive run's draws are a bitwise prefix of the
fixed-S run on the same seed. A sweep is one :func:`execute` per point,
so every point runs in its plan's form and workers.

The race: neither in-process form is fastest on every model, and a
chunk's accuracies are identical in either, so an in-process vectorized
evaluation given an injected :data:`Clock` times its own chunks instead
of a probe. The first chunk it runs goes per-draw, the second stacked;
the form with the lower seconds per draw runs every later chunk. The
per-draw form goes first, so it also pays the run's first-touch costs.
The race starts only when at least three chunks remain, so the decision
always has a chunk to pay for. It never touches the plan, the chunk
bounds or the stopping rule, so a raced run returns the clockless run's
draws bitwise, including where an adaptive rule stops it. The front
ends (``correctnet-eval``, ``correctnet-search`` and
``repro.core.config.make_evaluator``) always inject a clock; library
callers opt in by passing ``clock=``. Without one nothing is timed: the
engine never reads wall time itself (reprolint DET001).
"""

from __future__ import annotations

import contextlib
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.evaluation.metrics import accuracy
from repro.evaluation.plan import EvalPlan, LOOP_BATCH
from repro.evaluation.vectorized import stacked_accuracies
from repro.hardware.analog_layers import (
    analog_layers,
    preserved_programming,
)
from repro.nn.module import Module, Parameter
from repro.utils.logging import get_logger
from repro.variation.injector import VariationInjector
from repro.variation.models import VariationModel

if TYPE_CHECKING:
    from repro.evaluation.montecarlo import MCResult

logger = get_logger("evaluation.executor")

#: Injected time source: a monotonic seconds counter (``time.perf_counter``
#: in the front ends). The engine reads wall time only through one.
Clock = Callable[[], float]

#: The race's running order: the first timed chunk runs per-draw, the
#: second stacked.
RACE_FORMS = ("per-draw", "stacked")


# ---------------------------------------------------------------------------
# Model adapters
# ---------------------------------------------------------------------------
class WeightAdapter:
    """Apply draws by perturbing ``Parameter.data`` through the injector."""

    def __init__(self, model: Module, variation: VariationModel) -> None:
        self.model = model
        self.injector = VariationInjector(model, variation)

    @property
    def has_targets(self) -> bool:
        """False when nothing is subject to variation (every layer resolves
        to ``none``): every draw then sees nominal weights."""
        return bool(self.injector.target_parameters())

    def run_context(self) -> ContextManager[None]:
        """Weight restoration is per-application, so nothing run-scoped."""
        return contextlib.nullcontext()

    def apply_draw(self, rng: np.random.Generator) -> ContextManager[object]:
        return self.injector.applied(rng)

    @contextlib.contextmanager
    def apply_chunk(self, rngs: Sequence[np.random.Generator]) -> Iterator[None]:
        with self.injector.applied_stack(self.injector.stack_for(rngs)):
            yield


class AnalogAdapter:
    """Apply draws by (re)programming the crossbar arrays.

    Per-layer spec resolution mirrors ``analogize``: the layer's qualified
    name and its position among the analog layers (the weighted-layer
    index of the pre-conversion model when the whole model was converted)
    feed ``variation.model_for``, so ``LayerMap`` scenarios target the
    same layers in the analog and weight-domain protocols. Layers whose
    arrays model no read noise skip the read-seeding spawn — consistently,
    keeping per-stream consumption identical in every backend.
    """

    def __init__(self, model: Module, variation: VariationModel) -> None:
        self.model = model
        layers = analog_layers(model)
        self.resolved = [
            (
                layer,
                variation.model_for(name, index, len(layers)),
                layer.models_read_noise,
            )
            for index, (name, layer) in enumerate(layers)
        ]

    has_targets = True  # an analog model always has arrays to program

    def run_context(self) -> ContextManager[object]:
        """Snapshot the deployed chip state around the whole run."""
        return preserved_programming(self.model)

    @contextlib.contextmanager
    def apply_draw(self, rng: np.random.Generator) -> Iterator[None]:
        for layer, spec, seeds_read in self.resolved:
            layer.program(spec, rng)
            if seeds_read:
                layer.seed_read_noise(rng)
        yield

    @contextlib.contextmanager
    def apply_chunk(self, rngs: Sequence[np.random.Generator]) -> Iterator[None]:
        for layer, spec, seeds_read in self.resolved:
            layer.program_batch(spec, rngs)
            if seeds_read:
                layer.seed_read_noise_batch(rngs)
        yield


#: What the backends program against: the one seam between "how a draw is
#: applied" and "how draws are scheduled".
ModelAdapter = Union[WeightAdapter, AnalogAdapter]


def make_adapter(model: Module, plan: EvalPlan) -> ModelAdapter:
    """The adapter matching the plan's domain, bound to ``model``."""
    if plan.domain == "analog":
        return AnalogAdapter(model, plan.variation)
    return WeightAdapter(model, plan.variation)


# ---------------------------------------------------------------------------
# Eval dtype
# ---------------------------------------------------------------------------
def _cast_model(model: Module, dtype: str) -> List[Tuple[Parameter, np.ndarray]]:
    """Cast every parameter of ``model`` to ``dtype``, once.

    Goes around the float64 coercion in ``Parameter.__init__`` by
    assigning ``data`` directly (the registration plumbing stays intact —
    only the array contents change dtype). Returns the restore list
    :func:`_dtype_scope` unwinds; pool workers discard it (the cast is
    permanent on their private copy). A shared parameter is cast exactly
    once.
    """
    saved: List[Tuple[Parameter, np.ndarray]] = []
    seen: set[int] = set()
    for param in model.parameters():
        if id(param) in seen:
            continue
        seen.add(id(param))
        saved.append((param, param.data))
        param.data = param.data.astype(dtype)
    return saved


@contextlib.contextmanager
def _dtype_scope(model: Module, dtype: str) -> Iterator[None]:
    """Run scope of the eval dtype policy: cast the model once, restore on
    exit (in reverse). ``float64`` is a no-op (the model already is)."""
    if dtype == "float64":
        yield
        return
    saved = _cast_model(model, dtype)
    try:
        yield
    finally:
        for param, data in reversed(saved):
            param.data = data


def _cast_dataset(dataset: ArrayDataset, dtype: str) -> ArrayDataset:
    """The dataset in the eval dtype — a cast copy of the images when the
    policy asks for one, the dataset itself otherwise (labels are class
    indices, never cast)."""
    if dtype == "float64" or dataset.images.dtype == np.dtype(dtype):
        return dataset
    return ArrayDataset.from_views(dataset.images.astype(dtype), dataset.labels)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------
def _loop_accuracies(
    model: Module,
    dataset: ArrayDataset,
    adapter: ModelAdapter,
    plan: EvalPlan,
    rngs: Sequence[np.random.Generator],
) -> List[float]:
    """Reference execution: one full forward sweep per draw."""
    accs: List[float] = []
    for rng in rngs:
        with adapter.apply_draw(rng):
            accs.append(accuracy(model, dataset, plan.loop_batch))
    return accs


def _stacked_accuracies(
    model: Module,
    dataset: ArrayDataset,
    adapter: ModelAdapter,
    plan: EvalPlan,
    rngs: Sequence[np.random.Generator],
) -> List[float]:
    """Stacked execution of ``rngs`` in ``chunk_samples``-sized chunks.

    Chunks are slices of the caller's stream list, so pairing — and the
    bitwise equality of chunked and unchunked runs — is structural: draw
    ``i`` consumes stream ``i`` no matter where chunk boundaries fall.
    """
    accs: List[float] = []
    for start in range(0, len(rngs), plan.chunk_samples):
        chunk = rngs[start : start + plan.chunk_samples]
        with adapter.apply_chunk(chunk):
            stacked = stacked_accuracies(model, dataset, len(chunk), plan.data_block)
        accs.extend(float(a) for a in stacked)
    return accs


# ---------------------------------------------------------------------------
# Results and incremental evaluation
# ---------------------------------------------------------------------------
def _result(plan: EvalPlan, accuracies: List[float]) -> "MCResult":
    """Wrap raw per-draw accuracies in an ``MCResult`` for this plan.

    ``stopped_early`` is structural: fewer draws than the cap means the
    rule cut the schedule short. Deterministic plans report their single
    nominal draw without the flag.
    """
    from repro.evaluation.montecarlo import MCResult

    return MCResult(
        accuracies,
        stopped_early=not plan.deterministic and len(accuracies) < plan.n_samples,
    )


#: Per-chunk emit hook: called with ``(chunk_index, start, stop, chunk_accs)``
#: once a chunk's draws land, in schedule order on every backend. ``stop``
#: is the chunk's end, or the look where the stopping rule cut it. The
#: result-store runner persists chunks through this seam; anything else
#: that wants streaming progress (progress bars, live dashboards) can too.
ChunkHook = Callable[[int, int, int, Sequence[float]], None]


class IncrementalEvaluation:
    """Resumable chunk-by-chunk execution of one plan.

    The unit of sequential evaluation: holds the plan's seed schedule and
    chunk bounds, evaluates one chunk per :meth:`run_chunk` call
    in-process (stacked when the plan is vectorized, per-draw otherwise,
    whatever its ``n_workers``), and lands every chunk through
    :meth:`land_chunk`, which cuts it at the stopping rule's first
    satisfied look; a pool lands its workers' chunks through the same
    step. :meth:`run_chunk` returns the draws it kept, so a caller can
    count the draws one chunk at a time.

    ``on_chunk`` is the per-chunk emit hook (see :data:`ChunkHook`);
    :meth:`resume` replays a previously-emitted prefix so an interrupted
    evaluation continues exactly where it stopped — because chunk content
    is a pure function of (plan, seed schedule), the resumed run is
    bitwise-identical to an uninterrupted one, including where an adaptive
    rule would have stopped it.

    ``clock`` turns on the race (module docstring) for a vectorized plan
    with targets to draw; :attr:`race` then holds each timed form's
    seconds per draw and :attr:`winner` the form that runs from the third
    chunk on. Other plans never call the clock.

    Use as a context manager: entry opens the adapter's run context
    (weight restoration / analog chip-state snapshot), exit restores it.
    """

    def __init__(
        self,
        plan: EvalPlan,
        model: Module,
        dataset: ArrayDataset,
        on_chunk: Optional[ChunkHook] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.plan = plan
        self.model = model
        self.dataset = _cast_dataset(dataset, plan.dtype)
        self.on_chunk = on_chunk
        self.clock = clock
        self.race: Dict[str, float] = {}
        self.winner: Optional[str] = None
        self.accuracies: List[float] = []
        self.adapter: ModelAdapter = make_adapter(model, plan)
        if plan.deterministic:
            # One nominal draw is the entire schedule.
            self._bounds: Sequence[Tuple[int, int]] = ((0, 1),)
            self._rngs: List[np.random.Generator] = []
        else:
            self._bounds = plan.chunks()
            self._rngs = list(plan.draw_rngs())
        self._next = 0
        self._stopped = False
        self._nominal: Optional[float] = None
        self._ctx: Optional[ContextManager[object]] = None

    @property
    def done(self) -> bool:
        """True once the rule fired or the seed schedule is exhausted."""
        return self._stopped or self._next >= len(self._bounds)

    def resume(self, prefix: Sequence[float]) -> None:
        """Install a previously-evaluated draw prefix and skip its chunks.

        ``prefix`` must be the accuracies an earlier run of the *same*
        plan emitted through ``on_chunk``: whole chunks, except that the
        last may end early at the look where the rule stopped the run.
        Each stored chunk is replayed through :meth:`land_chunk`, so the
        rule sees the looks the original run saw. A prefix that reaches
        the stop point marks the evaluation done; one that runs past the
        stop point or the schedule is rejected as corrupt rather than
        silently truncated, and so is a short last chunk that does not
        end at a satisfied look. Must be called before any
        :meth:`run_chunk`.
        """
        if self._next or self.accuracies:
            raise RuntimeError("resume() must precede any run_chunk()")
        while len(self.accuracies) < len(prefix):
            if self.done:
                raise ValueError(
                    f"stored prefix of {len(prefix)} draws extends past "
                    "the plan's schedule or its stop point"
                )
            index = self._next
            start, stop = self._bounds[index]
            row = [float(a) for a in prefix[start:stop]]
            self.land_chunk(row, emit=False)
            if len(row) < stop - start and not self._stopped:
                raise ValueError(
                    f"stored prefix of {len(prefix)} draws is not aligned "
                    f"to the plan's chunk schedule (chunk {index} covers "
                    f"draws [{start}, {stop}) and the rule does not stop "
                    f"at draw {len(prefix)})"
                )

    def __enter__(self) -> "IncrementalEvaluation":
        stack = contextlib.ExitStack()
        stack.enter_context(_dtype_scope(self.model, self.plan.dtype))
        stack.enter_context(self.adapter.run_context())
        self._ctx = stack
        return self

    def __exit__(self, *exc: object) -> None:
        ctx, self._ctx = self._ctx, None
        if ctx is not None:
            ctx.__exit__(None, None, None)

    def run_chunk(self) -> int:
        """Evaluate and land the next chunk; returns the draws it kept.

        A no-op returning 0 when :attr:`done`.
        """
        if self.done:
            return 0
        start, stop = self._bounds[self._next]
        if self.plan.deterministic:
            accs = [accuracy(self.model, self.dataset, LOOP_BATCH)]
        elif self.plan.backend == "vectorized" and not self.adapter.has_targets:
            # No target parameters (every layer resolves to none): every
            # sample sees nominal weights, matching what the loop measures.
            if self._nominal is None:
                self._nominal = accuracy(self.model, self.dataset, LOOP_BATCH)
            accs = [self._nominal] * (stop - start)
        else:
            form, clock = self._next_form()
            run = _stacked_accuracies if form == "stacked" else _loop_accuracies
            began = clock() if clock is not None else 0.0
            accs = run(
                self.model, self.dataset, self.adapter, self.plan,
                self._rngs[start:stop],
            )
            if clock is not None:
                self._time(form, (clock() - began) / (stop - start))
        return self.land_chunk(accs)

    def _next_form(self) -> Tuple[str, Optional[Clock]]:
        """The next chunk's form, and the clock to time it with when it is
        one of the race's two timed chunks (``None`` otherwise).

        The race needs a clock and a vectorized plan (in-process, with
        targets to draw); it starts only with at least three chunks left,
        so the decision always has a chunk to pay for.
        """
        if self.plan.backend != "vectorized":
            return "per-draw", None
        if self.winner is not None:
            return self.winner, None
        if self.clock is None or (
            not self.race and len(self._bounds) - self._next < 3
        ):
            return "stacked", None
        return RACE_FORMS[len(self.race)], self.clock

    def _time(self, form: str, seconds_per_draw: float) -> None:
        """Record a timed chunk; the second one decides the race."""
        self.race[form] = seconds_per_draw
        if len(self.race) < len(RACE_FORMS):
            return
        self.winner = min(RACE_FORMS, key=lambda name: self.race[name])
        logger.info(
            "race: %s; later chunks run %s (%d left in the schedule)",
            ", ".join(
                f"{name} {1e3 * self.race[name]:.3g} ms/draw"
                for name in RACE_FORMS
            ),
            self.winner,
            len(self._bounds) - self._next - 1,
        )

    def land_chunk(self, accs: Sequence[float], emit: bool = True) -> int:
        """Land the next chunk's draws; returns how many were kept.

        Appends ``accs``, cuts them at the plan's stopping rule's first
        satisfied look inside the chunk (the run then stops there), and
        streams the kept draws through ``on_chunk`` (unless ``emit`` is
        off, as when :meth:`resume` replays a stored prefix). Every backend
        takes this one step — :meth:`run_chunk` for in-process chunks, the
        pool for its workers' chunks in schedule order — and the looks are
        the rule's, so the stop draw count is engine- and chunk-invariant.
        """
        index = self._next
        start = self._bounds[index][0]
        self._next += 1
        self.accuracies.extend(accs)
        rule = self.plan.stopping
        look = None if rule is None else rule.stop_point(self.accuracies, start)
        if look is not None:
            del self.accuracies[look:]
            self._stopped = True
        if emit and self.on_chunk is not None:
            self.on_chunk(
                index, start, len(self.accuracies), self.accuracies[start:]
            )
        return len(self.accuracies) - start

    def result(self) -> "MCResult":
        """The draws evaluated so far, wrapped for this plan."""
        return _result(self.plan, self.accuracies)


# ---------------------------------------------------------------------------
# Pool
# ---------------------------------------------------------------------------
#: Per-worker state installed by :func:`_pool_init`. The initializer runs
#: once per worker process, so the model and dataset reach a worker once
#: instead of with every task.
_POOL_STATE: Dict[str, Any] = {}


def _pool_init(model: Module, dataset: ArrayDataset, plan: EvalPlan) -> None:
    """Worker initializer: cast to the eval dtype and rebuild the adapter.

    ``(model, dataset, plan)`` travel together — inherited under ``fork``,
    one pickle under other start methods. The dataset arrives already in
    the eval dtype; the model cast is permanent on this worker's private
    copy. Analog adapters resolve their per-layer specs here, against
    this worker's copy of the module tree.
    """
    if plan.dtype != "float64":
        _cast_model(model, plan.dtype)
    _POOL_STATE.update(
        model=model,
        dataset=dataset,
        plan=plan,
        adapter=make_adapter(model, plan),
        # Workers re-derive rng streams from the plan instead of receiving
        # them in task payloads: spawn_rngs is deterministic, so stream i
        # here is bitwise stream i everywhere.
        rngs=plan.draw_rngs(),
    )


def _pool_chunk(start: int, stop: int) -> List[float]:
    """Evaluate the draws of chunk ``[start, stop)`` in a worker.

    The task payload is just the span. Runs the plan's form — the
    stacked kernels when the plan is vectorized and has targets, else the
    per-draw reference loop; either way draw ``i`` is stream ``i``'s,
    bitwise.
    """
    model = cast(Module, _POOL_STATE["model"])
    dataset = cast(ArrayDataset, _POOL_STATE["dataset"])
    plan = cast(EvalPlan, _POOL_STATE["plan"])
    adapter = cast(ModelAdapter, _POOL_STATE["adapter"])
    rngs = cast(List[np.random.Generator], _POOL_STATE["rngs"])[start:stop]
    stacked = plan.backend == "vectorized" and adapter.has_targets
    run = _stacked_accuracies if stacked else _loop_accuracies
    with adapter.run_context():
        return run(model, dataset, adapter, plan, rngs)


def _run_pool(evaluation: IncrementalEvaluation) -> None:
    """Land every chunk of ``evaluation``'s plan from worker processes.

    Up to two chunk tasks per worker are kept in flight, so no worker
    idles while the parent lands a result. Results are consumed strictly
    in schedule order through :meth:`IncrementalEvaluation.land_chunk`:
    completion order never reaches the result, and the stopping rule sees
    the same prefixes as in-process runs. Once the evaluation is done (or
    anything raises — a killed worker surfaces as ``BrokenProcessPool``),
    queued chunks are cancelled and the pool is shut down; chunks already
    running are discarded.
    """
    plan = evaluation.plan
    bounds = plan.chunks()
    window: Deque[Future[List[float]]] = deque()
    submitted = 0
    pool = ProcessPoolExecutor(
        max_workers=plan.n_workers,
        initializer=_pool_init,
        initargs=(evaluation.model, evaluation.dataset, plan),
    )
    try:
        while not evaluation.done:
            while submitted < len(bounds) and len(window) < 2 * plan.n_workers:
                window.append(pool.submit(_pool_chunk, *bounds[submitted]))
                submitted += 1
            evaluation.land_chunk(window.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def execute(
    plan: EvalPlan,
    model: Module,
    dataset: ArrayDataset,
    clock: Optional[Clock] = None,
) -> "MCResult":
    """Run ``plan`` against ``model``/``dataset``; returns an ``MCResult``.

    The model must be in the mode the plan was built against (the
    evaluator forces eval mode around both calls). Deterministic plans —
    no variation to sample, no read noise — run as a one-draw schedule: a
    single nominal evaluation. Plans carrying a stopping rule run
    chunk-by-chunk and may halt before the ``n_samples`` cap
    (``MCResult.stopped_early``).

    A plan with ``n_workers > 1`` runs its chunks from a process pool.
    ``clock`` races the two forms on an in-process vectorized plan's own
    chunks (module docstring); the result is the clockless run's, bitwise.
    A caller that streams each chunk as it lands (the result store's
    runner) drives :class:`IncrementalEvaluation` with ``on_chunk``.
    """
    evaluation = IncrementalEvaluation(plan, model, dataset, clock=clock)
    if plan.n_workers > 1 and not plan.deterministic:
        _run_pool(evaluation)
        return evaluation.result()
    with evaluation:
        while not evaluation.done:
            evaluation.run_chunk()
    return evaluation.result()
