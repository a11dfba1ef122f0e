"""Serializable evaluation jobs: the payload the store schedules.

A :class:`JobRequest` is everything a runner on *any* machine needs to
reconstruct one Monte-Carlo evaluation: registry names for model and
dataset, the build seed, an optional checkpoint, the variation spec as a
``to_dict`` payload, the sample cap and eval seed, the stopping
tolerance (the rule's draw floor and 95% CLT interval are its
defaults), and optional analog-deployment parameters. The execution
knob ``chunk_samples`` travels with the request but never enters the
fingerprint: it cannot change a result, adaptive ones included, because
the stopping rule looks at its own draw counts whatever the chunking. A
resumed job re-derives its chunks from the stored request (an unset
chunk is the planner's constant default). A chunk below one is rejected
at materialization, so it never reaches the store.

Fingerprint integrity: the fingerprint is computed from the
*materialized* evaluation (weights digest after loading the checkpoint,
dataset digest, resolved spec), not from the request text. The runner
re-materializes and recomputes it before executing, so a checkpoint file
that changed between submit and run fails the job loudly instead of
poisoning the cache under the old fingerprint. The same check covers
requests stored before the CI level and method, the draw floor
(``min_samples``) and the data block (``data_block``) left the request:
:meth:`JobRequest.from_dict` ignores keys it does not read, so they
load, and one whose stopping settings were not the defaults fails at
the re-check instead of running under another fingerprint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.data import DATASET_FACTORIES
from repro.data.dataset import ArrayDataset
from repro.evaluation.plan import build_plan, EvalPlan
from repro.models.registry import build_model
from repro.nn.module import Module
from repro.store.fingerprint import fingerprint_payload
from repro.utils.digest import canonical_json, dataset_digest, weights_digest
from repro.variation.spec import from_dict as spec_from_dict


@dataclass(frozen=True)
class AnalogParams:
    """Crossbar-deployment parameters (part of the *logical* evaluation:
    converter resolutions and read noise change what is computed)."""

    tile_size: int = 128
    dac_bits: Optional[int] = None
    adc_bits: Optional[int] = None
    read_noise: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tile_size": self.tile_size,
            "dac_bits": self.dac_bits,
            "adc_bits": self.adc_bits,
            "read_noise": self.read_noise,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AnalogParams":
        return cls(
            tile_size=int(payload.get("tile_size", 128)),
            dac_bits=(
                None
                if payload.get("dac_bits") is None
                else int(payload["dac_bits"])
            ),
            adc_bits=(
                None
                if payload.get("adc_bits") is None
                else int(payload["adc_bits"])
            ),
            read_noise=float(payload.get("read_noise", 0.0)),
        )


@dataclass(frozen=True)
class JobRequest:
    """One evaluation as a portable payload (see module docstring)."""

    model: str
    dataset: str
    variation: Dict[str, Any]
    n_samples: int
    seed: Union[int, str]
    model_seed: int = 0
    checkpoint: Optional[str] = None
    tolerance: Optional[float] = None
    # Eval dtype: part of the logical result (and so of the fingerprint)
    # — a float32 evaluation is a different cache row than a float64 one.
    dtype: str = "float64"
    analog: Optional[AnalogParams] = None
    # Execution knob: recorded for reproducible scheduling, excluded
    # from the fingerprint.
    chunk_samples: Optional[int] = None
    # Sweep grouping metadata (what correctnet-query reconstructs curves
    # by); never fingerprinted.
    sweep_key: Optional[str] = None
    sweep_param: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "model": self.model,
            "dataset": self.dataset,
            "variation": self.variation,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "model_seed": self.model_seed,
            "checkpoint": self.checkpoint,
            "tolerance": self.tolerance,
            "dtype": self.dtype,
            "analog": None if self.analog is None else self.analog.to_dict(),
            "chunk_samples": self.chunk_samples,
            "sweep_key": self.sweep_key,
            "sweep_param": self.sweep_param,
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobRequest":
        seed = payload["seed"]
        if not isinstance(seed, (int, str)) or isinstance(seed, bool):
            raise ValueError(f"job seed must be int or str, got {seed!r}")
        analog = payload.get("analog")
        return cls(
            model=str(payload["model"]),
            dataset=str(payload["dataset"]),
            variation=dict(payload["variation"]),
            n_samples=int(payload["n_samples"]),
            seed=seed,
            model_seed=int(payload.get("model_seed", 0)),
            checkpoint=payload.get("checkpoint"),
            tolerance=payload.get("tolerance"),
            dtype=str(payload.get("dtype", "float64")),
            analog=None if analog is None else AnalogParams.from_dict(analog),
            chunk_samples=payload.get("chunk_samples"),
            sweep_key=payload.get("sweep_key"),
            sweep_param=payload.get("sweep_param"),
        )


@dataclass(frozen=True)
class Materialized:
    """A request turned back into runnable objects plus its identity."""

    request: JobRequest
    model: Module
    dataset: ArrayDataset
    plan: EvalPlan
    fingerprint: str


_Factory = Callable[[], Tuple[ArrayDataset, ArrayDataset]]

#: A dataset factory's split and the test split's digest, made on first
#: use and kept for the process. Keyed by the factory object, not its
#: registry name, so a factory swapped into ``DATASET_FACTORIES`` gets its
#: own split.
_SPLITS: Dict[_Factory, Tuple[ArrayDataset, ArrayDataset, str]] = {}


def _read_only(dataset: ArrayDataset) -> ArrayDataset:
    """Read-only views of ``dataset``'s arrays: every job that reuses a
    cached split reads the same memory, so none may write to it."""
    images, labels = dataset.images.view(), dataset.labels.view()
    images.flags.writeable = False
    labels.flags.writeable = False
    return ArrayDataset.from_views(images, labels)


def _split(factory: _Factory) -> Tuple[ArrayDataset, ArrayDataset, str]:
    """``factory()``'s (train, test) split, read-only, and ``test``'s digest."""
    cached = _SPLITS.get(factory)
    if cached is None:
        train, test = (_read_only(half) for half in factory())
        cached = _SPLITS[factory] = (train, test, dataset_digest(test))
    return cached


def materialize(request: JobRequest) -> Materialized:
    """Rebuild (model, dataset, plan) from a request and fingerprint it.

    The weights digest is taken *before* any analog conversion — the
    logical model identity is the trained weights plus the deployment
    parameters, not the programmed conductance state (which variation
    draws rewrite anyway). The dataset split and its digest are made once
    per factory (:func:`_split`), with read-only arrays.
    """
    try:
        factory = DATASET_FACTORIES[request.dataset]
    except KeyError:
        raise ValueError(
            f"unknown dataset {request.dataset!r}; choose from "
            f"{sorted(DATASET_FACTORIES)}"
        ) from None
    train, test, test_digest = _split(factory)
    model = build_model(request.model, train, seed=request.model_seed)
    if request.checkpoint is not None:
        model.load(request.checkpoint)
    model.eval()
    model_digest = weights_digest(model)
    analog_payload: Optional[Dict[str, Any]] = None
    if request.analog is not None:
        from repro.hardware import ADC, DAC, analogize

        analog_payload = request.analog.to_dict()
        analogize(
            model,
            tile_size=request.analog.tile_size,
            dac=DAC(request.analog.dac_bits),
            adc=ADC(request.analog.adc_bits),
            read_noise_sigma=request.analog.read_noise,
            seed=request.seed,
        )
    spec = spec_from_dict(request.variation)
    plan = build_plan(
        model,
        spec,
        n_samples=request.n_samples,
        seed=request.seed,
        dtype=request.dtype,
        vectorized=True,  # in-process stacked form; falls back to per-draw
        chunk_samples=request.chunk_samples,
        tolerance=request.tolerance,
    )
    payload = fingerprint_payload(
        plan, model_digest, test_digest, analog_payload
    )
    digest = hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()
    return Materialized(
        request=request,
        model=model,
        dataset=test,
        plan=plan,
        fingerprint=digest,
    )
