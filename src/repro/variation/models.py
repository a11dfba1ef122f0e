"""Stochastic models of programmed-weight deviation.

Every model maps a nominal weight array to a perturbed array given an rng.
The paper's experiments all use :class:`LogNormalVariation`; the others
model alternative RRAM non-idealities for the ablation benches, and all can
be plugged into the same injector, crossbar simulator, trainers and
evaluators.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:
    from repro.variation.spec import VariationLike

#: The array type every engine moves weights around as.
FloatArray = npt.NDArray[np.float64]


def _canonical(value: object) -> object:
    """Order-insensitive hashable form of a model's parameter structure.

    Dict keys stringify (an int index and an equal-looking digit-string
    name may collide in hash — allowed; equality still distinguishes
    them), containers become tuples/frozensets, nested models recurse.
    """
    if isinstance(value, VariationModel):
        return (type(value).__name__, _canonical(value.__dict__))
    if isinstance(value, dict):
        return frozenset((str(k), _canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


class VariationModel:
    """Base class: ``perturb`` maps nominal weights to deviated weights.

    Every model is also the degenerate case of a *variation spec* (see
    ``repro.variation.spec``): it composes with other models via ``|``
    (programming order, left to right), resolves to itself for every layer
    (:meth:`model_for`), and serializes through the spec registry. Plain
    models therefore keep working unchanged everywhere a spec is accepted.
    """

    #: Structural models describe *fixed hardware properties* (e.g. the MLC
    #: bit-width of ``LevelQuantization``) rather than a stochastic effect
    #: strength. Magnitude sweeps over a composed spec hold structural
    #: components fixed — sweeping programming noise must not change the
    #: hardware it runs on — while a standalone ``scaled`` call still
    #: rescales them (a resolution sweep is then explicitly requested).
    structural = False

    def perturb(self, weights: FloatArray, rng: np.random.Generator) -> FloatArray:
        raise NotImplementedError

    def scaled(self, factor: float) -> "VariationModel":
        """Return a copy with the variation magnitude scaled by ``factor``
        (used by sigma sweeps)."""
        raise NotImplementedError

    @property
    def magnitude(self) -> float:
        """Nominal magnitude parameter (sigma or rate) for reporting."""
        raise NotImplementedError

    # -- spec protocol --------------------------------------------------
    def model_for(
        self,
        layer_name: Optional[str] = None,
        layer_index: Optional[int] = None,
        n_layers: Optional[int] = None,
    ) -> "VariationModel":
        """The model applying to one layer. Plain models are layer-uniform;
        ``LayerMap`` overrides this to dispatch per layer."""
        return self

    def __or__(self, other: "VariationLike") -> "VariationModel":
        """``a | b``: apply ``a`` then ``b`` in programming order — returns
        a :class:`repro.variation.spec.Compose`. ``other`` may be a model,
        a spec string or a spec dict."""
        from repro.variation.spec import Compose, parse_spec

        return Compose([self, parse_spec(other)])

    def __ror__(self, other: "VariationLike") -> "VariationModel":
        from repro.variation.spec import Compose, parse_spec

        return Compose([parse_spec(other), self])

    def __eq__(self, other: object) -> bool:
        """Structural equality: same class, same parameters. This is what
        makes serialization round-trips (`to_dict`/`from_dict`) and config
        equality checks meaningful."""
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        # Canonicalized so equal specs hash equal regardless of dict
        # insertion order (LayerMap overrides, nested models).
        return hash((type(self).__name__, _canonical(self.__dict__)))


class NoVariation(VariationModel):
    """Identity model (sigma = 0 column of Table I)."""

    def perturb(self, weights: FloatArray, rng: np.random.Generator) -> FloatArray:
        return weights

    def scaled(self, factor: float) -> "NoVariation":
        return NoVariation()

    @property
    def magnitude(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NoVariation()"


class LogNormalVariation(VariationModel):
    """The paper's model (eq. 1-2): multiplicative log-normal deviation.

    ``w = w_nominal * exp(theta)`` with ``theta ~ N(0, sigma^2)`` i.i.d. per
    weight. Note the multiplier's mean is ``exp(sigma^2 / 2) > 1``, so large
    sigma both spreads and systematically inflates weight magnitudes — one
    reason deep networks collapse quickly (errors compound multiplicatively
    through layers).
    """

    def __init__(self, sigma: float) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.sigma = float(sigma)

    def perturb(self, weights: FloatArray, rng: np.random.Generator) -> FloatArray:
        if self.sigma == 0.0:
            return weights
        # In place on the fresh draw: bitwise ``weights * np.exp(theta)``
        # (float64 for float32 weights too) without two temporaries.
        theta = rng.normal(0.0, self.sigma, size=weights.shape)
        np.exp(theta, out=theta)
        theta *= weights
        return theta

    def multiplier_stats(self) -> Tuple[float, float]:
        """(mean, std) of the log-normal multiplier ``exp(theta)`` in closed
        form — checked against samples by the property tests."""
        s2 = self.sigma**2
        mean = np.exp(s2 / 2.0)
        std = np.sqrt((np.exp(s2) - 1.0) * np.exp(s2))
        return float(mean), float(std)

    def scaled(self, factor: float) -> "LogNormalVariation":
        return LogNormalVariation(self.sigma * factor)

    @property
    def magnitude(self) -> float:
        return self.sigma

    def __repr__(self) -> str:
        return f"LogNormalVariation(sigma={self.sigma})"


class GaussianVariation(VariationModel):
    """Additive Gaussian deviation relative to the per-tensor weight scale.

    ``w = w_nominal + eps``, ``eps ~ N(0, (sigma * max|w|)^2)``. Models
    conductance-step programming error that does not scale with the
    individual weight.
    """

    def __init__(self, sigma: float) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.sigma = float(sigma)

    def perturb(self, weights: FloatArray, rng: np.random.Generator) -> FloatArray:
        if self.sigma == 0.0:
            return weights
        scale = float(np.abs(weights).max())
        if scale == 0.0:
            return weights
        noise = rng.normal(0.0, self.sigma * scale, size=weights.shape)
        noise += weights
        return noise

    def scaled(self, factor: float) -> "GaussianVariation":
        return GaussianVariation(self.sigma * factor)

    @property
    def magnitude(self) -> float:
        return self.sigma

    def __repr__(self) -> str:
        return f"GaussianVariation(sigma={self.sigma})"


class ColumnCorrelatedVariation(VariationModel):
    """Multiplicative log-normal deviation shared per output column.

    One ``theta ~ N(0, sigma^2)`` is drawn per *output unit* (axis 0 of the
    weight array — an output neuron's row of ``(out, in)`` linear weights
    or an ``(F, C, KH, KW)`` conv filter) and every weight feeding that
    unit is scaled by the same ``exp(theta)``. This models effects that
    are correlated along a crossbar's output line rather than i.i.d. per
    cell: a bit-line's shared driver/sense-amp gain error, column-wise
    programming-pulse skew, or per-ADC reference drift.

    On a tiled crossbar the model perturbs each tile's sub-array with the
    tile's own stream, so the correlation holds within a physical tile —
    output lines split across row-tiles see independent draws per tile,
    which is exactly what per-tile peripheral circuits produce.

    Composes and sweeps like any registered spec (``colcorr:<sigma>``):
    ``"lognormal:0.5+colcorr:0.1"`` draws the i.i.d. cell deviation first,
    then the shared column factor, on one paired rng stream — so it rides
    every Monte-Carlo backend, trainer, CLI and the crossbar simulator
    unchanged.
    """

    def __init__(self, sigma: float) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.sigma = float(sigma)

    def perturb(self, weights: FloatArray, rng: np.random.Generator) -> FloatArray:
        if self.sigma == 0.0:
            return weights
        theta = rng.normal(0.0, self.sigma, size=weights.shape[0])
        columns = np.exp(theta).reshape((-1,) + (1,) * (weights.ndim - 1))
        return np.asarray(weights * columns, dtype=np.float64)

    def scaled(self, factor: float) -> "ColumnCorrelatedVariation":
        return ColumnCorrelatedVariation(self.sigma * factor)

    @property
    def magnitude(self) -> float:
        return self.sigma

    def __repr__(self) -> str:
        return f"ColumnCorrelatedVariation(sigma={self.sigma})"


class StateDependentVariation(VariationModel):
    """Variation whose strength grows with the programmed conductance state.

    RRAM cells programmed to higher conductance typically show larger
    absolute fluctuation. We linearly interpolate the effective log-normal
    sigma between ``sigma_low`` (at w = 0) and ``sigma_high`` (at the
    per-tensor max |w|).
    """

    def __init__(self, sigma_low: float, sigma_high: float) -> None:
        if sigma_low < 0 or sigma_high < 0:
            raise ValueError("sigmas must be non-negative")
        self.sigma_low = float(sigma_low)
        self.sigma_high = float(sigma_high)

    def perturb(self, weights: FloatArray, rng: np.random.Generator) -> FloatArray:
        scale = float(np.abs(weights).max())
        if scale == 0.0:
            return weights
        level = np.abs(weights) / scale
        sigma = self.sigma_low + (self.sigma_high - self.sigma_low) * level
        theta = rng.normal(0.0, 1.0, size=weights.shape)
        theta *= sigma
        np.exp(theta, out=theta)
        theta *= weights
        return theta

    def scaled(self, factor: float) -> "StateDependentVariation":
        return StateDependentVariation(
            self.sigma_low * factor, self.sigma_high * factor
        )

    @property
    def magnitude(self) -> float:
        return self.sigma_high

    def __repr__(self) -> str:
        return (
            f"StateDependentVariation(low={self.sigma_low}, high={self.sigma_high})"
        )


class StuckAtFaults(VariationModel):
    """Hard faults: cells stuck at the lowest or highest conductance.

    A fraction ``rate_low`` of weights collapses to 0 (stuck-at-low-G) and
    ``rate_high`` saturates to +/- max|w| preserving sign (stuck-at-high-G).
    """

    def __init__(self, rate_low: float = 0.0, rate_high: float = 0.0) -> None:
        for name, rate in (("rate_low", rate_low), ("rate_high", rate_high)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if rate_low + rate_high > 1.0:
            raise ValueError("total fault rate exceeds 1")
        self.rate_low = float(rate_low)
        self.rate_high = float(rate_high)

    def perturb(self, weights: FloatArray, rng: np.random.Generator) -> FloatArray:
        out = weights.copy()
        u = rng.random(size=weights.shape)
        stuck_low = u < self.rate_low
        stuck_high = (u >= self.rate_low) & (u < self.rate_low + self.rate_high)
        out[stuck_low] = 0.0
        scale = float(np.abs(weights).max())
        out[stuck_high] = np.sign(weights[stuck_high]) * scale
        return out

    def scaled(self, factor: float) -> "StuckAtFaults":
        return StuckAtFaults(
            min(1.0, self.rate_low * factor), min(1.0, self.rate_high * factor)
        )

    @property
    def magnitude(self) -> float:
        return self.rate_low + self.rate_high

    def __repr__(self) -> str:
        return f"StuckAtFaults(low={self.rate_low}, high={self.rate_high})"
