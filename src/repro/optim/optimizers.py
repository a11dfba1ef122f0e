"""First-order optimizers.

All optimizers skip frozen parameters (see :class:`repro.nn.Parameter`),
which is how compensation training keeps the Lipschitz-regularized original
weights fixed while the generators/compensators learn.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clip norm (useful for logging RL policy updates, which
    occasionally spike).
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Optimizer:
    """Base class holding the parameter list and per-parameter state."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self._state: Dict[int, Dict[str, np.ndarray]] = {}

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def _active_params(self) -> Iterable[Parameter]:
        for p in self.parameters:
            if p.grad is None or getattr(p, "frozen", False):
                continue
            yield p

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay

    def step(self) -> None:
        # The moments update in place and the update is built in one reused
        # buffer, each element seeing the same operations in the same order
        # as ``lr * m_hat / (sqrt(v_hat) + eps)``. The moments start in the
        # dtype the first step's textbook expression would promote them to.
        # ``p.data`` is rebound, never written: an injector's saved nominal
        # or a caller's snapshot may still hold the old array.
        for p in self._active_params():
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            state = self._state.get(id(p))
            if state is None:
                dtype = np.result_type(p.data, grad)
                state = {
                    "step": np.zeros(()),
                    "m": np.zeros(p.data.shape, dtype=dtype),
                    "v": np.zeros(p.data.shape, dtype=dtype),
                }
                self._state[id(p)] = state
            state["step"] += 1
            t = float(state["step"])
            m, v = state["m"], state["v"]
            scratch = np.multiply(grad, 1 - self.beta1, out=np.empty_like(grad))
            m *= self.beta1
            m += scratch
            np.square(grad, out=scratch)
            scratch *= 1 - self.beta2
            v *= self.beta2
            v += scratch
            update = np.divide(m, 1 - self.beta1**t, out=np.empty_like(m))
            update *= self.lr
            denom = np.divide(v, 1 - self.beta2**t, out=np.empty_like(v))
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            p.data = p.data - update

