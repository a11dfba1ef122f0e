"""The recurrent policy network.

The paper uses an RNN policy that generates the action sequence
``A_1 .. A_n`` (one per candidate layer); each action selects a
compensation ratio from a discrete set. We implement an Elman-style
recurrent cell on the autograd substrate: the input at step ``t`` is the
one-hot embedding of the previous action, so later placement decisions
condition on earlier ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.utils.rng import new_rng, SeedLike


@dataclass
class Episode:
    """One sampled action sequence with its log-probabilities and entropy."""

    actions: List[int] = field(default_factory=list)
    ratios: List[float] = field(default_factory=list)
    log_probs: List[Tensor] = field(default_factory=list)
    entropies: List[Tensor] = field(default_factory=list)

    @property
    def total_log_prob(self) -> Tensor:
        total = self.log_probs[0]
        for lp in self.log_probs[1:]:
            total = total + lp
        return total

    @property
    def total_entropy(self) -> Tensor:
        total = self.entropies[0]
        for e in self.entropies[1:]:
            total = total + e
        return total


class RNNPolicy(Module):
    """Recurrent policy over per-layer compensation-ratio actions.

    Parameters
    ----------
    n_steps:
        Number of candidate layers (episode length).
    ratio_choices:
        Discrete action set; 0.0 encodes "no compensation here" (the
        paper's ``S_i <= 0``).
    hidden_size:
        Recurrent state width.
    """

    def __init__(
        self,
        n_steps: int,
        ratio_choices: Sequence[float] = (0.0, 0.25, 0.5, 1.0),
        hidden_size: int = 32,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__()
        if n_steps <= 0:
            raise ValueError(f"n_steps must be positive, got {n_steps}")
        if len(ratio_choices) < 2:
            raise ValueError("need at least two ratio choices")
        rng = new_rng(seed)
        self.n_steps = n_steps
        self.ratio_choices = tuple(float(r) for r in ratio_choices)
        self.hidden_size = hidden_size
        n_actions = len(self.ratio_choices)
        self.input_proj = Linear(
            n_actions, hidden_size, seed=int(rng.integers(2**31))
        )
        self.hidden_proj = Linear(
            hidden_size, hidden_size, bias=False, seed=int(rng.integers(2**31))
        )
        self.action_head = Linear(
            hidden_size, n_actions, seed=int(rng.integers(2**31))
        )
        self._rng = new_rng(int(rng.integers(2**31)))

    def _step(self, prev_onehot: Tensor, hidden: Tensor) -> Tuple[Tensor, Tensor]:
        """One recurrent step -> (action log-probs, new hidden)."""
        hidden = (self.input_proj(prev_onehot) + self.hidden_proj(hidden)).tanh()
        logits = self.action_head(hidden)
        from repro.autograd import functional as F

        log_probs = F.log_softmax(logits, axis=-1)
        return log_probs, hidden

    def sample(self, greedy: bool = False) -> Episode:
        """Sample (or argmax-decode) an action sequence."""
        n_actions = len(self.ratio_choices)
        episode = Episode()
        prev = Tensor(np.zeros((1, n_actions)))
        hidden = Tensor(np.zeros((1, self.hidden_size)))
        for _ in range(self.n_steps):
            log_probs, hidden = self._step(prev, hidden)
            probs = np.exp(log_probs.data[0])
            probs = probs / probs.sum()
            if greedy:
                action = int(np.argmax(probs))
            else:
                action = int(self._rng.choice(n_actions, p=probs))
            episode.actions.append(action)
            episode.ratios.append(self.ratio_choices[action])
            episode.log_probs.append(log_probs[0, action])
            entropy = -(log_probs * log_probs.exp()).sum()
            episode.entropies.append(entropy)
            onehot = np.zeros((1, n_actions))
            onehot[0, action] = 1.0
            prev = Tensor(onehot)
        return episode
