"""REINFORCE with a moving-average baseline and entropy regularization."""

from __future__ import annotations

from typing import List, Optional

from repro.optim.optimizers import Adam, clip_grad_norm, GRAD_CLIP
from repro.rl.policy import Episode, RNNPolicy
from repro.utils.logging import get_logger

logger = get_logger("rl.agent")


class ReinforceAgent:
    """Policy-gradient learner for the compensation-placement policy.

    The update for an episode with reward ``R`` is the REINFORCE gradient
    of ``-(R - b) log pi(actions)`` where ``b`` is an exponential moving
    average of past rewards (variance reduction), minus an entropy bonus
    that keeps early exploration alive. The policy learns with Adam at
    ``LR``, its gradient clipped to :data:`GRAD_CLIP`.
    """

    LR = 5e-3
    ENTROPY_COEF = 0.01
    BASELINE_MOMENTUM = 0.8

    def __init__(self, policy: RNNPolicy) -> None:
        self.policy = policy
        self.optimizer = Adam(list(policy.parameters()), lr=self.LR)
        self.baseline: Optional[float] = None
        self.reward_history: List[float] = []

    def update(self, episode: Episode, reward: float) -> float:
        """One policy-gradient step; returns the advantage used."""
        if self.baseline is None:
            self.baseline = reward
        advantage = reward - self.baseline
        self.baseline = (
            self.BASELINE_MOMENTUM * self.baseline
            + (1.0 - self.BASELINE_MOMENTUM) * reward
        )
        self.reward_history.append(reward)

        self.optimizer.zero_grad()
        loss = episode.total_log_prob * (-advantage)
        loss = loss - episode.total_entropy * self.ENTROPY_COEF
        loss.backward()
        clip_grad_norm(self.optimizer.parameters, GRAD_CLIP)
        self.optimizer.step()
        logger.debug("reward %.4f advantage %.4f", reward, advantage)
        return advantage
