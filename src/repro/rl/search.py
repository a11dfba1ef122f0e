"""Search drivers: REINFORCE over episodes, plus the exhaustive reference.

The paper runs the search once per overhead limit (1%, 2%, 3%) and keeps
the best-accuracy solution; Fig. 10 contrasts the RL pick against
compensating *all* candidate layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.config import RLConfig
from repro.rl.agent import ReinforceAgent
from repro.rl.env import CompensationEnv, EnvOutcome
from repro.rl.policy import RNNPolicy
from repro.utils.logging import get_logger

logger = get_logger("rl.search")


@dataclass
class SearchResult:
    """Outcome of a search: the best plan and the full exploration trace."""

    best: EnvOutcome
    explored: List[EnvOutcome] = field(default_factory=list)
    rewards: List[float] = field(default_factory=list)


class RLSearch:
    """REINFORCE-driven exploration of compensation plans."""

    def __init__(self, env: CompensationEnv, config: RLConfig) -> None:
        self.env = env
        self.config = config
        self.policy = RNNPolicy(
            n_steps=env.n_actions_steps,
            ratio_choices=config.ratio_choices,
            hidden_size=config.hidden_size,
            seed=config.seed,
        )
        self.agent = ReinforceAgent(self.policy)

    def run(self, episodes: Optional[int] = None) -> SearchResult:
        """Run ``episodes`` REINFORCE iterations; returns the best outcome
        by reward among non-skipped plans (falling back to any plan if all
        exceeded the overhead limit)."""
        episodes = episodes or self.config.episodes
        best: Optional[EnvOutcome] = None
        explored: List[EnvOutcome] = []
        rewards: List[float] = []
        for episode_idx in range(episodes):
            episode = self.policy.sample()
            outcome = self.env.step(episode.ratios)
            self.agent.update(episode, outcome.reward)
            explored.append(outcome)
            rewards.append(outcome.reward)
            better = best is None or (
                (not outcome.skipped and best.skipped)
                or (outcome.skipped == best.skipped and outcome.reward > best.reward)
            )
            if better:
                best = outcome
            logger.info(
                "episode %d: ratios=%s reward=%.4f best=%.4f",
                episode_idx,
                [round(r, 3) for r in episode.ratios],
                outcome.reward,
                best.reward,
            )
        assert best is not None
        return SearchResult(best=best, explored=explored, rewards=rewards)


def exhaustive_search(env: CompensationEnv) -> EnvOutcome:
    """Fig. 10's reference: compensate *every* candidate layer at ratio 0.5
    regardless of the overhead limit (the environment's limit is bypassed
    by evaluating through a copy with an infinite budget)."""
    ratios = [0.5] * env.n_actions_steps
    saved_limit = env.overhead_limit
    env.overhead_limit = float("inf")
    try:
        outcome = env.step(ratios)
    finally:
        env.overhead_limit = saved_limit
    return outcome
