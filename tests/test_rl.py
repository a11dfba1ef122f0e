"""RL search: policy sampling, REINFORCE learning, environment semantics."""

import numpy as np
import pytest

from repro.compensation import fit_plan
from repro.core.config import CompensationConfig, EvalConfig, RLConfig
from repro.data import ArrayDataset
from repro.models import LeNet5
from repro.rl import (
    CompensationEnv, ReinforceAgent, RLSearch, RNNPolicy, exhaustive_search,
)
from repro.variation import LogNormalVariation


@pytest.fixture()
def policy():
    return RNNPolicy(n_steps=3, ratio_choices=(0.0, 0.5, 1.0),
                     hidden_size=8, seed=0)


class TestPolicy:
    def test_episode_length(self, policy):
        episode = policy.sample()
        assert len(episode.actions) == 3
        assert len(episode.ratios) == 3
        assert len(episode.log_probs) == 3

    def test_ratios_from_choice_set(self, policy):
        for _ in range(5):
            episode = policy.sample()
            assert all(r in (0.0, 0.5, 1.0) for r in episode.ratios)

    def test_log_probs_negative_finite(self, policy):
        episode = policy.sample()
        total = episode.total_log_prob.item()
        assert total < 0 and np.isfinite(total)

    def test_entropy_positive(self, policy):
        episode = policy.sample()
        assert episode.total_entropy.item() > 0

    def test_greedy_deterministic(self, policy):
        a = policy.sample(greedy=True).actions
        b = policy.sample(greedy=True).actions
        assert a == b

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RNNPolicy(n_steps=0)
        with pytest.raises(ValueError):
            RNNPolicy(n_steps=2, ratio_choices=(0.5,))


class TestAgentBandit:
    def test_reinforce_learns_rewarded_action(self):
        """3-step bandit: reward 1 when every step picks action 1. The
        untrained greedy rollout picks action 0 everywhere; after enough
        updates at the agent's own learning rate, entropy bonus and
        baseline momentum it picks action 1 everywhere."""
        policy = RNNPolicy(n_steps=3, ratio_choices=(0.0, 1.0),
                           hidden_size=8, seed=1)
        assert policy.sample(greedy=True).actions == [0, 0, 0]
        agent = ReinforceAgent(policy)
        for _ in range(150):
            episode = policy.sample()
            reward = float(all(a == 1 for a in episode.actions))
            agent.update(episode, reward)
        greedy = policy.sample(greedy=True)
        assert greedy.actions == [1, 1, 1]

    def test_baseline_tracks_rewards(self):
        """The baseline starts at the first reward, then is the moving
        average of the rewards at the agent's momentum."""
        policy = RNNPolicy(n_steps=1, ratio_choices=(0.0, 1.0), seed=2)
        agent = ReinforceAgent(policy)
        momentum = ReinforceAgent.BASELINE_MOMENTUM
        rewards = [1.0, 0.0, 1.0, 1.0, 0.5, 1.0, 1.0, 0.0, 1.0, 1.0]
        expected = rewards[0]
        for reward in rewards:
            agent.update(policy.sample(), reward)
            expected = momentum * expected + (1.0 - momentum) * reward
        assert agent.baseline == pytest.approx(expected)
        assert len(agent.reward_history) == 10


def _tiny_env(overhead_limit=0.5, search_samples=2, memo=None):
    rng = np.random.default_rng(0)
    data = ArrayDataset(rng.normal(size=(30, 1, 16, 16)),
                        rng.integers(0, 10, size=30))
    model = LeNet5(num_classes=10, in_channels=1, input_size=16,
                   width_multiplier=0.5, seed=0)
    return CompensationEnv(
        model,
        candidate_layers=[0, 1],
        variation=LogNormalVariation(0.4),
        train_data=data,
        eval_data=data,
        comp_config=CompensationConfig(epochs=1),
        eval_config=EvalConfig(n_samples=2, search_samples=search_samples),
        overhead_limit=overhead_limit,
        memo=memo,
    )


class TestEnv:
    def test_reward_formula_under_limit(self):
        env = _tiny_env()
        outcome = env.step([0.5, 0.0])
        assert not outcome.skipped
        expected = outcome.accuracy_mean - outcome.accuracy_std - outcome.overhead
        assert outcome.reward == pytest.approx(expected)

    def test_over_limit_fast_path(self):
        env = _tiny_env(overhead_limit=1e-6)
        outcome = env.step([1.0, 1.0])
        assert outcome.skipped
        assert outcome.reward == pytest.approx(-outcome.overhead)

    def test_caching(self):
        env = _tiny_env()
        a = env.step([0.5, 0.0])
        b = env.step([0.5, 0.0])
        assert a is b

    def test_envs_sharing_a_memo_fit_a_plan_once(self, fit_calls):
        memo = {}
        tight = _tiny_env(overhead_limit=0.5, memo=memo)
        loose = _tiny_env(overhead_limit=1.0, memo=memo)
        assert tight.memo is loose.memo is memo
        a = tight.step([0.5, 0.0])
        b = loose.step([0.5, 0.0])
        assert len(fit_calls) == 1
        assert (a.accuracy_mean, a.accuracy_std) == (b.accuracy_mean,
                                                     b.accuracy_std)
        assert _tiny_env().memo is not _tiny_env().memo  # default: own memo

    def test_scored_plan_model_is_a_memo_lookup(self, fit_calls):
        env = _tiny_env()
        outcome = env.step([0.5, 0.5])
        model = fit_plan(env.base_model, outcome.plan, env.variation,
                         env.train_data, env.comp_config, memo=env.memo)
        assert len(fit_calls) == 1
        result = env._evaluator.evaluate(model, env.variation)
        assert result.mean == outcome.accuracy_mean

    def test_plan_mapping(self):
        env = _tiny_env()
        plan = env.plan_from_ratios([0.0, 0.5])
        assert plan.ratios == {1: 0.5}

    def test_wrong_ratio_count_raises(self):
        with pytest.raises(ValueError):
            _tiny_env().plan_from_ratios([0.5])

    def test_invalid_construction(self):
        env = _tiny_env()
        with pytest.raises(ValueError):
            CompensationEnv(env.base_model, [], env.variation, env.train_data,
                            env.eval_data, env.comp_config, env.eval_config)


class TestSearch:
    def test_search_returns_best_of_explored(self):
        env = _tiny_env()
        search = RLSearch(env, RLConfig(episodes=4, hidden_size=8,
                                        ratio_choices=(0.0, 0.5), seed=0))
        result = search.run()
        assert len(result.explored) == 4
        rewards = [o.reward for o in result.explored if not o.skipped]
        if rewards:
            assert result.best.reward == pytest.approx(max(rewards))

    def test_exhaustive_ignores_limit(self):
        env = _tiny_env(overhead_limit=1e-9)
        outcome = exhaustive_search(env, ratio=0.5)
        assert not outcome.skipped
        assert env.overhead_limit == 1e-9  # restored
