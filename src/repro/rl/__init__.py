"""Reinforcement-learning search for compensation placement (Fig. 6).

The agent's recurrent policy emits one action per candidate layer — a
compensation ratio ``S_i`` from a discrete choice set (``S_i <= 0`` means
no compensation). The environment trains the resulting compensated network
briefly and returns the reward of eq. (12):

``R = acc_avg - acc_std - overhead``      if ``overhead <= limit``
``R = -overhead``                         otherwise

over-limit plans skip compensation training entirely (the paper's shortcut
to keep the search fast). :class:`RLSearch` runs REINFORCE episodes across
the paper's overhead limits (1%, 2%, 3%) and keeps the best solution;
:func:`exhaustive_search` provides Fig. 10's all-layers reference point.
"""

from repro.rl.policy import RNNPolicy, Episode
from repro.rl.env import CompensationEnv, EnvOutcome
from repro.rl.agent import ReinforceAgent
from repro.rl.search import RLSearch, SearchResult, exhaustive_search

__all__ = [
    "RNNPolicy",
    "Episode",
    "CompensationEnv",
    "EnvOutcome",
    "ReinforceAgent",
    "RLSearch",
    "SearchResult",
    "exhaustive_search",
]
