"""Side-by-side evaluation of rollout policies on identical episode sets."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..metrics import rmse
from .dqn import DQN, QNetwork

# run_episode stays importable here: bench/tracing.py wraps compare.run_episode
from .env import EpisodeSpec, ForecastEnv, plan_chooser, run_episode, run_episodes  # noqa: F401
# bench/tracing.py wraps the policy_* names here, so policy_plans calls them through this module
from .policies import policy_greedy, policy_naive, policy_random

POLICIES = ("naive", "greedy", "random", "adaptive")


@dataclass
class PolicyResult:
    policy: str
    lead_h: int
    returns: list = field(default_factory=list)
    lengths: list = field(default_factory=list)
    intervals: list = field(default_factory=list)  # each episode's interval plan
    final_rmse: list = field(default_factory=list)  # aggregate over variables
    final_rmse_by_var: dict = field(default_factory=dict)  # var index -> list

    @property
    def mean_return(self) -> float:
        return float(np.mean(self.returns))

    @property
    def stderr_return(self) -> float:
        r = np.asarray(self.returns)
        return float(r.std(ddof=1) / np.sqrt(len(r))) if len(r) > 1 else 0.0

    @property
    def mean_length(self) -> float:
        return float(np.mean(self.lengths))

    @property
    def mean_final_rmse(self) -> float:
        return float(np.mean(self.final_rmse))

    def mean_rmse_for_var(self, v: int) -> float:
        return float(np.mean(self.final_rmse_by_var[v]))


def policy_plans(name: str, episodes, intervals, random_seed: int = 0) -> list:
    """The interval plan of each episode under policy `name`, in order.

    "adaptive" plans nothing (None: the Q-network chooses as it goes). The
    random policy draws episode i's plan with seed random_seed * 100003 + i.
    """
    if name == "naive":
        return [policy_naive(e.lead_h, intervals) for e in episodes]
    if name == "greedy":
        return [policy_greedy(e.lead_h, intervals) for e in episodes]
    if name == "random":
        return [policy_random(e.lead_h, seed=random_seed * 100003 + i, intervals=intervals)
                for i, e in enumerate(episodes)]
    if name == "adaptive":
        return [None] * len(episodes)
    raise ValueError(f"unknown policy {name!r}; expected one of {', '.join(POLICIES)}")


def evaluate_policies(env: ForecastEnv, episodes, dqn: DQN | None = None,
                      random_seed: int = 0) -> dict:
    """Run naive/greedy/random (and adaptive when a DQN is given) on the same episodes.

    Every policy's episodes advance together in one `run_episodes` call.
    Returns {policy name: PolicyResult}.
    """
    episodes = list(episodes)
    names = POLICIES if dqn is not None else POLICIES[:-1]
    plans = [plan for name in names
             for plan in policy_plans(name, episodes, env.actions.intervals, random_seed)]
    outcomes = run_episodes(env, episodes * len(names),
                            plan_chooser(plans, dqn.q_main if dqn is not None else None),
                            keep_transitions=False)

    leads = {e.lead_h for e in episodes}
    lead_label = episodes[0].lead_h if len(leads) == 1 else -1
    results = {}
    for p, name in enumerate(names):
        res = PolicyResult(policy=name, lead_h=lead_label)
        res.final_rmse_by_var = {v: [] for v in range(env.dataset.spec.num_vars)}
        policy_outcomes = outcomes[p * len(episodes) : (p + 1) * len(episodes)]
        for episode, (traj, _, final_state) in zip(episodes, policy_outcomes):
            truth = env.dataset.at(episode.t0_hours + episode.lead_h)
            res.returns.append(traj.return_value)
            res.lengths.append(len(traj))
            res.intervals.append(traj.intervals)
            res.final_rmse.append(rmse(final_state.x_hat.values, truth.values, env.weights))
            for v in range(env.dataset.spec.num_vars):
                res.final_rmse_by_var[v].append(
                    rmse(final_state.x_hat.values[v : v + 1], truth.values[v : v + 1], env.weights)
                )
        results[name] = res
    return results


def rollout_forecast_fn(env: ForecastEnv, policy: str, q_net: QNetwork | None = None,
                        random_seed: int = 0):
    """An `evaluate_leads` forecaster that rolls all its (start, lead) pairs out
    in one `run_episodes` call.

    Each pair is an episode planned by `policy_plans(policy, ...)`; an
    "adaptive" one follows q_net's greedy legal choices. Starts are read
    from env's dataset at the given states' timestamps.
    """

    def forecast(starts, leads):
        episodes = [EpisodeSpec(x0.timestamp_hours, lead) for x0, lead in zip(starts, leads)]
        plans = policy_plans(policy, episodes, env.actions.intervals, random_seed)
        outcomes = run_episodes(env, episodes, plan_chooser(plans, q_net), keep_transitions=False)
        return [final.x_hat for _, _, final in outcomes]

    return forecast
