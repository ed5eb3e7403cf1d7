"""Forecasting environment, DQN value estimator, rollout policies, and the
alternating adaptive-rollout fine-tuning loop."""

from .env import (
    ActionSet,
    EnvState,
    EpisodeSpec,
    ForecastEnv,
    Trajectory,
    Transition,
    run_episode,
    run_episodes,
)
from .dqn import DQN, DQNConfig, QNetwork, ReplayBuffer, td_target, td_targets, td_update
from .policies import plan_chooser, policy_adaptive, policy_greedy, policy_naive, policy_random
from .finetune import FinetuneConfig, RolloutLossParts, adaptive_rollout_finetune, rollout_finetune_loss
from .compare import PolicyResult, evaluate_policies, rollout_forecast_fn

__all__ = [
    "ActionSet",
    "EnvState",
    "EpisodeSpec",
    "ForecastEnv",
    "Trajectory",
    "Transition",
    "run_episode",
    "run_episodes",
    "DQN",
    "DQNConfig",
    "QNetwork",
    "ReplayBuffer",
    "td_target",
    "td_targets",
    "td_update",
    "plan_chooser",
    "policy_adaptive",
    "policy_greedy",
    "policy_naive",
    "policy_random",
    "FinetuneConfig",
    "RolloutLossParts",
    "adaptive_rollout_finetune",
    "rollout_finetune_loss",
    "PolicyResult",
    "evaluate_policies",
    "rollout_forecast_fn",
]
