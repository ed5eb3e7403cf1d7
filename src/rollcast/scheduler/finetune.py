"""Alternating optimization: TD learning for the scheduler, multi-step
fine-tuning of the forecaster's prediction head along scheduled trajectories.

Each epoch collects epsilon-greedy episodes into the replay buffer and
refreshes stale entries against the current environment. TD iterations then
update the main Q network; at every target sync the head is fine-tuned on
trajectories that the freshly synced target policy picks. Each of those
trajectories is walked once (`rollout_finetune_loss`): the target network
chooses every interval on the state the walk has just forecast, and that same
forecast builds the step's loss. Steps beyond t_max contribute to the
reported rollout loss but are cut out of the gradient entirely.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .. import diffcore as dc
from ..diffcore import Tensor
from ..encoding import patchify
from ..gridio import Dataset
from ..metrics import WeightTable, lat_weights
from ..model import DivergenceError, ForecastModel, check_at_least, weighted_patch_loss
from .dqn import DQN, ReplayBuffer, td_update
from .env import EpisodeSpec, ForecastEnv, run_episode
from .policies import policy_adaptive


@dataclass
class FinetuneConfig:
    epochs: int = 6
    episodes_per_epoch: int = 12
    iterations_per_epoch: int = 300
    head_lr: float = 1e-3
    finetune_episodes: int = 4  # trajectories per head update
    t_max: int = 4  # rollout steps that keep gradient
    max_episode_age: int = 3  # buffer refresh eviction, in epochs
    lead_times: tuple = (72, 138, 240)
    omega: float | None = None  # None -> -0.05 * typical one-step RMSE
    seed: int = 0

    def __post_init__(self):
        check_at_least(self, epochs=1, episodes_per_epoch=1, iterations_per_epoch=0,
                       finetune_episodes=1, t_max=0, max_episode_age=0)
        if not self.lead_times or min(self.lead_times) < 1:
            raise ValueError(f"lead_times must be positive hours, got {list(self.lead_times)}")


@dataclass
class RolloutLossParts:
    grad_loss: Tensor | None  # differentiable part (steps <= t_max), already scaled
    total_value: float  # full trajectory loss value
    per_step: list = field(default_factory=list)


def resolve_omega(model: ForecastModel, dataset: Dataset, weights: WeightTable,
                  num_samples: int = 32, seed: int = 0) -> float:
    """-0.05 times the typical single-step RMSE of the current model."""
    from ..metrics import rmse

    rng = np.random.default_rng(seed)
    lo, hi = dataset.splits.get("train", (0, len(dataset)))
    delta = min(model.cfg.intervals)
    step = delta // dataset.spec.base_step_hours
    idxs = [int(rng.integers(lo, hi - step)) for _ in range(num_samples)]
    preds = model.forecast_batch(np.stack([dataset.fields[i].values for i in idxs]), delta)
    vals = [rmse(p, dataset.fields[i + step].values, weights) for p, i in zip(preds, idxs)]
    return -0.05 * float(np.mean(vals))


def rollout_finetune_loss(env: ForecastEnv, episode: EpisodeSpec, action_fn,
                          t_max: int) -> RolloutLossParts:
    """Walk one episode once, choosing each interval as it goes, and score the walk.

    From `env.reset(episode)`, each state reached asks action_fn (EnvState ->
    interval, as in `run_episode`) for its interval and is forecast once: the
    body without gradient, the head with gradient for the first t_max steps
    and without it after. That head output, as a physical change, makes the
    next state (`EnvState.advance`), so the walk visits the states
    `run_episode` would. Once the walk ends, each step scores its predicted
    change against the change that would have made the forecast exact (truth
    minus the incoming state), weighted by latitude and variable and
    normalized by trajectory length and grid size.
    """
    model, spec = env.model, env.dataset.spec
    V, H, W = spec.shape
    state = env.reset(episode)
    steps = []  # (head output, normalized target change patches)
    while state.remaining_h > 0:
        action = int(action_fn(state))
        env.actions.check(action, state.remaining_h)
        truth = env.dataset.at(state.date_time_hours + action)
        target = model.normalize_delta(truth.values - state.x_hat.values, action)
        with dc.no_grad():
            z, _, _ = model.body_tokens(state.x_hat.values[None], action)
        with dc.no_grad() if len(steps) >= t_max else contextlib.nullcontext():
            pred = model.apply_head(z)
        steps.append((pred, patchify(target, model.cfg.patch_size)))
        change = model.change_from_patches(pred.data, action)[0]
        state = state.advance(action, state.x_hat.values + change)

    denom = len(steps) * V * H * W
    w_patches = patchify(env.weights.field_weights(spec.shape), model.cfg.patch_size)
    grad_loss, per_step = None, []
    for t, (pred, target) in enumerate(steps, start=1):
        term = weighted_patch_loss(pred, target, w_patches, denom)  # graph-free past t_max
        if t <= t_max:
            grad_loss = term if grad_loss is None else dc.add(grad_loss, term)
        per_step.append(float(term.data))
    return RolloutLossParts(grad_loss=grad_loss, total_value=float(np.sum(per_step)), per_step=per_step)


def sample_episode(dataset: Dataset, lead_times, rng: np.random.Generator,
                   split: str = "train") -> EpisodeSpec:
    """Uniform initial time from a split, lead drawn from the configured set."""
    lead = int(rng.choice(list(lead_times)))
    lo, hi = dataset.splits[split]
    step_h = dataset.spec.base_step_hours
    last_valid = hi - 1 - lead // step_h
    if last_valid < lo:
        raise ValueError(f"split {split} too short for lead {lead}h")
    idx = int(rng.integers(lo, last_valid + 1))
    return EpisodeSpec(dataset.fields[idx].timestamp_hours, lead)


def _greedy_on_target(dqn: DQN):
    """Action function of head-update episodes: the target network's greedy legal choice."""

    def action_fn(state):
        return dqn.q_target.greedy_actions([state])[0]

    return action_fn


def adaptive_rollout_finetune(model: ForecastModel, dataset: Dataset, dqn: DQN,
                              buffer: ReplayBuffer, cfg: FinetuneConfig,
                              weights: WeightTable | None = None) -> dict:
    """Alternate TD updates of the scheduler with head fine-tuning of the model.

    Returns a log dict: per-episode rows, TD losses, and per-sync rollout
    losses. The model and DQN are updated in place.
    """
    weights = weights or lat_weights(dataset.spec)
    omega = cfg.omega if cfg.omega is not None else resolve_omega(model, dataset, weights, seed=cfg.seed)
    env = ForecastEnv(model, dataset, omega, weights)
    head_opt = dc.AdamW(model.head_params(), lr=cfg.head_lr)
    logs = {"episodes": [], "td_losses": [], "rollout_losses": [], "omega": omega}
    global_iter = 0
    episode_id = 0

    for epoch in range(cfg.epochs):
        frac = epoch / max(cfg.epochs - 1, 1)
        eps = dqn.cfg.eps_start + (dqn.cfg.eps_end - dqn.cfg.eps_start) * frac
        rng_collect = np.random.default_rng([cfg.seed, 1, epoch])
        for _ in range(cfg.episodes_per_epoch):
            episode = sample_episode(dataset, cfg.lead_times, rng_collect)
            traj, transitions, _ = run_episode(
                env, episode, lambda s: policy_adaptive(s, dqn, eps, rng_collect)
            )
            buffer.add_episode(episode, traj.intervals, transitions, epoch)
            logs["episodes"].append(
                {
                    "id": episode_id,
                    "epoch": epoch,
                    "t0": episode.t0_hours,
                    "lead": episode.lead_h,
                    "intervals": list(traj.intervals),
                    "rewards": list(traj.rewards),
                    "return": traj.return_value,
                    "epsilon": eps,
                }
            )
            episode_id += 1

        buffer.refresh(env, epoch, cfg.max_episode_age)

        rng_iter = np.random.default_rng([cfg.seed, 2, epoch])
        total_iters = cfg.epochs * cfg.iterations_per_epoch
        for _ in range(cfg.iterations_per_epoch):
            dqn.optimizer.lr = dc.cosine_lr(dqn.cfg.lr, dqn.cfg.lr_final_fraction, global_iter, total_iters)
            batch = buffer.sample(dqn.cfg.batch_size, rng_iter)
            logs["td_losses"].append(td_update(batch, dqn))
            global_iter += 1

            if global_iter % dqn.cfg.sync_every == 0:
                dqn.sync_target()
                rng_ft = np.random.default_rng([cfg.seed, 3, global_iter])
                head_opt.zero_grad()
                grad_total = None
                value_total = 0.0
                for _ in range(cfg.finetune_episodes):
                    episode = sample_episode(dataset, cfg.lead_times, rng_ft)
                    parts = rollout_finetune_loss(env, episode, _greedy_on_target(dqn), cfg.t_max)
                    value_total += parts.total_value
                    if parts.grad_loss is not None:
                        grad_total = (
                            parts.grad_loss
                            if grad_total is None
                            else dc.add(grad_total, parts.grad_loss)
                        )
                if not np.isfinite(value_total):
                    raise DivergenceError("non-finite rollout fine-tune loss")
                if grad_total is not None:
                    dc.backward(dc.mul_scalar(grad_total, 1.0 / cfg.finetune_episodes))
                    head_opt.step()
                logs["rollout_losses"].append(value_total / cfg.finetune_episodes)

    return logs
