"""Alternating optimization: TD learning for the scheduler, multi-step
fine-tuning of the forecaster's prediction head along scheduled trajectories.

Each epoch collects epsilon-greedy episodes into the replay buffer and
refreshes stale entries against the current environment. TD iterations then
update the main Q network; at every target sync the head is fine-tuned on
trajectories generated by the freshly synced target policy. Steps beyond
t_max contribute to the reported rollout loss but are cut out of the
gradient entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import diffcore as dc
from ..diffcore import Tensor
from ..encoding import patchify, unpatchify
from ..gridio import Dataset, GridField
from ..metrics import WeightTable, lat_weights
from ..model import DivergenceError, ForecastModel, weighted_patch_loss
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


def rollout_finetune_loss(model: ForecastModel, dataset: Dataset, episode: EpisodeSpec,
                          actions, weights: WeightTable, t_max: int) -> RolloutLossParts:
    """Trajectory loss of Algorithm-style head fine-tuning.

    Each step scores the predicted change against the change that would have
    made the forecast exact (truth minus the incoming state), weighted by
    latitude/variable and normalized by trajectory length and grid size.
    Inputs are detached between steps; steps beyond t_max are evaluated
    without recording gradients at all.
    """
    spec = dataset.spec
    V, H, W = spec.shape
    n_steps = len(actions)
    denom = n_steps * V * H * W
    w_patches = patchify(weights.field_weights(spec.shape), model.cfg.patch_size)

    x_prev = dataset.at(episode.t0_hours)
    t_now = episode.t0_hours
    grad_terms = []
    per_step = []
    for t, delta in enumerate(actions, start=1):
        truth = dataset.at(t_now + delta)
        target_norm = model.normalize_delta(truth.values - x_prev.values, delta)
        target_patches = patchify(target_norm, model.cfg.patch_size)
        with dc.no_grad():
            z, _, _ = model.body_tokens(x_prev.values[None], delta)
        if t <= t_max:
            pred = model.apply_head(Tensor(z.data))
            term = weighted_patch_loss(pred, target_patches, w_patches, denom)
            grad_terms.append(term)
            term_value = float(term.data)
        else:
            with dc.no_grad():
                pred = model.apply_head(Tensor(z.data))
                term_value = float(
                    weighted_patch_loss(pred, target_patches, w_patches, denom).data
                )
        per_step.append(term_value)
        # feed the forecast back as the next (detached) input
        delta_phys = model.denormalize_delta(_unpatch(model, pred.data), delta)
        x_prev = GridField(spec, x_prev.values + delta_phys, t_now + delta)
        t_now += delta

    grad_loss = None
    for term in grad_terms:
        grad_loss = term if grad_loss is None else dc.add(grad_loss, term)
    return RolloutLossParts(grad_loss=grad_loss, total_value=float(np.sum(per_step)), per_step=per_step)


def _unpatch(model: ForecastModel, pred_data: np.ndarray) -> np.ndarray:
    return unpatchify(pred_data, model.spec.shape, model.cfg.patch_size)


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
            progress = global_iter / max(total_iters - 1, 1)
            floor = dqn.cfg.lr * dqn.cfg.lr_final_fraction
            dqn.optimizer.lr = floor + (dqn.cfg.lr - floor) * 0.5 * (1.0 + np.cos(np.pi * progress))
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
                    traj, _, _ = run_episode(env, episode, _greedy_on_target(dqn))
                    parts = rollout_finetune_loss(
                        model, dataset, episode, traj.intervals, weights, cfg.t_max
                    )
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
