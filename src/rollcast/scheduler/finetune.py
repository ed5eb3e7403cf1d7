"""Alternating optimization: TD learning for the scheduler, multi-step
fine-tuning of the forecaster's prediction head along scheduled trajectories.

Each epoch collects epsilon-greedy episodes into the replay buffer and
refreshes stale entries against the current environment. TD iterations then
update the main Q network; at every target sync the head is fine-tuned on
trajectories that the freshly synced target policy picks. The rollout engine
walks all of a sync's trajectories at once (`run_episodes`, the target
network choosing every interval), and `rollout_finetune_loss` then scores
every step they took in one batched body pass, giving each step its own head
call. Steps beyond t_max contribute to the reported rollout loss but are cut
out of the gradient entirely.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .. import diffcore as dc
from ..diffcore import Tensor
from ..encoding import patchify
from ..gridio import Dataset
from ..metrics import lat_weights, rmse
from ..model import MAX_BATCH, DivergenceError, ForecastModel, check_at_least, weighted_patch_loss
from .dqn import DQN, ReplayBuffer, td_update
from .env import EpisodeSpec, ForecastEnv, plan_chooser, run_episode, run_episodes
from .policies import policy_adaptive


HEAD_LR = 1e-3  # AdamW rate of the head fine-tune
MAX_EPISODE_AGE = 3  # buffer refresh eviction, in epochs
EPS_START, EPS_END = 1.0, 0.05  # exploration, from the first epoch to the last
OMEGA_SAMPLES = 32  # one-step forecasts behind the default step penalty


@dataclass
class FinetuneConfig:
    epochs: int = 6
    episodes_per_epoch: int = 12
    iterations_per_epoch: int = 300
    finetune_episodes: int = 4  # trajectories per head update
    t_max: int = 4  # rollout steps that keep gradient
    lead_times: tuple[int, ...] = (72, 138, 240)
    omega: float | None = None  # a step penalty < 0; None -> -0.05 * typical one-step RMSE
    seed: int = 0

    def __post_init__(self):
        check_at_least(self, epochs=1, episodes_per_epoch=1, iterations_per_epoch=0,
                       finetune_episodes=1, t_max=0, seed=0)
        if not self.lead_times or min(self.lead_times) < 1:
            raise ValueError(f"lead_times must be positive hours, got {list(self.lead_times)}")
        if self.omega is not None and not self.omega < 0:
            raise ValueError(f"omega must be null or negative, got {self.omega}")


@dataclass
class RolloutLossParts:
    grad_loss: Tensor | None  # differentiable part (steps <= t_max), averaged over the walks
    total_value: float  # full trajectory loss, averaged over the walks
    per_step: list = field(default_factory=list)  # each step's term over the walk count, walk by walk


def resolve_omega(model: ForecastModel, dataset: Dataset, seed: int = 0,
                  omega: float | None = None) -> float:
    """The step penalty: omega when it is set, else -0.05 times the typical
    single-step RMSE of the current model."""
    if omega is not None:
        return omega
    rng = np.random.default_rng(seed)
    delta = min(model.cfg.intervals)
    starts = dataset.window_starts("train", delta)
    step = delta // dataset.spec.base_step_hours
    idxs = [int(rng.integers(starts.start, starts.stop)) for _ in range(OMEGA_SAMPLES)]
    preds = model.forecast_batch(np.stack([dataset.fields[i].values for i in idxs]), [delta] * len(idxs))
    lat_weight = lat_weights(dataset.spec)
    vals = [rmse(p, dataset.fields[i + step].values, lat_weight) for p, i in zip(preds, idxs)]
    return -0.05 * float(np.mean(vals))


def rollout_finetune_loss(env: ForecastEnv, episodes, choose, t_max: int) -> RolloutLossParts:
    """Walk the episodes in one `run_episodes` call (choose is its chooser),
    then score every step the walks took.

    The visited states go through the body once more, without gradient,
    sorted stably by interval in chunks of at most MAX_BATCH. Each step's
    head runs on its own token rows, with gradient for the first t_max steps
    of its walk only. A step scores its predicted change against the change
    that would have made the forecast exact (truth minus the incoming state),
    weighted by latitude and normalized by its walk's length and the grid
    size. The terms are summed walk by walk; the gradient and the value are
    the means over the walks.
    """
    model, (V, H, W) = env.model, env.dataset.spec.shape
    walks = [transitions for _, transitions, _ in run_episodes(env, episodes, choose)]
    steps = [tr for walk in walks for tr in walk]
    states = np.stack([tr.state.x_hat.values for tr in steps])
    actions = np.array([tr.action for tr in steps])
    order = np.argsort(actions, kind="stable")
    with dc.no_grad():
        tokens = np.concatenate([model.body_tokens(states[chunk], actions[chunk])[0].data
                                 for chunk in np.split(order, range(MAX_BATCH, len(order), MAX_BATCH))])
    truths = np.stack([env.dataset.at(tr.next_state.date_time_hours).values for tr in steps])
    targets = model.normalize_delta(truths - states, actions)
    rows = iter(zip(tokens.reshape(len(steps), model.num_tokens, -1)[np.argsort(order)], targets))
    grad_total, value_total, per_step = None, 0.0, []
    for walk in walks:
        grad_loss, terms = None, []
        for t, (z, target) in enumerate(itertools.islice(rows, len(walk)), start=1):
            with dc.no_grad() if t > t_max else contextlib.nullcontext():
                pred = model.apply_head(Tensor(z))
                term = weighted_patch_loss(pred, patchify(target, model.cfg.patch_size),
                                           model.loss_weight_patches, len(walk) * V * H * W)
            if t <= t_max:
                grad_loss = term if grad_loss is None else dc.add(grad_loss, term)
            terms.append(float(term.data))
        if grad_loss is not None:
            grad_total = grad_loss if grad_total is None else dc.add(grad_total, grad_loss)
        value_total += float(np.sum(terms))  # plain adds: from Python 3.12 a float sum() compensates
        per_step += [v / len(walks) for v in terms]
    grad_loss = None if grad_total is None else dc.mul_scalar(grad_total, 1.0 / len(walks))
    return RolloutLossParts(grad_loss=grad_loss, total_value=value_total / len(walks), per_step=per_step)


def sample_episode(dataset: Dataset, lead_times, rng: np.random.Generator,
                   split: str = "train") -> EpisodeSpec:
    """Uniform initial time from a split, lead drawn from the configured set."""
    lead = int(rng.choice(list(lead_times)))
    starts = dataset.window_starts(split, lead)
    idx = int(rng.integers(starts.start, starts.stop))
    return EpisodeSpec(dataset.fields[idx].timestamp_hours, lead)


def adaptive_rollout_finetune(model: ForecastModel, dataset: Dataset, dqn: DQN,
                              buffer: ReplayBuffer, cfg: FinetuneConfig) -> dict:
    """Alternate TD updates of the scheduler with head fine-tuning of the model.

    Returns a log dict: per-episode rows, TD losses, and per-sync rollout
    losses. The model and DQN are updated in place.
    """
    omega = resolve_omega(model, dataset, seed=cfg.seed, omega=cfg.omega)
    env = ForecastEnv(model, dataset, omega)
    head_opt = dc.AdamW(model.head_params(), lr=HEAD_LR)
    logs = {"episodes": [], "td_losses": [], "rollout_losses": [], "omega": omega}
    global_iter = 0
    episode_id = 0

    for epoch in range(cfg.epochs):
        frac = epoch / max(cfg.epochs - 1, 1)
        eps = EPS_START + (EPS_END - EPS_START) * frac
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

        buffer.refresh(env, epoch, MAX_EPISODE_AGE)

        rng_iter = np.random.default_rng([cfg.seed, 2, epoch])
        total_iters = cfg.epochs * cfg.iterations_per_epoch
        for _ in range(cfg.iterations_per_epoch):
            dqn.optimizer.lr = dc.cosine_lr(dqn.cfg.lr, global_iter, total_iters)
            batch = buffer.sample(dqn.cfg.batch_size, rng_iter)
            logs["td_losses"].append(td_update(batch, dqn))
            global_iter += 1

            if global_iter % dqn.cfg.sync_every == 0:
                dqn.sync_target()
                rng_ft = np.random.default_rng([cfg.seed, 3, global_iter])
                episodes = [sample_episode(dataset, cfg.lead_times, rng_ft)
                            for _ in range(cfg.finetune_episodes)]
                choose = plan_chooser([None] * len(episodes), dqn.q_target)
                parts = rollout_finetune_loss(env, episodes, choose, cfg.t_max)
                if not np.isfinite(parts.total_value):
                    raise DivergenceError("non-finite rollout fine-tune loss")
                if parts.grad_loss is not None:
                    head_opt.zero_grad()
                    dc.backward(parts.grad_loss)
                    head_opt.step()
                logs["rollout_losses"].append(parts.total_value)

    return logs
