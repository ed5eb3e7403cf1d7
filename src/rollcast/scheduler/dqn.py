"""Action-value estimation for rollout scheduling.

The Q network reads a state through the forecaster's own weather embedding
(frozen copies of its tokenizer, ring positional table and normalization)
of the state's spatial anomalies, plus a learned temporal token for its date
and trajectory position. Its one attention block is a class-attention
readout (CaiT, arXiv:2103.17239): the temporal token is the only query, and
it attends over the L weather tokens and itself. With one query, no token
needs its own key or value (`model.attention`): head i scores a token x as
(q_i Wk_iᵀ) · x, and maps its attention-pooled rows Σ_j p_ij x_j through
Wv_i once. That is the full readout in exact arithmetic, since each head's
softmax weights sum to 1, and it spares a TD update at batch 48 about 80%
of its attention multiply-adds. The attended temporal row,
after its residual, maps to one value per interval action. Only the temporal
row depends on trained weights before the attention, and layer norm works on
each row alone, so the layer-normed weather rows of a state are fixed: they
are computed once per `x_hat` field and cached (`FrozenWeather`), shared by
the main and target networks.

A main network learns by temporal-difference regression against a
periodically synced target copy. Replayed episodes are stored as n-step
transitions (`N_STEP`): the target of a step is the discounted sum of the
rewards of up to N_STEP steps of its episode plus the discounted best legal
target-network value at the state they reach, or the rewards alone when the
episode ends inside the window. A one-step transition gets the one-step
target. Short segments of each episode are also stored as whole episodes of
the lead they cover (`HINDSIGHT_STEPS`), whose targets are their exact
returns; they keep their state's `x_hat`, so they share its cached rows.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .. import diffcore as dc
from ..diffcore import Tensor
from ..encoding import TemporalEmbedding, patchify
from ..model import (
    MAX_BATCH,
    DivergenceError,
    ForecastModel,
    _linear,
    _linear_params,
    attention,
    attention_params,
    check_at_least,
)
from .env import ActionSet, EnvState, Transition, plan_chooser, run_episodes


@dataclass
class DQNConfig:
    gamma: float = 0.99
    sync_every: int = 200  # iterations between target syncs
    batch_size: int = 48
    lr: float = 1e-3
    season_length_days: int = 60
    norm_hours: float = 240.0

    def __post_init__(self):
        check_at_least(self, sync_every=1, batch_size=1, season_length_days=1)
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        for name in ("lr", "norm_hours"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


# Environment steps folded into each replayed transition. A 138h episode is
# 7 to 23 steps long, and one-step targets move value back only one step per
# target sync; the default fine-tune syncs 9 times, so values far from the
# end of a trajectory never formed. Eight steps cover a greedy 138h episode.
N_STEP = 8
# Rewards do not depend on the lead time, so the first few steps taken from a
# replayed state are also a whole episode of the shorter lead they cover, with
# an exact return. Segments of up to this many steps are stored that way too
# (`hindsight_transitions`). They give the last steps before every lead exact
# targets; one visit per episode left those few and noisy.
HINDSIGHT_STEPS = 3


class FrozenWeather:
    """The forecaster's frozen weather embedding, and the rows it gave each state.

    Holds copies of the tokenizer, the positional table and `norm_std`. A
    main/target pair shares one, so both read one cache: `rows` maps each
    `x_hat` field embedded so far to its layer-normed (L, D) weather rows. It
    holds its fields weakly, so evicted replay states take their rows with them.
    """

    def __init__(self, model: ForecastModel):
        self.tok_weight = model.params()["tokenizer.weight"].data.copy()
        self.tok_bias = model.params()["tokenizer.bias"].data.copy()
        self.positional = model.positional.copy()
        self.norm_std = model.norm_std.copy()
        self.patch_size = model.cfg.patch_size
        self.rows = weakref.WeakKeyDictionary()

    def fingerprint(self) -> str:
        """SHA-256 of the embedding pieces read from the checkpoint.

        The positional table is computed from the model config, not stored,
        so it is left out: its last bits depend on the sin/cos of the machine.
        """
        h = hashlib.sha256()
        for piece in (self.tok_weight, self.tok_bias, self.norm_std):
            h.update(np.ascontiguousarray(piece, dtype=np.float64).tobytes())
        return h.hexdigest()


class QNetwork:
    """Class-attention readout: the temporal token attends over [weather tokens, itself]."""

    def __init__(self, model: ForecastModel, cfg: DQNConfig, seed: int,
                 weather: FrozenWeather | None = None):
        self.actions = ActionSet(model.cfg.intervals)
        self.num_tokens = model.num_tokens
        D = model.cfg.embed_dim
        self.embed_dim = D
        self.num_heads = model.cfg.num_heads
        self.weather = FrozenWeather(model) if weather is None else weather

        rng = np.random.default_rng(seed)
        # The fewest steps that finish a remaining time r grow with r in jumps
        # set by r's phase within each interval longer than the shortest (12h
        # remaining: one step; 18h: two; 24h: one). r / norm_hours alone is
        # too smooth for the head to follow those jumps; the phases are not.
        self.temporal = TemporalEmbedding(
            D, cfg.season_length_days, cfg.norm_hours, rng, phase_hours=self.actions.intervals[1:]
        )
        self._params = dict(self.temporal.params())
        self._params.update(attention_params(rng, D, "q.attn"))
        self._params.update(_linear_params(rng, D, len(self.actions.intervals), "q.head"))

    def params(self) -> dict:
        return self._params

    def state_arrays(self) -> dict:
        return {k: p.data for k, p in self._params.items()}

    def copy_from(self, other: "QNetwork"):
        for k, p in self._params.items():
            p.data = other._params[k].data.copy()

    def _weather_tokens(self, values: np.ndarray) -> np.ndarray:
        """Frozen embedding of one raw state's spatial anomalies: (L, D) plain array.

        Each variable's own spatial mean is removed before the tokenizer. The
        domain mean drifts over the record (the default data's test-period
        zonal wind sits about 0.8 train std above the train mean), and values
        fitted on train-split states did not carry over to such states.
        """
        w = self.weather
        values = np.asarray(values, dtype=np.float64)
        xn = (values - values.mean(axis=(1, 2), keepdims=True)) / w.norm_std[:, None, None]
        return patchify(xn, w.patch_size) @ w.tok_weight + w.tok_bias + w.positional

    def _normalized_weather(self, fields) -> np.ndarray:
        """(B, L, D) layer-normed weather rows; each field object is embedded once."""
        cache = self.weather.rows
        missing = list(dict.fromkeys(f for f in fields if cache.get(f) is None))
        if missing:
            raw = np.stack([self._weather_tokens(f.values) for f in missing])
            with dc.no_grad():
                rows = dc.layer_norm(Tensor(raw)).data
            for f, r in zip(missing, rows):
                cache[f] = r.copy()  # a copy, so one entry does not pin the whole batch
        return np.stack([cache[f] for f in fields])

    def q_values_batch(self, states) -> Tensor:
        """(B, num_actions) action values for a list of EnvStates."""
        B, L, D = len(states), self.num_tokens, self.embed_dim
        weather = self._normalized_weather([s.x_hat for s in states])
        t = dc.layer_norm(self.temporal(
            [(s.date_time_hours, s.travel_h, s.remaining_h, s.lead_h) for s in states]
        ))  # (B, D)
        # each state's L weather rows then its temporal row, laid out as one
        # (B, (L+1) D) row per state so the temporal rows join without a reshape
        tokens = dc.concat([Tensor(weather.reshape(B, L * D)), t], axis=1)
        h = dc.reshape(tokens, (B * (L + 1), D))
        attn = attention(self._params, "q.attn", h, B, L + 1, self.num_heads, t)
        return _linear(self._params, "q.head", dc.add(t, attn))

    def q_values(self, state: EnvState) -> np.ndarray:
        """Plain (num_actions,) values for one state."""
        with dc.no_grad():
            return self.q_values_batch([state]).data[0]

    def greedy_actions(self, states) -> list:
        """The highest-valued legal interval of each state, valued in batched
        calls of up to MAX_BATCH states."""
        actions = []
        for lo in range(0, len(states), MAX_BATCH):
            chunk = states[lo : lo + MAX_BATCH]
            with dc.no_grad():
                q = self.q_values_batch(chunk).data
            actions += self.actions.best_legal(q, [s.remaining_h for s in chunk])
        return actions


class DQN:
    """Main/target pair; the target only ever changes by copying the main.

    `seed` draws the main network's initial weights, which the target copies.
    """

    def __init__(self, model: ForecastModel, cfg: DQNConfig, seed: int = 0):
        self.cfg = cfg
        self.q_main = QNetwork(model, cfg, seed=seed)
        self.q_target = QNetwork(model, cfg, seed=seed, weather=self.q_main.weather)
        self.q_target.copy_from(self.q_main)
        self.optimizer = dc.AdamW(self.q_main.params(), lr=cfg.lr)

    def sync_target(self):
        self.q_target.copy_from(self.q_main)

    @property
    def actions(self) -> ActionSet:
        return self.q_main.actions


def n_step_transitions(transitions, n: int) -> list:
    """Fold every step of one episode with the n - 1 steps that follow it.

    Step t becomes (s_t, a_t, r_t, s_{t+k}) carrying the later rewards
    r_{t+1} .. r_{t+k-1}, with k = min(n, steps left in the episode), so a
    window that reaches the end of the episode is terminal. n = 1 returns
    the one-step transitions.
    """
    out = []
    for i, t in enumerate(transitions):
        window = transitions[i : i + n]
        last = window[-1]
        later = tuple(w.reward for w in window[1:])
        out.append(Transition(t.state, t.action, t.reward, last.next_state, last.terminal, later))
    return out


def hindsight_transitions(transitions, k: int) -> list:
    """Segments of up to k steps of one episode, relabelled as whole episodes.

    For step t and j < k with t + j + 1 < T, the j + 1 steps from s_t cover
    c = a_t + ... + a_{t+j} hours. The state s_t with c hours remaining (lead
    travel + c) and the state those steps reach, with none remaining, form a
    terminal transition that carries their rewards. Segments that end the
    episode are left out: `n_step_transitions` stores them already.
    """
    out = []
    T = len(transitions)
    for i, t in enumerate(transitions):
        covered = 0
        for j in range(min(k, T - 1 - i)):
            covered += transitions[i + j].action
            lead = t.state.travel_h + covered
            end = transitions[i + j].next_state
            later = tuple(w.reward for w in transitions[i + 1 : i + j + 1])
            out.append(
                Transition(
                    replace(t.state, remaining_h=covered, lead_h=lead),
                    t.action,
                    t.reward,
                    replace(end, remaining_h=0, lead_h=lead),
                    True,
                    later,
                )
            )
    return out


class ReplayBuffer:
    """Episode store with uniform transition sampling.

    Episodes are kept as (spec, actions, epoch added, folded transitions), so
    a refresh can replay their action lists through the current environment.
    Each episode is stored as one n-step transition per step
    (`n_step_transitions`) plus its relabelled segments of up to
    hindsight_steps steps (`hindsight_transitions`). Episodes over capacity
    are evicted oldest first, and a refresh evicts those past max_age.
    """

    def __init__(self, capacity: int = 50_000, n_step: int = N_STEP, hindsight_steps: int = HINDSIGHT_STEPS):
        if n_step < 1:
            raise ValueError(f"n_step must be >= 1, got {n_step}")
        self.capacity = capacity
        self.n_step = n_step
        self.hindsight_steps = hindsight_steps
        self.episodes: list = []  # dicts: spec, actions, epoch, folded (its stored transitions)
        self.transitions: list = []

    def __len__(self):
        return len(self.transitions)

    def _fold(self, transitions) -> list:
        return n_step_transitions(transitions, self.n_step) + hindsight_transitions(
            transitions, self.hindsight_steps
        )

    def add_episode(self, spec, actions, transitions, epoch: int):
        folded = self._fold(transitions)
        self.episodes.append({"spec": spec, "actions": list(actions), "epoch": epoch, "folded": folded})
        self.transitions.extend(folded)
        self._enforce_capacity()

    def _enforce_capacity(self):
        while self.episodes and len(self.transitions) > self.capacity:
            dropped = self.episodes.pop(0)
            self.transitions = self.transitions[len(dropped["folded"]):]

    def sample(self, batch_size: int, rng: np.random.Generator) -> list:
        idx = rng.integers(0, len(self.transitions), size=batch_size)
        return [self.transitions[i] for i in idx]

    def refresh(self, env, current_epoch: int, max_age: int):
        """Evict episodes past max_age, and replay the stored episodes of earlier
        epochs through the current environment in one `run_episodes` call.

        The fine-tuned forecaster changes the environment between epochs, so
        stored rewards and next states go stale; replaying the same action
        lists regenerates them. Episodes added in current_epoch were collected
        from the environment as it is now: a replay would repeat every forecast.
        """
        self.episodes = [e for e in self.episodes if current_epoch - e["epoch"] <= max_age]
        stale = [e for e in self.episodes if e["epoch"] < current_epoch]
        outcomes = run_episodes(env, [e["spec"] for e in stale], plan_chooser([e["actions"] for e in stale]))
        for e, (_, transitions, _) in zip(stale, outcomes):
            e["folded"] = self._fold(transitions)
        self.transitions = [t for e in self.episodes for t in e["folded"]]


# -- temporal-difference updates -------------------------------------------------------


def td_target(reward: float, gamma: float, max_next_q: float, terminal: bool) -> float:
    """One-step bootstrapped target: R + gamma * max_a q(S', a); R alone at terminal."""
    return reward if terminal else reward + gamma * max_next_q


def td_targets(batch, dqn: DQN) -> np.ndarray:
    """Targets for a minibatch, masking illegal next actions and terminals.

    A transition folding k steps has the target
    sum_{j<k} gamma^j r_{t+j} + gamma^k * max_a q_target(S_{t+k}, a), the
    reward sum alone at the terminal, with gamma from the DQN config. For a
    one-step transition that is the one-step target.
    """
    gamma = dqn.cfg.gamma
    targets = np.zeros(len(batch))
    non_terminal = [t for t in batch if not t.terminal]
    next_q = {}
    if non_terminal:
        next_states = [t.next_state for t in non_terminal]
        with dc.no_grad():
            qb = dqn.q_target.q_values_batch(next_states).data
        best = np.max(dqn.actions.mask_illegal(qb, [s.remaining_h for s in next_states]), axis=1)
        next_q = {id(t): q for t, q in zip(non_terminal, best)}
    for i, t in enumerate(batch):
        ret = sum(gamma**j * r for j, r in enumerate(t.rewards))
        targets[i] = td_target(ret, gamma**t.steps, next_q.get(id(t), 0.0), t.terminal)
    return targets


def td_update(batch, dqn: DQN) -> float:
    """One gradient step of q_main toward the TD targets; returns the loss.
    A non-finite loss raises DivergenceError before the step."""
    targets = td_targets(batch, dqn)
    dqn.optimizer.zero_grad()
    q = dqn.q_main.q_values_batch([t.state for t in batch])  # (B, A)
    idx = np.array([[dqn.actions.index_of(t.action)] for t in batch])
    q_taken = dc.gather_cols(q, idx)  # (B, 1)
    diff = dc.sub(q_taken, Tensor(targets[:, None]))
    loss = dc.tensor_mean(dc.mul(diff, diff))
    if not np.isfinite(loss.data):
        raise DivergenceError("non-finite TD loss")
    dc.backward(loss)
    dqn.optimizer.step()
    return float(loss.data)
