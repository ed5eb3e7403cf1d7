"""The forecasting environment: the trained model plus the truth dataset.

An episode starts from a true state and walks forward by chosen intervals
until the lead time is exhausted; each step forecasts with the model, is
scored against the dataset truth, and feeds its own forecast back in.
Illegal actions (interval longer than the remaining time) raise, never clip.

`run_episodes` is the one rollout engine. It advances any number of episodes
in lockstep: at each tick one `choose` call picks the intervals of every live
episode (so a learned policy values all of them in one batched Q-network
call), the live states are grouped by chosen interval, and each group is
forecast in one batched model call (`ForecastEnv.step_batch`, in chunks of at
most `MAX_BATCH` states). Episodes with the same start, lead and
interval prefix hold the same state object and share its forecasts.
`run_episode` is the engine with one episode, so each of its steps is a
`step_batch` of one state: the same arithmetic as `ForecastEnv.step`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gridio import Dataset, GridField
from ..metrics import WeightTable, lat_weights, step_reward, trajectory_return
from ..model import ForecastModel

# Most states in one forecaster or Q-network call. Measured forecast cost per
# state on the desk-scale model, one BLAS thread: 1.11-1.19 ms at B=16,
# 1.17-1.32 at B=32, 1.40 at B=48, 1.47-1.63 at B=64 and 1.56-1.73 at B=128,
# against 2.4-2.8 ms at B=1. Past 32 a larger batch costs more per state, and
# its working memory grows with it (one Q-network call on 200 states took
# 40 MB).
MAX_BATCH = 32
NEG_INF = -1e30  # mask value for illegal actions


@dataclass(frozen=True)
class EpisodeSpec:
    t0_hours: int
    lead_h: int


@dataclass
class EnvState:
    x_hat: GridField  # current (predicted) state
    date_time_hours: int  # absolute timestamp of x_hat
    travel_h: int
    remaining_h: int
    lead_h: int

    def __post_init__(self):
        if self.travel_h + self.remaining_h != self.lead_h:
            raise ValueError(
                f"travel {self.travel_h} + remaining {self.remaining_h} != lead {self.lead_h}"
            )
        if self.remaining_h < 0:
            raise ValueError("remaining time must be non-negative")

    @property
    def episode_start_hours(self) -> int:
        return self.date_time_hours - self.travel_h


@dataclass
class Transition:
    """state --action--> next_state, `steps` environment steps later.

    `reward` is the reward of taking `action` in `state`. A one-step
    transition (all that `ForecastEnv.step` makes) has no `later_rewards`; a
    folded one (see `n_step_transitions`) keeps the rewards of the steps that
    follow, undiscounted, so the learner applies its own discount.
    """

    state: EnvState
    action: int
    reward: float
    next_state: EnvState
    terminal: bool
    later_rewards: tuple = ()

    def __post_init__(self):
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("reward must be finite")

    @property
    def rewards(self) -> tuple:
        return (self.reward, *self.later_rewards)

    @property
    def steps(self) -> int:
        return 1 + len(self.later_rewards)


@dataclass
class Trajectory:
    """Visited timestamps (offsets from episode start), intervals, rewards."""

    timestamps: list = field(default_factory=list)
    intervals: list = field(default_factory=list)
    rewards: list = field(default_factory=list)

    def append(self, interval: int, reward: float):
        last = self.timestamps[-1] if self.timestamps else 0
        self.timestamps.append(last + interval)
        self.intervals.append(interval)
        self.rewards.append(reward)

    @property
    def return_value(self) -> float:
        return trajectory_return(self.rewards)

    def __len__(self):
        return len(self.intervals)


class ActionSet:
    """Discrete interval actions masked by the remaining time."""

    def __init__(self, intervals):
        self.intervals = tuple(sorted(int(d) for d in intervals))

    def legal(self, remaining_h: int) -> list:
        return [d for d in self.intervals if d <= remaining_h]

    def index_of(self, action: int) -> int:
        return self.intervals.index(int(action))

    def mask_illegal(self, q: np.ndarray, remaining_h) -> np.ndarray:
        """(B, A) action values with each row's illegal actions set to NEG_INF."""
        legal = np.asarray(self.intervals)[None, :] <= np.asarray(remaining_h)[:, None]
        return np.where(legal, q, NEG_INF)

    def best_legal(self, q: np.ndarray, remaining_h) -> list:
        """The highest-valued legal interval of each row of (B, A) action values."""
        best = np.argmax(self.mask_illegal(q, remaining_h), axis=1)
        return [self.intervals[int(j)] for j in best]


class ForecastEnv:
    """Couples a forecast model with the dataset it is scored against."""

    def __init__(self, model: ForecastModel, dataset: Dataset, omega: float,
                 weights: WeightTable | None = None):
        self.model = model
        self.dataset = dataset
        self.omega = float(omega)
        self.weights = weights or lat_weights(dataset.spec)
        self.actions = ActionSet(model.cfg.intervals)

    def reset(self, episode: EpisodeSpec) -> EnvState:
        step_h = min(self.actions.intervals)
        if episode.lead_h <= 0 or episode.lead_h % step_h != 0:
            raise ValueError(
                f"lead {episode.lead_h}h is not reachable in {step_h}h multiples"
            )
        x0 = self.dataset.at(episode.t0_hours)
        self.dataset.at(episode.t0_hours + episode.lead_h)  # target must exist
        return EnvState(
            x_hat=x0,
            date_time_hours=episode.t0_hours,
            travel_h=0,
            remaining_h=episode.lead_h,
            lead_h=episode.lead_h,
        )

    def step(self, state: EnvState, action: int):
        """One step of one state: `step_batch` at B=1. Returns (transition, next state)."""
        return self.step_batch([state], action)[0]

    def step_batch(self, states, action: int) -> list:
        """Step every state by the same interval with one batched forecast.

        Returns one (transition, next state) pair per state; a state whose
        remaining time is shorter than `action` raises ValueError.
        """
        for state in states:
            legal = self.actions.legal(state.remaining_h)
            if action not in legal:
                raise ValueError(
                    f"illegal action {action}h with {state.remaining_h}h remaining; legal: {legal}"
                )
        forecasts = self.model.forecast_batch(np.stack([s.x_hat.values for s in states]), action)
        out = []
        for state, values in zip(states, forecasts):
            forecast = GridField(self.model.spec, values, state.x_hat.timestamp_hours + action)
            truth = self.dataset.at(state.date_time_hours + action)
            reward = step_reward(forecast.values, truth.values, self.weights, self.omega)
            next_state = EnvState(
                x_hat=forecast,
                date_time_hours=state.date_time_hours + action,
                travel_h=state.travel_h + action,
                remaining_h=state.remaining_h - action,
                lead_h=state.lead_h,
            )
            transition = Transition(state, action, reward, next_state, next_state.remaining_h == 0)
            out.append((transition, next_state))
        return out


def run_episodes(env: ForecastEnv, episodes, choose, keep_transitions: bool = True) -> list:
    """Walk every episode to termination in lockstep.

    choose(ids, states) returns one interval per live episode: ids index
    `episodes` and states are those episodes' current EnvStates, in the same
    order. Each tick forecasts every distinct (state, interval) pair once,
    grouped by interval. Episodes that share a start, lead and interval
    prefix share their EnvState and Transition objects.

    Returns one (trajectory, transitions, final_state) per episode. Without
    keep_transitions the transitions are None and only the live states are
    held, not every state each episode visited.
    """
    starts = {}
    for episode in episodes:
        if episode not in starts:
            starts[episode] = env.reset(episode)
    states = [starts[e] for e in episodes]
    trajectories = [Trajectory() for _ in states]
    transitions = [[] if keep_transitions else None for _ in states]
    live = list(range(len(states)))
    while live:
        actions = [int(a) for a in choose(live, [states[i] for i in live])]
        if len(actions) != len(live):
            raise ValueError(f"choose gave {len(actions)} actions for {len(live)} live episodes")
        stepped = {}  # (id of state, action) -> (transition, next state)
        groups = {}  # action -> the distinct states taking it
        for i, action in zip(live, actions):
            key = (id(states[i]), action)
            if key not in stepped:
                stepped[key] = None
                groups.setdefault(action, []).append(states[i])
        for action, group in groups.items():
            for lo in range(0, len(group), MAX_BATCH):
                chunk = group[lo : lo + MAX_BATCH]
                for state, result in zip(chunk, env.step_batch(chunk, action)):
                    stepped[(id(state), action)] = result
        for i, action in zip(live, actions):
            transition, states[i] = stepped[(id(states[i]), action)]
            trajectories[i].append(action, transition.reward)
            if keep_transitions:
                transitions[i].append(transition)
        live = [i for i in live if states[i].remaining_h > 0]
    return list(zip(trajectories, transitions, states))


def run_episode(env: ForecastEnv, episode: EpisodeSpec, action_fn):
    """Walk one episode to termination; action_fn maps EnvState -> interval.

    Returns (trajectory, transitions, final_state).
    """
    return run_episodes(env, [episode], lambda ids, states: [action_fn(states[0])])[0]
