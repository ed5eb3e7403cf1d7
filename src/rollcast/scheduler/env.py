"""The forecasting environment: the trained model plus the truth dataset.

An episode starts from a true state and walks forward by chosen intervals
until the lead time is exhausted; each step forecasts with the model, is
scored against the dataset truth, and feeds its own forecast back in.
Illegal actions (interval longer than the remaining time) raise, never clip:
`ActionSet.check` is the one legality test, and `EnvState.advance` the one
way a forecast becomes the next state.

`run_episodes` is the one rollout engine. It advances any number of episodes
in lockstep: at each tick one `choose` call picks the intervals of every live
episode (so a learned policy values all of them in one batched Q-network
call), and one `ForecastEnv.step_batch` call steps every live state by its
own interval. Its forecast (`ForecastModel.forecast_batch`) sorts the states
by interval and runs chunks of at most `MAX_BATCH` states, a chunk mixing
intervals. Episodes with the same start, lead and interval prefix
hold the same state object and share its forecasts; `plan_chooser` feeds it
stored or fixed plans, or the greedy choices of a Q-network, as in the
head-update walks of `finetune.rollout_finetune_loss`. `run_episode` is the
engine with one episode, each step forecasting one state. Fine-tune
collection keeps it: its epsilon-greedy episodes share one RNG stream, and a
probe that gave each episode its own stream and stepped them in one
`run_episodes` call failed acceptance criterion 10 at seed 0 (adaptive
−0.938 ± 0.154 against greedy). The benchmark's single forecasts keep it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gridio import Dataset, GridField
from ..metrics import lat_weights, step_reward, trajectory_return
from ..model import ForecastModel

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

    def advance(self, action: int, values: np.ndarray) -> "EnvState":
        """The state `action` hours on, whose x_hat holds the forecast `values`."""
        t = self.date_time_hours + action
        return EnvState(GridField(self.x_hat.spec, values, t), t, self.travel_h + action,
                        self.remaining_h - action, self.lead_h)


@dataclass
class Transition:
    """state --action--> next_state, `steps` environment steps later.

    `reward` is the reward of taking `action` in `state`. A one-step
    transition (all that `ForecastEnv.step_batch` makes) has no `later_rewards`; a
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
    """The intervals an episode took and the rewards they earned."""

    intervals: list = field(default_factory=list)
    rewards: list = field(default_factory=list)

    def append(self, interval: int, reward: float):
        self.intervals.append(interval)
        self.rewards.append(reward)

    @property
    def return_value(self) -> float:
        return trajectory_return(self.rewards)

    def __len__(self):
        return len(self.intervals)


class ActionSet:
    """Discrete interval actions masked by the remaining time.

    The intervals arrive in the model config's increasing order
    (`ModelConfig.intervals`), which is also the order of the Q-head columns.
    """

    def __init__(self, intervals):
        self.intervals = tuple(intervals)

    def legal(self, remaining_h: int) -> list:
        return [d for d in self.intervals if d <= remaining_h]

    def check(self, action: int, remaining_h: int):
        """Raise ValueError unless `action` is legal with `remaining_h` hours left."""
        legal = self.legal(remaining_h)
        if action not in legal:
            raise ValueError(f"illegal action {action}h with {remaining_h}h remaining; legal: {legal}")

    def index_of(self, action: int) -> int:
        """The Q-head column of an interval. Raises KeyError naming an
        interval the set lacks, as `ModelConfig.position_of` does."""
        try:
            return self.intervals.index(int(action))
        except ValueError:
            raise KeyError(f"unknown action {action}h; actions are {self.intervals}") from None

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
                 weights: np.ndarray | None = None):
        self.model = model
        self.dataset = dataset
        self.omega = float(omega)
        self.weights = lat_weights(dataset.spec) if weights is None else weights
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
        return self.step_batch([state], [action])[0]

    def step_batch(self, states, actions) -> list:
        """Step each state by its own interval, all in one batched forecast.

        Returns one (transition, next state) pair per state; a state whose
        remaining time is shorter than its action raises ValueError.
        """
        for state, action in zip(states, actions):
            self.actions.check(action, state.remaining_h)
        forecasts = self.model.forecast_batch(np.stack([s.x_hat.values for s in states]), actions)
        out = []
        for state, action, values in zip(states, actions, forecasts):
            next_state = state.advance(action, values)
            truth = self.dataset.at(next_state.date_time_hours)
            reward = step_reward(next_state.x_hat.values, truth.values, self.weights, self.omega)
            transition = Transition(state, action, reward, next_state, next_state.remaining_h == 0)
            out.append((transition, next_state))
        return out


def run_episodes(env: ForecastEnv, episodes, choose, keep_transitions: bool = True) -> list:
    """Walk every episode to termination in lockstep.

    choose(ids, states) returns one interval per live episode: ids index
    `episodes` and states are those episodes' current EnvStates, in the same
    order. Each tick forecasts every distinct (state, interval) pair once,
    all in one `step_batch` call. Episodes that share a start, lead and
    interval prefix share their EnvState and Transition objects.

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
        pairs = {}  # (id of state, action) -> the first live episode taking it
        for i, action in zip(live, actions):
            pairs.setdefault((id(states[i]), action), i)
        stepped = env.step_batch([states[i] for i in pairs.values()], [a for _, a in pairs])
        rows = dict(zip(pairs, stepped))
        for i, action in zip(live, actions):
            transition, states[i] = rows[(id(states[i]), action)]
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


def plan_chooser(plans, q_net=None):
    """A `run_episodes` chooser: episode i takes the intervals of plans[i] in
    order, or, where plans[i] is None, the greedy legal action of q_net (a
    `QNetwork`). The states of a tick that q_net decides are valued together."""
    steps = [None if plan is None else iter(plan) for plan in plans]

    def choose(ids, states):
        actions = [None if steps[i] is None else next(steps[i]) for i in ids]
        learned = [k for k, i in enumerate(ids) if steps[i] is None]
        if learned:
            for k, action in zip(learned, q_net.greedy_actions([states[k] for k in learned])):
                actions[k] = action
        return actions

    return choose
