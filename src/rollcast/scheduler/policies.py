"""Rollout policies: fixed decompositions of a lead time plus the learned one."""

from __future__ import annotations

import numpy as np

from .env import EnvState
from .dqn import DQN, QNetwork


def policy_naive(lead_h: int, intervals=(6, 12, 24)) -> list:
    """Smallest interval repeated: 138h -> 23 x 6h."""
    step = min(intervals)
    if lead_h % step:
        raise ValueError(f"lead {lead_h}h not a multiple of {step}h")
    return [step] * (lead_h // step)


def policy_greedy(lead_h: int, intervals=(6, 12, 24)) -> list:
    """Largest legal interval first: 138h -> 24h x 5 + 12h + 6h."""
    remaining = lead_h
    out = []
    ordered = sorted(intervals, reverse=True)
    while remaining > 0:
        legal = [d for d in ordered if d <= remaining]
        if not legal:
            raise ValueError(f"no legal interval for remaining {remaining}h")
        out.append(legal[0])
        remaining -= legal[0]
    return out


def policy_random(lead_h: int, seed: int, intervals=(6, 12, 24)) -> list:
    """Uniform over the legal actions at each step, seeded."""
    rng = np.random.default_rng(seed)
    remaining = lead_h
    out = []
    while remaining > 0:
        legal = [d for d in intervals if d <= remaining]
        choice = int(rng.choice(legal))
        out.append(choice)
        remaining -= choice
    return out


def policy_adaptive(state: EnvState, dqn: DQN, epsilon: float = 0.0,
                    rng: np.random.Generator | None = None) -> int:
    """Argmax of q_main over legal actions; epsilon-greedy during training."""
    legal = dqn.actions.legal(state.remaining_h)
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon-greedy needs an rng")
        if rng.random() < epsilon:
            return int(rng.choice(legal))
    return dqn.q_main.greedy_actions([state])[0]


def plan_chooser(plans, q_net: QNetwork | None = None):
    """A `run_episodes` chooser: episode i takes the intervals of plans[i] in
    order, or, where plans[i] is None, q_net's greedy legal action. The
    states of a tick that q_net decides are valued together."""
    steps = [None if plan is None else iter(plan) for plan in plans]

    def choose(ids, states):
        actions = [None if steps[i] is None else next(steps[i]) for i in ids]
        learned = [k for k, i in enumerate(ids) if steps[i] is None]
        if learned:
            for k, action in zip(learned, q_net.greedy_actions([states[k] for k in learned])):
                actions[k] = action
        return actions

    return choose
