"""Environment contracts, TD arithmetic, policies, buffer, and fine-tune gradients."""

import contextlib
import gc
import zlib
from dataclasses import replace

import numpy as np
import pytest

from rollcast import diffcore as dc
from rollcast.diffcore import Tensor
from rollcast.encoding import patchify
from rollcast.gridio import Dataset, GridField, GridSpec, generate_synthetic, default_splits
from rollcast.metrics import lat_weights
from rollcast.model import MAX_BATCH, ForecastModel, ModelConfig, attention, weighted_patch_loss
from rollcast.scheduler import (
    DQN,
    DQNConfig,
    EpisodeSpec,
    ForecastEnv,
    ReplayBuffer,
    adaptive_rollout_finetune,
    evaluate_policies,
    plan_chooser,
    policy_adaptive,
    policy_greedy,
    policy_naive,
    policy_random,
    rollout_finetune_loss,
    rollout_forecast_fn,
    run_episode,
    run_episodes,
    td_target,
    td_targets,
    td_update,
)
from rollcast.scheduler.dqn import QNetwork, hindsight_transitions
from rollcast.scheduler.env import EnvState
from rollcast.scheduler import finetune
from rollcast.scheduler.finetune import FinetuneConfig, RolloutLossParts, resolve_omega, sample_episode

SPEC = GridSpec.cell_centered(2, 8, 16)
MODEL_CFG = ModelConfig(
    embed_dim=16, num_blocks=1, num_heads=2, patch_size=4,
    moe_num_private=2, moe_top_k=1, moe_alpha=0.01,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(SPEC, 400, seed=21, splits=default_splits(400))


@pytest.fixture(scope="module")
def model(dataset):
    return ForecastModel.from_dataset(MODEL_CFG, dataset, seed=21)


@pytest.fixture()
def env(model, dataset):
    return ForecastEnv(model, dataset, omega=-0.1)


@pytest.fixture(scope="module")
def model64(dataset):
    """The `model` fixture's forecaster built in float64, for float64 oracles."""
    with dc.float64():
        return ForecastModel.from_dataset(MODEL_CFG, dataset, seed=21)


@pytest.fixture()
def env64(model64, dataset):
    return ForecastEnv(model64, dataset, omega=-0.1)


# -- environment -----------------------------------------------------------------


def test_reset_contract(env, dataset):
    t0 = dataset.fields[0].timestamp_hours
    state = env.reset(EpisodeSpec(t0, 138))
    assert state.remaining_h == 138 and state.travel_h == 0 and state.lead_h == 138
    np.testing.assert_array_equal(state.x_hat.values, dataset.fields[0].values)
    one = env.reset(EpisodeSpec(t0, 6))
    assert one.remaining_h == 6
    with pytest.raises(ValueError, match="reachable"):
        env.reset(EpisodeSpec(t0, 7))
    with pytest.raises(IndexError):
        env.reset(EpisodeSpec(t0, 6 * 10_000))  # lead beyond the dataset


def test_action_masking(env):
    assert env.actions.legal(6) == [6]
    assert env.actions.legal(18) == [6, 12]
    assert env.actions.legal(24) == [6, 12, 24]
    assert env.actions.legal(0) == []


def test_illegal_action_raises_not_clips(env, dataset):
    state = env.reset(EpisodeSpec(dataset.fields[0].timestamp_hours, 18))
    with pytest.raises(ValueError, match="illegal action 24"):
        env.step(state, 24)


def test_perfect_model_on_constant_dataset_earns_omega(model):
    # constant series: persistence (the zero-init head) is a perfect forecaster
    const = np.ones(SPEC.shape) * 5.0
    fields = [GridField(SPEC, const, t * 6) for t in range(40)]
    ds = Dataset(SPEC, fields)
    fresh = ForecastModel(MODEL_CFG, SPEC, model.norm_mean, model.norm_std, seed=0)
    env = ForecastEnv(fresh, ds, omega=-0.07)
    traj, transitions, _ = run_episode(env, EpisodeSpec(0, 24), lambda s: 6)
    assert all(abs(t.reward - (-0.07)) < 1e-12 for t in transitions)
    assert traj.return_value == pytest.approx(-0.28)


def test_episode_terminates_exactly_at_lead(env, dataset):
    t0 = dataset.fields[0].timestamp_hours
    traj, transitions, final = run_episode(env, EpisodeSpec(t0, 30), lambda s: max(env.actions.legal(s.remaining_h)))
    assert sum(traj.intervals) == 30
    assert final.remaining_h == 0
    assert transitions[-1].terminal and not any(t.terminal for t in transitions[:-1])


# -- lockstep rollout engine ---------------------------------------------------------


def _count_forecast_rows(monkeypatch, model):
    """Record the batch size of every forecaster call made through forward_tokens."""
    sizes = []
    real = model.forward_tokens

    def counted(x_batch, delta):
        sizes.append(len(x_batch))
        return real(x_batch, delta)

    monkeypatch.setattr(model, "forward_tokens", counted)
    return sizes


def _count_step_batches(monkeypatch):
    """Record the actions of every ForecastEnv.step_batch call, one list per call."""
    calls = []
    real = ForecastEnv.step_batch

    def counted(self, states, actions):
        calls.append(list(actions))
        return real(self, states, actions)

    monkeypatch.setattr(ForecastEnv, "step_batch", counted)
    return calls


def _assert_same_outcome(batched, single):
    (traj, transitions, final), (traj1, transitions1, final1) = batched, single
    assert traj.intervals == traj1.intervals
    np.testing.assert_allclose(traj.rewards, traj1.rewards, rtol=0, atol=1e-12)
    assert len(transitions) == len(transitions1)
    for t, t1 in zip(transitions, transitions1):
        assert (t.action, t.terminal) == (t1.action, t1.terminal)
        for a, b in ((t.state, t1.state), (t.next_state, t1.next_state)):
            assert (a.date_time_hours, a.travel_h, a.remaining_h, a.lead_h) == (
                b.date_time_hours, b.travel_h, b.remaining_h, b.lead_h)
            np.testing.assert_allclose(a.x_hat.values, b.x_hat.values, rtol=0, atol=1e-12)
    assert final.x_hat.timestamp_hours == final1.x_hat.timestamp_hours
    assert final.remaining_h == final1.remaining_h == 0
    np.testing.assert_allclose(final.x_hat.values, final1.x_hat.values, rtol=0, atol=1e-12)


def test_run_episodes_matches_one_run_episode_per_episode(env, model, dataset):
    dqn = DQN(model, DQNConfig(), seed=15)
    lo, _ = dataset.splits["test"]
    t0s = [dataset.fields[lo + 3 * i].timestamp_hours for i in range(3)]
    intervals = env.actions.intervals
    episodes, plans = [], []
    for lead in (6, 30, 138):
        for i, t0 in enumerate(t0s):
            for plan in (policy_naive(lead, intervals), policy_greedy(lead, intervals),
                         policy_random(lead, seed=i, intervals=intervals), None):
                episodes.append(EpisodeSpec(t0, lead))
                plans.append(plan)
    outcomes = run_episodes(env, episodes, plan_chooser(plans, dqn.q_main))
    assert len(outcomes) == len(episodes)
    for episode, plan, outcome in zip(episodes, plans, outcomes):
        if plan is None:
            action_fn = lambda s: policy_adaptive(s, dqn)
        else:
            steps = iter(plan)
            action_fn = lambda s, steps=steps: next(steps)
        single = run_episode(env, episode, action_fn)
        _assert_same_outcome(outcome, single)
        if plan is not None:
            assert outcome[0].intervals == plan


def test_run_episode_keeps_the_single_state_arithmetic(env, model, dataset):
    # a lone episode forecasts at B=1, bit for bit the model's own rollout
    steps = [24, 12, 6, 24]
    x0 = dataset.fields[5]
    seq = iter(steps)
    _, _, final = run_episode(env, EpisodeSpec(x0.timestamp_hours, 66), lambda s: next(seq))
    np.testing.assert_array_equal(final.x_hat.values, model.predict_rollout(x0, steps)[-1].values)


def test_run_episodes_illegal_action_raises(env, dataset):
    t0 = dataset.fields[0].timestamp_hours
    episodes = [EpisodeSpec(t0, 18), EpisodeSpec(t0 + 6, 18)]
    with pytest.raises(ValueError, match="illegal action 24h with 18h remaining"):
        run_episodes(env, episodes, lambda ids, states: [24] * len(ids))
    with pytest.raises(ValueError, match="illegal action 24h with 18h remaining"):
        run_episodes(env, episodes[:1], lambda ids, states: [24])
    with pytest.raises(ValueError, match="1 actions for 2 live episodes"):
        run_episodes(env, episodes, lambda ids, states: [6])


def test_run_episodes_splits_groups_larger_than_the_chunk(monkeypatch, env, model, dataset):
    n = 2 * MAX_BATCH + 6
    episodes = [EpisodeSpec(dataset.fields[i].timestamp_hours, 12) for i in range(n)]
    sizes = _count_forecast_rows(monkeypatch, model)
    calls = _count_step_batches(monkeypatch)
    # odd episodes take 12h at once, even ones 6h twice
    outcomes = run_episodes(env, episodes, lambda ids, states: [12 if i % 2 else 6 for i in ids])
    # one call per tick; its forecast splits the tick's states into chunks
    # that mix the two intervals
    assert [len(c) for c in calls] == [n, n // 2]
    assert sorted(calls[0]) == [6] * (n // 2) + [12] * (n // 2)
    assert sizes == [MAX_BATCH, MAX_BATCH, 6, MAX_BATCH, 3]
    assert all(traj.intervals == ([12] if i % 2 else [6, 6]) for i, (traj, _, _) in enumerate(outcomes))
    monkeypatch.undo()
    for i in (0, 1, n - 2, n - 1):
        seq = iter(outcomes[i][0].intervals)
        _assert_same_outcome(outcomes[i], run_episode(env, episodes[i], lambda s: next(seq)))


def test_shared_prefix_costs_one_forecast_per_shared_step(monkeypatch, env, model, dataset):
    t0 = dataset.fields[7].timestamp_hours
    plans = [[24, 12, 12], [24, 12, 6, 6], [24, 12, 12]]
    episodes = [EpisodeSpec(t0, 48)] * 3
    sizes = _count_forecast_rows(monkeypatch, model)
    calls = _count_step_batches(monkeypatch)
    outcomes = run_episodes(env, episodes, plan_chooser(plans))
    # 24h and 12h once for all three; then 12h and 6h in one call; the last 6h once
    assert calls == [[24], [12], [12, 6], [6]]
    assert sizes == [1, 1, 2, 1]
    assert outcomes[0][1] == outcomes[2][1]  # identical episodes share every transition
    assert outcomes[0][1][:2] == outcomes[1][1][:2]
    monkeypatch.undo()
    for plan, episode, outcome in zip(plans, episodes, outcomes):
        seq = iter(plan)
        _assert_same_outcome(outcome, run_episode(env, episode, lambda s: next(seq)))


def test_rollout_forecast_fn_rolls_every_pair_out_at_once(monkeypatch, env, model, dataset):
    dqn = DQN(model, DQNConfig(), seed=16)
    lo, _ = dataset.splits["test"]
    starts = [dataset.fields[lo + i].timestamp_hours for i in (0, 4)]
    pairs = [(t0, lead) for lead in (24, 72) for t0 in starts]
    x0s = [dataset.at(t0) for t0, _ in pairs]
    leads = [lead for _, lead in pairs]
    intervals = env.actions.intervals
    for policy, q_net, action_fn in (
        ("greedy", None, None),
        ("adaptive", dqn.q_main, lambda s: policy_adaptive(s, dqn)),
    ):
        sizes = _count_forecast_rows(monkeypatch, model)
        calls = _count_step_batches(monkeypatch)
        finals = rollout_forecast_fn(env, policy, q_net)(x0s, leads)
        monkeypatch.undo()
        assert max(sizes) > 1  # episodes of both leads share forecaster calls
        ticks = 0
        for (t0, lead), final in zip(pairs, finals):
            if action_fn is None:
                plan = policy_greedy(lead, intervals)
                expect = model.predict_rollout(dataset.at(t0), plan, lead_hours=lead)[-1]
            else:
                traj, _, state = run_episode(env, EpisodeSpec(t0, lead), action_fn)
                plan, expect = traj.intervals, state.x_hat
            ticks = max(ticks, len(plan))
            assert final.timestamp_hours == t0 + lead
            np.testing.assert_allclose(final.values, expect.values, rtol=0, atol=1e-12)
        assert len(calls) == ticks  # one step_batch call per tick of the longest episode


# -- DQN -----------------------------------------------------------------------------


def test_q_values_deterministic_and_masked_argmax_legal(env, model, dataset):
    dqn = DQN(model, DQNConfig(), seed=3)
    state = env.reset(EpisodeSpec(dataset.fields[0].timestamp_hours, 18))
    a = dqn.q_main.q_values(state)
    b = dqn.q_main.q_values(state)
    np.testing.assert_array_equal(a, b)
    masked = dqn.actions.mask_illegal(a[None, :], [18])[0]
    np.testing.assert_array_equal(masked[:2], a[:2])
    assert masked[2] < -1e29  # 24h is illegal with 18h remaining
    chosen = dqn.q_main.greedy_actions([state])[0]
    assert chosen == dqn.actions.intervals[int(np.argmax(masked))]
    assert chosen in env.actions.legal(18)


def test_q_network_reads_weather_anomalies(model, dataset):
    qnet = DQN(model, DQNConfig(), seed=4).q_main
    values = dataset.fields[3].values
    shifted = values + np.array([2.5, -1.0])[:, None, None]
    np.testing.assert_allclose(qnet._weather_tokens(shifted), qnet._weather_tokens(values), atol=1e-12)
    assert qnet.temporal.phase_hours == (12.0, 24.0)


@pytest.mark.usefixtures("float64")
def test_q_network_matches_manual_attention_arithmetic(model64, dataset, env64):
    dqn = DQN(model64, DQNConfig(), seed=4)
    qnet = dqn.q_main
    state = env64.reset(EpisodeSpec(dataset.fields[2].timestamp_hours, 24))

    # independent numpy replay of the network math
    weather = qnet._weather_tokens(state.x_hat.values)  # (L, D)
    feats = qnet.temporal.features(state.date_time_hours, 0, 24, 24)
    temporal = feats @ qnet.temporal.weight.data + qnet.temporal.bias.data[0]
    full = np.vstack([weather, temporal])  # (L+1, D)
    mu = full.mean(axis=1, keepdims=True)
    sd = np.sqrt(((full - mu) ** 2).mean(axis=1, keepdims=True) + 1e-5)
    h = (full - mu) / sd
    p = qnet.params()
    q = h @ p["q.attn.wq.weight"].data + p["q.attn.wq.bias"].data
    k = h @ p["q.attn.wk.weight"].data
    v = h @ p["q.attn.wv.weight"].data + p["q.attn.wv.bias"].data
    D = qnet.embed_dim
    dh = D // qnet.num_heads
    outs = []
    for i in range(qnet.num_heads):
        qs, ks, vs = (m[:, i * dh : (i + 1) * dh] for m in (q, k, v))
        sc = qs @ ks.T / np.sqrt(dh)
        sc = np.exp(sc - sc.max(axis=1, keepdims=True))
        sc /= sc.sum(axis=1, keepdims=True)
        outs.append(sc @ vs)
    att = np.hstack(outs) @ p["q.attn.wo.weight"].data + p["q.attn.wo.bias"].data
    h = h + att
    expected = h[-1] @ p["q.head.weight"].data + p["q.head.bias"].data[0]

    np.testing.assert_allclose(qnet.q_values(state), expected, atol=1e-10)


def full_attention_q(qnet, states) -> Tensor:
    """The Q-values through full (L+1)x(L+1) self-attention, every token a query,
    with the temporal row read out after the residual: the graph the
    class-attention readout replaces, kept as its oracle."""
    B, L, D = len(states), qnet.num_tokens, qnet.embed_dim
    p = qnet.params()
    weather = np.stack([qnet._weather_tokens(s.x_hat.values) for s in states])
    feats = np.stack([qnet.temporal.features(s.date_time_hours, s.travel_h, s.remaining_h, s.lead_h)
                      for s in states])
    temporal = dc.linear(Tensor(feats), qnet.temporal.weight, qnet.temporal.bias)
    full = dc.concat([Tensor(weather), dc.reshape(temporal, (B, 1, D))], axis=1)
    h = dc.layer_norm(dc.reshape(full, (B * (L + 1), D)))
    h = dc.add(h, attention(p, "q.attn", h, B, L + 1, qnet.num_heads))
    last = dc.reshape(dc.slice_axis(dc.reshape(h, (B, L + 1, D)), 1, L, L + 1), (B, D))
    return dc.linear(last, p["q.head.weight"], p["q.head.bias"])


def td_batch_48(env, dataset):
    """48 transitions: distinct states, hindsight relabels of them (same x_hat
    objects) and repeats of the same transitions."""
    rng = np.random.default_rng(31)
    distinct, relabelled = [], []
    for i in range(4):
        episode = EpisodeSpec(dataset.fields[5 + 7 * i].timestamp_hours, 48)
        _, transitions, _ = run_episode(
            env, episode, lambda s: int(rng.choice(env.actions.legal(s.remaining_h))))
        distinct += transitions
        relabelled += hindsight_transitions(transitions, 2)
    batch = distinct[:20] + relabelled[:16]
    batch += [batch[int(i)] for i in rng.integers(0, len(batch), size=48 - len(batch))]
    assert len(batch) == 48
    assert len({id(t.state.x_hat) for t in batch}) < len({id(t.state) for t in batch}) < 48
    return batch


def _td_loss(q, batch, targets, actions):
    idx = np.array([[actions.index_of(t.action)] for t in batch])
    diff = dc.sub(dc.gather_cols(q, idx), Tensor(targets[:, None]))
    return dc.tensor_mean(dc.mul(diff, diff))


@pytest.mark.usefixtures("float64")
def test_class_attention_matches_full_attention_oracle_at_b48(env64, model64, dataset):
    dqn = DQN(model64, DQNConfig(gamma=0.9), seed=9)
    qnet = dqn.q_main
    rng = np.random.default_rng(10)
    for prm in qnet.params().values():
        prm.data = prm.data + rng.normal(scale=0.3, size=prm.data.shape)
    batch = td_batch_48(env64, dataset)
    targets = td_targets(batch, dqn)
    states = [t.state for t in batch]

    grads = []
    for q_fn in (qnet.q_values_batch, lambda s: full_attention_q(qnet, s)):
        for prm in qnet.params().values():
            prm.zero_grad()
        q = q_fn(states)
        dc.backward(_td_loss(q, batch, targets, dqn.actions))
        grads.append((q.data, {k: prm.grad.copy() for k, prm in qnet.params().items()}))
    (q_got, g_got), (q_want, g_want) = grads
    np.testing.assert_allclose(q_got, q_want, rtol=0, atol=1e-10)
    assert set(g_got) == set(g_want) and len(g_got) == 11
    for k in g_want:
        assert np.any(g_want[k] != 0.0), k
        np.testing.assert_allclose(g_got[k], g_want[k], rtol=0, atol=1e-10, err_msg=k)


def test_float32_class_attention_matches_full_attention_to_rounding(env, model, dataset):
    """The readout projects the pooled rows, where full attention projects
    every token, so in float32 the two differ by rounding alone. Measured: at
    most 4.0e-7 of the largest |Q| (3.4 float32 epsilons) at B=1, 5 and 48."""
    qnet = DQN(model, DQNConfig(), seed=9).q_main
    rng = np.random.default_rng(10)
    for prm in qnet.params().values():
        prm.data = (prm.data + rng.normal(scale=0.3, size=prm.data.shape)).astype(prm.data.dtype)
    states = [t.state for t in td_batch_48(env, dataset)]
    eps = np.finfo(np.float32).eps
    with dc.no_grad():
        for n in (1, 5, 48):
            got = qnet.q_values_batch(states[:n]).data
            want = full_attention_q(qnet, states[:n]).data
            assert got.dtype == want.dtype == np.float32
            assert np.abs(got - want).max() <= 16 * eps * np.abs(want).max(), n


def test_td_update_embeds_each_distinct_field_once(env, model, dataset, monkeypatch):
    batch = td_batch_48(env, dataset)
    dqn = DQN(model, DQNConfig(), seed=11)
    assert dqn.q_target.weather is dqn.q_main.weather
    embedded = []
    original = QNetwork._weather_tokens

    def counting(self, values):
        embedded.append(id(values))
        return original(self, values)

    monkeypatch.setattr(QNetwork, "_weather_tokens", counting)
    td_update(batch, dqn)
    fields = {id(t.state.x_hat): t.state.x_hat for t in batch}
    fields.update({id(t.next_state.x_hat): t.next_state.x_hat for t in batch if not t.terminal})
    assert sorted(embedded) == sorted(id(f.values) for f in fields.values())
    assert len(dqn.q_main.weather.rows) == len(fields)
    embedded.clear()
    td_update(batch, dqn)
    assert embedded == []


def test_weather_rows_are_freed_with_their_field(model, dataset):
    qnet = DQN(model, DQNConfig(), seed=12).q_main
    before = len(qnet.weather.rows)
    field = GridField(SPEC, dataset.fields[7].values + 0.5, dataset.fields[7].timestamp_hours)
    state = EnvState(field, field.timestamp_hours, 0, 24, 24)
    qnet.q_values(state)
    relabelled = replace(state, remaining_h=12, lead_h=12)
    qnet.q_values(relabelled)
    assert len(qnet.weather.rows) == before + 1
    del field, state, relabelled
    gc.collect()
    assert len(qnet.weather.rows) == before


class _OneHashField(GridField):
    """A field whose hash is one constant, as if every field sat at one freed address."""

    def __hash__(self):
        return 0


def test_weather_cache_never_returns_a_stale_entry(model, dataset):
    qnet = DQN(model, DQNConfig(), seed=13).q_main
    rng = np.random.default_rng(14)

    def check(field):
        state = EnvState(field, 0, 0, 24, 24)
        got = qnet.q_values(state)
        fresh = QNetwork(model, DQNConfig(), seed=13)  # the same weights, its own empty cache
        with dc.no_grad():
            rows = dc.layer_norm(Tensor(qnet._weather_tokens(field.values))).data
        np.testing.assert_array_equal(got, fresh.q_values(state))
        np.testing.assert_array_equal(qnet.weather.rows[field], rows)

    kept = _OneHashField(SPEC, rng.normal(size=SPEC.shape), 0)
    check(kept)
    for _ in range(20):
        field = _OneHashField(SPEC, rng.normal(size=SPEC.shape), 0)
        check(field)  # the hash of a live field and of every deleted one, yet its own rows
        assert len(qnet.weather.rows) == 2
        del field
        gc.collect()
        assert len(qnet.weather.rows) == 1
    check(kept)


def test_td_update_at_b48_creates_at_most_60_op_results(env, model, dataset, monkeypatch):
    batch = td_batch_48(env, dataset)
    dqn = DQN(model, DQNConfig(), seed=15)
    count = [0]
    make = Tensor.__dict__["_result"].__func__

    def counted(data, parents, vjp):
        count[0] += 1
        return make(data, parents, vjp)

    monkeypatch.setattr(Tensor, "_result", staticmethod(counted))
    td_update(batch, dqn)  # cold cache: one layer norm of new rows per network
    assert count[0] <= 60
    count[0] = 0
    td_update(batch, dqn)
    assert count[0] <= 58


def test_td_target_arithmetic():
    assert td_target(-1.0, 0.9, 5.0, terminal=True) == -1.0
    assert td_target(-1.0, 0.9, 2.0, terminal=False) == pytest.approx(0.8)


def test_td_targets_match_independent_computation(env, model, dataset):
    dqn = DQN(model, DQNConfig(gamma=0.9), seed=5)
    rng = np.random.default_rng(6)
    batch = []
    for lead in (30, 24, 18, 12):
        state = env.reset(EpisodeSpec(dataset.fields[int(rng.integers(0, 50))].timestamp_hours, lead))
        while state.remaining_h > 0:
            action = int(rng.choice(env.actions.legal(state.remaining_h)))
            tr, state = env.step(state, action)
            batch.append(tr)
    assert len(batch) >= 8
    got = td_targets(batch, dqn)
    for i, t in enumerate(batch):
        if t.terminal:
            expected = t.reward
        else:
            q = dqn.q_target.q_values(t.next_state)
            legal = env.actions.legal(t.next_state.remaining_h)
            best = max(q[dqn.actions.index_of(a)] for a in legal)
            expected = t.reward + 0.9 * best
        assert abs(got[i] - expected) < 1e-9


def _hand_n_step_targets(rewards, next_states, n, gamma, dqn, env):
    """sum_{j<k} gamma^j r_{t+j} + gamma^k max_legal q_target(s_{t+k}), k = min(n, T - t)."""
    T = len(rewards)
    out = []
    for t in range(T):
        k = min(n, T - t)
        value = sum(gamma**j * rewards[t + j] for j in range(k))
        if t + k < T:
            s = next_states[t + k - 1]
            q = dqn.q_target.q_values(s)
            value += gamma**k * max(q[dqn.actions.index_of(a)] for a in env.actions.legal(s.remaining_h))
        out.append(value)
    return out


def test_n_step_targets_match_hand_computation(env, model, dataset):
    dqn = DQN(model, DQNConfig(gamma=0.9), seed=15)
    buf = ReplayBuffer(capacity=100, n_step=3, hindsight_steps=0)
    episode = EpisodeSpec(dataset.fields[3].timestamp_hours, 48)
    actions = iter([6, 12, 6, 12, 6, 6])
    traj, transitions, _ = run_episode(env, episode, lambda s: next(actions))
    buf.add_episode(episode, traj.intervals, transitions, epoch=0)

    assert [t.steps for t in buf.transitions] == [3, 3, 3, 3, 2, 1]
    assert [t.terminal for t in buf.transitions] == [False, False, False, True, True, True]
    expected = _hand_n_step_targets(
        traj.rewards, [t.next_state for t in transitions], 3, 0.9, dqn, env
    )
    got = td_targets(buf.transitions, dqn)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


def test_buffer_refresh_rebuilds_n_step_targets_from_replayed_rewards(model, dataset):
    env = ForecastEnv(model, dataset, omega=-0.1)
    dqn = DQN(model, DQNConfig(gamma=0.9), seed=16)
    buf = ReplayBuffer(capacity=100, n_step=2, hindsight_steps=0)
    episode = EpisodeSpec(dataset.fields[5].timestamp_hours, 36)
    actions = [12, 6, 6, 12]
    seq = iter(actions)
    traj, transitions, _ = run_episode(env, episode, lambda s: next(seq))
    buf.add_episode(episode, traj.intervals, transitions, epoch=0)
    stale = td_targets(buf.transitions, dqn)

    head = model.params()["head.weight"]
    saved = head.data.copy()
    try:
        head.data = head.data + 0.05
        buf.refresh(env, current_epoch=1, max_age=3)
        seq = iter(actions)
        replayed, replayed_transitions, _ = run_episode(env, episode, lambda s: next(seq))
        expected = _hand_n_step_targets(
            replayed.rewards, [t.next_state for t in replayed_transitions], 2, 0.9, dqn, env
        )
        got = td_targets(buf.transitions, dqn)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)
        assert np.max(np.abs(got - stale)) > 1e-6
    finally:
        head.data = saved


def test_hindsight_segments_are_exact_shorter_episodes(env, model, dataset):
    dqn = DQN(model, DQNConfig(gamma=0.9), seed=17)
    buf = ReplayBuffer(capacity=100, n_step=1, hindsight_steps=2)
    episode = EpisodeSpec(dataset.fields[4].timestamp_hours, 48)
    actions = [6, 12, 6, 12, 6, 6]
    seq = iter(actions)
    traj, transitions, _ = run_episode(env, episode, lambda s: next(seq))
    buf.add_episode(episode, traj.intervals, transitions, epoch=0)

    # hand list: (start step, steps) for every segment of <= 2 steps that stops short of the end
    segments = [(t, k) for t in range(6) for k in (1, 2) if t + k < 6]
    relabelled = buf.transitions[6:]
    assert len(buf) == 6 + len(segments) and len(buf.episodes[0]["folded"]) == len(buf)
    for (t, k), tr in zip(segments, relabelled):
        covered = sum(actions[t : t + k])
        start = transitions[t].state
        assert tr.action == actions[t] and tr.terminal
        assert tr.state.travel_h == start.travel_h
        assert tr.state.remaining_h == covered and tr.state.lead_h == start.travel_h + covered
        assert tr.next_state.remaining_h == 0
        np.testing.assert_array_equal(tr.state.x_hat.values, start.x_hat.values)
        np.testing.assert_array_equal(
            tr.next_state.x_hat.values, transitions[t + k - 1].next_state.x_hat.values
        )
    expected = [sum(0.9**j * traj.rewards[t + j] for j in range(k)) for t, k in segments]
    np.testing.assert_allclose(td_targets(relabelled, dqn), expected, rtol=0, atol=1e-12)


def test_buffer_capacity_counts_relabelled_segments(env, dataset):
    buf = ReplayBuffer(capacity=15, n_step=2, hindsight_steps=3)
    t0 = dataset.fields[0].timestamp_hours
    for e in range(2):
        episode = EpisodeSpec(t0 + e * 6, 24)
        traj, transitions, _ = run_episode(env, episode, lambda s: 6)
        buf.add_episode(episode, traj.intervals, transitions, epoch=e)
    # a 4-step episode stores 4 n-step transitions + 3 + 2 + 1 segments = 10
    assert [len(e["folded"]) for e in buf.episodes] == [10]
    assert len(buf) == 10 and buf.episodes[0]["epoch"] == 1
    assert buf.transitions[0].state.travel_h == 0 and buf.transitions[0].steps == 2


@pytest.mark.usefixtures("float64")
def test_td_update_loss_matches_direct_formula(env64, model64, dataset):
    dqn = DQN(model64, DQNConfig(), seed=7)
    state = env64.reset(EpisodeSpec(dataset.fields[0].timestamp_hours, 24))
    batch = []
    while state.remaining_h > 0:
        tr, state = env64.step(state, 6)
        batch.append(tr)
    targets = td_targets(batch, dqn)
    with dc.no_grad():
        q = dqn.q_main.q_values_batch([t.state for t in batch]).data
    taken = np.array([q[i, dqn.actions.index_of(t.action)] for i, t in enumerate(batch)])
    expected_loss = np.mean((taken - targets) ** 2)
    got = td_update(batch, dqn)
    np.testing.assert_allclose(got, expected_loss, rtol=1e-12)


def test_target_network_changes_only_on_sync(env, model, dataset):
    dqn = DQN(model, DQNConfig(), seed=8)
    before = {k: v.copy() for k, v in dqn.q_target.state_arrays().items()}
    state = env.reset(EpisodeSpec(dataset.fields[0].timestamp_hours, 12))
    batch = []
    while state.remaining_h > 0:
        tr, state = env.step(state, 6)
        batch.append(tr)
    for _ in range(3):
        td_update(batch, dqn)
    after = dqn.q_target.state_arrays()
    assert all(np.array_equal(before[k], after[k]) for k in before)
    main = dqn.q_main.state_arrays()
    assert any(not np.array_equal(before[k], main[k]) for k in before)
    dqn.sync_target()
    synced = dqn.q_target.state_arrays()
    assert all(np.array_equal(main[k], synced[k]) for k in main)


# -- replay buffer ---------------------------------------------------------------------


def test_buffer_capacity_evicts_oldest(env, dataset):
    buf = ReplayBuffer(capacity=6, hindsight_steps=0)
    t0 = dataset.fields[0].timestamp_hours
    for e in range(3):
        episode = EpisodeSpec(t0 + e * 6, 24)
        traj, transitions, _ = run_episode(env, episode, lambda s: 6)
        buf.add_episode(episode, traj.intervals, transitions, epoch=e)
    # three 4-step episodes = 12 transitions, capacity 6 -> keep newest episodes
    assert len(buf) <= 6
    assert buf.episodes[0]["epoch"] >= 1


def test_buffer_refresh_tracks_environment_change(model, dataset):
    env = ForecastEnv(model, dataset, omega=-0.1)
    buf = ReplayBuffer(capacity=100, hindsight_steps=0)
    episode = EpisodeSpec(dataset.fields[0].timestamp_hours, 18)
    traj, transitions, _ = run_episode(env, episode, lambda s: max(env.actions.legal(s.remaining_h)))
    buf.add_episode(episode, traj.intervals, transitions, epoch=0)
    old_rewards = [t.reward for t in buf.transitions]

    # change the environment: perturb the prediction head
    head = model.params()["head.weight"]
    saved = head.data.copy()
    try:
        head.data = head.data + 0.05
        buf.refresh(env, current_epoch=1, max_age=3)
        new_rewards = [t.reward for t in buf.transitions]
        assert len(new_rewards) == len(old_rewards)
        assert any(abs(a - b) > 1e-9 for a, b in zip(old_rewards, new_rewards))
        # same episodes, same actions
        assert [t.action for t in buf.transitions] == traj.intervals
    finally:
        head.data = saved


def test_buffer_refresh_keeps_same_epoch_episodes_as_collected(model, dataset, monkeypatch):
    env = ForecastEnv(model, dataset, omega=-0.1)
    buf = ReplayBuffer(capacity=100, n_step=2, hindsight_steps=1)
    t0 = dataset.fields[0].timestamp_hours
    for epoch in (0, 1):
        episode = EpisodeSpec(t0 + epoch * 6, 18)
        traj, transitions, _ = run_episode(env, episode, lambda s: 6)
        buf.add_episode(episode, traj.intervals, transitions, epoch=epoch)
    stored = list(buf.transitions)
    calls = _count_step_batches(monkeypatch)
    buf.refresh(env, current_epoch=1, max_age=3)
    # only the epoch-0 episode is replayed; the epoch-1 transitions are the stored objects
    assert calls == [[6]] * 3
    size0 = len(buf.episodes[0]["folded"])
    assert len(buf) == len(stored)
    assert all(a is b for a, b in zip(buf.transitions[size0:], stored[size0:]))
    assert all(a is not b for a, b in zip(buf.transitions[:size0], stored[:size0]))
    for a, b in zip(buf.transitions, stored):
        assert a.reward == b.reward and a.action == b.action


def test_buffer_refresh_replays_stale_episodes_in_lockstep(model, dataset, monkeypatch):
    env = ForecastEnv(model, dataset, omega=-0.1)
    buf = ReplayBuffer(capacity=100, n_step=2, hindsight_steps=1)
    episodes = [EpisodeSpec(dataset.fields[i].timestamp_hours, 18) for i in (2, 9, 17)]
    for episode in episodes:
        traj, transitions, _ = run_episode(env, episode, lambda s: 6)
        buf.add_episode(episode, traj.intervals, transitions, epoch=0)
    head = model.params()["head.weight"]
    saved = head.data.copy()
    try:
        head.data = head.data + 0.05
        calls = _count_step_batches(monkeypatch)
        buf.refresh(env, current_epoch=1, max_age=3)
        assert calls == [[6, 6, 6]] * 3  # one call per tick, holding every stale episode
        monkeypatch.undo()
        expected = []
        for episode in episodes:
            _, transitions, _ = run_episode(env, episode, lambda s: 6)
            expected += buf._fold(transitions)
    finally:
        head.data = saved
    assert [e["actions"] for e in buf.episodes] == [[6, 6, 6]] * 3
    assert [len(e["folded"]) for e in buf.episodes] == [len(expected) // 3] * 3
    assert len(buf) == len(expected)
    assert [t.action for t in buf.transitions] == [t.action for t in expected]
    assert [t.steps for t in buf.transitions] == [t.steps for t in expected]
    for got, want in zip(buf.transitions, expected):
        np.testing.assert_allclose(got.rewards, want.rewards, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(got.next_state.x_hat.values, want.next_state.x_hat.values,
                                   rtol=1e-6, atol=1e-5)


def test_buffer_refresh_evicts_aged_episodes(env, dataset):
    buf = ReplayBuffer(capacity=100)
    t0 = dataset.fields[0].timestamp_hours
    for epoch in (0, 4):
        episode = EpisodeSpec(t0 + epoch * 6, 12)
        traj, transitions, _ = run_episode(env, episode, lambda s: 6)
        buf.add_episode(episode, traj.intervals, transitions, epoch=epoch)
    buf.refresh(env, current_epoch=5, max_age=3)
    assert len(buf.episodes) == 1 and buf.episodes[0]["epoch"] == 4


def test_buffer_sampling_is_uniform(env, dataset):
    buf = ReplayBuffer(capacity=100)
    episode = EpisodeSpec(dataset.fields[0].timestamp_hours, 36)
    traj, transitions, _ = run_episode(env, episode, lambda s: 6)
    buf.add_episode(episode, traj.intervals, transitions, epoch=0)
    rng = np.random.default_rng(9)
    counts = np.zeros(len(buf))
    ids = {id(t): i for i, t in enumerate(buf.transitions)}
    for _ in range(2000):
        for t in buf.sample(3, rng):
            counts[ids[id(t)]] += 1
    freq = counts / counts.sum()
    np.testing.assert_allclose(freq, 1.0 / len(buf), atol=0.02)


# -- fixed policies ---------------------------------------------------------------------


def test_policy_naive_decomposition():
    assert policy_naive(138) == [6] * 23
    assert policy_naive(6) == [6]
    for lead in (6, 18, 72, 138, 240):
        assert sum(policy_naive(lead)) == lead


def test_policy_greedy_decomposition():
    assert policy_greedy(138) == [24, 24, 24, 24, 24, 12, 6]
    assert policy_greedy(18) == [12, 6]
    assert policy_greedy(24) == [24]
    for lead in (6, 18, 72, 138, 240):
        assert sum(policy_greedy(lead)) == lead


def test_policy_random_sums_and_reproducible():
    for lead in (18, 72, 138):
        a = policy_random(lead, seed=5)
        b = policy_random(lead, seed=5)
        assert a == b and sum(a) == lead
    assert policy_random(138, seed=5) != policy_random(138, seed=6)


def test_policy_random_first_action_frequencies_uniform():
    counts = {6: 0, 12: 0, 24: 0}
    for i in range(10_000):
        counts[policy_random(72, seed=i)[0]] += 1
    for c in counts.values():
        assert abs(c / 10_000 - 1 / 3) < 0.02


def test_policy_adaptive_masking_and_epsilon(env, model, dataset):
    dqn = DQN(model, DQNConfig(), seed=10)
    state = env.reset(EpisodeSpec(dataset.fields[0].timestamp_hours, 6))
    assert policy_adaptive(state, dqn) == 6  # only legal action
    state18 = env.reset(EpisodeSpec(dataset.fields[0].timestamp_hours, 18))
    picks = {policy_adaptive(state18, dqn) for _ in range(5)}
    assert len(picks) == 1  # epsilon 0 -> deterministic
    rng = np.random.default_rng(11)
    draws = [policy_adaptive(state18, dqn, epsilon=1.0, rng=rng) for _ in range(4000)]
    freq6 = draws.count(6) / len(draws)
    assert abs(freq6 - 0.5) < 0.05  # uniform over the two legal actions


# -- rollout fine-tune loss ---------------------------------------------------------------


def one_walk_oracle(env, episode, action_fn, t_max):
    """The head-update loss of one episode, walked at B=1: each state asks
    action_fn (EnvState -> interval) for its interval and is forecast once,
    and that step's head output, with gradient for the first t_max steps,
    both makes the next state and builds the step's loss."""
    model = env.model
    V, H, W = env.dataset.spec.shape
    state = env.reset(episode)
    steps = []
    while state.remaining_h > 0:
        action = int(action_fn(state))
        env.actions.check(action, state.remaining_h)
        truth = env.dataset.at(state.date_time_hours + action)
        target = model.normalize_delta((truth.values - state.x_hat.values)[None], [action])[0]
        with dc.no_grad():
            z, _, _ = model.body_tokens(state.x_hat.values[None], [action])
        with dc.no_grad() if len(steps) >= t_max else contextlib.nullcontext():
            pred = model.apply_head(z)
        steps.append((pred, patchify(target, model.cfg.patch_size)))
        change = model.change_from_patches(pred.data, [action])[0]
        state = state.advance(action, state.x_hat.values + change)

    denom = len(steps) * V * H * W
    grad_loss, per_step = None, []
    for t, (pred, target) in enumerate(steps, start=1):
        term = weighted_patch_loss(pred, target, model.loss_weight_patches, denom)
        if t <= t_max:
            grad_loss = term if grad_loss is None else dc.add(grad_loss, term)
        per_step.append(float(term.data))
    return RolloutLossParts(grad_loss=grad_loss, total_value=float(np.sum(per_step)), per_step=per_step)


def oracle_sync_loss(env, episodes, choose, t_max):
    """`rollout_finetune_loss` by the oracle: one B=1 walk per episode, each
    state shown to choose alone, and the walks averaged."""
    walks = [one_walk_oracle(env, episode, lambda state, i=i: choose([i], [state])[0], t_max)
             for i, episode in enumerate(episodes)]
    grad_total, value_total = None, 0.0
    for walk in walks:
        value_total += walk.total_value
        if walk.grad_loss is not None:
            grad_total = walk.grad_loss if grad_total is None else dc.add(grad_total, walk.grad_loss)
    grad_loss = None if grad_total is None else dc.mul_scalar(grad_total, 1.0 / len(walks))
    per_step = [v / len(walks) for walk in walks for v in walk.per_step]
    return RolloutLossParts(grad_loss=grad_loss, total_value=value_total / len(walks), per_step=per_step)


def head_grads(model, parts):
    """The head gradients of parts.grad_loss, from zeroed gradients."""
    head = model.head_params()
    for p in head.values():
        p.zero_grad()
    dc.backward(parts.grad_loss)
    grads = {k: p.grad.copy() for k, p in head.items()}
    for p in head.values():
        p.zero_grad()
    return grads


def test_stop_gradient_beyond_t_max(env, dataset):
    t0 = dataset.fields[0].timestamp_hours
    episode = EpisodeSpec(t0, 48)
    actions = [24, 12, 12]
    model = env.model

    head = model.head_params()
    for p in head.values():
        p.zero_grad()
    parts_full = rollout_finetune_loss(env, [episode], plan_chooser([actions]), t_max=1)
    assert parts_full.grad_loss is not None
    dc.backward(parts_full.grad_loss)
    grad_tmax1 = {k: (p.grad.copy() if p.grad is not None else None) for k, p in head.items()}

    for p in head.values():
        p.zero_grad()
    parts_one = rollout_finetune_loss(env, [EpisodeSpec(t0, 24)], plan_chooser([actions[:1]]), t_max=1)
    # rescale: the 3-step loss divides by 3 steps, the 1-step loss by 1
    dc.backward(dc.mul_scalar(parts_one.grad_loss, 1.0 / 3.0))
    grad_one = {k: (p.grad.copy() if p.grad is not None else None) for k, p in head.items()}

    for k in head:
        np.testing.assert_allclose(grad_tmax1[k], grad_one[k], atol=1e-12)
    assert len(parts_full.per_step) == 3
    for p in head.values():
        p.zero_grad()


@pytest.mark.usefixtures("float64")
def test_rollout_loss_value_covers_all_steps(env64, dataset):
    episode = EpisodeSpec(dataset.fields[0].timestamp_hours, 36)
    parts = rollout_finetune_loss(env64, [episode], plan_chooser([[12, 12, 12]]), t_max=2)
    assert parts.total_value == pytest.approx(sum(parts.per_step))
    assert len(parts.per_step) == 3
    np.testing.assert_allclose(float(parts.grad_loss.data), sum(parts.per_step[:2]), rtol=1e-12)


def _model_with_random_head(dataset, seed):
    """A fresh forecaster whose head moves the state, so a walk's states differ."""
    model = ForecastModel.from_dataset(MODEL_CFG, dataset, seed=21)
    rng = np.random.default_rng(seed)
    for p in model.head_params().values():
        p.data = rng.normal(scale=0.05, size=p.data.shape).astype(p.data.dtype)
    return model


@pytest.mark.parametrize("t_max", [2, 50])  # the gradient cut inside the walks, and beyond them
def test_rollout_loss_equals_the_mean_of_one_walk_per_episode(dataset, t_max):
    """Bit for bit: the engine's walks and the batched scoring give each step
    the loss and gradient of the B=1 walk, and the sync's mean of them."""
    env = ForecastEnv(_model_with_random_head(dataset, 30), dataset, omega=-0.1)
    t = [dataset.fields[i].timestamp_hours for i in (3, 40, 77)]
    episodes = [EpisodeSpec(t[0], 72), EpisodeSpec(t[1], 36), EpisodeSpec(t[0], 72), EpisodeSpec(t[2], 24)]
    seen = {"oracle": [[] for _ in episodes], "engine": [[] for _ in episodes]}

    def recording(key):
        def choose(ids, states):  # a legal interval that depends on every bit of the state
            actions = []
            for i, state in zip(ids, states):
                seen[key][i].append(state)
                legal = env.actions.legal(state.remaining_h)
                actions.append(legal[zlib.crc32(state.x_hat.values.tobytes()) % len(legal)])
            return actions
        return choose

    want = oracle_sync_loss(env, episodes, recording("oracle"), t_max)
    got = rollout_finetune_loss(env, episodes, recording("engine"), t_max)
    assert got.per_step == want.per_step
    assert got.total_value == want.total_value
    grads_want, grads_got = head_grads(env.model, want), head_grads(env.model, got)
    for k in grads_want:
        np.testing.assert_array_equal(grads_got[k], grads_want[k])

    for walk_oracle, walk_engine in zip(seen["oracle"], seen["engine"]):
        assert len(walk_oracle) == len(walk_engine)
        for a, b in zip(walk_oracle, walk_engine):
            assert a.x_hat.values.tobytes() == b.x_hat.values.tobytes()
            assert (a.date_time_hours, a.travel_h, a.remaining_h, a.lead_h) == (
                b.date_time_hours, b.travel_h, b.remaining_h, b.lead_h)
    assert seen["engine"][0][-1].x_hat.values.tobytes() != seen["engine"][0][0].x_hat.values.tobytes()
    assert seen["engine"][0][-1] is seen["engine"][2][-1]  # the twin episodes share the engine's states
    assert len({len(walk) for walk in seen["engine"]}) > 1  # the chooser did choose


def test_walk_rejects_illegal_intervals(env, dataset):
    t0 = dataset.fields[0].timestamp_hours
    with pytest.raises(ValueError, match="illegal action 24h with 12h remaining"):
        rollout_finetune_loss(env, [EpisodeSpec(t0, 36)], plan_chooser([[24, 24]]), t_max=2)
    with pytest.raises(ValueError, match="illegal action 18h"):
        rollout_finetune_loss(env, [EpisodeSpec(t0, 36)], plan_chooser([[18, 18]]), t_max=2)


def test_head_update_walks_once_through_the_engine_and_scores_in_one_pass(monkeypatch, dataset):
    """Between a target sync and the next TD update, the head update makes
    one `run_episodes` call and none to `run_episode`, and the body sees each
    walked step twice: once in the engine, once in the batched scoring."""
    model = _model_with_random_head(dataset, 32)
    phase = {"head": False}
    counts = {"body_rows": 0, "steps": 0, "engine_calls": [], "single_episodes": 0}

    def wrap(owner, name, before=None, after=None):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            if before:
                before(*args)
            out = real(*args, **kwargs)
            if after:
                after(out)
            return out
        monkeypatch.setattr(owner, name, wrapped)

    def enter(head):
        def set_phase(*_):
            phase["head"] = head
            if head:
                counts["engine_calls"].append(0)
        return set_phase

    def count_body(_, x_batch, *rest):
        counts["body_rows"] += phase["head"] * len(x_batch)

    def count_engine(*_):
        if phase["head"]:
            counts["engine_calls"][-1] += 1

    def count_single(*_):
        counts["single_episodes"] += phase["head"]

    wrap(ForecastModel, "body_tokens", before=count_body)
    wrap(DQN, "sync_target", after=enter(True))
    wrap(finetune, "td_update", before=enter(False))
    wrap(ReplayBuffer, "refresh", before=enter(False))
    wrap(finetune, "run_episodes", before=count_engine)
    wrap(finetune, "run_episode", before=count_single)
    wrap(finetune, "rollout_finetune_loss",
         after=lambda parts: counts.update(steps=counts["steps"] + len(parts.per_step)))

    dqn = DQN(model, DQNConfig(sync_every=10, batch_size=8), seed=33)
    # 25 iterations an epoch: a TD update, not a collection, follows each sync but the last
    cfg = FinetuneConfig(epochs=2, episodes_per_epoch=3, iterations_per_epoch=25,
                         finetune_episodes=2, t_max=2, lead_times=(24, 36), seed=33)
    phase["head"] = False  # the DQN's constructor syncs its target once
    counts["engine_calls"].clear()
    logs = adaptive_rollout_finetune(model, dataset, dqn, ReplayBuffer(capacity=500), cfg)
    assert len(logs["rollout_losses"]) == 5
    assert counts["engine_calls"] == [1] * 5
    assert counts["single_episodes"] == 0
    assert counts["steps"] >= 5 * cfg.finetune_episodes
    assert counts["body_rows"] == 2 * counts["steps"]


def test_sync_loss_keeps_the_fine_tune_of_one_walk_per_episode(monkeypatch, dataset):
    """A smoke-scale fine-tune gives the same logs, head and DQN whether its
    head updates walk through the engine or one episode at a time at B=1."""

    def fine_tune():
        model = _model_with_random_head(dataset, 34)
        dqn = DQN(model, DQNConfig(sync_every=10, batch_size=8), seed=35)
        cfg = FinetuneConfig(epochs=2, episodes_per_epoch=3, iterations_per_epoch=30,
                             finetune_episodes=3, t_max=2, lead_times=(24, 36, 72), seed=35)
        logs = adaptive_rollout_finetune(model, dataset, dqn, ReplayBuffer(capacity=500), cfg)
        arrays = {k: p.data for k, p in model.head_params().items()}
        for name, net in (("main", dqn.q_main), ("target", dqn.q_target)):
            arrays.update({f"{name}.{k}": v for k, v in net.state_arrays().items()})
        return logs, arrays

    logs, arrays = fine_tune()
    monkeypatch.setattr(finetune, "rollout_finetune_loss", oracle_sync_loss)
    logs_oracle, arrays_oracle = fine_tune()
    assert len(logs["rollout_losses"]) == 6
    assert logs == logs_oracle
    assert arrays.keys() == arrays_oracle.keys()
    for k in arrays:
        np.testing.assert_array_equal(arrays[k], arrays_oracle[k])


# -- the alternating loop (smoke scale) ------------------------------------------------------


def test_adaptive_rollout_finetune_smoke(model, dataset):
    dqn = DQN(model, DQNConfig(sync_every=10, batch_size=8), seed=12)
    buf = ReplayBuffer(capacity=500)
    cfg = FinetuneConfig(
        epochs=2, episodes_per_epoch=3, iterations_per_epoch=20,
        finetune_episodes=2, t_max=2, lead_times=(24, 36), seed=12,
    )
    head_before = model.params()["head.weight"].data.copy()
    logs = adaptive_rollout_finetune(model, dataset, dqn, buf, cfg)
    assert len(logs["episodes"]) == 6
    assert len(logs["td_losses"]) == 40
    assert len(logs["rollout_losses"]) == 4  # 40 iterations / sync_every 10
    assert logs["omega"] < 0
    for row in logs["episodes"]:
        assert sum(row["intervals"]) == row["lead"]
    assert not np.array_equal(head_before, model.params()["head.weight"].data)


def test_resolve_omega_returns_a_set_omega_and_estimates_a_null_one(model, dataset):
    assert resolve_omega(model, dataset, seed=0, omega=-0.3) == -0.3
    estimated = resolve_omega(model, dataset, seed=0)
    assert estimated < 0 and resolve_omega(model, dataset, seed=0, omega=None) == estimated


def test_sample_episode_respects_split_bounds(dataset):
    rng = np.random.default_rng(13)
    for _ in range(200):
        ep = sample_episode(dataset, (72, 138), rng, split="test")
        lo, hi = dataset.splits["test"]
        t_lo = dataset.fields[lo].timestamp_hours
        t_hi = dataset.fields[hi - 1].timestamp_hours
        assert t_lo <= ep.t0_hours and ep.t0_hours + ep.lead_h <= t_hi


# -- policy comparison -------------------------------------------------------------------


def test_evaluate_policies_shapes_and_adaptive_row(env, model, dataset):
    lo, hi = dataset.splits["test"]
    t0 = dataset.fields[lo].timestamp_hours
    episodes = [EpisodeSpec(t0 + i * 12, 48) for i in range(3)]
    res = evaluate_policies(env, episodes)
    assert set(res) == {"naive", "greedy", "random"}
    assert all(len(r.returns) == 3 for r in res.values())
    assert res["naive"].mean_length == 8.0
    assert res["greedy"].mean_length == 2.0
    assert res["greedy"].intervals == [[24, 24]] * 3
    dqn = DQN(model, DQNConfig(), seed=14)
    res2 = evaluate_policies(env, episodes, dqn=dqn)
    assert "adaptive" in res2
    assert [sum(plan) for plan in res2["adaptive"].intervals] == [48] * 3
    assert [len(plan) for plan in res2["adaptive"].intervals] == res2["adaptive"].lengths
    # fixed policies are unaffected by the dqn and reproduce exactly
    assert res2["naive"].returns == res["naive"].returns
    assert res2["random"].returns == res["random"].returns
