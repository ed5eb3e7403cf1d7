"""The float32 compute path: dtypes through training, forecasts and TD updates,
batch invariance of forecasts, and agreement with the float64 reference."""

import itertools

import numpy as np
import pytest

from rollcast import diffcore as dc
from rollcast.diffcore import Tensor
from rollcast.gridio import GridSpec, default_splits, generate_synthetic
from rollcast.model import ForecastModel, ModelConfig, PretrainConfig, PretrainTrainer
from rollcast.scheduler import DQN, DQNConfig, EpisodeSpec, ForecastEnv, run_episode, td_update

F32 = np.dtype(np.float32)
DESK_SPEC = GridSpec.cell_centered(2, 16, 32)  # the default grid; the default model config


@pytest.fixture(scope="module")
def desk_dataset():
    return generate_synthetic(DESK_SPEC, 120, seed=3, splits=default_splits(120))


def desk_model(dataset, scale=0.1):
    """The default model with every trainable parameter drawn at random, so
    that no zero-initialized map hides the layers behind it."""
    model = ForecastModel.from_dataset(ModelConfig(), dataset, seed=1)
    rng = np.random.default_rng(2)
    for p in model.trainable_params().values():
        p.data = rng.normal(scale=scale, size=p.data.shape).astype(p.data.dtype)
    return model


def graph_nodes(loss: Tensor) -> list:
    """Every tensor the loss was computed from, constants included."""
    seen, stack, out = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(node._parents)
    return out


def capture_backward(monkeypatch) -> list:
    """Record every loss passed to dc.backward, then run it as usual."""
    losses, real = [], dc.backward

    def spy(loss):
        losses.append(loss)
        real(loss)

    monkeypatch.setattr(dc, "backward", spy)
    return losses


def test_pretraining_step_runs_in_float32(desk_dataset, monkeypatch):
    model = desk_model(desk_dataset)
    trainer = PretrainTrainer(model, desk_dataset, PretrainConfig(batch_size=16, seed=0))
    losses = capture_backward(monkeypatch)
    trainer.step(0)
    (loss,) = losses
    nodes = graph_nodes(loss)
    # one forward over the whole batch, whatever its intervals, plus the losses
    batch = sorted(trainer.sample_batch(0), key=lambda item: item[2])
    assert len({delta for _, _, delta in batch}) == 3
    pred, _, _ = model.forward_tokens(np.stack([x for x, _, _ in batch]), [d for _, _, d in batch])
    forward = len(graph_nodes(pred))
    assert forward < len(nodes) < 1.5 * forward
    assert {n.data.dtype for n in nodes} == {F32}
    params = model.trainable_params()
    assert all(p.grad.dtype == F32 for p in params.values() if p.grad is not None)
    assert sum(p.grad is not None for p in params.values()) > 0.9 * len(params)
    # the optimizer writes float32 parameters from float64 masters and moments
    opt = trainer.optimizer
    for k, p in params.items():
        assert p.data.dtype == F32
        assert opt.master[k].dtype == opt.m[k].dtype == opt.v[k].dtype == np.float64
        np.testing.assert_array_equal(p.data, opt.master[k].astype(np.float32))


def test_forecast_runs_in_float32(desk_dataset, monkeypatch):
    model = desk_model(desk_dataset)
    results = []
    real = Tensor._result

    def spy(data, parents, vjp):
        results.append(data.dtype)
        return real(data, parents, vjp)

    monkeypatch.setattr(Tensor, "_result", staticmethod(spy))
    x = np.stack([f.values for f in desk_dataset.fields[:2]])
    change = model.predict_change(x, [6, 6])
    assert len(results) > 100 and set(results) == {F32}
    assert change.dtype == F32
    # states stay float64: the forecast adds the float32 change to the float64 state
    assert model.forecast_batch(x, [6, 6]).dtype == np.float64


def test_b1_forecast_and_pretraining_step_create_at_most_134_and_178_op_results(desk_dataset, monkeypatch):
    """At most 134 op results for a B=1 forecast and 178 for one default
    pretraining step: self-attention keeps its (B, H, ...) head layout."""
    model = desk_model(desk_dataset)
    count = [0]
    make = Tensor.__dict__["_result"].__func__

    def counted(data, parents, vjp):
        count[0] += 1
        return make(data, parents, vjp)

    monkeypatch.setattr(Tensor, "_result", staticmethod(counted))
    model.predict_change(desk_dataset.fields[0].values[None], [6])
    assert count[0] <= 134
    count[0] = 0
    PretrainTrainer(model, desk_dataset, PretrainConfig()).step(0)
    assert count[0] <= 178


def test_td_update_runs_in_float32(desk_dataset, monkeypatch):
    model = desk_model(desk_dataset)
    env = ForecastEnv(model, desk_dataset, omega=-0.1)
    dqn = DQN(model, DQNConfig(), seed=0)
    episode = EpisodeSpec(desk_dataset.fields[0].timestamp_hours, 48)
    _, transitions, _ = run_episode(env, episode, lambda s: 6 if s.remaining_h % 12 else 12)
    losses = capture_backward(monkeypatch)
    td_update(transitions, dqn)
    (loss,) = losses
    assert {n.data.dtype for n in graph_nodes(loss)} == {F32}
    for p in dqn.q_main.params().values():
        assert p.grad.dtype == F32 and p.data.dtype == F32


def test_float32_forecasts_are_batch_invariant(desk_dataset):
    """A state's forecast does not depend on the batch it is forecast in: B=1
    and B=32 give the same bits. Rollouts that batch shared prefixes rely on it."""
    model = desk_model(desk_dataset)
    xs = np.stack([f.values for f in desk_dataset.fields[:32]])
    for delta in model.cfg.intervals:
        batched = model.predict_change(xs, [delta] * len(xs))
        assert batched.dtype == F32
        for i in range(len(xs)):
            np.testing.assert_array_equal(batched[i], model.predict_change(xs[i : i + 1], [delta])[0])


def test_forecast_routing_one_token_to_an_expert_is_batch_invariant(desk_dataset):
    """At B=1 some state sends exactly one token to a private expert, whose
    one-row product BLAS computes with another kernel; its forecast still has
    the bits of its row in batches of 2, 5 and 32, of one interval or mixed."""
    model = desk_model(desk_dataset, scale=0.3)
    M = model.cfg.moe_num_private
    xs = np.stack([f.values for f in desk_dataset.fields[:32]])

    def one_row_expert(x, delta):
        with dc.no_grad():
            _, decisions, _ = model.body_tokens(x[None], [delta])
        return any(1 in np.bincount(d.selected.ravel(), minlength=M) for d in decisions)

    i, delta = next((i, d) for i in range(len(xs)) for d in model.cfg.intervals if one_row_expert(xs[i], d))
    single = model.predict_change(xs[i : i + 1], [delta])[0]
    others = np.delete(xs, i, axis=0)
    for B in (2, 5, 32):
        batch = np.concatenate([xs[i : i + 1], others[: B - 1]])
        np.testing.assert_array_equal(model.predict_change(batch, [delta] * B)[0], single)
        mixed = [delta] + [d for d, _ in zip(itertools.cycle(model.cfg.intervals), range(B - 1))]
        np.testing.assert_array_equal(model.predict_change(batch, mixed)[0], single)


def test_mixed_interval_forecasts_equal_single_interval_calls(desk_dataset):
    """A batch of states in any interval order, more than one chunk long, gives
    each state the bits of its own B=1 call at its own interval."""
    model = desk_model(desk_dataset)
    xs = np.stack([f.values for f in desk_dataset.fields[:40]])
    deltas = np.random.default_rng(4).choice(model.cfg.intervals, size=len(xs))
    mixed = model.predict_change(xs, deltas)
    assert mixed.dtype == F32
    for x, delta, row in zip(xs, deltas, mixed):
        np.testing.assert_array_equal(row, model.predict_change(x[None], [int(delta)])[0])


def test_float32_step_matches_float64_reference(desk_dataset):
    """One pretraining forward and backward in float32 against the same
    parameters in float64. Measured on the default model with random
    parameters: the loss differed by 2.0e-7 relative, and the gradient by
    5.6e-6 of its norm (its largest entries by 4.0e-6 of it). Parameters whose
    gradients pass a saturated softmax (MoE noise maps whose gradient is below
    1e-7 of the norm) differ more relative to themselves, which is why the
    error is measured against the norm of the whole gradient. Bounds: 1e-5
    and 1e-4."""
    model32 = desk_model(desk_dataset)
    with dc.float64():
        model64 = ForecastModel.from_dataset(ModelConfig(), desk_dataset, seed=1)
        for k, p in model64.trainable_params().items():
            p.data = model32.params()[k].data.astype(np.float64)

    def loss_and_grads(model):
        trainer = PretrainTrainer(model, desk_dataset, PretrainConfig(batch_size=16, seed=0))
        total, *_ = trainer.loss_on_batch(trainer.sample_batch(0))
        dc.backward(total)
        return float(total.data), {k: p.grad for k, p in model.trainable_params().items()}

    loss32, g32 = loss_and_grads(model32)
    with dc.float64():
        loss64, g64 = loss_and_grads(model64)
    assert {g.dtype for g in g32.values()} == {F32}
    assert {g.dtype for g in g64.values()} == {np.dtype(np.float64)}
    assert abs(loss32 - loss64) <= 1e-5 * abs(loss64)
    norm = np.sqrt(sum(np.sum(g**2) for g in g64.values()))
    err = np.sqrt(sum(np.sum((g32[k] - g64[k]) ** 2) for k in g64))
    assert err <= 1e-4 * norm, f"gradient error {err / norm:.2e} of its norm"


def test_check_gradients_runs_in_float64_and_restores_parameters():
    w = Tensor(np.random.default_rng(0).normal(size=(3, 2)), requires_grad=True)
    x = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
    before = w.data
    seen = []

    def f():
        seen.append(w.data.dtype)
        return dc.tensor_sum(dc.gelu(dc.matmul(x, w)))

    assert dc.check_gradients(f, {"w": w}, tol=1e-6).passed
    assert set(seen) == {np.dtype(np.float64)}
    assert w.data is before and w.data.dtype == F32 and w.grad is None
