"""Arch-block behavior, residual contracts, micro-model gradients, and rollout."""

import numpy as np
import pytest

from rollcast import diffcore as dc
from rollcast.diffcore import Tensor
from rollcast.encoding import patchify, unpatchify
from rollcast.gridio import GridField, GridSpec, generate_synthetic, default_splits
from rollcast.model import (
    ArchBlock,
    ForecastModel,
    ModelConfig,
    PretrainConfig,
    PretrainTrainer,
    evaluate_one_step_loss,
)

TINY_SPEC = GridSpec.cell_centered(1, 4, 8)  # patch 2 -> 2x4 = 8 tokens


def tiny_config(**kw):
    base = dict(
        embed_dim=8,
        num_blocks=1,
        num_heads=2,
        patch_size=2,
        moe_num_private=2,
        moe_top_k=1,
        moe_alpha=0.1,
    )
    base.update(kw)
    return ModelConfig(**base)


def tiny_model(seed=0, **kw):
    cfg = tiny_config(**kw)
    return ForecastModel(cfg, TINY_SPEC, norm_mean=[0.0], norm_std=[1.0], seed=seed)


def randomize_params(model, seed):
    """Break the zero inits so gradients flow everywhere (for grad checks)."""
    rng = np.random.default_rng(seed)
    for name, p in model.trainable_params().items():
        p.data = rng.normal(scale=0.3, size=p.data.shape)


# -- arch block ---------------------------------------------------------------------


def test_zeroed_modulation_makes_block_identity():
    model = tiny_model()
    block = model.blocks[0]
    rng = np.random.default_rng(1)
    z = Tensor(rng.normal(size=(8, 8)))
    cond = Tensor(rng.normal(size=(1, 8)))
    out, _, _ = block.forward(z, cond, 6, batch=1, length=8)
    np.testing.assert_array_equal(out.data, z.data)


def test_block_is_permutation_equivariant():
    model = tiny_model()
    randomize_params(model, 2)
    block = model.blocks[0]
    rng = np.random.default_rng(3)
    z = rng.normal(size=(8, 8))
    cond = Tensor(rng.normal(size=(1, 8)))
    perm = rng.permutation(8)
    out_a, _, _ = block.forward(Tensor(z), cond, 6, 1, 8)
    out_b, _, _ = block.forward(Tensor(z[perm]), cond, 6, 1, 8)
    np.testing.assert_allclose(out_b.data, out_a.data[perm], atol=1e-10)


def test_single_head_attention_matches_manual_computation():
    cfg = ModelConfig(
        embed_dim=4, num_blocks=1, num_heads=1, patch_size=2,
        moe_num_private=2, moe_top_k=1,
    )
    spec = GridSpec.cell_centered(1, 2, 4)  # 1x2 tokens
    model = ForecastModel(cfg, spec, [0.0], [1.0], seed=4)
    block = model.blocks[0]
    rng = np.random.default_rng(5)
    h = rng.normal(size=(2, 4))
    p = block.params()
    wq, bq = p["block0.attn.wq.weight"].data, p["block0.attn.wq.bias"].data
    wk, bk = p["block0.attn.wk.weight"].data, p["block0.attn.wk.bias"].data
    wv, bv = p["block0.attn.wv.weight"].data, p["block0.attn.wv.bias"].data
    wo, bo = p["block0.attn.wo.weight"].data, p["block0.attn.wo.bias"].data

    q, k, v = h @ wq + bq, h @ wk + bk, h @ wv + bv
    scores = q @ k.T / 2.0  # sqrt(d_head) = 2
    att = np.exp(scores - scores.max(axis=1, keepdims=True))
    att /= att.sum(axis=1, keepdims=True)
    expected = att @ v @ wo + bo

    got = block._attention(Tensor(h), batch=1, length=2)
    np.testing.assert_allclose(got.data, expected, atol=1e-12)


def numpy_attention(params, prefix, h, batch, length, num_heads):
    """Per-head loop in plain numpy: the oracle for model.attention."""
    def lin(name, x):
        return x @ params[f"{prefix}.{name}.weight"].data + params[f"{prefix}.{name}.bias"].data

    D = h.shape[1]
    dh = D // num_heads
    q, k, v = (lin(n, h).reshape(batch, length, D) for n in ("wq", "wk", "wv"))
    out = np.zeros((batch, length, D))
    for b in range(batch):
        for i in range(num_heads):
            cols = slice(i * dh, (i + 1) * dh)
            scores = q[b, :, cols] @ k[b, :, cols].T / np.sqrt(dh)
            att = np.exp(scores - scores.max(axis=1, keepdims=True))
            out[b, :, cols] = att / att.sum(axis=1, keepdims=True) @ v[b, :, cols]
    return lin("wo", out.reshape(batch * length, D))


def test_batched_attention_matches_per_head_oracle_and_gradients():
    from rollcast.model import attention

    model = tiny_model(seed=3, num_heads=4, embed_dim=8)
    randomize_params(model, 4)
    params = model.blocks[0].params()
    rng = np.random.default_rng(5)
    h = Tensor(rng.normal(size=(2 * 3, 8)), requires_grad=True)
    got = attention(params, "block0.attn", h, batch=2, length=3, num_heads=4)
    expected = numpy_attention(params, "block0.attn", h.data, 2, 3, 4)
    np.testing.assert_allclose(got.data, expected, rtol=0, atol=1e-12)

    cot = Tensor(rng.normal(size=(6, 8)))
    checked = {k: p for k, p in params.items() if ".attn." in k}
    checked["h"] = h
    report = dc.check_gradients(
        lambda: dc.tensor_sum(dc.mul(attention(params, "block0.attn", h, 2, 3, 4), cot)),
        checked,
        tol=1e-6,
    )
    assert report.passed, str(report)


def test_forecaster_and_q_network_share_one_attention(monkeypatch):
    import rollcast.model as model_module
    from rollcast.scheduler import dqn as dqn_module
    from rollcast.scheduler import DQNConfig, EnvState

    # the Q-network imports the forecaster's function itself, not a copy
    assert dqn_module.attention is model_module.attention
    calls = []
    original = model_module.attention

    def counting(params, prefix, *args):
        calls.append(prefix)
        return original(params, prefix, *args)

    monkeypatch.setattr(model_module, "attention", counting)
    monkeypatch.setattr(dqn_module, "attention", counting)

    model = tiny_model(num_blocks=2)
    x = np.random.default_rng(6).normal(size=TINY_SPEC.shape)
    model.forward_tokens(x[None], 6)
    assert calls == ["block0.attn", "block1.attn"]

    calls.clear()
    q_net = dqn_module.QNetwork(model, DQNConfig(), seed=0)
    state = EnvState(GridField(TINY_SPEC, x, 0), date_time_hours=0, travel_h=0, remaining_h=12, lead_h=12)
    q_net.q_values_batch([state])
    assert calls == ["q.attn"]


# -- forecast contracts ----------------------------------------------------------------


def test_zero_head_means_persistence():
    model = tiny_model()
    rng = np.random.default_rng(6)
    x0 = GridField(TINY_SPEC, rng.normal(size=TINY_SPEC.shape), 0)
    out = model.forward(x0, 6)
    assert np.all(out.delta_hat.values == 0.0)
    np.testing.assert_array_equal(out.x_hat.values, x0.values)


def test_residual_contract_delta_plus_input():
    model = tiny_model()
    randomize_params(model, 7)
    rng = np.random.default_rng(8)
    x0 = GridField(TINY_SPEC, rng.normal(size=TINY_SPEC.shape), 12)
    out = model.forward(x0, 12)
    assert np.any(out.delta_hat.values != 0.0)
    np.testing.assert_array_equal(out.x_hat.values, x0.values + out.delta_hat.values)
    assert out.x_hat.timestamp_hours == 24
    assert len(out.gate_decisions) == 1


def test_batched_forecast_matches_single_state_forecasts():
    model = tiny_model()
    randomize_params(model, 12)
    xs = np.random.default_rng(13).normal(size=(5,) + TINY_SPEC.shape)
    for delta in model.cfg.intervals:
        batched = model.forecast_batch(xs, delta)
        assert batched.shape == xs.shape
        for x, row in zip(xs, batched):
            single = model.forward(GridField(TINY_SPEC, x, 0), delta)
            np.testing.assert_allclose(row, single.x_hat.values, rtol=0, atol=1e-12)
        # B=1 is the single-state forecast, bit for bit
        one = model.forward(GridField(TINY_SPEC, xs[0], 0), delta)
        np.testing.assert_array_equal(model.forecast_batch(xs[:1], delta)[0], one.x_hat.values)
    with pytest.raises(KeyError):
        model.forecast_batch(xs, 7)


def test_unknown_interval_rejected():
    model = tiny_model()
    x0 = GridField(TINY_SPEC, np.zeros(TINY_SPEC.shape), 0)
    with pytest.raises(KeyError):
        model.forward(x0, 7)


def test_patch_roundtrip_through_model_shapes():
    rng = np.random.default_rng(9)
    delta = rng.normal(size=TINY_SPEC.shape)
    patches = patchify(delta, 2)
    np.testing.assert_array_equal(unpatchify(patches, TINY_SPEC.shape, 2), delta)


def test_rollout_composition_matches_manual_chaining():
    model = tiny_model()
    randomize_params(model, 10)
    rng = np.random.default_rng(11)
    x0 = GridField(TINY_SPEC, rng.normal(size=TINY_SPEC.shape), 0)
    rolled = model.predict_rollout(x0, [6, 6])
    step1 = model.forward(x0, 6).x_hat
    step2 = model.forward(step1, 6).x_hat
    np.testing.assert_array_equal(rolled[0].values, step1.values)
    np.testing.assert_array_equal(rolled[1].values, step2.values)


def test_rollout_lead_time_mismatch_rejected():
    model = tiny_model()
    x0 = GridField(TINY_SPEC, np.zeros(TINY_SPEC.shape), 0)
    with pytest.raises(ValueError, match="138"):
        model.predict_rollout(x0, [24, 24], lead_hours=138)


def test_rollout_trajectory_shape_for_138h():
    model = tiny_model()
    x0 = GridField(TINY_SPEC, np.zeros(TINY_SPEC.shape), 0)
    steps = [6, 12, 24, 24, 24, 24, 24]
    fields = model.predict_rollout(x0, steps, lead_hours=138)
    assert len(fields) == 7
    assert [f.timestamp_hours for f in fields] == [6, 18, 42, 66, 90, 114, 138]


# -- gradients through the full model ----------------------------------------------------


def test_micro_model_end_to_end_gradient_check():
    spec = GridSpec.cell_centered(1, 2, 4)  # 2 tokens at patch 2
    cfg = ModelConfig(
        embed_dim=8, num_blocks=1, num_heads=2, patch_size=2,
        moe_num_private=2, moe_top_k=1, moe_alpha=0.1,
    )
    rng = np.random.default_rng(12)
    model = ForecastModel(cfg, spec, [0.0], [1.0], seed=12)
    randomize_params(model, 13)
    x = rng.normal(size=(1,) + spec.shape)
    target = rng.normal(size=(2, cfg.tokenizer().patch_dim(spec)))

    def f():
        pred, _, noises = model.forward_tokens(x, 6, collect_noise=True)
        diff = dc.sub(pred, Tensor(target))
        loss = dc.tensor_mean(dc.mul(diff, diff))
        # fold one noise distribution in so the noise heads get nonzero adjoints
        noise_term = dc.cross_entropy(dc.softmax(noises[0][6], axis=-1), dc.softmax(noises[0][12], axis=-1))
        return dc.add(loss, dc.mul_scalar(noise_term, 0.1))

    params = model.trainable_params()
    report = dc.check_gradients(f, params, tol=1e-4)
    assert report.passed, str(report)


# -- pre-training loop ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_dataset():
    spec = GridSpec.cell_centered(2, 8, 16)
    return generate_synthetic(spec, 200, seed=3, splits=default_splits(200))


def test_pretrain_loss_zero_when_prediction_perfect(small_dataset):
    cfg = ModelConfig(embed_dim=8, num_blocks=1, num_heads=2, patch_size=4,
                      moe_num_private=2, moe_top_k=1)
    model = ForecastModel.from_dataset(cfg, small_dataset, seed=14)
    trainer = PretrainTrainer(model, small_dataset, PretrainConfig(seed=14))
    x0 = small_dataset.fields[0].values
    batch = [(x0, np.zeros_like(x0), 6)]
    _, l_delta, _, _ = trainer.loss_on_batch(batch)
    # zero-init head predicts zero change; a zero target is matched exactly
    assert float(l_delta.data) == 0.0


def test_single_cell_loss_arithmetic():
    # uniform weights, unit normalization: squared error comes through unscaled
    spec = GridSpec(1, 2, 2, (1e-3, -1e-3))
    cfg = ModelConfig(embed_dim=4, num_blocks=1, num_heads=1, patch_size=2,
                      moe_num_private=2, moe_top_k=1)
    model = ForecastModel(cfg, spec, [0.0], [1.0], seed=15)
    ds_fields = [GridField(spec, np.zeros(spec.shape), t * 6) for t in range(4)]
    from rollcast.gridio import Dataset

    ds = Dataset(spec, ds_fields)
    trainer = PretrainTrainer(model, ds, PretrainConfig(seed=15))
    delta_target = np.full(spec.shape, 2.0)  # every cell misses by 2 -> squared 4
    batch = [(np.zeros(spec.shape), delta_target, 6)]
    _, l_delta, _, _ = trainer.loss_on_batch(batch)
    np.testing.assert_allclose(float(l_delta.data), 4.0, atol=1e-12)


def change_rms_oracle(dataset, intervals) -> np.ndarray:
    """(interval, variable) RMS of x[t + d] - x[t] over train-split pairs."""
    lo, hi = dataset.splits["train"]
    step_h = dataset.spec.base_step_hours
    out = np.zeros((len(intervals), dataset.spec.num_vars))
    for a, d in enumerate(intervals):
        k = d // step_h
        changes = [dataset.fields[i + k].values - dataset.fields[i].values for i in range(lo, hi - k)]
        for v in range(dataset.spec.num_vars):
            out[a, v] = np.sqrt(np.mean([np.mean(c[v] ** 2) for c in changes]))
    return out


def test_from_dataset_stores_per_interval_change_rms(small_dataset):
    cfg = ModelConfig(embed_dim=8, num_blocks=1, num_heads=2, patch_size=4,
                      moe_num_private=2, moe_top_k=1)
    model = ForecastModel.from_dataset(cfg, small_dataset, seed=16)
    expected = change_rms_oracle(small_dataset, cfg.intervals)
    np.testing.assert_allclose(model.delta_scale, expected, rtol=1e-12)
    # longer intervals move the state further
    assert np.all(np.diff(expected, axis=0) > 0)


def test_default_change_scale_is_the_state_std():
    model = ForecastModel(tiny_config(), TINY_SPEC, norm_mean=[0.5], norm_std=[2.0])
    np.testing.assert_array_equal(model.delta_scale, np.full((3, 1), 2.0))
    np.testing.assert_array_equal(model.normalize_delta(np.full(TINY_SPEC.shape, 4.0), 12), 2.0)


def test_pretrain_loss_matches_triple_loop_oracle(small_dataset):
    cfg = ModelConfig(embed_dim=8, num_blocks=1, num_heads=2, patch_size=4,
                      moe_num_private=2, moe_top_k=1)
    model = ForecastModel.from_dataset(cfg, small_dataset, seed=16)
    randomize_params(model, 16)
    trainer = PretrainTrainer(model, small_dataset, PretrainConfig(batch_size=3, seed=16))
    batch = trainer.sample_batch(0)
    _, l_delta, _, _ = trainer.loss_on_batch(batch)

    # independent evaluation: model outputs via forward(), change scales from
    # the dataset, loss via triple loop
    spec = small_dataset.spec
    V, H, W = spec.shape
    scale = change_rms_oracle(small_dataset, cfg.intervals)
    w_lat = trainer.weights.lat_weight
    w_var = trainer.weights.var_weight
    total = 0.0
    for x0, dvals, delta in batch:
        out = model.forward(GridField(spec, x0, 0), delta)
        s = scale[cfg.intervals.index(delta)]
        for v in range(V):
            for i in range(H):
                for j in range(W):
                    pred_norm = out.delta_hat.values[v, i, j] / s[v]
                    target_norm = dvals[v, i, j] / s[v]
                    total += w_var[v] * w_lat[i] * (pred_norm - target_norm) ** 2
    expected = total / (len(batch) * V * H * W)
    np.testing.assert_allclose(float(l_delta.data), expected, rtol=1e-9)


def test_pretrain_steps_reduce_loss_and_stay_deterministic(small_dataset):
    def run():
        cfg = ModelConfig(embed_dim=16, num_blocks=1, num_heads=2, patch_size=4,
                          moe_num_private=2, moe_top_k=1, moe_alpha=0.01)
        model = ForecastModel.from_dataset(cfg, small_dataset, seed=17)
        trainer = PretrainTrainer(
            model, small_dataset, PretrainConfig(steps=40, batch_size=8, lr=5e-3, seed=17)
        )
        return [trainer.step(i)["l_delta"] for i in range(40)]

    a = run()
    b = run()
    assert a == b  # bitwise deterministic
    assert np.mean(a[-10:]) < np.mean(a[:10])


def test_trained_model_conditions_on_interval(small_dataset):
    cfg = ModelConfig(embed_dim=16, num_blocks=1, num_heads=2, patch_size=4,
                      moe_num_private=2, moe_top_k=1, moe_alpha=0.01)
    model = ForecastModel.from_dataset(cfg, small_dataset, seed=18)
    trainer = PretrainTrainer(
        model, small_dataset, PretrainConfig(steps=60, batch_size=8, lr=5e-3, seed=18)
    )
    for i in range(60):
        trainer.step(i)
    x0 = small_dataset.fields[0]
    out6 = model.forward(x0, 6).delta_hat.values
    out24 = model.forward(x0, 24).delta_hat.values
    assert not np.allclose(out6, out24)
    # and the trained model beats persistence on its train split
    m, p = evaluate_one_step_loss(model, small_dataset, "train", 6, 50, seed=1)
    assert m < p
