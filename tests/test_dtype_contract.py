"""The dtype contract: the same frames held as float32 (as the generator and
the grid file make them) or as float64 give the same bits in every
computation that reads them."""

import contextlib

import numpy as np
import pytest

from rollcast import diffcore as dc
from rollcast.evaluation import evaluate_leads
from rollcast.gridio import Dataset, GridField, GridSpec, default_splits, generate_synthetic
from rollcast.metrics import Climatology
from rollcast.model import (
    ForecastModel,
    ModelConfig,
    PretrainConfig,
    PretrainTrainer,
    evaluate_one_step_loss,
)
from rollcast.scheduler import (
    DQN,
    DQNConfig,
    EpisodeSpec,
    ForecastEnv,
    plan_chooser,
    rollout_finetune_loss,
    rollout_forecast_fn,
    run_episodes,
)
from rollcast.scheduler.finetune import resolve_omega

SPEC = GridSpec.cell_centered(2, 8, 16)
CFG = ModelConfig(
    embed_dim=16, num_blocks=1, num_heads=2, patch_size=4,
    moe_num_private=2, moe_top_k=1, moe_alpha=0.01,
)


@pytest.fixture(scope="module")
def datasets():
    """(float32 dataset, float64 dataset) holding the same values."""
    ds32 = generate_synthetic(SPEC, 300, seed=5, splits=default_splits(300))
    fields = [GridField(SPEC, f.values.astype(np.float64), f.timestamp_hours) for f in ds32.fields]
    ds64 = Dataset(SPEC, fields, splits=dict(ds32.splits), meta=dict(ds32.meta))
    assert {f.values.dtype for f in ds32.fields} == {np.dtype(np.float32)}
    assert {f.values.dtype for f in ds64.fields} == {np.dtype(np.float64)}
    return ds32, ds64


def model_of(dataset, seed=7):
    """A forecaster from the dataset's statistics with every trainable
    parameter drawn at random, so that each walk step moves the state."""
    model = ForecastModel.from_dataset(CFG, dataset, seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.trainable_params().values():
        p.data = rng.normal(scale=0.1, size=p.data.shape).astype(p.data.dtype)
    return model


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normalization_statistics_keep_their_bits(datasets, dtype):
    """In float64 the model stores the statistics as computed, in float32
    rounded as every model is."""
    with dc.float64() if dtype == np.float64 else contextlib.nullcontext():
        m32, m64 = (ForecastModel.from_dataset(CFG, ds, seed=7) for ds in datasets)
    for name in ("norm.mean", "norm.std", "norm.delta_scale"):
        assert m32.params()[name].data.dtype == dtype
    for k, p in m32.params().items():
        assert_same_bits(p.data, m64.params()[k].data)


def test_pretraining_step_keeps_its_loss_and_gradients(datasets):
    runs = []
    for ds in datasets:
        model = model_of(ds)
        trainer = PretrainTrainer(model, ds, PretrainConfig(batch_size=8, seed=7))
        record = trainer.step(0)
        runs.append((record, {k: (p.grad, p.data) for k, p in model.trainable_params().items()}))
    (rec32, params32), (rec64, params64) = runs
    for key in ("l_delta", "aux1", "aux2", "total"):
        assert rec32[key] == rec64[key]
    for (d32, b32, usage32), (d64, b64, usage64) in zip(rec32["usage"], rec64["usage"]):
        assert (d32, b32) == (d64, b64)
        assert_same_bits(usage32, usage64)
    for k, (grad, data) in params32.items():
        assert_same_bits(grad, params64[k][0])
        assert_same_bits(data, params64[k][1])


def test_one_step_summary_and_climatology_keep_their_bits(datasets):
    model = model_of(datasets[0])
    for delta in CFG.intervals:
        summaries = [evaluate_one_step_loss(model, ds, "val", delta, 12, seed=2) for ds in datasets]
        assert summaries[0] == summaries[1]
    clim32, clim64 = (Climatology.from_dataset(ds) for ds in datasets)
    assert clim32.buckets.keys() == clim64.buckets.keys()
    for key, bucket in clim32.buckets.items():
        assert bucket.dtype == np.float64
        assert_same_bits(bucket, clim64.buckets[key])


def test_scheduler_reads_keep_their_bits(datasets):
    model = model_of(datasets[0])
    dqn = DQN(model, DQNConfig(), seed=3)
    qnet = dqn.q_main
    rows = [qnet._normalized_weather(ds.fields[10:14]) for ds in datasets]
    assert_same_bits(*rows)

    lo, _ = datasets[0].splits["test"]
    starts = [datasets[0].fields[lo + 5 * i].timestamp_hours for i in range(3)]
    episodes = [EpisodeSpec(t0, lead) for t0 in starts for lead in (24, 66)]
    outcomes, losses, grads, omegas, scores = [], [], [], [], []
    for ds in datasets:
        env = ForecastEnv(model, ds, omega=-0.1)
        outcomes.append(run_episodes(env, episodes, plan_chooser([None] * len(episodes), qnet)))
        parts = rollout_finetune_loss(env, episodes, plan_chooser([None] * len(episodes), qnet), t_max=2)
        for p in model.head_params().values():
            p.grad = None
        dc.backward(parts.grad_loss)
        # walks of one step each score dataset frames alone
        single = rollout_finetune_loss(env, episodes[::2], plan_chooser([[24]] * 3), t_max=2)
        losses.append((parts.total_value, parts.per_step, single.total_value, single.per_step))
        grads.append([p.grad.copy() for p in model.head_params().values()])
        omegas.append(resolve_omega(model, ds, seed=1))
        scores.append(evaluate_leads(rollout_forecast_fn(env, "adaptive", qnet), ds, "test", [6, 30], 3, seed=0))
    for (traj32, trans32, final32), (traj64, trans64, final64) in zip(*outcomes):
        assert traj32.intervals == traj64.intervals
        assert traj32.rewards == traj64.rewards
        assert [t.reward for t in trans32] == [t.reward for t in trans64]
        assert_same_bits(final32.x_hat.values, final64.x_hat.values)
        assert final32.x_hat.values.dtype == np.float64
    assert len({tuple(traj.intervals) for traj, _, _ in outcomes[0]}) > 1  # the Q-network chose
    assert losses[0] == losses[1]
    for a, b in zip(*grads):
        assert_same_bits(a, b)
    assert omegas[0] == omegas[1]
    assert scores[0] == scores[1]
