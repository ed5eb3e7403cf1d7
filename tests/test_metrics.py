"""Metric oracles: triple-loop reference implementations at 1e-12."""

import numpy as np
import pytest

from rollcast.gridio import Dataset, GridField, GridSpec, generate_synthetic
from rollcast.metrics import (
    Climatology,
    ClimatologyError,
    acc,
    lat_weights,
    rmse,
    step_reward,
    trajectory_return,
)


def rmse_oracle(pred, truth, lat_w):
    """Straight triple loop over the metric definition."""
    V, H, W = pred.shape
    total = 0.0
    for v in range(V):
        for i in range(H):
            for j in range(W):
                total += lat_w[i] * (pred[v, i, j] - truth[v, i, j]) ** 2
    return np.sqrt(total / (V * H * W))


def acc_oracle(pred, truth, clim, lat_w, v):
    H, W = pred.shape[1:]
    num = dxx = dyy = 0.0
    for i in range(H):
        for j in range(W):
            pa = pred[v, i, j] - clim[v, i, j]
            ta = truth[v, i, j] - clim[v, i, j]
            num += lat_w[i] * pa * ta
            dxx += lat_w[i] * pa * pa
            dyy += lat_w[i] * ta * ta
    return num / np.sqrt(dxx * dyy)


def test_lat_weights_all_equator_is_ones():
    spec = GridSpec(1, 3, 4, (1e-6, 0.0, -1e-6))
    w = lat_weights(spec)
    np.testing.assert_allclose(w, 1.0, atol=1e-9)


def test_lat_weights_hand_case_60_and_0_degrees():
    spec = GridSpec(1, 2, 4, (60.0, 0.0))
    w = lat_weights(spec)
    np.testing.assert_allclose(w, [2.0 / 3.0, 4.0 / 3.0], atol=1e-12)


def test_lat_weights_mean_is_one_for_any_spec():
    for h in (2, 7, 16, 64):
        spec = GridSpec.cell_centered(1, h, 4)
        w = lat_weights(spec)
        assert abs(w.mean() - 1.0) < 1e-12


def test_rmse_zero_on_identical_and_symmetric():
    rng = np.random.default_rng(0)
    spec = GridSpec.cell_centered(2, 4, 8)
    w = lat_weights(spec)
    x = rng.normal(size=spec.shape)
    y = rng.normal(size=spec.shape)
    assert rmse(x, x, w) == 0.0
    assert rmse(x, y, w) == rmse(y, x, w)


def test_rmse_single_cell_uniform_weight():
    # one grid cell with unit weight and error 3 -> RMSE 3
    spec = GridSpec(1, 2, 2, (1e-3, -1e-3))
    w = np.ones(2)
    pred = np.zeros((1, 2, 2))
    truth = np.zeros((1, 2, 2))
    pred += 3.0
    np.testing.assert_allclose(rmse(pred, truth, w), 3.0, atol=1e-12)


def test_rmse_matches_triple_loop_oracle():
    rng = np.random.default_rng(1)
    spec = GridSpec.cell_centered(2, 4, 8)
    w = lat_weights(spec)
    for _ in range(100):
        pred = rng.normal(size=spec.shape)
        truth = rng.normal(size=spec.shape)
        np.testing.assert_allclose(
            rmse(pred, truth, w), rmse_oracle(pred, truth, w), rtol=1e-12
        )


def test_rmse_averages_over_time_outside_root():
    rng = np.random.default_rng(2)
    spec = GridSpec.cell_centered(2, 4, 8)
    w = lat_weights(spec)
    seq_p = rng.normal(size=(3,) + spec.shape)
    seq_t = rng.normal(size=(3,) + spec.shape)
    per_time = [rmse(seq_p[i], seq_t[i], w) for i in range(3)]
    np.testing.assert_allclose(rmse(seq_p, seq_t, w), np.mean(per_time), rtol=1e-12)


def test_acc_perfect_and_antisymmetric():
    rng = np.random.default_rng(3)
    spec = GridSpec.cell_centered(2, 4, 8)
    w = lat_weights(spec)
    clim = rng.normal(size=spec.shape)
    truth = clim + rng.normal(size=spec.shape)
    np.testing.assert_allclose(acc(truth, truth, clim, w), 1.0, atol=1e-12)
    flipped = clim - (truth - clim)
    np.testing.assert_allclose(acc(flipped, truth, clim, w), -1.0, atol=1e-12)


def test_acc_matches_direct_formula_oracle():
    rng = np.random.default_rng(4)
    spec = GridSpec.cell_centered(2, 4, 8)
    w = lat_weights(spec)
    for _ in range(100):
        pred = rng.normal(size=spec.shape)
        truth = rng.normal(size=spec.shape)
        clim = rng.normal(size=spec.shape)
        got = acc(pred, truth, clim, w)
        for v in range(2):
            np.testing.assert_allclose(
                got[v], acc_oracle(pred, truth, clim, w, v), rtol=1e-12
            )


def test_acc_invariant_to_shifting_both_by_climatology_offset():
    rng = np.random.default_rng(5)
    spec = GridSpec.cell_centered(1, 4, 8)
    w = lat_weights(spec)
    pred = rng.normal(size=spec.shape)
    truth = rng.normal(size=spec.shape)
    clim = rng.normal(size=spec.shape)
    shift = rng.normal(size=spec.shape)
    base = acc(pred, truth, clim, w)
    moved = acc(pred + shift, truth + shift, clim + shift, w)
    np.testing.assert_allclose(base, moved, atol=1e-9)


def test_climatology_buckets_and_missing_bucket_error():
    spec = GridSpec.cell_centered(1, 4, 8)
    ds = generate_synthetic(spec, 240, seed=7, splits={"train": (0, 200), "test": (200, 240)})
    clim = Climatology.from_dataset(ds)
    season_h = clim.season_length_days * 24
    # two timestamps one season apart share a bucket
    a = clim.at(ds.start_hours)
    b = clim.at(ds.start_hours + season_h)
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ClimatologyError):
        clim.at(ds.start_hours + 1)  # off-step hour has no bucket


def test_step_reward_and_return_arithmetic():
    spec = GridSpec.cell_centered(1, 2, 4)
    w = lat_weights(spec)
    x = np.ones(spec.shape)
    assert step_reward(x, x, w, omega=-0.1) == pytest.approx(-0.1)
    rewards = [step_reward(x, x, w, -0.1) for _ in range(3)]
    assert trajectory_return(rewards) == pytest.approx(-0.3)
    # mixed case: reward = -rmse + omega
    rng = np.random.default_rng(6)
    y = x + rng.normal(size=spec.shape)
    expected = -rmse(x, y, w) - 0.05
    assert step_reward(x, y, w, -0.05) == pytest.approx(expected, rel=1e-12)


def test_shorter_trajectories_win_at_equal_step_quality():
    spec = GridSpec.cell_centered(1, 2, 4)
    w = lat_weights(spec)
    x = np.ones(spec.shape)
    y = x + 0.5
    per_step = step_reward(y, x, w, omega=-0.1)
    g_short = trajectory_return([per_step] * 7)
    g_long = trajectory_return([per_step] * 23)
    assert g_short > g_long
