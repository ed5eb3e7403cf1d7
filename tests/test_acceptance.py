"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy pipeline criteria (9, 10, 12) drive the real CLI: data generation,
pre-training, adaptive fine-tuning, and the rollout comparison, on the
default desk-scale dataset. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from rollcast import diffcore as dc
from rollcast.diffcore import Tensor
from rollcast.cli import main
from rollcast.config import read_csv
from rollcast.encoding import conventional_pe, ring_pe_2d, similarity_matrix
from rollcast.gridio import GridSpec, generate_synthetic, read_grid_file, default_splits
from rollcast.metrics import lat_weights, rmse, acc
from rollcast.model import ForecastModel, ModelConfig
from rollcast.moe import SharedPrivateMoE, aux_loss_1, aux_loss_2, gate_decision
from rollcast.scheduler import DQN, DQNConfig, EpisodeSpec, ForecastEnv, plan_chooser, run_episode, td_targets
from rollcast.scheduler.finetune import rollout_finetune_loss
from rollcast.scheduler.policies import policy_greedy, policy_naive


def report(criterion: int, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


# -- 1: ring positional encoding circular invariance ---------------------------------


def test_criterion_1_rpe_circular_invariance():
    start = time.time()
    worst = 0.0
    for w in (8, 16, 32):
        for D in (16, 64):
            table = ring_pe_2d(4, w, D)
            sim = similarity_matrix(table)[:w, :w]
            for a in range(w):
                for b in range(w):
                    d = min(abs(a - b), w - abs(a - b))
                    worst = max(worst, abs(sim[a, b] - sim[0, d]))
    elapsed = time.time() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    report(1, f"max similarity deviation {worst:.2e} over equal circular distances in {elapsed:.2f}s")


# -- 2: endpoint-contrast reproduced through the CLI ----------------------------------


def test_criterion_2_endpoint_contrast_via_cli(tmp_path):
    start = time.time()
    for w, D in ((8, 16), (16, 64), (32, 64)):
        out = tmp_path / f"pe_{w}_{D}"
        assert main([
            "pe-viz", "--height-tokens", "4", "--width-tokens", str(w),
            "--dim", str(D), "--out-dir", str(out),
        ]) == 0
        _, _, ring_rows = read_csv(out / "ring_similarity.csv")
        _, _, conv_rows = read_csv(out / "conventional_similarity.csv")
        ring = np.array([[float(x) for x in r] for r in ring_rows])
        conv = np.array([[float(x) for x in r] for r in conv_rows])
        assert ring[0, w - 1] >= ring[0, 2]
        assert conv[0, w - 1] < conv[0, 1]
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(2, f"ring endpoints as similar as neighbors, conventional endpoints distant ({elapsed:.2f}s)")


# -- 3: gradient correctness over >= 20 seeds ------------------------------------------


def test_criterion_3_gradient_correctness():
    from test_diffcore import _primitive_cases

    start = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        for name, (params, f) in _primitive_cases(rng).items():
            rep = dc.check_gradients(f, params, tol=1e-4)
            worst = max(worst, rep.max_error)
            assert rep.passed, f"{name} seed={seed}: {rep}"

    spec = GridSpec.cell_centered(1, 2, 4)
    cfg = ModelConfig(embed_dim=8, num_blocks=1, num_heads=2, patch_size=2,
                      moe_num_private=2, moe_top_k=1, moe_alpha=0.1)
    micro_worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(6000 + seed)
        model = ForecastModel(cfg, spec, [0.0], [1.0], seed=seed)
        for p in model.trainable_params().values():
            p.data = rng.normal(scale=0.3, size=p.data.shape)
        x = rng.normal(size=(1,) + spec.shape)
        target = rng.normal(size=(2, model.patch_dim))

        def f():
            pred, _, noises = model.forward_tokens(x, [6])
            diff = dc.sub(pred, Tensor(target))
            loss = dc.tensor_mean(dc.mul(diff, diff))
            sums, M = dc.tensor_sum(noises[0], axis=0), cfg.moe_num_private
            spread = dc.cross_entropy(
                dc.softmax(dc.slice_axis(sums, 0, 0, M), axis=-1),
                dc.softmax(dc.slice_axis(sums, 0, 2 * M, 3 * M), axis=-1),
            )
            return dc.add(loss, dc.mul_scalar(spread, 0.1))

        rep = dc.check_gradients(f, model.trainable_params(), tol=1e-4)
        micro_worst = max(micro_worst, rep.max_error)
        assert rep.passed, f"micro-model seed={seed}: max err {rep.max_error:.2e}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(3, f"primitives max rel err {worst:.2e}, micro-model {micro_worst:.2e}, {elapsed:.1f}s")


# -- 4: MoE routing contract -------------------------------------------------------------


@pytest.mark.usefixtures("float64")
def test_criterion_4_moe_routing_contract():
    cfg = ModelConfig(embed_dim=16, moe_num_private=4, moe_top_k=2)
    moe = SharedPrivateMoE(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    z = Tensor(rng.normal(size=(10_000, 16)))
    with dc.no_grad():
        _, decision, _ = moe.forward(z, np.full(10_000, cfg.intervals.index(12)))
    assert decision.selected.shape == (10_000, 2)
    assert all(len(set(row)) == 2 for row in decision.selected)
    sums = decision.g_prime.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9

    s = Tensor(np.array([[0.9, 0.1, 0.2, 0.3]]))
    b = Tensor(np.array([[0.0, 0.0, 0.5, 0.0]]))
    g_prime, selected = gate_decision(s, b, k=2)
    expected = np.exp([0.9, 0.2]) / np.exp([0.9, 0.2]).sum()
    assert list(selected[0]) == [0, 2]
    assert np.max(np.abs(g_prime.data[0] - expected)) < 1e-6
    report(4, "10^4 tokens: exactly k active, weights sum to 1; hand example matches to 1e-6")


# -- 5: auxiliary-loss oracles --------------------------------------------------------------


@pytest.mark.usefixtures("float64")
def test_criterion_5_aux_loss_oracles():
    u = Tensor(np.array([0.5, 0.5]))
    a1 = aux_loss_1({6: u, 12: u, 24: u})
    assert abs(float(a1.data) - 3 * np.log(2.0)) < 1e-9

    M = 4
    uniform = {d: Tensor(np.full(M, 1.0 / M)) for d in (6, 12, 24)}
    balanced = float(aux_loss_2(uniform).data)
    assert abs(balanced - np.log(M)) < 1e-12

    rng = np.random.default_rng(2)
    for _ in range(1000):
        dists = {d: Tensor(rng.dirichlet(np.ones(M))) for d in (6, 12, 24)}
        val = float(aux_loss_2(dists).data)
        assert val > np.log(M)
    report(5, "aux1(3 uniform pairs)=3 ln2; aux2=ln M at balance, strictly above off balance (10^3 cases)")


# -- 6: metric oracles ------------------------------------------------------------------------


def test_criterion_6_metric_oracles():
    from test_metrics import acc_oracle, rmse_oracle

    spec = GridSpec.cell_centered(2, 4, 8)
    w = lat_weights(spec)
    rng = np.random.default_rng(3)
    for _ in range(100):
        pred = rng.normal(size=spec.shape)
        truth = rng.normal(size=spec.shape)
        clim = rng.normal(size=spec.shape)
        np.testing.assert_allclose(
            rmse(pred, truth, w), rmse_oracle(pred, truth, w), rtol=1e-12
        )
        got = acc(pred, truth, clim, w)
        for v in range(2):
            np.testing.assert_allclose(
                got[v], acc_oracle(pred, truth, clim, w, v), rtol=1e-12
            )
    x = rng.normal(size=spec.shape)
    assert rmse(x, x, w) == 0.0
    np.testing.assert_allclose(acc(x, x, clim, w), 1.0, atol=1e-12)
    report(6, "RMSE/ACC match triple-loop oracles at 1e-12 on 100 instances")


# -- 7: TD arithmetic on a crafted batch ---------------------------------------------------------


def test_criterion_7_td_arithmetic():
    spec = GridSpec.cell_centered(2, 8, 16)
    ds = generate_synthetic(spec, 120, seed=4, splits=default_splits(120))
    model_cfg = ModelConfig(embed_dim=16, num_blocks=1, num_heads=2, patch_size=4,
                            moe_num_private=2, moe_top_k=1)
    model = ForecastModel.from_dataset(model_cfg, ds, seed=4)
    env = ForecastEnv(model, ds, omega=-0.1)
    dqn = DQN(model, DQNConfig(gamma=0.9), seed=4)

    rng = np.random.default_rng(5)
    batch = []
    while len(batch) < 20:
        lead = int(rng.choice([18, 24, 30]))
        t0 = ds.fields[int(rng.integers(0, 40))].timestamp_hours
        state = env.reset(EpisodeSpec(t0, lead))
        while state.remaining_h > 0:
            action = int(rng.choice(env.actions.legal(state.remaining_h)))
            tr, state = env.step(state, action)
            batch.append(tr)
    batch = batch[:20]
    assert any(t.terminal for t in batch)
    assert any(t.next_state.remaining_h in (6, 12, 18) for t in batch)

    got = td_targets(batch, dqn)
    worst = 0.0
    for i, t in enumerate(batch):
        if t.terminal:
            expected = t.reward  # terminal masking: no bootstrap
        else:
            q = dqn.q_target.q_values(t.next_state)
            legal = env.actions.legal(t.next_state.remaining_h)  # legal-action masking
            expected = t.reward + 0.9 * max(q[dqn.actions.index_of(a)] for a in legal)
        worst = max(worst, abs(got[i] - expected))
    assert worst < 1e-9
    report(7, f"20-transition crafted batch: max target deviation {worst:.2e}")


# -- 8: fixed decompositions --------------------------------------------------------------------


def test_criterion_8_policy_decompositions():
    assert policy_greedy(138) == [24, 24, 24, 24, 24, 12, 6]
    assert policy_naive(138) == [6] * 23
    report(8, "greedy(138h) = 24x5 + 12 + 6; naive(138h) = 6 x 23")


# -- 9, 10, 12: the full pipeline through the CLI -------------------------------------------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data + pretrain + finetune on the default desk-scale config."""
    root = tmp_path_factory.mktemp("acceptance")
    t_start = time.time()
    assert main(["gen-data", "--out", str(root / "data.grid")]) == 0
    gen_done = time.time()
    assert main([
        "pretrain", "--data", str(root / "data.grid"), "--out-dir", str(root / "pre"),
    ]) == 0
    pretrain_done = time.time()
    assert main([
        "finetune", "--data", str(root / "data.grid"),
        "--checkpoint", str(root / "pre" / "model.ckpt"),
        "--out-dir", str(root / "fin"),
    ]) == 0
    finetune_done = time.time()
    return {
        "root": root,
        "gen_s": gen_done - t_start,
        "pretrain_s": pretrain_done - gen_done,
        "finetune_s": finetune_done - pretrain_done,
    }


def test_criterion_9_pretraining_beats_half_persistence(pipeline):
    summary = json.loads((pipeline["root"] / "pre" / "pretrain_summary.json").read_text())
    ratios = {d: v["ratio"] for d, v in summary["per_interval"].items()}
    assert set(ratios) == {"6", "12", "24"}
    for d, ratio in ratios.items():
        assert ratio < 0.5, f"delta={d}h ratio {ratio:.3f} not below 0.5"
    elapsed = pipeline["gen_s"] + pipeline["pretrain_s"]
    assert elapsed < 15 * 60
    pretty = ", ".join(f"{d}h: {r:.3f}" for d, r in sorted(ratios.items(), key=lambda kv: int(kv[0])))
    report(9, f"one-step loss vs persistence ratios [{pretty}] in {elapsed:.0f}s")


def test_criterion_10_rollout_ablation_ordering(pipeline):
    root = pipeline["root"]
    t0 = time.time()
    out = root / "compare.csv"
    assert main([
        "compare-rollouts", "--data", str(root / "data.grid"),
        "--checkpoint", str(root / "fin" / "model_finetuned.ckpt"),
        "--dqn", str(root / "fin" / "dqn.ckpt"),
        "--out", str(out),
    ]) == 0
    elapsed = time.time() - t0 + pipeline["finetune_s"]
    assert elapsed < 15 * 60

    # re-evaluate in process to get per-episode returns for the standard error
    ds = read_grid_file(root / "data.grid")
    from rollcast.cli import load_dqn_checkpoint, load_model_checkpoint
    from rollcast.evaluation import eval_initial_times
    from rollcast.scheduler import evaluate_policies
    from rollcast.scheduler.finetune import resolve_omega

    model, _ = load_model_checkpoint(root / "fin" / "model_finetuned.ckpt")
    dqn = load_dqn_checkpoint(root / "fin" / "dqn.ckpt", model)
    weights = lat_weights(ds.spec)
    omega = resolve_omega(model, ds, seed=0)
    env = ForecastEnv(model, ds, omega=omega, weights=weights)
    t0s = eval_initial_times(ds, "test", 138, 200, seed=0)
    assert len(t0s) >= 200
    episodes = [EpisodeSpec(t, 138) for t in t0s]
    res = evaluate_policies(env, episodes, dqn=dqn, random_seed=0)

    adaptive = res["adaptive"]
    lines = []
    for other in ("naive", "greedy", "random"):
        diff = np.array(adaptive.returns) - np.array(res[other].returns)
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        assert diff.mean() >= -se, (
            f"adaptive return {adaptive.mean_return:.3f} below {other} "
            f"{res[other].mean_return:.3f} by more than one SE ({se:.3f})"
        )
        lines.append(f"vs {other}:(ret diff {diff.mean():+.2f} ± {se:.2f})")
    bar = 1.02 * min(res["naive"].mean_final_rmse, res["greedy"].mean_final_rmse)
    assert adaptive.mean_final_rmse <= bar, (
        f"adaptive 138h RMSE {adaptive.mean_final_rmse:.4f} above 1.02 x best fixed {bar:.4f}"
    )
    report(
        10,
        f"{len(episodes)} episodes at 138h: " + "; ".join(lines)
        + f"; rmse {adaptive.mean_final_rmse:.3f} <= {bar:.3f} ({elapsed:.0f}s incl. fine-tune)",
    )


def test_criterion_11_stop_gradient_at_t_max():
    spec = GridSpec.cell_centered(2, 8, 16)
    ds = generate_synthetic(spec, 80, seed=6, splits=default_splits(80))
    cfg = ModelConfig(embed_dim=16, num_blocks=1, num_heads=2, patch_size=4,
                      moe_num_private=2, moe_top_k=1)
    model = ForecastModel.from_dataset(cfg, ds, seed=6)
    rng = np.random.default_rng(7)
    for p in model.trainable_params().values():
        p.data = rng.normal(scale=0.2, size=p.data.shape)
    env = ForecastEnv(model, ds, omega=0.0, weights=lat_weights(spec))
    t0 = ds.fields[0].timestamp_hours

    head = model.head_params()
    for p in head.values():
        p.zero_grad()
    parts = rollout_finetune_loss(env, [EpisodeSpec(t0, 48)], plan_chooser([[24, 12, 12]]), t_max=1)
    dc.backward(parts.grad_loss)
    grads_tmax = {k: p.grad.copy() for k, p in head.items()}
    for p in head.values():
        p.zero_grad()

    # gradient of the first step alone, rescaled to the 3-step normalization
    first = rollout_finetune_loss(env, [EpisodeSpec(t0, 24)], plan_chooser([[24]]), t_max=1)
    dc.backward(dc.mul_scalar(first.grad_loss, 1.0 / 3.0))
    grads_first = {k: p.grad.copy() for k, p in head.items()}
    for k in head:
        np.testing.assert_array_equal(grads_tmax[k], grads_first[k])
    for p in head.values():
        p.zero_grad()
    report(11, "3-step trajectory, t_max=1: adjoints from steps 2-3 are exactly zero")


def test_criterion_12_determinism_and_roundtrips(pipeline, tmp_path):
    root = pipeline["root"]
    # grid round trip is bit-exact
    ds = read_grid_file(root / "data.grid")
    copy_path = tmp_path / "copy.grid"
    from rollcast.gridio import write_grid_file

    write_grid_file(copy_path, ds)
    orig = (root / "data.grid").read_bytes()
    assert copy_path.read_bytes() == orig

    # checkpoint round trip is bit-exact
    from rollcast.diffcore import load_checkpoint, save_checkpoint

    arrays = load_checkpoint(root / "pre" / "model.ckpt")
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, arrays)
    assert resaved.read_bytes() == (root / "pre" / "model.ckpt").read_bytes()

    # two seeded pretrain runs produce identical training CSVs (reduced budget)
    for d in ("da", "db"):
        assert main([
            "pretrain", "--data", str(root / "data.grid"),
            "--set", "pretrain.steps=25",
            "--out-dir", str(tmp_path / d),
        ]) == 0
    a = (tmp_path / "da" / "training.csv").read_bytes()
    b = (tmp_path / "db" / "training.csv").read_bytes()
    assert a == b
    report(12, "grid and checkpoint round trips bit-exact; seeded pretrain CSVs identical")
