"""Routing contract, auxiliary-loss oracles, and expert specialization dynamics."""

import numpy as np
import pytest

from rollcast import diffcore as dc
from rollcast.config import read_csv
from rollcast.diffcore import Tensor
from rollcast.moe import (
    MoEConfig,
    SharedPrivateMoE,
    aux_loss_1,
    aux_loss_2,
    combined_aux,
    gate_decision,
    noise_distributions,
    write_router_telemetry,
)

INTERVALS = (6, 12, 24)


def make_moe(M=4, k=2, D=16, seed=0, alpha=1.0):
    cfg = MoEConfig(num_private=M, top_k=k, embed_dim=D, intervals=INTERVALS, alpha=alpha)
    return cfg, SharedPrivateMoE(cfg, np.random.default_rng(seed))


# -- routing -------------------------------------------------------------------


def test_hand_arithmetic_routing_example():
    s = Tensor(np.array([[0.9, 0.1, 0.2, 0.3]]))
    b = Tensor(np.array([[0.0, 0.0, 0.5, 0.0]]))
    g_prime, selected = gate_decision(s, b, k=2)
    # s + b = [.9, .1, .7, .3] -> experts {0, 2}; weights = softmax([.9, .2])
    assert list(selected[0]) == [0, 2]
    expected = np.exp([0.9, 0.2]) / np.exp([0.9, 0.2]).sum()
    np.testing.assert_allclose(g_prime.data[0], expected, atol=1e-9)
    np.testing.assert_allclose(g_prime.data[0], [0.668, 0.332], atol=1e-3)


def test_single_expert_forces_unit_weight():
    cfg, moe = make_moe(M=1, k=1)
    z = Tensor(np.random.default_rng(1).normal(size=(5, cfg.embed_dim)))
    out, dec, _ = moe.forward(z, 6)
    np.testing.assert_array_equal(dec.g_prime, np.ones((5, 1)))
    np.testing.assert_array_equal(dec.selected, np.zeros((5, 1), dtype=np.intp))
    # output = shared(z) + 1.0 * private_0(z)
    from rollcast.moe import _ffn_forward

    expected = dc.add(
        _ffn_forward(moe.params(), "moe.shared", z),
        _ffn_forward(moe.params(), "moe.private.0", z),
    )
    np.testing.assert_allclose(out.data, expected.data, atol=1e-12)


def test_zeroed_private_experts_leave_only_shared():
    cfg, moe = make_moe()
    for name, p in moe.params().items():
        if ".private." in name:
            p.data[:] = 0.0
    z = Tensor(np.random.default_rng(2).normal(size=(7, cfg.embed_dim)))
    out, _, _ = moe.forward(z, 12)
    from rollcast.moe import _ffn_forward

    shared = _ffn_forward(moe.params(), "moe.shared", z)
    np.testing.assert_allclose(out.data, shared.data, atol=1e-12)


def test_exactly_k_selected_and_weights_sum_to_one():
    cfg, moe = make_moe(M=5, k=3)
    rng = np.random.default_rng(3)
    z = Tensor(rng.normal(size=(200, cfg.embed_dim)))
    _, dec, _ = moe.forward(z, 24)
    assert dec.selected.shape == (200, 3)
    for row in dec.selected:
        assert len(set(row)) == 3
    np.testing.assert_allclose(dec.g_prime.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(dec.s > 0) and np.all(dec.s < 1)
    assert np.all(dec.b_delta > 0) and np.all(dec.b_delta < 1)


def test_unknown_interval_rejected():
    cfg, moe = make_moe()
    z = Tensor(np.zeros((2, cfg.embed_dim)))
    with pytest.raises(KeyError, match="48"):
        moe.forward(z, 48)


def test_routing_is_permutation_equivariant():
    cfg, moe = make_moe()
    rng = np.random.default_rng(4)
    z = rng.normal(size=(30, cfg.embed_dim))
    perm = rng.permutation(30)
    out_a, dec_a, _ = moe.forward(Tensor(z), 6)
    out_b, dec_b, _ = moe.forward(Tensor(z[perm]), 6)
    np.testing.assert_allclose(out_b.data, out_a.data[perm], atol=1e-12)
    np.testing.assert_array_equal(dec_b.selected, dec_a.selected[perm])


def test_layer_gradient_passes_fd_with_stable_routing():
    cfg, moe = make_moe(M=3, k=2, D=8, seed=5)
    rng = np.random.default_rng(6)
    z = Tensor(rng.normal(size=(4, cfg.embed_dim)))
    cot = Tensor(rng.normal(size=(4, cfg.embed_dim)))

    # routing must sit far from ties so finite differences cannot flip it
    s = dc.sigmoid(dc.matmul(z, moe.params()["moe.gate"]))
    b = moe._noise(z, 6)
    ranked = np.sort(s.data + b.data, axis=1)[:, ::-1]
    assert np.min(ranked[:, cfg.top_k - 1] - ranked[:, cfg.top_k]) > 1e-3

    def f():
        out, _, _ = moe.forward(z, 6)
        return dc.tensor_sum(dc.mul(out, cot))

    report = dc.check_gradients(f, moe.params(), tol=1e-4)
    assert report.passed, str(report)


def dense_forward(moe, z, delta):
    """The all-experts formula: every private expert runs on every token and
    the unselected ones are weighted by zero. Oracle for the dispatched layer."""
    from rollcast.moe import _ffn_forward

    cfg, params, n = moe.cfg, moe.params(), z.shape[0]
    s = dc.sigmoid(dc.matmul(z, params["moe.gate"]))
    g_prime, selected = gate_decision(s, moe._noise(z, delta), cfg.top_k)
    dense_weights = dc.scatter_cols(g_prime, selected, cfg.num_private)
    out = _ffn_forward(params, "moe.shared", z)
    for m in range(cfg.num_private):
        col = dc.slice_axis(dense_weights, 1, m, m + 1)
        expert = _ffn_forward(params, f"moe.private.{m}", z)
        out = dc.add(out, dc.mul(dc.broadcast_to(col, (n, cfg.embed_dim)), expert))
    return out


def _grads(moe, z, cot, forward):
    params = dict(moe.params(), z=z)
    for p in params.values():
        p.zero_grad()
    out = forward(moe, z, 12)
    dc.backward(dc.tensor_sum(dc.mul(out, cot)))
    grads = {k: np.zeros_like(p.data) if p.grad is None else p.grad for k, p in params.items()}
    return out.data, grads


@pytest.mark.parametrize("M,k", [(4, 2), (3, 3)])
def test_dispatch_matches_dense_oracle(M, k):
    cfg, moe = make_moe(M=M, k=k, D=8, seed=11)
    rng = np.random.default_rng(12)
    pool = rng.normal(size=(200, cfg.embed_dim))
    with dc.no_grad():
        _, dec, _ = moe.forward(Tensor(pool), 12)
    if k < M:
        # a batch on which expert 0 receives no rows
        rows = np.nonzero(~(dec.selected == 0).any(axis=1))[0][:6]
    else:
        rows = np.arange(6)
    z = Tensor(pool[rows], requires_grad=True, name="z")
    cot = Tensor(rng.normal(size=(len(rows), cfg.embed_dim)))
    _, dec, _ = moe.forward(z, 12)
    usage = dec.usage_histogram(M)
    assert (usage[0] == 0) if k < M else np.all(usage == len(rows))

    out, grads = _grads(moe, z, cot, lambda m, x, d: m.forward(x, d)[0])
    want_out, want = _grads(moe, z, cot, dense_forward)
    np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
    assert set(grads) == set(want)
    for name in grads:
        np.testing.assert_allclose(grads[name], want[name], rtol=0, atol=1e-12, err_msg=name)
    if k < M:
        assert not np.any(grads["moe.private.0.w1"])


def test_each_private_expert_sees_exactly_its_routed_rows(monkeypatch):
    import rollcast.moe as moe_module

    cfg, moe = make_moe(M=4, k=2, D=8, seed=13)
    z = Tensor(np.random.default_rng(14).normal(size=(40, cfg.embed_dim)))
    seen = {}
    original = moe_module._ffn_forward

    def recording(params, prefix, x):
        seen[prefix] = x.data.copy()
        return original(params, prefix, x)

    monkeypatch.setattr(moe_module, "_ffn_forward", recording)
    _, dec, _ = moe.forward(z, 6)
    np.testing.assert_array_equal(seen.pop("moe.shared"), z.data)
    for m in range(cfg.num_private):
        routed = np.nonzero((dec.selected == m).any(axis=1))[0]
        if routed.size:
            np.testing.assert_array_equal(seen.pop(f"moe.private.{m}"), z.data[routed])
    assert not seen  # no expert ran on rows it was not routed
    assert sum(dec.usage_histogram(cfg.num_private)) == 40 * cfg.top_k


# -- auxiliary losses ------------------------------------------------------------


def as_dists(arrs):
    return {d: Tensor(np.asarray(a)) for d, a in arrs.items()}


def test_aux1_identical_uniform_distributions():
    u = [0.5, 0.5]
    dists = as_dists({6: u, 12: u, 24: u})
    val = aux_loss_1(dists)
    np.testing.assert_allclose(val.data, 3 * np.log(2.0), atol=1e-9)


def test_aux1_single_interval_is_zero():
    assert float(aux_loss_1(as_dists({6: [0.3, 0.7]})).data) == 0.0


def test_aux1_disjoint_supports_is_huge():
    eps = 1e-12
    dists = as_dists({6: [1 - eps, eps], 12: [eps, 1 - eps]})
    assert float(aux_loss_1(dists).data) > 20.0


def test_aux1_matches_direct_summation_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ps = {d: rng.dirichlet(np.ones(5)) for d in INTERVALS}
        got = float(aux_loss_1(as_dists(ps)).data)
        deltas = sorted(ps)
        expected = 0.0
        for i in range(len(deltas)):
            for j in range(i + 1, len(deltas)):
                p, q = ps[deltas[i]], ps[deltas[j]]
                expected += -np.sum(p * np.log(np.maximum(q, 1e-12)))
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_aux2_uniform_pool_is_ln_m():
    u = np.full(4, 0.25)
    dists = as_dists({6: u, 12: u, 24: u})
    np.testing.assert_allclose(float(aux_loss_2(dists).data), np.log(4.0), atol=1e-12)


def test_aux2_hand_case_exceeds_ln2():
    # pooled distribution [.7, .3]: H(U, Q) = -(ln .7 + ln .3)/2
    got = -0.5 * (np.log(0.7) + np.log(0.3))
    assert got > np.log(2.0)
    # reproduce through the implementation: choose P summing to softmax^-1 of [.7,.3]
    logits = np.log([0.7, 0.3])
    dists = as_dists({6: logits - logits.min()})  # single dist; softmax recovers [.7,.3]
    np.testing.assert_allclose(float(aux_loss_2(dists).data), got, atol=1e-9)


def test_aux2_strictly_above_ln_m_off_balance():
    rng = np.random.default_rng(8)
    for _ in range(200):
        dists = as_dists({d: rng.dirichlet(np.ones(4)) for d in INTERVALS})
        assert float(aux_loss_2(dists).data) > np.log(4.0)


def test_combined_aux_arithmetic():
    a1, a2 = Tensor(1.3), Tensor(0.4)
    assert float(combined_aux(a1, a2, 0.0).data) == pytest.approx(-1.3)
    assert float(combined_aux(Tensor(0.0), Tensor(0.0), 2.0).data) == 0.0
    rng = np.random.default_rng(9)
    for _ in range(20):
        x, y, al = rng.normal(), rng.normal(), rng.uniform(0, 2)
        got = float(combined_aux(Tensor(x), Tensor(y), al).data)
        np.testing.assert_allclose(got, -x + al * y, rtol=1e-12)


# -- specialization and balance after training -------------------------------------


def test_training_specializes_per_interval_and_balances_pool():
    rng = np.random.default_rng(0)
    D, M, K = 16, 4, 2
    cfg = MoEConfig(num_private=M, top_k=K, embed_dim=D, intervals=INTERVALS, alpha=1.0)
    moe = SharedPrivateMoE(cfg, rng)
    targets = {d: rng.normal(size=(D, D)) / np.sqrt(D) for d in cfg.intervals}
    mu = rng.normal(size=D)  # fixed token offset, standing in for conditioning shifts
    opt = dc.AdamW(moe.params(), lr=0.01)

    for _ in range(400):
        opt.zero_grad()
        loss_total = None
        noise_pool = {}
        for d in cfg.intervals:
            z = Tensor(mu + rng.normal(size=(16, D)))
            out, _, _ = moe.forward(z, d)
            diff = dc.sub(out, Tensor(z.data @ targets[d]))
            task = dc.tensor_mean(dc.mul(diff, diff))
            loss_total = task if loss_total is None else dc.add(loss_total, task)
            for dd, t in moe.noise_sums(z).items():
                noise_pool[dd] = t if dd not in noise_pool else dc.add(noise_pool[dd], t)
        dists = noise_distributions(noise_pool)
        loss = dc.add(loss_total, combined_aux(aux_loss_1(dists), aux_loss_2(dists), cfg.alpha))
        dc.backward(loss)
        opt.step()

    rng_eval = np.random.default_rng(99)
    usage = {}
    for d in cfg.intervals:
        z = Tensor(mu + rng_eval.normal(size=(2000, D)))
        with dc.no_grad():
            _, dec, _ = moe.forward(z, d)
        usage[d] = dec.usage_histogram(M) / (2000 * K)

    pooled = sum(usage.values()) / len(usage)
    assert pooled.max() / pooled.mean() < 2.0  # load balance
    deltas = list(usage)
    for i in range(len(deltas)):
        for j in range(i + 1, len(deltas)):
            tv = 0.5 * np.abs(usage[deltas[i]] - usage[deltas[j]]).sum()
            assert tv > 0.1, f"usage for {deltas[i]}h and {deltas[j]}h too similar (TV={tv:.3f})"


def test_router_telemetry_csv(tmp_path):
    cfg, moe = make_moe()
    rng = np.random.default_rng(10)
    rows = []
    for step in range(3):
        for d in cfg.intervals:
            z = Tensor(rng.normal(size=(20, cfg.embed_dim)))
            with dc.no_grad():
                _, dec, _ = moe.forward(z, d)
            rows.append((step, d, dec.usage_histogram(cfg.num_private)))
    path = tmp_path / "router.csv"
    prov = {"config_hash": "abc123", "seed": 7}
    write_router_telemetry(path, rows, cfg.num_private, prov)
    read_prov, header, body = read_csv(path)
    assert read_prov == prov
    assert header == ["step", "interval_hours", "expert_0", "expert_1", "expert_2", "expert_3"]
    assert len(body) == 9
    counts = [int(x) for x in body[0][2:]]
    assert sum(counts) == 20 * cfg.top_k


def test_collected_noise_reuses_the_routing_noise(monkeypatch):
    cfg, moe = make_moe()
    z = Tensor(np.random.default_rng(11).normal(size=(12, cfg.embed_dim)))
    matmuls = []
    real_matmul = dc.matmul

    def counted(a, b):
        matmuls.append(b.name)
        return real_matmul(a, b)

    monkeypatch.setattr(dc, "matmul", counted)
    _, dec, b = moe.forward(z, 12)
    noise = moe.noise_sums(z, 12, b)
    # the gate, then one noise head per interval: 12h's noise is the routing's own
    assert matmuls == ["moe.gate", "moe.noise.12", "moe.noise.6", "moe.noise.24"]
    monkeypatch.undo()
    recomputed = moe.noise_sums(z)
    assert list(noise) == list(recomputed) == list(cfg.intervals)
    for d in cfg.intervals:
        np.testing.assert_array_equal(noise[d].data, recomputed[d].data)
    np.testing.assert_array_equal(noise[12].data, dec.b_delta.sum(axis=0))
