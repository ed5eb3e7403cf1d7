"""Tensor engine: forward values, reverse-mode gradients vs finite differences."""

import numpy as np
import pytest

from rollcast import diffcore as dc
from rollcast.diffcore import Tensor


def rand_tensor(rng, shape, requires_grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


# -- forward-value oracles ------------------------------------------------------


def test_softmax_uniform_on_equal_inputs():
    out = dc.softmax(Tensor([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


@pytest.mark.usefixtures("float64")
def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(scale=5.0, size=(7, 11))
        out = dc.softmax(Tensor(x)).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)


def test_cross_entropy_of_uniform_with_itself_is_ln2():
    p = Tensor([0.5, 0.5])
    h = dc.cross_entropy(p, p)
    np.testing.assert_allclose(h.data, np.log(2.0), atol=1e-12)


def test_top_k_returns_k_largest_with_low_index_ties():
    vals, idx = dc.top_k(np.array([1.0, 3.0, 3.0, 2.0]), 2)
    assert list(idx) == [1, 2]  # tie between cols 1 and 2 -> lowest index first
    assert list(vals) == [3.0, 3.0]
    vals, idx = dc.top_k(np.array([[5.0, 5.0, 5.0]]), 2)
    assert idx.shape == (1, 2)
    assert list(idx[0]) == [0, 1]
    with pytest.raises(ValueError):
        dc.top_k(np.array([1.0, 2.0]), 3)


def test_shape_mismatch_names_both_shapes():
    a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))
    with pytest.raises(dc.ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
        dc.add(a, b)
    with pytest.raises(dc.ShapeError):
        dc.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    # leading dims must be equal: matmul broadcasts none of them
    with pytest.raises(dc.ShapeError, match=r"\(2, 3, 2, 3\).*\(2, 4, 3, 2\)"):
        dc.matmul(Tensor(np.zeros((2, 3, 2, 3))), Tensor(np.zeros((2, 4, 3, 2))))
    with pytest.raises(dc.ShapeError, match=r"\(2, 3\).*\(4, 3, 2\)"):
        dc.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3, 2))))


@pytest.mark.usefixtures("float64")
def test_fused_ops_match_their_unfused_graphs():
    rng = np.random.default_rng(12)
    x, w = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(3, 4)))
    b, r1, r2 = (Tensor(rng.normal(size=(1, 4))) for _ in range(3))
    y = Tensor(rng.normal(size=(5, 4)))
    lin = dc.add(dc.matmul(x, w), dc.broadcast_to(b, (5, 4)))
    np.testing.assert_array_equal(dc.linear(x, w, b).data, lin.data)
    mod = dc.add(dc.mul(y, dc.broadcast_to(dc.add_scalar(r1, 1.0), (5, 4))), dc.broadcast_to(r2, (5, 4)))
    np.testing.assert_array_equal(dc.modulate(y, r1, r2, [5]).data, mod.data)
    gated = dc.add(lin, dc.mul(dc.broadcast_to(r1, (5, 4)), y))
    np.testing.assert_array_equal(dc.gated_add(lin, r1, y, [5]).data, gated.data)
    a = rng.normal(size=(2, 3, 4, 5))
    np.testing.assert_array_equal(dc.permute(Tensor(a), (0, 2, 3, 1)).data, a.transpose(0, 2, 3, 1))
    src = rng.normal(size=(4, 2))
    expected = np.zeros((3, 2))
    for i, r in enumerate([2, 0, 2, 1]):
        expected[r] += src[i]
    np.testing.assert_allclose(dc.scatter_add_rows(Tensor(src), [2, 0, 2, 1], 3).data, expected, atol=1e-15)


SEGMENTS = [2, 5, 3]  # three unequal row segments of a (10, 4) input


def test_segment_rows_pass_finite_differences():
    rng = np.random.default_rng(21)
    x, y = rand_tensor(rng, (10, 4)), rand_tensor(rng, (10, 4))
    scale, shift, gate = (rand_tensor(rng, (3, 4)) for _ in range(3))
    w = Tensor(rng.normal(size=(10, 4)))
    cases = {
        "modulate": ({"x": x, "scale": scale, "shift": shift},
                     lambda: dc.tensor_sum(dc.mul(dc.modulate(x, scale, shift, SEGMENTS), w))),
        "gated_add": ({"x": x, "gate": gate, "y": y},
                      lambda: dc.tensor_sum(dc.mul(dc.gated_add(x, gate, y, SEGMENTS), w))),
    }
    for name, (params, f) in cases.items():
        report = dc.check_gradients(f, params, tol=1e-6)
        assert report.passed, f"{name}\n{report}"


# (n, D) token operands and (K, D) row operands -> the op's output
SEGMENT_OPS = {
    "modulate": (1, 2, lambda ts, rs, counts: dc.modulate(ts[0], rs[0], rs[1], counts)),
    "gated_add": (2, 1, lambda ts, rs, counts: dc.gated_add(ts[0], rs[0], ts[1], counts)),
}


def _run_segment_op(op, tokens, rows, counts, cot) -> list:
    """The op's output, then the adjoints of its token and row operands."""
    ts = [Tensor(a, requires_grad=True) for a in tokens]
    rs = [Tensor(a, requires_grad=True) for a in rows]
    out = op(ts, rs, counts)
    dc.backward(dc.tensor_sum(dc.mul(out, Tensor(cot))))
    return [out.data] + [t.grad for t in ts + rs]


@pytest.mark.parametrize("name", sorted(SEGMENT_OPS))
def test_segment_rows_equal_the_one_row_form_on_each_segment(name):
    """Each segment of the counts form is the one-segment form, counts [n],
    applied to that segment alone: its output and token adjoints bit for bit,
    its row adjoints to float32 rounding (one reduceat sums in another order
    than one reduce per segment)."""
    n_tokens, n_rows, op = SEGMENT_OPS[name]
    rng = np.random.default_rng(22)
    tokens = [rng.normal(size=(10, 4)).astype(np.float32) for _ in range(n_tokens)]
    rows = [rng.normal(size=(3, 4)).astype(np.float32) for _ in range(n_rows)]
    cot = rng.normal(size=(10, 4)).astype(np.float32)
    whole = _run_segment_op(op, tokens, rows, SEGMENTS, cot)
    lo = 0
    for k, n in enumerate(SEGMENTS):
        seg = slice(lo, lo + n)
        alone = _run_segment_op(op, [t[seg] for t in tokens], [r[k : k + 1] for r in rows], [n], cot[seg])
        for got, want in zip([whole[0][seg]] + [g[seg] for g in whole[1 : 1 + n_tokens]], alone):
            assert got.tobytes() == want.tobytes(), (k, n)
        for got, want in zip([g[k : k + 1] for g in whole[1 + n_tokens :]], alone[1 + n_tokens :]):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)
        lo += n


def test_sigmoid_adjoint_flushes_subnormals_to_zero():
    """An adjoint below the smallest normal float32 becomes 0; every other
    entry keeps the bits of g * s * (1 - s)."""
    x = Tensor(np.array([[0.0, 3.0, -2.0]]), requires_grad=True)
    s = dc.sigmoid(x)
    g = np.array([[1e-38, 1e-30, 0.5]], dtype=np.float32)
    (got,) = s._vjp(g)
    want = g * s.data * (1.0 - s.data)
    assert 0 < abs(want[0, 0]) < np.finfo(np.float32).tiny  # subnormal before the flush
    assert got[0, 0] == 0.0
    assert got[:, 1:].tobytes() == want[:, 1:].tobytes()


def test_row_sums_of_distinct_rows_keep_the_bits_of_the_float64_sum():
    """Distinct rows take the in-place add, repeated ones the float64 bincount:
    both give zero plus the value, rounded once, with -0.0 summed to +0.0."""
    rng = np.random.default_rng(8)
    values = rng.normal(size=(5, 3)).astype(np.float32)
    values[0, 1] = values[3, 2] = -0.0
    for rows in ([4, 0, 6, 2, 1], [4, 0, 4, 2, 1]):
        got = dc.scatter_add_rows(Tensor(values), rows, 7).data
        want = np.zeros((7, 3))
        for i, r in enumerate(rows):
            want[r] += values[i]
        assert got.dtype == np.float32
        assert got.tobytes() == want.astype(np.float32).tobytes(), rows


def test_new_ops_enforce_their_shape_contracts():
    z = lambda *shape: Tensor(np.zeros(shape))
    with pytest.raises(dc.ShapeError, match="linear"):
        dc.linear(z(3, 4), z(5, 2), z(1, 2))
    with pytest.raises(dc.ShapeError, match="linear"):
        dc.linear(z(3, 4), z(4, 2), z(3, 2))  # bias must be one (1, d_out) row
    with pytest.raises(dc.ShapeError, match="linear"):
        dc.linear(z(2, 3, 4), z(4, 2), z(1, 2))
    with pytest.raises(dc.ShapeError, match="modulate"):
        dc.modulate(z(3, 4), z(3, 4), z(1, 4), [3])
    with pytest.raises(dc.ShapeError, match="modulate"):
        dc.modulate(z(3, 4), z(1, 4), z(1, 5), [3])
    with pytest.raises(dc.ShapeError, match="gated_add"):
        dc.gated_add(z(3, 4), z(1, 4), z(3, 5), [3])
    with pytest.raises(dc.ShapeError, match="gated_add"):
        dc.gated_add(z(3, 4), z(4,), z(3, 4), [3])
    with pytest.raises(dc.ShapeError, match="modulate"):
        dc.modulate(z(10, 4), z(3, 4), z(3, 4), [10])  # three rows need three segment counts
    with pytest.raises(dc.ShapeError, match="modulate"):
        dc.modulate(z(10, 4), z(3, 4), z(3, 4), [2, 5, 4])  # counts must cover the rows
    with pytest.raises(dc.ShapeError, match="gated_add"):
        dc.gated_add(z(10, 4), z(3, 4), z(10, 4), [5, 5, 0])  # no empty segment
    with pytest.raises(dc.ShapeError, match="gated_add"):
        dc.gated_add(z(10, 4), z(2, 4), z(10, 4), [2, 5, 3])
    with pytest.raises(dc.ShapeError, match="permute"):
        dc.permute(z(2, 3, 4), (0, 1))
    with pytest.raises(dc.ShapeError, match="permute"):
        dc.permute(z(2, 3, 4), (0, 1, 1))
    with pytest.raises(dc.ShapeError, match="scatter_add_rows"):
        dc.scatter_add_rows(z(4, 2), [0, 1, 2], 3)
    with pytest.raises(dc.ShapeError, match="scatter_add_rows"):
        dc.scatter_add_rows(z(4,), [0, 1, 2, 0], 3)
    with pytest.raises(IndexError):
        dc.scatter_add_rows(z(2, 2), [0, 3], 3)


# -- backward basics ------------------------------------------------------------


def test_backward_of_sum_is_ones():
    x = rand_tensor(np.random.default_rng(1), (4, 5))
    dc.backward(dc.tensor_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((4, 5)))


def test_backward_of_half_square_sum_is_x():
    x = rand_tensor(np.random.default_rng(2), (3, 3))
    loss = dc.mul_scalar(dc.tensor_sum(dc.mul(x, x)), 0.5)
    dc.backward(loss)
    np.testing.assert_allclose(x.grad, x.data, atol=1e-14)


def test_backward_rejects_non_scalar():
    x = rand_tensor(np.random.default_rng(3), (2, 2))
    with pytest.raises(ValueError, match="scalar"):
        dc.backward(dc.mul(x, x))


def test_no_grad_blocks_recording():
    x = rand_tensor(np.random.default_rng(4), (2, 2))
    with dc.no_grad():
        y = dc.tensor_sum(dc.mul(x, x))
    assert not y.requires_grad


# -- finite-difference checks for every primitive --------------------------------


def test_matmul_gradient_matches_central_differences():
    rng = np.random.default_rng(5)
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (4, 2))
    w = Tensor(rng.normal(size=(3, 2)))  # fixed cotangent direction

    report = dc.check_gradients(
        lambda: dc.tensor_sum(dc.mul(dc.matmul(a, b), w)),
        {"a": a, "b": b},
        tol=1e-6,
        step=1e-5,
    )
    assert report.passed, str(report)


def _primitive_cases(rng):
    """Scalar-valued closures exercising each differentiable primitive."""
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (3, 4))
    m = rand_tensor(rng, (4, 5))
    bm1 = rand_tensor(rng, (2, 3, 4))
    bm2 = rand_tensor(rng, (2, 4, 3))
    row = rand_tensor(rng, (1, 4))
    table = rand_tensor(rng, (6, 3))
    gate = rand_tensor(rng, (4, 5))
    probs_p = Tensor(rng.dirichlet(np.ones(5)), requires_grad=True)
    probs_q = Tensor(rng.dirichlet(np.ones(5)), requires_grad=True)
    idx = np.stack([rng.choice(5, size=2, replace=False) for _ in range(4)])
    sel = rand_tensor(rng, (4, 2))
    w34 = Tensor(rng.normal(size=(3, 4)))
    w35 = Tensor(rng.normal(size=(3, 5)))
    w233 = Tensor(rng.normal(size=(2, 3, 3)))
    row5 = rand_tensor(rng, (1, 5))
    row_b = rand_tensor(rng, (1, 4))
    w423 = Tensor(rng.normal(size=(4, 2, 3)))
    w32 = Tensor(rng.normal(size=(3, 2)))
    qm1 = rand_tensor(rng, (2, 2, 3, 4))
    qm2 = rand_tensor(rng, (2, 2, 4, 3))
    w2233 = Tensor(rng.normal(size=(2, 2, 3, 3)))

    return {
        "add": ({"a": a, "b": b}, lambda: dc.tensor_sum(dc.mul(dc.add(a, b), w34))),
        "sub": ({"a": a, "b": b}, lambda: dc.tensor_sum(dc.mul(dc.sub(a, b), w34))),
        "mul": ({"a": a, "b": b}, lambda: dc.tensor_sum(dc.mul(dc.mul(a, b), w34))),
        "neg": ({"a": a}, lambda: dc.tensor_sum(dc.mul(dc.neg(a), w34))),
        "scalar_ops": (
            {"a": a},
            lambda: dc.tensor_sum(dc.mul(dc.add_scalar(dc.mul_scalar(a, 1.7), 0.3), w34)),
        ),
        "matmul2d": ({"a": a, "m": m}, lambda: dc.tensor_sum(dc.mul(dc.matmul(a, m), w35))),
        "matmul3d": ({"x": bm1, "y": bm2}, lambda: dc.tensor_sum(dc.mul(dc.matmul(bm1, bm2), w233))),
        "matmul4d": ({"x": qm1, "y": qm2}, lambda: dc.tensor_sum(dc.mul(dc.matmul(qm1, qm2), w2233))),
        "transpose": ({"a": a}, lambda: dc.tensor_sum(dc.mul(dc.transpose_last2(a), dc.transpose_last2(w34)))),
        "reshape": ({"a": a}, lambda: dc.tensor_sum(dc.mul(dc.reshape(a, (4, 3)), dc.reshape(w34, (4, 3))))),
        "broadcast": ({"row": row}, lambda: dc.tensor_sum(dc.mul(dc.broadcast_to(row, (3, 4)), w34))),
        "sigmoid": ({"a": a}, lambda: dc.tensor_sum(dc.mul(dc.sigmoid(a), w34))),
        "gelu": ({"a": a}, lambda: dc.tensor_sum(dc.mul(dc.gelu(a), w34))),
        "softmax": ({"a": a}, lambda: dc.tensor_sum(dc.mul(dc.softmax(a), w34))),
        "layer_norm": ({"a": a}, lambda: dc.tensor_sum(dc.mul(dc.layer_norm(a), w34))),
        "sum_axis": ({"a": a}, lambda: dc.tensor_sum(dc.mul(dc.tensor_sum(a, axis=0), dc.tensor_sum(w34, axis=0)))),
        "mean_axis": ({"a": a}, lambda: dc.tensor_sum(dc.mul(dc.tensor_mean(a, axis=1), dc.tensor_mean(w34, axis=1)))),
        "concat": (
            {"a": a, "b": b},
            lambda: dc.tensor_sum(dc.mul(dc.concat([a, b], axis=1), dc.concat([w34, w34], axis=1))),
        ),
        "slice": ({"a": a}, lambda: dc.tensor_sum(dc.mul(dc.slice_axis(a, 1, 1, 3), dc.slice_axis(w34, 1, 1, 3)))),
        "embedding": (
            {"table": table},
            lambda: dc.tensor_sum(dc.mul(dc.embedding_lookup(table, [0, 2, 2, 5]), Tensor(np.ones((4, 3))))),
        ),
        "gather_cols": ({"gate": gate}, lambda: dc.tensor_sum(dc.mul(dc.gather_cols(gate, idx), sel))),
        "scatter_cols": ({"sel": sel}, lambda: dc.tensor_sum(dc.mul(dc.scatter_cols(sel, idx, 5), gate))),
        "cross_entropy": ({"p": probs_p, "q": probs_q}, lambda: dc.cross_entropy(probs_p, probs_q)),
        "linear": (
            {"a": a, "m": m, "row5": row5},
            lambda: dc.tensor_sum(dc.mul(dc.linear(a, m, row5), w35)),
        ),
        "modulate": (
            {"a": a, "row": row, "row_b": row_b},
            lambda: dc.tensor_sum(dc.mul(dc.modulate(a, row, row_b, [3]), w34)),
        ),
        "gated_add": (
            {"a": a, "row": row, "b": b},
            lambda: dc.tensor_sum(dc.mul(dc.gated_add(a, row, b, [3]), w34)),
        ),
        "permute": ({"x": bm1}, lambda: dc.tensor_sum(dc.mul(dc.permute(bm1, (2, 0, 1)), w423))),
        "scatter_add_rows": (
            {"sel": sel},
            lambda: dc.tensor_sum(dc.mul(dc.scatter_add_rows(sel, [1, 0, 1, 2], 3), w32)),
        ),
    }


@pytest.mark.parametrize("seed", range(20))
def test_every_primitive_gradient_within_1e4(seed):
    rng = np.random.default_rng(1000 + seed)
    for name, (params, f) in _primitive_cases(rng).items():
        report = dc.check_gradients(f, params, tol=1e-4)
        assert report.passed, f"{name} seed={seed}\n{report}"


def test_linear_layer_passes_at_1e6():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(5, 3)))
    w = rand_tensor(rng, (3, 2))
    b = rand_tensor(rng, (1, 2))
    cot = Tensor(rng.normal(size=(5, 2)))

    def f():
        y = dc.add(dc.matmul(x, w), dc.broadcast_to(b, (5, 2)))
        return dc.tensor_sum(dc.mul(y, cot))

    report = dc.check_gradients(f, {"w": w, "b": b}, tol=1e-6)
    assert report.passed, str(report)


def test_sigmoid_chain_passes_at_1e5():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(4, 3)))
    w1 = rand_tensor(rng, (3, 3))
    w2 = rand_tensor(rng, (3, 1))

    def f():
        h = dc.sigmoid(dc.matmul(x, w1))
        return dc.tensor_sum(dc.sigmoid(dc.matmul(h, w2)))

    report = dc.check_gradients(f, {"w1": w1, "w2": w2}, tol=1e-5)
    assert report.passed, str(report)


def test_corrupted_adjoint_fails_the_check():
    rng = np.random.default_rng(9)
    x = rand_tensor(rng, (3, 3))

    def wrong_square(t):
        # deliberately wrong vjp: should be 2x, claims 3x
        return Tensor._result(t.data**2, (t,), lambda g: (3.0 * g * t.data,))

    report = dc.check_gradients(lambda: dc.tensor_sum(wrong_square(x)), {"x": x}, tol=1e-4)
    assert not report.passed


# -- optimizer and checkpoint -----------------------------------------------------


def test_adamw_descends_a_quadratic():
    rng = np.random.default_rng(10)
    target = rng.normal(size=(4,))
    p = Tensor(np.zeros(4), requires_grad=True)
    opt = dc.AdamW({"p": p}, lr=0.05)
    first = None
    for _ in range(200):
        opt.zero_grad()
        diff = dc.sub(p, Tensor(target))
        loss = dc.tensor_sum(dc.mul(diff, diff))
        if first is None:
            first = float(loss.data)
        dc.backward(loss)
        opt.step()
    assert float(loss.data) < 1e-3 * first


def test_adamw_steps_from_parameters_loaded_after_it_was_made():
    # as after a checkpoint load: the float64 master follows the new data
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = dc.AdamW({"p": p}, lr=0.1)
    p.data = Tensor(np.full(3, 5.0)).data
    p.grad = np.ones(3, dtype=np.float32)
    opt.step()
    assert p.data.dtype == np.float32 and opt.master["p"].dtype == np.float64
    np.testing.assert_allclose(p.data, 4.9, rtol=1e-6)


def test_cosine_lr_runs_from_the_base_rate_to_the_floor():
    base, fraction, total = 3e-3, 0.1, 50
    assert dc.cosine_lr(base, 0, total) == pytest.approx(base, rel=1e-15)
    floor = base * fraction
    for step in (total - 1, total, 10 * total):
        assert dc.cosine_lr(base, step, total) == floor
    mid = dc.cosine_lr(base, (total - 1) / 2, total)
    assert mid == pytest.approx((base + floor) / 2, rel=1e-12)
    rates = [dc.cosine_lr(base, s, total) for s in range(total)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    tensors = {
        "w": rng.normal(size=(3, 4)),
        "nested.name.b": rng.normal(size=(7,)),
        "scalar": np.array([3.0]),
    }
    path = tmp_path / "model.ckpt"
    dc.save_checkpoint(path, tensors)
    loaded = dc.load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for k, arr in tensors.items():
        # storage is float32: loaded values are exactly the f32 cast of the original
        np.testing.assert_array_equal(
            loaded[k].astype(np.float32), arr.astype(np.float32)
        )
    # second save of the loaded state reproduces the file bit for bit
    path2 = tmp_path / "model2.ckpt"
    dc.save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic_and_corruption(tmp_path):
    path = tmp_path / "x.ckpt"
    dc.save_checkpoint(path, {"w": np.ones((2, 2))})
    blob = bytearray(path.read_bytes())
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(dc.CheckpointError, match="magic"):
        dc.load_checkpoint(bad)
    blob[len(blob) // 2] ^= 0xFF
    corrupt = tmp_path / "corrupt.ckpt"
    corrupt.write_bytes(bytes(blob))
    with pytest.raises(dc.CheckpointError, match="checksum"):
        dc.load_checkpoint(corrupt)
