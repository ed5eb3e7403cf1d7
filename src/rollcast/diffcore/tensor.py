"""Reverse-mode autodiff over dense float32 numpy arrays.

Design rules:
  * One compute dtype. Tensor() casts its input to it: float32, or float64
    inside a `float64()` block, which gradient checks and their tests use.
    Every op keeps its operands' dtype, so scalars enter as Python floats
    (NumPy promotes a float32 array times an np.float64 scalar to float64).
  * No implicit broadcasting. Elementwise ops demand identical shapes and
    raise ShapeError otherwise; expansion must go through broadcast_to.
    The one exception is the row operands of the fused ops linear (bias),
    modulate (scale, shift) and gated_add (gate). A linear bias is one
    (1, D) row added to every row of its (n, D) input. The modulate and
    gated_add rows are (K, D): row k applies to the k-th of K consecutive
    row segments of the (n, D) input, whose row counts the caller gives.
    Their adjoints sum each segment's rows.
  * matmul accepts (..., m, k) @ (..., k, n) whose leading dims are equal,
    of any rank; it broadcasts none of them.
  * A recorded graph is confined to one thread; backward visits each node
    exactly once in reverse topological order.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

# epsilon floor applied inside log for cross-entropy
CE_EPS = 1e-12

_GRAD_ENABLED = True
_DTYPE = np.float32


def compute_dtype() -> type:
    """The dtype Tensor() casts to: float32, or float64 inside `float64()`."""
    return _DTYPE


@contextlib.contextmanager
def float64():
    """Build tensors in float64 inside the block (gradient checks and their oracles)."""
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.float64
    try:
        yield
    finally:
        _DTYPE = prev


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / environment rollouts)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names both shapes."""


class Tensor:
    """Dense array in the compute dtype plus optional gradient bookkeeping.

    Attributes:
        data: the forward value, a C-contiguous ndarray of the compute dtype
            at construction (`compute_dtype()`); op results keep their
            operands' dtype.
        grad: accumulated adjoint, populated by backward().
        requires_grad: whether this tensor (or anything upstream of it)
            participates in differentiation.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=_DTYPE, order="C")
        if not np.isfinite(arr).all():
            raise ValueError("Tensor values must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None
        self.name = name

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"], vjp) -> "Tensor":
        """Build an op result, recording the graph edge only when needed."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.name = None
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
        if _GRAD_ENABLED:
            for p in parents:
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = tuple(parents)
                    out._vjp = vjp
                    break
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def _check_same_shape(op: str, a: Tensor, b: Tensor):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# -- elementwise primitives ----------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    return Tensor._result(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)
    return Tensor._result(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)
    ad, bd = a.data, b.data
    return Tensor._result(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def neg(a: Tensor) -> Tensor:
    return Tensor._result(-a.data, (a,), lambda g: (-g,))


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor._result(a.data + c, (a,), lambda g: (g,))


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor._result(a.data * c, (a,), lambda g: (g * c,))


def sigmoid(a: Tensor) -> Tensor:
    # numerically stable two-sided form: e = exp(-|x|) never overflows
    x = a.data
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)

    def vjp(g):
        gx = g * out * (1.0 - out)
        # flush subnormal adjoints to zero, as a CPU's flush-to-zero mode would:
        # the saturated MoE auxiliary losses send adjoints of 1e-38 and below
        # here, and subnormal operands made the noise heads' matmul adjoint
        # about nine times slower (832 -> 94 us for a (512, 64) @ (64, 12) one)
        gx[np.abs(gx) < np.finfo(gx.dtype).tiny] = 0.0
        return (gx,)

    return Tensor._result(out, (a,), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU, the usual transformer FFN nonlinearity."""
    x = a.data
    # x * x * x, not x**3: numpy's pow is ~60x slower on a 512x256 array
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        return (g * dx,)

    return Tensor._result(out, (a,), vjp)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    e = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    out = e / np.add.reduce(e, axis=axis, keepdims=True)

    def vjp(g):
        dot = np.add.reduce(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor._result(out, (a,), vjp)


def layer_norm(a: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalization to zero mean / unit variance along one axis (no affine)."""
    x = a.data
    n = x.shape[axis]
    xc = x - np.add.reduce(x, axis=axis, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=axis, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    out = xc * inv

    def vjp(g):
        # d/dx of (x - mu) * inv with mu and var both functions of x
        g_mean = np.add.reduce(g, axis=axis, keepdims=True) / n
        gy_mean = np.add.reduce(g * out, axis=axis, keepdims=True) / n
        return (inv * (g - g_mean - out * gy_mean),)

    return Tensor._result(out, (a,), vjp)


# -- fused row-conditioned ops ---------------------------------------------------


def _segments(op: str, x: Tensor, rows: Sequence[Tensor], counts):
    """Check (K, D) rows against the (n, D) input x split into segments of
    `counts` rows. Returns (counts, first row of each segment), or None for
    one segment of every row."""
    k = len(counts)
    shape = x.data.shape
    for row in rows:
        if len(shape) != 2 or row.data.shape != (k, shape[1]):
            raise ShapeError(f"{op}: expects (n, D) and ({k}, D), got {shape} and {row.shape}")
    if k == 1 and counts[0] == shape[0]:
        return None
    counts = [int(c) for c in counts]
    if min(counts) < 1 or sum(counts) != shape[0]:
        raise ShapeError(f"{op}: segment counts {counts} do not split {shape[0]} rows")
    return counts, list(itertools.accumulate(counts[:-1], initial=0))


def _spread(row: np.ndarray, segments) -> np.ndarray:
    """(K, D) rows repeated over their segments' rows, or the one row as it is.
    Ops spread again in their adjoints rather than keep an (n, D) copy."""
    return row if segments is None else np.repeat(row, segments[0], axis=0)


def _segment_sums(a: np.ndarray, segments) -> np.ndarray:
    """(K, D) sums of each segment's rows of a."""
    if segments is None:
        return np.add.reduce(a, axis=0, keepdims=True)
    return np.add.reduceat(a, segments[1], axis=0)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for 2D x, with the (1, d_out) bias added to every row."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: inner dims differ {x.shape} @ {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ShapeError(f"linear: bias {b.shape} does not match weight {w.shape}")
    xd, wd = x.data, w.data

    def vjp(g):
        # inputs such as the tokenizer's patches need no adjoint; backward skips None
        gx = g @ wd.T if x.requires_grad else None
        return (gx, xd.T @ g, np.add.reduce(g, axis=0, keepdims=True))

    return Tensor._result(xd @ wd + b.data, (x, w, b), vjp)


def modulate(x: Tensor, scale: Tensor, shift: Tensor, counts) -> Tensor:
    """AdaLN modulation x * (1 + scale) + shift with (K, D) scale and shift
    rows, row k for the k-th of the segments of `counts` rows."""
    seg = _segments("modulate", x, (scale, shift), counts)
    xd, factor = x.data, scale.data + 1.0

    def vjp(g):
        return (g * _spread(factor, seg), _segment_sums(g * xd, seg), _segment_sums(g, seg))

    return Tensor._result(xd * _spread(factor, seg) + _spread(shift.data, seg), (x, scale, shift), vjp)


def gated_add(z: Tensor, gate: Tensor, y: Tensor, counts) -> Tensor:
    """Gated residual z + gate * y with (K, D) gate rows over the segments of
    `counts` rows, as in `modulate`."""
    _check_same_shape("gated_add", z, y)
    seg = _segments("gated_add", y, (gate,), counts)
    gd, yd = gate.data, y.data

    def vjp(g):
        return (g, _segment_sums(g * yd, seg), g * _spread(gd, seg))

    return Tensor._result(z.data + _spread(gd, seg) * yd, (z, gate, y), vjp)


# -- linear algebra / shape primitives -----------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or a.shape[:-2] != b.shape[:-2] or a.shape[-1:] != b.shape[-2:-1]:
        raise ShapeError(f"matmul: expects (..., m, k) @ (..., k, n), got {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g):
        at = np.swapaxes(ad, -1, -2)
        bt = np.swapaxes(bd, -1, -2)
        return (g @ bt, at @ g)

    return Tensor._result(ad @ bd, (a, b), vjp)


def transpose_last2(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise ShapeError(f"transpose_last2: needs ndim >= 2, got {a.shape}")
    out = np.ascontiguousarray(np.swapaxes(a.data, -1, -2))
    return Tensor._result(out, (a,), lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a: Tensor, shape: tuple) -> Tensor:
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    orig = a.shape
    return Tensor._result(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def permute(a: Tensor, axes: tuple) -> Tensor:
    """Reorder the axes of a tensor (numpy transpose), returned contiguous."""
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"permute: axes {axes} are not a permutation for {a.shape}")
    out = np.ascontiguousarray(a.data.transpose(axes))
    return Tensor._result(out, (a,), lambda g: (g.transpose(np.argsort(axes)),))


def broadcast_to(a: Tensor, shape: tuple) -> Tensor:
    """Explicit expansion of size-1 axes; the only broadcasting allowed."""
    if a.ndim != len(shape):
        raise ShapeError(f"broadcast_to: rank mismatch {a.shape} -> {shape}")
    expanded = []
    for ax, (have, want) in enumerate(zip(a.shape, shape)):
        if have == want:
            continue
        if have == 1:
            expanded.append(ax)
        else:
            raise ShapeError(f"broadcast_to: cannot expand {a.shape} -> {shape}")
    out = np.empty(shape, dtype=a.data.dtype)
    out[...] = a.data

    def vjp(g):
        if expanded:
            g = np.sum(g, axis=tuple(expanded), keepdims=True)
        return (g,)

    return Tensor._result(out, (a,), vjp)


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        out = np.asarray(np.add.reduce(a.data, axis=None))
        shape = a.shape
        return Tensor._result(out, (a,), lambda g: (np.broadcast_to(g, shape).copy(),))
    out = np.add.reduce(a.data, axis=axis)
    ax = axis if axis >= 0 else axis + a.ndim
    n = a.shape[ax]

    def vjp(g):
        return (np.repeat(np.expand_dims(g, ax), n, axis=ax),)

    return Tensor._result(out, (a,), vjp)


def tensor_mean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return mul_scalar(tensor_sum(a, axis), 1.0 / n)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat: no tensors given")
    nd = parts[0].ndim
    for p in parts:
        if p.ndim != nd:
            raise ShapeError(f"concat: rank mismatch {[q.shape for q in parts]}")
    ax = axis if axis >= 0 else axis + nd
    sizes = [p.shape[ax] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=ax)

    def vjp(g):
        grads, start = [], 0
        for s in sizes:
            idx = [slice(None)] * nd
            idx[ax] = slice(start, start + s)
            grads.append(g[tuple(idx)])
            start += s
        return tuple(grads)

    return Tensor._result(out, tuple(parts), vjp)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    ax = axis if axis >= 0 else axis + a.ndim
    if not (0 <= start <= stop <= a.shape[ax]):
        raise ShapeError(f"slice_axis: [{start}:{stop}] out of range for {a.shape} axis {ax}")
    idx = [slice(None)] * a.ndim
    idx[ax] = slice(start, stop)
    idx = tuple(idx)
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return Tensor._result(np.ascontiguousarray(a.data[idx]), (a,), vjp)


def _sum_rows(rows: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """(num_rows, D) zeros with values[i] added into row rows[i], in index order.

    When no row repeats (every MoE gather), each sum is zero plus one value,
    which one in-place add over the picked rows gives in values' own dtype,
    the sign of a zero included, at about a third of bincount's cost. When
    rows repeat at most twice (every top-2 scatter), a second in-place add
    takes the later value of each pair, at about a fifth of bincount's cost.
    Its correctly rounded float32 sum equals bincount's float64 sum cast back:
    rounding one add of 24-bit values through 53 bits first changes nothing.
    Otherwise bincount accumulates each output element in input order, as
    np.add.at does, and is several times faster on 2D rows. It sums in
    float64; the result is cast back to values' dtype.
    """
    d = values.shape[1]
    most = np.bincount(rows, minlength=num_rows).max(initial=0)
    if most <= 2:
        out = np.zeros((num_rows, d), dtype=values.dtype)
        if most <= 1:
            out[rows] += values
            return out
        order = np.argsort(rows, kind="stable")
        later = np.zeros(len(rows), dtype=bool)  # the second of a pair, in index order
        later[order[1:]] = rows[order[1:]] == rows[order[:-1]]
        out[rows[~later]] += values[~later]
        out[rows[later]] += values[later]
        return out
    flat = (rows[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=num_rows * d)
    return sums.astype(values.dtype, copy=False).reshape(num_rows, d)


def embedding_lookup(table: Tensor, indices) -> Tensor:
    """Select rows of a 2D table; adjoints scatter-add into the picked rows."""
    if table.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2D, got {table.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("embedding_lookup: indices must be 1D")
    n = table.shape[0]
    # one reduction checks both ends: negative indices read as huge unsigned ones
    if idx.size and idx.view(np.uintp).max() >= n:
        raise IndexError(f"embedding_lookup: index out of range for table {table.shape}")
    return Tensor._result(table.data[idx], (table,), lambda g: (_sum_rows(idx, g, n),))


def gather_cols(a: Tensor, indices) -> Tensor:
    """Per-row column gather on a 2D tensor: out[r, j] = a[r, idx[r, j]]."""
    if a.ndim != 2:
        raise ShapeError(f"gather_cols: expects 2D, got {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ShapeError(f"gather_cols: indices {idx.shape} do not match rows of {a.shape}")
    rows = np.arange(a.shape[0])[:, None]
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape, dtype=g.dtype)
        np.add.at(full, (rows, idx), g)
        return (full,)

    return Tensor._result(a.data[rows, idx], (a,), vjp)


def scatter_cols(src: Tensor, indices, num_cols: int) -> Tensor:
    """Inverse of gather_cols: place src[r, j] at column idx[r, j] of a zero matrix."""
    if src.ndim != 2:
        raise ShapeError(f"scatter_cols: expects 2D, got {src.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.shape != src.shape:
        raise ShapeError(f"scatter_cols: indices {idx.shape} must match src {src.shape}")
    rows = np.arange(src.shape[0])[:, None]
    out = np.zeros((src.shape[0], num_cols), dtype=src.data.dtype)
    out[rows, idx] = src.data

    def vjp(g):
        return (g[rows, idx],)

    return Tensor._result(out, (src,), vjp)


def scatter_add_rows(src: Tensor, rows, num_rows: int) -> Tensor:
    """Sum the rows of a 2D src into a (num_rows, D) zero matrix: out[rows[i]] += src[i].

    Inverse of embedding_lookup: the adjoint of src is g[rows].
    """
    if src.ndim != 2:
        raise ShapeError(f"scatter_add_rows: expects 2D, got {src.shape}")
    idx = np.asarray(rows, dtype=np.intp)
    if idx.shape != (src.shape[0],):
        raise ShapeError(f"scatter_add_rows: rows {idx.shape} must index the {src.shape[0]} rows of src")
    if idx.size and idx.view(np.uintp).max() >= num_rows:
        raise IndexError(f"scatter_add_rows: row out of range for {num_rows} rows")
    return Tensor._result(_sum_rows(idx, src.data, num_rows), (src,), lambda g: (g[idx],))


def cross_entropy(p: Tensor, q: Tensor) -> Tensor:
    """H(P, Q) = -sum(p * log q), with q floored at CE_EPS inside the log.

    Shapes must match; the sum runs over all elements, yielding a scalar.
    """
    _check_same_shape("cross_entropy", p, q)
    qf = np.maximum(q.data, CE_EPS)
    logq = np.log(qf)
    out = np.asarray(-np.sum(p.data * logq))
    pd, qd = p.data, q.data
    unclipped = qd >= CE_EPS

    def vjp(g):
        gp = -g * logq
        gq = np.where(unclipped, -g * pd / qf, 0.0)
        return (gp, gq)

    return Tensor._result(out, (p, q), vjp)


def top_k(values, k: int):
    """Indices and values of the k largest entries along the last axis.

    Ties are broken toward the lowest index. Selection is discrete: no
    gradient flows through this function; it returns plain arrays.

    Returns:
        (top_values, top_indices), both with shape values.shape[:-1] + (k,).
    """
    v = values.data if isinstance(values, Tensor) else np.asarray(values, dtype=np.float64)
    if not (1 <= k <= v.shape[-1]):
        raise ValueError(f"top_k: k={k} out of range for axis length {v.shape[-1]}")
    # stable sort on -v keeps the original (lowest-first) order among ties;
    # the k smallest of -v, negated, are exactly v at those indices
    neg = -v
    idx = np.argsort(neg, axis=-1, kind="stable")[..., :k]
    vals = -np.sort(neg, axis=-1)[..., :k]
    return vals, idx


# -- reverse pass ---------------------------------------------------------------


def backward(loss: Tensor):
    """Accumulate d(loss)/d(node) for every requires_grad node reachable from loss.

    The loss must be scalar-valued. Gradients add into .grad, so callers
    reusing parameters across steps should zero them first.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss does not depend on any requires_grad tensor")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is not None:
            parent_grads = node._vjp(g)
            for p, pg in zip(node._parents, parent_grads):
                if not p.requires_grad:
                    continue
                prev = adjoint.get(id(p))
                adjoint[id(p)] = pg if prev is None else prev + pg
        if node._parents == () or node.name is not None:
            # leaf (or named parameter): expose the accumulated adjoint
            node.grad = g if node.grad is None else node.grad + g
