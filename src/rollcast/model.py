"""Multi-interval forecasting model: patch tokens, conditioned transformer blocks,
shared-private MoE feed-forwards, and a zero-initialized delta head.

The network predicts the normalized change of state over one interval;
adding it back to the input gives the forecast. The change is normalized
per interval and per variable by its own scale (`norm.delta_scale`): the
train-split RMS of the change over that interval when the model is built
from a dataset, the state std otherwise. Each interval therefore enters the
pre-training objective in comparable units, as in Stormer's per-interval
normalization of differences. Interval conditioning
enters through AdaLN modulation (scale/shift before each sub-layer, gate
after it) computed from a learned interval embedding. All modulation maps
and the head start at zero, so an untrained model forecasts persistence.

One forward serves states of several intervals: each state's tokens take
the modulation rows and routing noise of its own interval, as DiT and
Stormer give each sample its own AdaLN rows. The forward wants the states
of one interval adjacent; `predict_change` sorts any batch that way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .encoding import patchify, ring_pe_2d, unpatchify
from .gridio import Dataset, GridField, GridSpec
from .metrics import lat_weights
from .moe import SharedPrivateMoE, routing_losses


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss."""


def check_at_least(cfg, **least):
    """Raise ValueError naming the first of cfg's fields that is below its least
    value (or not comparable with it, as NaN is not)."""
    for name, low in least.items():
        if not getattr(cfg, name) >= low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(cfg, name)}")


@dataclass(frozen=True)
class ModelConfig:
    """The forecaster's one config: every part of the model reads its settings here.

    It owns the interval set: `intervals` rise strictly, and `position_of`
    maps an interval to its place in them. Every per-interval table (embedding
    rows, change scales, routing-noise columns, Q-head columns) follows that
    one order.
    """

    embed_dim: int = 64
    num_blocks: int = 2
    num_heads: int = 4
    patch_size: int = 4
    intervals: tuple[int, ...] = (6, 12, 24)
    moe_num_private: int = 4
    moe_top_k: int = 2
    moe_alpha: float = 0.02

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(int(d) for d in self.intervals))
        check_at_least(self, num_blocks=1, num_heads=1, patch_size=1)
        # the ring table spends four columns on each frequency
        if self.embed_dim < 4 or self.embed_dim % 4:
            raise ValueError(f"embed_dim must be a positive multiple of 4, got {self.embed_dim}")
        if self.embed_dim % self.num_heads:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by {self.num_heads} heads")
        d = self.intervals
        if not d or d[0] < 1 or any(a >= b for a, b in zip(d, d[1:])):
            raise ValueError(f"intervals must be increasing positive hours, got {list(d)}")
        # every lead is a multiple of the smallest interval, so any interval
        # must leave such a multiple behind for the rollout to finish
        if any(x % d[0] for x in d):
            raise ValueError(f"intervals must be multiples of the smallest, {d[0]}h, got {list(d)}")
        if not 1 <= self.moe_top_k <= self.moe_num_private:
            raise ValueError(f"moe_top_k {self.moe_top_k} outside [1, moe_num_private={self.moe_num_private}]")
        check_at_least(self, moe_alpha=0)

    def position_of(self, delta_hours: int) -> int:
        """The place of an interval in `intervals`. Raises KeyError naming an
        interval the set lacks."""
        try:
            return self.intervals.index(int(delta_hours))
        except ValueError:
            raise KeyError(
                f"unknown interval {delta_hours}h; configured set is {self.intervals}"
            ) from None


def check_grid_fit(cfg: ModelConfig, spec: GridSpec, trained_on: GridSpec | None = None):
    """Raise ValueError unless a model of `cfg` (trained on the grid
    `trained_on`, if given) can run on `spec`: the patch tiles the grid, every
    interval is a whole number of base steps, and `trained_on` is `spec`."""
    if spec.lat_points % cfg.patch_size or spec.lon_points % cfg.patch_size:
        raise ValueError(f"grid {spec.lat_points}x{spec.lon_points} not divisible by patch {cfg.patch_size}")
    off_step = [d for d in cfg.intervals if d % spec.base_step_hours]
    if off_step:
        raise ValueError(f"intervals {off_step} are not multiples of the {spec.base_step_hours}h base step")
    if trained_on is not None and trained_on != spec:
        raise ValueError(f"model trained on grid {trained_on.shape} at {trained_on.base_step_hours}h "
                         f"steps, data is {spec.shape} at {spec.base_step_hours}h")


# Most states in one forecaster or Q-network call. Measured forecast cost per
# state on the desk-scale model in float32, one BLAS thread (min-max of five
# runs): 0.49-0.56 ms at B=16, 0.52-0.68 at B=32, 0.60-0.81 at B=48,
# 0.76-0.84 at B=64 and 0.85-0.92 at B=128, against 1.58-1.69 ms at B=1.
# Past 32 a larger batch costs more per state, and its working memory grows
# with it (one no_grad Q-network call on 200 new states peaked at 8.3 MB
# under tracemalloc, its cached weather rows included).
MAX_BATCH = 32


def _linear_params(rng, d_in, d_out, prefix, zero=False, scale=None):
    if zero:
        w = np.zeros((d_in, d_out))
    else:
        w = rng.normal(scale=scale or 1.0 / np.sqrt(d_in), size=(d_in, d_out))
    return {
        f"{prefix}.weight": Tensor(w, requires_grad=True, name=f"{prefix}.weight"),
        f"{prefix}.bias": Tensor(np.zeros((1, d_out)), requires_grad=True, name=f"{prefix}.bias"),
    }


def _linear(params, prefix, x: Tensor) -> Tensor:
    return dc.linear(x, params[f"{prefix}.weight"], params[f"{prefix}.bias"])


def attention_params(rng, D: int, prefix: str) -> dict:
    """The projections `attention` reads; no key bias, which the softmax cancels."""
    params = {}
    for name in ("wq", "wk", "wv", "wo"):
        params.update(_linear_params(rng, D, D, f"{prefix}.{name}"))
    del params[f"{prefix}.wk.bias"]
    return params


def attention(params, prefix: str, h: Tensor, batch: int, length: int, num_heads: int,
              queries: Tensor | None = None) -> Tensor:
    """Multi-head attention over (batch*length, D) tokens, all heads at once.

    Keys and values cover every token of h. Without `queries` every token
    also queries (self-attention) and the result has h's shape: queries,
    keys and values move to a (batch, heads, rows, dh) layout, so one batched
    matmul scores every head; keys land transposed in the same permute.

    Given (batch*m, D) query rows, m per sequence, only they query and the
    result is (batch*m, D): the Q-network's temporal token reads the weather
    this way (class attention). Then the key and value maps are absorbed
    (as in DeepSeek-V2's MLA, arXiv:2405.04434) rather than applied to every
    token. Head i scores token x_j as (q_i Wk_iᵀ) · x_j / √dh, and its output
    is (Σ_j p_ij x_j) Wv_i + bv_i. That equals Σ_j p_ij (x_j Wv_i + bv_i) in
    exact arithmetic because each head's softmax weights sum to 1. So the key
    map folds into the few queries, the value map runs on the pooled rows,
    and no token is projected. Each query row is spread into one row per
    head, zero outside the head's columns, so one batched matmul serves
    every head. Projections are `{prefix}.wq/.wk/.wv/.wo` (`attention_params`).
    """
    D = h.shape[1]
    dh = D // num_heads
    if queries is not None:
        n = queries.shape[0]  # batch*m query rows
        head_mask = Tensor(np.broadcast_to(np.arange(D) // dh == np.arange(num_heads)[:, None],
                                           (n, num_heads, D)))
        q = dc.mul_scalar(_linear(params, f"{prefix}.wq", queries), 1.0 / np.sqrt(dh))
        q = dc.mul(dc.broadcast_to(dc.reshape(q, (n, 1, D)), (n, num_heads, D)), head_mask)
        qk = dc.matmul(dc.reshape(q, (n * num_heads, D)),
                       dc.transpose_last2(params[f"{prefix}.wk.weight"]))  # row (query, head)
        x = dc.reshape(h, (batch, length, D))
        scores = dc.matmul(dc.reshape(qk, (batch, n * num_heads // batch, D)), dc.permute(x, (0, 2, 1)))
        pooled = dc.matmul(dc.softmax(scores, axis=-1), x)  # (batch, m*heads, D)
        values = _linear(params, f"{prefix}.wv", dc.reshape(pooled, (n * num_heads, D)))
        heads_out = dc.mul(dc.reshape(values, (n, num_heads, D)), head_mask)
        return _linear(params, f"{prefix}.wo", dc.tensor_sum(heads_out, axis=1))

    def heads(x, axes):
        return dc.permute(dc.reshape(x, (batch, length, num_heads, dh)), axes)

    q = heads(_linear(params, f"{prefix}.wq", h), (0, 2, 1, 3))  # (B, H, L, dh)
    kt = heads(dc.matmul(h, params[f"{prefix}.wk.weight"]), (0, 2, 3, 1))  # (B, H, dh, L)
    v = heads(_linear(params, f"{prefix}.wv", h), (0, 2, 1, 3))
    scores = dc.mul_scalar(dc.matmul(q, kt), 1.0 / np.sqrt(dh))
    ctx = dc.matmul(dc.softmax(scores, axis=-1), v)  # (B, H, L, dh)
    cat = dc.reshape(dc.permute(ctx, (0, 2, 1, 3)), (batch * length, D))
    return _linear(params, f"{prefix}.wo", cat)


class ArchBlock:
    """Pre-norm self-attention + shared-private MoE, both modulated by the interval."""

    def __init__(self, cfg: ModelConfig, rng, prefix: str):
        self.cfg = cfg
        self.prefix = prefix
        D = cfg.embed_dim
        self._params = {}
        self._params.update(attention_params(rng, D, f"{prefix}.attn"))
        # modulation map starts at zero: the whole block is the identity at init
        self._params.update(_linear_params(rng, D, 6 * D, f"{prefix}.adaln", zero=True))
        self.moe = SharedPrivateMoE(cfg, rng, prefix=f"{prefix}.moe")
        self._params.update(self.moe.params())

    def params(self) -> dict:
        return self._params

    def _attention(self, h: Tensor, batch: int, length: int) -> Tensor:
        return attention(self._params, f"{self.prefix}.attn", h, batch, length, self.cfg.num_heads)

    def _modulations(self, table: Tensor, positions):
        """The six (K, D) modulation rows of K segments, whose intervals sit at
        `positions` of the table. Every interval's rows are computed, so a
        row's bits do not depend on which intervals share the batch."""
        D = self.cfg.embed_dim
        mods = _linear(self._params, f"{self.prefix}.adaln", dc.gelu(table))  # (intervals, 6D)
        mods = dc.embedding_lookup(mods, positions)
        return [dc.slice_axis(mods, 1, i * D, (i + 1) * D) for i in range(6)]

    def forward(self, z: Tensor, table: Tensor, positions, counts, batch: int, length: int):
        """(batch*length, D) tokens -> (same shape, gate decision, routing noise).

        table is the (configured intervals, D) interval embedding. The tokens
        form K consecutive segments of counts[k] rows, and segment k takes the
        interval at table row positions[k] (`ForecastModel.interval_segments`).
        """
        scale1, shift1, gate1, scale2, shift2, gate2 = self._modulations(table, positions)

        h = dc.modulate(dc.layer_norm(z), scale1, shift1, counts)
        z = dc.gated_add(z, gate1, self._attention(h, batch, length), counts)

        h2 = dc.modulate(dc.layer_norm(z), scale2, shift2, counts)
        moe_out, decision, noise = self.moe.forward(h2, np.repeat(positions, counts))
        z = dc.gated_add(z, gate2, moe_out, counts)

        return z, decision, noise


class ForecastModel:
    """Interval-conditioned forecaster over normalized weather states."""

    def __init__(self, cfg: ModelConfig, spec: GridSpec, norm_mean, norm_std, seed: int = 0,
                 delta_scale=None):
        """norm_mean/norm_std: per-variable state statistics. delta_scale:
        (num intervals, num vars) change scale in `cfg.intervals` order;
        None means the state std for every interval."""
        check_grid_fit(cfg, spec)
        self.cfg = cfg
        self.spec = spec
        P = cfg.patch_size
        self.token_grid = (spec.lat_points // P, spec.lon_points // P)  # (h, w)
        self.patch_dim = P * P * spec.num_vars
        self.num_tokens = self.token_grid[0] * self.token_grid[1]
        self.positional = ring_pe_2d(*self.token_grid, cfg.embed_dim)  # (L, D)
        # (L, P*P*V) latitude weight of every head output, for the training losses
        self.loss_weight_patches = patchify(np.broadcast_to(lat_weights(spec)[:, None], spec.shape), P)

        rng = np.random.default_rng(seed)
        self._params = {}
        self._params.update(_linear_params(rng, self.patch_dim, cfg.embed_dim, "tokenizer"))
        # one learned row per interval, in `cfg.intervals` order; the blocks read the whole table
        self._params["interval_embedding.table"] = Tensor(
            rng.normal(scale=0.5, size=(len(cfg.intervals), cfg.embed_dim)),
            requires_grad=True, name="interval_embedding.table",
        )
        self.blocks = [ArchBlock(cfg, rng, f"block{i}") for i in range(cfg.num_blocks)]
        for b in self.blocks:
            self._params.update(b.params())
        self._params.update(_linear_params(rng, cfg.embed_dim, self.patch_dim, "head", zero=True))

        mean = np.asarray(norm_mean, dtype=np.float64).reshape(spec.num_vars)
        std = np.asarray(norm_std, dtype=np.float64).reshape(spec.num_vars)
        if delta_scale is None:
            delta_scale = np.tile(std, (len(cfg.intervals), 1))
        delta_scale = np.asarray(delta_scale, dtype=np.float64).reshape(
            len(cfg.intervals), spec.num_vars
        )
        if np.any(std <= 0) or np.any(delta_scale <= 0):
            raise ValueError("normalization std and change scale must be positive")
        self._params["norm.mean"] = Tensor(mean, name="norm.mean")
        self._params["norm.std"] = Tensor(std, name="norm.std")
        self._params["norm.delta_scale"] = Tensor(delta_scale, name="norm.delta_scale")

    # -- parameter plumbing -------------------------------------------------

    def params(self) -> dict:
        return self._params

    def trainable_params(self) -> dict:
        return {k: p for k, p in self._params.items() if p.requires_grad}

    def head_params(self) -> dict:
        return {k: self._params[k] for k in ("head.weight", "head.bias")}

    def state_arrays(self) -> dict:
        return {k: p.data for k, p in self._params.items()}

    @property
    def norm_mean(self) -> np.ndarray:
        return self._params["norm.mean"].data

    @property
    def norm_std(self) -> np.ndarray:
        return self._params["norm.std"].data

    @property
    def delta_scale(self) -> np.ndarray:
        return self._params["norm.delta_scale"].data

    @staticmethod
    def from_dataset(cfg: ModelConfig, dataset: Dataset, seed: int = 0) -> "ForecastModel":
        """Normalization statistics come from the training split.

        The change scale of interval d is the per-variable RMS of
        x[t + d] - x[t] over every pair of train-split states d apart. The
        train states are stacked in their own dtype and every sum runs in
        float64, so float32 and float64 frames give the same bits. Each
        interval's float64 change is squared in place and freed before the
        next one is formed.
        """
        arr = np.stack([dataset.fields[i].values for i in dataset.window_starts("train", 0)])
        mean = arr.mean(axis=(0, 2, 3), dtype=np.float64)
        std = np.maximum(arr.std(axis=(0, 2, 3), dtype=np.float64), 1e-6)
        delta_scale = []
        for d in cfg.intervals:
            n = len(dataset.window_starts("train", d))
            change = np.subtract(arr[len(arr) - n:], arr[:n], dtype=np.float64)
            change *= change
            delta_scale.append(np.sqrt(change.mean(axis=(0, 2, 3))))
            del change
        delta_scale = np.maximum(np.array(delta_scale), 1e-6)
        return ForecastModel(cfg, dataset.spec, mean, std, seed=seed, delta_scale=delta_scale)

    # -- forward paths ---------------------------------------------------------

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """Raw state(s) -> model units, in float64 whatever the state's dtype."""
        values = np.asarray(values, dtype=np.float64)
        return (values - self.norm_mean[:, None, None]) / self.norm_std[:, None, None]

    def _delta_scale_of(self, changes: np.ndarray, deltas) -> np.ndarray:
        """(B, V, 1, 1) change scale of each of the B changes' intervals."""
        if len(deltas) != len(changes):
            raise ValueError(f"{len(deltas)} intervals for {len(changes)} states")
        return self.delta_scale[[self.cfg.position_of(d) for d in deltas]][:, :, None, None]

    def normalize_delta(self, delta_values: np.ndarray, deltas) -> np.ndarray:
        """(B, V, H, W) physical changes, state i's over deltas[i] hours -> model units."""
        return delta_values / self._delta_scale_of(delta_values, deltas)

    def denormalize_delta(self, delta_norm: np.ndarray, deltas) -> np.ndarray:
        """(B, V, H, W) changes in model units -> physical, state i's over deltas[i] hours."""
        return delta_norm * self._delta_scale_of(delta_norm, deltas)

    def interval_segments(self, deltas):
        """(positions, state counts) of the consecutive runs of one interval in
        `deltas`, one interval per state: each run's interval position
        (`ModelConfig.position_of`) and its length.

        Raises KeyError for an interval the model lacks and ValueError when
        the states of one interval are not adjacent.
        """
        runs = [(p, len(list(run))) for p, run in
                itertools.groupby(self.cfg.position_of(d) for d in deltas)]
        positions = [p for p, _ in runs]
        if len(set(positions)) < len(positions):
            raise ValueError(f"states of one interval must be adjacent, got intervals {list(deltas)}")
        return positions, [n for _, n in runs]

    def body_tokens(self, x_batch: np.ndarray, deltas):
        """Run tokenizer + positional + conditioned blocks; stop before the head.

        x_batch: (B, V, H, W) raw states. deltas: one interval per state, with
        the states of one interval adjacent (see `interval_segments`).
        Returns ((B*L, D) token Tensor, per-block gate decisions, per-block
        routing noise: each block's (B*L, intervals x M) noise matrix, which
        `routing_losses` reads).
        """
        B = x_batch.shape[0]
        L = self.num_tokens
        if len(deltas) != B:
            raise ValueError(f"{len(deltas)} intervals for {B} states")
        positions, counts = self.interval_segments(deltas)
        token_counts = [c * L for c in counts]
        patches = np.stack([patchify(self.normalize(x), self.cfg.patch_size) for x in x_batch])
        z = _linear(self._params, "tokenizer", Tensor(patches.reshape(B * L, self.patch_dim)))
        z = dc.add(z, Tensor(np.tile(self.positional, (B, 1))))
        table = self._params["interval_embedding.table"]
        decisions, noises = [], []
        for block in self.blocks:
            z, dec, noise = block.forward(z, table, positions, token_counts, B, L)
            decisions.append(dec)
            noises.append(noise)
        return z, decisions, noises

    def apply_head(self, tokens: Tensor) -> Tensor:
        return _linear(self._params, "head", tokens)

    def forward_tokens(self, x_batch: np.ndarray, deltas):
        """Predict normalized change patches for a batch, one interval per state
        (as in `body_tokens`)."""
        z, decisions, noises = self.body_tokens(x_batch, deltas)
        return self.apply_head(z), decisions, noises

    def predict_change(self, x_batch: np.ndarray, deltas) -> np.ndarray:
        """Physical change of each (V, H, W) state of x_batch over its interval,
        deltas[i] hours for state i.

        Returns the (B, V, H, W) changes in the order of x_batch. The states
        go through `forward_tokens` sorted stably by interval, in chunks of at
        most MAX_BATCH that may mix intervals; no autodiff graph is kept.
        """
        if len(deltas) != len(x_batch):
            raise ValueError(f"{len(deltas)} intervals for {len(x_batch)} states")
        order = np.argsort(deltas, kind="stable")
        deltas, x_batch = np.asarray(deltas)[order], x_batch[order]
        with dc.no_grad():
            preds = [self.forward_tokens(x_batch[lo : lo + MAX_BATCH], deltas[lo : lo + MAX_BATCH])[0].data
                     for lo in range(0, len(x_batch), MAX_BATCH)]
        return self.change_from_patches(np.concatenate(preds), deltas)[np.argsort(order)]

    def change_from_patches(self, patches: np.ndarray, deltas) -> np.ndarray:
        """(B*L, patch_dim) head output -> the (B, V, H, W) physical changes,
        state i's over deltas[i] hours."""
        patches = patches.reshape(-1, self.num_tokens, self.patch_dim)
        delta_norm = np.stack([unpatchify(p, self.spec.shape, self.cfg.patch_size) for p in patches])
        return self.denormalize_delta(delta_norm, deltas)

    def forecast_batch(self, x_batch: np.ndarray, deltas) -> np.ndarray:
        """(B, V, H, W) states -> the (B, V, H, W) states deltas[i] hours later
        for state i, in float64 whatever the states' dtype."""
        return np.asarray(x_batch, dtype=np.float64) + self.predict_change(x_batch, deltas)

    def predict_rollout(self, x0: GridField, intervals, lead_hours: int | None = None) -> list:
        """Iterate the model along a trajectory, feeding each forecast back in.

        intervals: per-step forecast spans; their sum must equal lead_hours
        when given (a trajectory must never overshoot its lead time).
        """
        intervals = [int(d) for d in intervals]
        total = sum(intervals)
        if lead_hours is not None and total != lead_hours:
            raise ValueError(f"trajectory sums to {total}h, lead time is {lead_hours}h")
        out = []
        x = x0
        for d in intervals:
            x = GridField(self.spec, self.forecast_batch(x.values[None], [d])[0], x.timestamp_hours + d)
            out.append(x)
        return out


# -- pre-training -----------------------------------------------------------------


def weighted_patch_loss(pred: Tensor, target_patches: np.ndarray, weight_patches: np.ndarray, denom: float) -> Tensor:
    """sum(weights * (pred - target)^2) / denom over patchified fields."""
    diff = dc.sub(pred, Tensor(target_patches))
    sq = dc.mul(diff, diff)
    return dc.mul_scalar(dc.tensor_sum(dc.mul(sq, Tensor(weight_patches))), 1.0 / denom)


WEIGHT_DECAY = 0.01  # pretraining's decoupled weight decay


@dataclass
class PretrainConfig:
    steps: int = 1200
    batch_size: int = 16
    lr: float = 3e-3
    seed: int = 0
    checkpoint_every: int = 0  # 0 -> only at the end

    def __post_init__(self):
        check_at_least(self, steps=0, batch_size=1, checkpoint_every=0, seed=0)
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")


class PretrainTrainer:
    """Randomized-interval one-step training over the train split."""

    def __init__(self, model: ForecastModel, dataset: Dataset, cfg: PretrainConfig):
        self.model = model
        self.dataset = dataset
        self.cfg = cfg
        self.optimizer = dc.AdamW(model.trainable_params(), lr=cfg.lr, weight_decay=WEIGHT_DECAY)

    def sample_batch(self, step_idx: int):
        """Deterministic batch for a step: [(x0 values, target delta, interval), ...]."""
        cfg = self.cfg
        model_cfg = self.model.cfg
        rng = np.random.default_rng([cfg.seed, step_idx])
        step_h = self.dataset.spec.base_step_hours
        # every window leaves room for the longest interval, whichever it draws
        starts = self.dataset.window_starts("train", max(model_cfg.intervals))
        uniform = [1.0 / len(model_cfg.intervals)] * len(model_cfg.intervals)
        out = []
        for _ in range(cfg.batch_size):
            delta = int(rng.choice(model_cfg.intervals, p=uniform))
            idx = int(rng.integers(starts.start, starts.stop))
            x0 = self.dataset.fields[idx]
            x1 = self.dataset.fields[idx + delta // step_h]
            out.append((x0.values, np.subtract(x1.values, x0.values, dtype=np.float64), delta))
        return out

    def loss_on_batch(self, batch):
        """(total, l_delta, aux1, aux2, usage) for a list of (x0, delta_target, interval):
        total is l_delta plus the `routing_losses` objective.

        The batch runs as one forward, its samples sorted stably by interval.
        usage holds the routing of that forward: one (interval, block, expert
        counts) per interval of the batch and block of the model.
        """
        model = self.model
        V, H, W = self.dataset.spec.shape
        B, L = len(batch), model.num_tokens
        batch = sorted(batch, key=lambda item: item[2])
        deltas = [delta for _, _, delta in batch]
        xb = np.stack([x for x, _, _ in batch])
        targets = model.normalize_delta(np.stack([d for _, d, _ in batch]), deltas)
        targets = np.concatenate([patchify(t, model.cfg.patch_size) for t in targets])
        pred, decisions, noises = model.forward_tokens(xb, deltas)
        wp = np.tile(model.loss_weight_patches, (B, 1))
        l_delta = weighted_patch_loss(pred, targets, wp, denom=B * V * H * W)

        usage, lo = [], 0
        for pos, count in zip(*model.interval_segments(deltas)):
            rows = slice(lo * L, (lo + count) * L)
            usage += [(model.cfg.intervals[pos], bi, dec.usage_histogram(model.cfg.moe_num_private, rows))
                      for bi, dec in enumerate(decisions)]
            lo += count

        objective, aux1, aux2 = routing_losses(noises, model.cfg)
        total = dc.add(l_delta, objective)
        return total, l_delta, aux1, aux2, usage

    def step(self, step_idx: int) -> dict:
        cfg = self.cfg
        batch = self.sample_batch(step_idx)
        self.optimizer.lr = dc.cosine_lr(cfg.lr, step_idx, cfg.steps)
        self.optimizer.zero_grad()
        total, l_delta, aux1, aux2, usage = self.loss_on_batch(batch)
        if not np.isfinite(total.data):
            raise DivergenceError(f"non-finite pre-training loss at step {step_idx}")
        dc.backward(total)
        self.optimizer.step()
        return {
            "step": step_idx,
            "l_delta": float(l_delta.data),
            "aux1": float(aux1.data),
            "aux2": float(aux2.data),
            "total": float(total.data),
            "usage": usage,
        }


def evaluate_one_step_loss(model: ForecastModel, dataset: Dataset, split: str, delta: int,
                           num_samples: int, seed: int):
    """(model loss, persistence loss) for one interval over sampled windows."""
    spec = dataset.spec
    V, H, W = spec.shape
    w_field = lat_weights(spec)[:, None]
    starts = dataset.window_starts(split, delta)
    k = delta // spec.base_step_hours
    rng = np.random.default_rng(seed)
    idxs = rng.integers(starts.start, starts.stop, size=num_samples)
    x0 = np.stack([dataset.fields[int(i)].values for i in idxs])
    x1 = np.stack([dataset.fields[int(i) + k].values for i in idxs])
    deltas = [delta] * num_samples
    target = model.normalize_delta(np.subtract(x1, x0, dtype=np.float64), deltas)
    pred = model.normalize_delta(model.predict_change(x0, deltas), deltas)
    model_total = pers_total = 0.0
    for p, t in zip(pred, target):
        model_total += float(np.sum(w_field * (p - t) ** 2))
        pers_total += float(np.sum(w_field * t**2))
    denom = num_samples * V * H * W
    return model_total / denom, pers_total / denom
