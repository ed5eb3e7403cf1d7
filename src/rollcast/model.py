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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .encoding import IntervalEmbedding, patchify, ring_pe_2d, unpatchify
from .gridio import Dataset, GridField, GridSpec
from .metrics import WeightTable, lat_weights
from .moe import (
    SharedPrivateMoE,
    aux_loss_1,
    aux_loss_2,
    combined_aux,
    noise_distributions,
)


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss."""


def check_at_least(cfg, **least):
    """Raise ValueError naming the first of cfg's fields that is below its least value."""
    for name, low in least.items():
        if getattr(cfg, name) < low:
            raise ValueError(f"{name} must be >= {low}, got {getattr(cfg, name)}")


@dataclass(frozen=True)
class ModelConfig:
    """The forecaster's one config: every part of the model reads its settings here."""

    embed_dim: int = 64
    num_blocks: int = 2
    num_heads: int = 4
    patch_size: int = 4
    intervals: tuple = (6, 12, 24)
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
        if not d or min(d) < 1 or len(set(d)) < len(d):
            raise ValueError(f"intervals must be distinct positive hours, got {list(d)}")
        if not 1 <= self.moe_top_k <= self.moe_num_private:
            raise ValueError(f"moe_top_k {self.moe_top_k} outside [1, moe_num_private={self.moe_num_private}]")
        check_at_least(self, moe_alpha=0)


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
# state on the desk-scale model, one BLAS thread: 1.11-1.19 ms at B=16,
# 1.17-1.32 at B=32, 1.40 at B=48, 1.47-1.63 at B=64 and 1.56-1.73 at B=128,
# against 2.4-2.8 ms at B=1. Past 32 a larger batch costs more per state, and
# its working memory grows with it (one no_grad Q-network call on 200 new
# states peaked at 20.5 MB under tracemalloc, its cached weather rows included).
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
    also queries (self-attention) and the result has h's shape. Given
    (batch*m, D) query rows, m per sequence, only they query and the result
    is (batch*m, D): the Q-network's temporal token reads the weather this
    way (class attention). Queries, keys and values move to a
    (batch*heads, rows, dh) layout, so one batched matmul scores every head;
    keys land transposed in the same permute. Projections are
    `{prefix}.wq/.wk/.wv/.wo` (`attention_params`).
    """
    D = h.shape[1]
    dh = D // num_heads
    queries = h if queries is None else queries
    m = queries.shape[0] // batch

    def heads(x, rows, axes):
        x = dc.permute(dc.reshape(x, (batch, rows, num_heads, dh)), axes)
        return dc.reshape(x, (batch * num_heads,) + x.shape[2:])

    q = heads(_linear(params, f"{prefix}.wq", queries), m, (0, 2, 1, 3))  # (B*H, m, dh)
    kt = heads(dc.matmul(h, params[f"{prefix}.wk.weight"]), length, (0, 2, 3, 1))  # (B*H, dh, L)
    v = heads(_linear(params, f"{prefix}.wv", h), length, (0, 2, 1, 3))
    scores = dc.mul_scalar(dc.matmul(q, kt), 1.0 / np.sqrt(dh))
    ctx = dc.reshape(dc.matmul(dc.softmax(scores, axis=-1), v), (batch, num_heads, m, dh))
    cat = dc.reshape(dc.permute(ctx, (0, 2, 1, 3)), (batch * m, D))
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

    def _modulations(self, cond: Tensor):
        D = self.cfg.embed_dim
        mods = _linear(self._params, f"{self.prefix}.adaln", dc.gelu(cond))  # (1, 6D)
        return [dc.slice_axis(mods, 1, i * D, (i + 1) * D) for i in range(6)]

    def forward(self, z: Tensor, cond: Tensor, delta: int, batch: int, length: int, collect_noise: bool = False):
        """(batch*length, D) tokens -> same shape; cond is the (1, D) interval embedding."""
        scale1, shift1, gate1, scale2, shift2, gate2 = self._modulations(cond)

        h = dc.modulate(dc.layer_norm(z), scale1, shift1)
        z = dc.gated_add(z, gate1, self._attention(h, batch, length))

        h2 = dc.modulate(dc.layer_norm(z), scale2, shift2)
        moe_out, decision, b = self.moe.forward(h2, delta)
        z = dc.gated_add(z, gate2, moe_out)

        noise = self.moe.noise_sums(h2, delta, b) if collect_noise else None
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

        rng = np.random.default_rng(seed)
        self._params = {}
        self._params.update(_linear_params(rng, self.patch_dim, cfg.embed_dim, "tokenizer"))
        self.interval_embedding = IntervalEmbedding(cfg.intervals, cfg.embed_dim, rng)
        self._params.update(self.interval_embedding.params())
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

    def load_state_arrays(self, arrays: dict):
        for k, p in self._params.items():
            if k not in arrays:
                raise KeyError(f"checkpoint missing parameter {k}")
            arr = np.asarray(arrays[k], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(f"parameter {k}: shape {arr.shape} != {p.data.shape}")
            p.data = arr.copy()

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
        x[t + d] - x[t] over every pair of train-split states d apart.
        """
        lo, hi = dataset.splits.get("train", (0, len(dataset)))
        arr = np.stack([f.values for f in dataset.fields[lo:hi]])
        mean = arr.mean(axis=(0, 2, 3))
        std = arr.std(axis=(0, 2, 3))
        std = np.maximum(std, 1e-6)
        step_h = dataset.spec.base_step_hours
        delta_scale = []
        for d in cfg.intervals:
            change = arr[d // step_h:] - arr[: len(arr) - d // step_h]
            if not len(change):
                raise ValueError(f"train split too short for the {d}h interval")
            delta_scale.append(np.sqrt(np.mean(change**2, axis=(0, 2, 3))))
        delta_scale = np.maximum(np.array(delta_scale), 1e-6)
        return ForecastModel(cfg, dataset.spec, mean, std, seed=seed, delta_scale=delta_scale)

    # -- forward paths ---------------------------------------------------------

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (values - self.norm_mean[:, None, None]) / self.norm_std[:, None, None]

    def _delta_scale_of(self, delta: int) -> np.ndarray:
        return self.delta_scale[self.cfg.intervals.index(delta)][:, None, None]

    def normalize_delta(self, delta_values: np.ndarray, delta: int) -> np.ndarray:
        """Physical change over `delta` hours -> model units."""
        return delta_values / self._delta_scale_of(delta)

    def denormalize_delta(self, delta_norm: np.ndarray, delta: int) -> np.ndarray:
        return delta_norm * self._delta_scale_of(delta)

    def body_tokens(self, x_batch: np.ndarray, delta: int, collect_noise: bool = False):
        """Run tokenizer + positional + conditioned blocks; stop before the head.

        x_batch: (B, V, H, W) raw states. Returns ((B*L, D) token Tensor,
        per-block gate decisions, per-block noise sums).
        """
        B = x_batch.shape[0]
        L = self.num_tokens
        patches = np.stack([patchify(self.normalize(x), self.cfg.patch_size) for x in x_batch])
        z = _linear(self._params, "tokenizer", Tensor(patches.reshape(B * L, self.patch_dim)))
        z = dc.add(z, Tensor(np.tile(self.positional, (B, 1))))
        cond = self.interval_embedding(delta)
        decisions, noises = [], []
        for block in self.blocks:
            z, dec, noise = block.forward(z, cond, delta, B, L, collect_noise=collect_noise)
            decisions.append(dec)
            noises.append(noise)
        return z, decisions, noises

    def apply_head(self, tokens: Tensor) -> Tensor:
        return _linear(self._params, "head", tokens)

    def forward_tokens(self, x_batch: np.ndarray, delta: int, collect_noise: bool = False):
        """Predict normalized change patches for a batch sharing one interval."""
        z, decisions, noises = self.body_tokens(x_batch, delta, collect_noise=collect_noise)
        return self.apply_head(z), decisions, noises

    def predict_change(self, x_batch: np.ndarray, delta: int) -> np.ndarray:
        """Physical change of each (V, H, W) state of x_batch over `delta` hours.

        Returns the (B, V, H, W) changes. The states go through `forward_tokens`
        in chunks of at most MAX_BATCH; no autodiff graph is kept.
        """
        if delta not in self.cfg.intervals:
            raise KeyError(f"unknown interval {delta}h; configured set is {self.cfg.intervals}")
        with dc.no_grad():
            preds = [self.forward_tokens(x_batch[lo : lo + MAX_BATCH], delta)[0].data
                     for lo in range(0, len(x_batch), MAX_BATCH)]
        return self.change_from_patches(np.concatenate(preds), delta)

    def change_from_patches(self, patches: np.ndarray, delta: int) -> np.ndarray:
        """(B*L, patch_dim) head output -> the (B, V, H, W) physical changes over `delta` hours."""
        patches = patches.reshape(-1, self.num_tokens, self.patch_dim)
        delta_norm = np.stack([unpatchify(p, self.spec.shape, self.cfg.patch_size) for p in patches])
        return self.denormalize_delta(delta_norm, delta)

    def forecast_batch(self, x_batch: np.ndarray, delta: int) -> np.ndarray:
        """(B, V, H, W) states -> the (B, V, H, W) states `delta` hours later."""
        return x_batch + self.predict_change(x_batch, delta)

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
            x = GridField(self.spec, self.forecast_batch(x.values[None], d)[0], x.timestamp_hours + d)
            out.append(x)
        return out


# -- pre-training -----------------------------------------------------------------


def weighted_patch_loss(pred: Tensor, target_patches: np.ndarray, weight_patches: np.ndarray, denom: float) -> Tensor:
    """sum(weights * (pred - target)^2) / denom over patchified fields."""
    diff = dc.sub(pred, Tensor(target_patches))
    sq = dc.mul(diff, diff)
    return dc.mul_scalar(dc.tensor_sum(dc.mul(sq, Tensor(weight_patches))), 1.0 / denom)


@dataclass
class PretrainConfig:
    steps: int = 1200
    batch_size: int = 16
    lr: float = 3e-3
    lr_final_fraction: float = 0.1  # cosine decay floor, as a fraction of lr
    weight_decay: float = 0.01
    seed: int = 0
    checkpoint_every: int = 0  # 0 -> only at the end

    def __post_init__(self):
        check_at_least(self, steps=0, batch_size=1, checkpoint_every=0)


class PretrainTrainer:
    """Randomized-interval one-step training over the train split."""

    def __init__(self, model: ForecastModel, dataset: Dataset, cfg: PretrainConfig,
                 weights: WeightTable | None = None):
        self.model = model
        self.dataset = dataset
        self.cfg = cfg
        self.weights = weights or lat_weights(dataset.spec)
        self.optimizer = dc.AdamW(
            model.trainable_params(), lr=cfg.lr, weight_decay=cfg.weight_decay
        )
        w_field = self.weights.field_weights(dataset.spec.shape)
        self._weight_patches = patchify(w_field, model.cfg.patch_size)
        lo, hi = dataset.splits.get("train", (0, len(dataset)))
        self._train_range = (lo, hi)

    def sample_batch(self, step_idx: int):
        """Deterministic batch for a step: [(x0 values, target delta, interval), ...]."""
        cfg = self.cfg
        model_cfg = self.model.cfg
        rng = np.random.default_rng([cfg.seed, step_idx])
        lo, hi = self._train_range
        step_h = self.dataset.spec.base_step_hours
        max_delta = max(model_cfg.intervals)
        uniform = [1.0 / len(model_cfg.intervals)] * len(model_cfg.intervals)
        out = []
        for _ in range(cfg.batch_size):
            delta = int(rng.choice(model_cfg.intervals, p=uniform))
            last_valid = hi - 1 - max_delta // step_h
            idx = int(rng.integers(lo, last_valid + 1))
            x0 = self.dataset.fields[idx]
            x1 = self.dataset.fields[idx + delta // step_h]
            out.append((x0.values, x1.values - x0.values, delta))
        return out

    def loss_on_batch(self, batch):
        """(total, l_delta, aux1, aux2, usage) for a list of (x0, delta_target, interval).

        usage holds the routing of this forward: one (interval, block, expert
        counts) per interval group of the batch and block of the model.
        """
        model = self.model
        spec = self.dataset.spec
        V, H, W = spec.shape
        B = len(batch)
        groups: dict = {}
        for x0, dvals, delta in batch:
            groups.setdefault(delta, []).append((x0, dvals))

        l_delta = None
        usage = []
        noise_pool = [dict() for _ in model.blocks]
        for delta, items in sorted(groups.items()):
            xb = np.stack([x for x, _ in items])
            targets = np.stack(
                [patchify(model.normalize_delta(d, delta), model.cfg.patch_size) for _, d in items]
            )
            pred, decisions, noises = model.forward_tokens(xb, delta, collect_noise=True)
            usage += [(delta, bi, dec.usage_histogram(model.cfg.moe_num_private))
                      for bi, dec in enumerate(decisions)]
            wp = np.tile(self._weight_patches, (len(items), 1))
            part = weighted_patch_loss(pred, targets.reshape(pred.shape), wp, denom=B * V * H * W)
            l_delta = part if l_delta is None else dc.add(l_delta, part)
            for bi, noise in enumerate(noises):
                for d, t in noise.items():
                    pool = noise_pool[bi]
                    pool[d] = t if d not in pool else dc.add(pool[d], t)

        aux1 = aux2 = None
        for pool in noise_pool:
            dists = noise_distributions(pool)
            a1 = aux_loss_1(dists)
            a2 = aux_loss_2(dists)
            aux1 = a1 if aux1 is None else dc.add(aux1, a1)
            aux2 = a2 if aux2 is None else dc.add(aux2, a2)
        n_blocks = len(model.blocks)
        aux1 = dc.mul_scalar(aux1, 1.0 / n_blocks)
        aux2 = dc.mul_scalar(aux2, 1.0 / n_blocks)
        total = dc.add(l_delta, combined_aux(aux1, aux2, model.cfg.moe_alpha))
        return total, l_delta, aux1, aux2, usage

    def step(self, step_idx: int) -> dict:
        cfg = self.cfg
        batch = self.sample_batch(step_idx)
        self.optimizer.lr = dc.cosine_lr(cfg.lr, cfg.lr_final_fraction, step_idx, cfg.steps)
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
                           num_samples: int, seed: int, weights: WeightTable | None = None):
    """(model loss, persistence loss) for one interval over sampled windows."""
    weights = weights or lat_weights(dataset.spec)
    spec = dataset.spec
    V, H, W = spec.shape
    w_field = weights.field_weights(spec.shape)
    lo, hi = dataset.splits[split]
    k = delta // spec.base_step_hours
    rng = np.random.default_rng(seed)
    idxs = rng.integers(lo, hi - k, size=num_samples)  # the target must lie in the split
    x0 = np.stack([dataset.fields[int(i)].values for i in idxs])
    x1 = np.stack([dataset.fields[int(i) + k].values for i in idxs])
    target = model.normalize_delta(x1 - x0, delta)
    pred = model.normalize_delta(model.predict_change(x0, delta), delta)
    model_total = pers_total = 0.0
    for p, t in zip(pred, target):
        model_total += float(np.sum(w_field * (p - t) ** 2))
        pers_total += float(np.sum(w_field * t**2))
    denom = num_samples * V * H * W
    return model_total / denom, pers_total / denom
