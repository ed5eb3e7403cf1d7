"""Latitude-weighted verification metrics, climatology, and the rollout step reward.

RMSE over a (V, H, W) field:
    sqrt( (1 / (V*H*W)) * sum_v sum_i sum_j L(i) * (pred - truth)^2 )
with L(i) = cos(lat_i) normalized to mean 1. Multi-time inputs average the
per-time RMSE outside the square root. ACC is the latitude-weighted Pearson
correlation of climatology anomalies, computed per variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridio import Dataset, GridSpec, HOURS_PER_DAY


@dataclass
class WeightTable:
    """Latitude weights (mean 1) and per-variable loss weights."""

    lat_weight: np.ndarray  # (H,)
    var_weight: np.ndarray  # (V,)

    def __post_init__(self):
        self.lat_weight = np.asarray(self.lat_weight, dtype=np.float64)
        self.var_weight = np.asarray(self.var_weight, dtype=np.float64)
        if np.any(self.lat_weight <= 0) or np.any(self.var_weight <= 0):
            raise ValueError("weights must be positive")

    def field_weights(self, shape) -> np.ndarray:
        """Combined w(v) * L(i) broadcast to a (V, H, W) grid."""
        V, H, W = shape
        return (
            self.var_weight[:V, None, None]
            * self.lat_weight[None, :H, None]
            * np.ones((1, 1, W))
        )


def lat_weights(spec: GridSpec, var_weight=None) -> WeightTable:
    """cos-latitude weights normalized to mean 1; variable weights default to 1."""
    cosines = np.cos(np.radians(np.asarray(spec.lat_degrees)))
    lw = cosines / cosines.mean()
    vw = np.ones(spec.num_vars) if var_weight is None else np.asarray(var_weight, float)
    return WeightTable(lw, vw)


def _as_time_batch(arr) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 3:
        return a[None]
    if a.ndim == 4:
        return a
    raise ValueError(f"expected (V,H,W) or (T,V,H,W), got shape {a.shape}")


def rmse(pred, truth, weights: WeightTable) -> float:
    """Latitude-weighted RMSE; (T,V,H,W) inputs are averaged over T."""
    p = _as_time_batch(pred)
    t = _as_time_batch(truth)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
    _, V, H, W = p.shape
    lw = weights.lat_weight[None, None, :, None]
    per_time = np.sqrt(np.sum(lw * (p - t) ** 2, axis=(1, 2, 3)) / (V * H * W))
    return float(per_time.mean())


class ClimatologyError(KeyError):
    """Requested timestamp has no climatology bucket."""


class Climatology:
    """Mean field per (day-of-season, hour-of-day) bucket, training split only."""

    def __init__(self, buckets: dict, season_length_days: int):
        self.buckets = buckets
        self.season_length_days = season_length_days

    @staticmethod
    def bucket_key(t_hours: int, season_length_days: int):
        day = (t_hours // HOURS_PER_DAY) % season_length_days
        hour = t_hours % HOURS_PER_DAY
        return (int(day), int(hour))

    @staticmethod
    def from_dataset(dataset: Dataset, split: str = "train") -> "Climatology":
        season = dataset.season_length_days
        split_states = dataset.window_starts(split, 0)
        sums: dict = {}
        counts: dict = {}
        for f in dataset.fields[split_states.start : split_states.stop]:
            key = Climatology.bucket_key(f.timestamp_hours, season)
            if key in sums:
                sums[key] += f.values
                counts[key] += 1
            else:
                sums[key] = f.values.copy()
                counts[key] = 1
        buckets = {k: sums[k] / counts[k] for k in sums}
        return Climatology(buckets, season)

    def at(self, t_hours: int) -> np.ndarray:
        key = self.bucket_key(t_hours, self.season_length_days)
        if key not in self.buckets:
            raise ClimatologyError(f"no climatology bucket for day={key[0]} hour={key[1]}")
        return self.buckets[key]


def acc(pred, truth, climatology, weights: WeightTable) -> np.ndarray:
    """Anomaly correlation per variable.

    pred/truth: (V,H,W) or (T,V,H,W); climatology: matching array of means.
    Returns a length-V vector averaged over T. A degenerate (all-zero
    anomaly) side yields 0 for that term.
    """
    p = _as_time_batch(pred)
    t = _as_time_batch(truth)
    c = _as_time_batch(climatology)
    if not (p.shape == t.shape == c.shape):
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape} vs {c.shape}")
    T, V, _, _ = p.shape
    lw = weights.lat_weight[None, :, None]
    out = np.zeros(V)
    for v in range(V):
        vals = np.zeros(T)
        for ti in range(T):
            pa = p[ti, v] - c[ti, v]
            ta = t[ti, v] - c[ti, v]
            num = np.sum(lw[0] * pa * ta)
            denom = np.sqrt(np.sum(lw[0] * pa**2) * np.sum(lw[0] * ta**2))
            vals[ti] = num / denom if denom > 0 else 0.0
        out[v] = vals.mean()
    return out


def step_reward(pred_field, truth_field, weights: WeightTable, omega: float) -> float:
    """Per-step reward: negative latitude-weighted RMSE plus the length penalty.

    omega is an additive constant applied at every step; configure it negative
    so longer trajectories pay for their extra steps.
    """
    return -rmse(pred_field, truth_field, weights) + omega


def trajectory_return(step_rewards) -> float:
    """Return of a trajectory: sum of its per-step rewards (penalty included)."""
    return float(np.sum(step_rewards))
