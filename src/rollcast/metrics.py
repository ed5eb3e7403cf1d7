"""Latitude-weighted verification metrics, climatology, and the rollout step reward.

RMSE over a (V, H, W) field:
    sqrt( (1 / (V*H*W)) * sum_v sum_i sum_j L(i) * (pred - truth)^2 )
with L(i) = cos(lat_i) normalized to mean 1. Multi-time inputs average the
per-time RMSE outside the square root. ACC is the latitude-weighted Pearson
correlation of climatology anomalies, computed per variable.
"""

from __future__ import annotations

import numpy as np

from .gridio import Dataset, GridSpec, HOURS_PER_DAY


def lat_weights(spec: GridSpec) -> np.ndarray:
    """(H,) cos-latitude weights normalized to mean 1: the one weighting of
    every score and loss."""
    cosines = np.cos(np.radians(np.asarray(spec.lat_degrees)))
    return cosines / cosines.mean()


def _as_time_batch(arr) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 3:
        return a[None]
    if a.ndim == 4:
        return a
    raise ValueError(f"expected (V,H,W) or (T,V,H,W), got shape {a.shape}")


def rmse(pred, truth, lat_weight: np.ndarray) -> float:
    """Latitude-weighted RMSE; (T,V,H,W) inputs are averaged over T."""
    p = _as_time_batch(pred)
    t = _as_time_batch(truth)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
    _, V, H, W = p.shape
    lw = lat_weight[None, None, :, None]
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
    def from_dataset(dataset: Dataset) -> "Climatology":
        season = dataset.season_length_days
        split_states = dataset.window_starts("train", 0)
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


def acc(pred, truth, climatology, lat_weight: np.ndarray) -> np.ndarray:
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
    lw = lat_weight[:, None]
    out = np.zeros(V)
    for v in range(V):
        vals = np.zeros(T)
        for ti in range(T):
            pa = p[ti, v] - c[ti, v]
            ta = t[ti, v] - c[ti, v]
            num = np.sum(lw * pa * ta)
            denom = np.sqrt(np.sum(lw * pa**2) * np.sum(lw * ta**2))
            vals[ti] = num / denom if denom > 0 else 0.0
        out[v] = vals.mean()
    return out


def step_reward(pred_field, truth_field, lat_weight: np.ndarray, omega: float) -> float:
    """Per-step reward: negative latitude-weighted RMSE plus the length penalty.

    omega is an additive constant applied at every step; configure it negative
    so longer trajectories pay for their extra steps.
    """
    return -rmse(pred_field, truth_field, lat_weight) + omega


def trajectory_return(step_rewards) -> float:
    """Return of a trajectory: sum of its per-step rewards (penalty included)."""
    return float(np.sum(step_rewards))
