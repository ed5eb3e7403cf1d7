"""Tokenization, positional tables and the scheduler's temporal embedding.

`TemporalEmbedding` is the one learned conditioning embedding here; the
forecaster's interval embedding is a parameter table of `ForecastModel`.

The ring positional table makes dot-product similarity along the longitude
axis a function of circular distance only (longitude wraps around the
globe); the latitude axis gets the same sinusoid family but its positions
never complete a cycle, so no wraparound similarity appears there. A
conventional transformer sinusoid table is provided for comparison.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .gridio import HOURS_PER_DAY


# -- patch partition ---------------------------------------------------------------


def patchify(values: np.ndarray, patch: int) -> np.ndarray:
    """(V, H, W) -> (L, P*P*V); tokens row-major over the h x w grid.

    Within a token the patch is flattened variable-major, then latitude,
    then longitude, matching the grid file's [v][lat][lon] layout.
    """
    V, H, W = values.shape
    h, w = H // patch, W // patch
    x = values.reshape(V, h, patch, w, patch)
    # (h, w, V, patch_lat, patch_lon) -> flatten the trailing three
    x = x.transpose(1, 3, 0, 2, 4)
    return np.ascontiguousarray(x.reshape(h * w, V * patch * patch))


def unpatchify(patches: np.ndarray, spec_shape, patch: int) -> np.ndarray:
    """Inverse of patchify: (L, P*P*V) -> (V, H, W)."""
    V, H, W = spec_shape
    h, w = H // patch, W // patch
    x = patches.reshape(h, w, V, patch, patch)
    x = x.transpose(2, 0, 3, 1, 4)
    return np.ascontiguousarray(x.reshape(V, H, W))


# -- positional tables ---------------------------------------------------------------


def ring_pe_2d(h: int, w: int, D: int) -> np.ndarray:
    """(h*w, D) ring positional table on an h x w token grid, longitude as the ring axis.

    For token (r, c) and frequency i = 1..D/4, the four columns of group i are
        sin(2*pi*i*c/w) * w/(4i),  cos(2*pi*i*c/w) * w/(4i),
        sin(2*pi*i*r/w) * w/(4i),  cos(2*pi*i*r/w) * w/(4i).
    The sin/cos pairing makes longitude similarity depend only on circular
    distance min(|a-b|, w-|a-b|); latitude rows (r < h) never wrap.
    """
    if D % 4 != 0:
        raise ValueError(f"embed dim must be divisible by 4, got {D}")
    rows = np.arange(h)[:, None, None]  # r
    cols = np.arange(w)[None, :, None]  # c
    freqs = np.arange(1, D // 4 + 1)[None, None, :]  # i
    scale = w / (4.0 * freqs)
    lon_phase = 2.0 * np.pi * freqs * cols / w
    lat_phase = 2.0 * np.pi * freqs * rows / w
    table = np.zeros((h, w, D))
    table[:, :, 0::4] = np.sin(lon_phase) * scale
    table[:, :, 1::4] = np.cos(lon_phase) * scale
    table[:, :, 2::4] = np.sin(lat_phase) * scale
    table[:, :, 3::4] = np.cos(lat_phase) * scale
    return table.reshape(h * w, D)


def conventional_pe(L: int, D: int) -> np.ndarray:
    """(L, D) standard transformer sinusoid table over a flat index 0..L-1."""
    if D % 2 != 0:
        raise ValueError(f"embed dim must be even, got {D}")
    pos = np.arange(L)[:, None]
    i = np.arange(D // 2)[None, :]
    angle = pos * np.power(10000.0, -2.0 * i / D)
    table = np.zeros((L, D))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


def similarity_matrix(table: np.ndarray) -> np.ndarray:
    """All-pairs dot products of the rows of an (L, D) table (L x L)."""
    return table @ table.T


# -- learned conditioning embedding ----------------------------------------------------


class TemporalEmbedding:
    """Scheduler-side embedding of date/time and trajectory position.

    Features: hour-of-day and day-of-season sinusoids; travel, remaining
    and lead times normalized by norm_hours; and the phase (sin, cos) of
    the remaining time within each period of `phase_hours`. All are
    projected to D by a learned map.
    """

    def __init__(self, embed_dim: int, season_length_days: int, norm_hours: float,
                 rng: np.random.Generator, phase_hours=()):
        self.embed_dim = embed_dim
        self.season_length_days = season_length_days
        self.norm_hours = float(norm_hours)
        self.phase_hours = tuple(float(p) for p in phase_hours)
        self.num_features = 7 + 2 * len(self.phase_hours)
        # each sinusoid's period, and the feature column of each of [sines, cosines, times]
        self._periods = np.array([HOURS_PER_DAY, season_length_days * HOURS_PER_DAY, *self.phase_hours])
        n = len(self._periods)
        self._order = np.r_[0, n, 1, n + 1, 2 * n : 2 * n + 3, 2:n, n + 2 : 2 * n]
        self.weight = Tensor(
            rng.normal(scale=1.0 / np.sqrt(self.num_features), size=(self.num_features, embed_dim)),
            requires_grad=True,
            name="temporal_embedding.weight",
        )
        self.bias = Tensor(np.zeros((1, embed_dim)), requires_grad=True, name="temporal_embedding.bias")

    def features(self, date_time_hours, travel_h, remaining_h, lead_h) -> np.ndarray:
        """Feature rows of the given times in one pass: (F,) for scalars, (B, F) for arrays of B."""
        given = np.array([date_time_hours, travel_h, remaining_h, lead_h])
        times = given.reshape(4, -1)
        clock, travel, remaining, lead = times
        if times[1:].min() < 0:
            raise ValueError("times must be non-negative")
        mismatch = travel + remaining != lead
        if mismatch.any():
            i = np.argmax(mismatch)
            raise ValueError(
                f"inconsistent times: travel {travel[i]} + remaining {remaining[i]} != lead {lead[i]}"
            )
        hours = np.empty((times.shape[1], len(self._periods)))  # into each period
        hours[:, 0] = clock % HOURS_PER_DAY
        hours[:, 1] = clock % (self.season_length_days * HOURS_PER_DAY)
        hours[:, 2:] = remaining[:, None]
        angle = 2.0 * np.pi * hours / self._periods
        rows = np.concatenate([np.sin(angle), np.cos(angle), times[1:].T / self.norm_hours], axis=1)
        return rows.take(self._order, axis=1).reshape(given.shape[1:] + (-1,))

    def __call__(self, times) -> Tensor:
        """(B, D) embedding of B (date_time_hours, travel_h, remaining_h, lead_h)
        tuples: one linear map over their feature rows."""
        return dc.linear(Tensor(self.features(*zip(*times))), self.weight, self.bias)

    def params(self) -> dict:
        return {"temporal_embedding.weight": self.weight, "temporal_embedding.bias": self.bias}
