"""Tokenization and positional/conditioning embeddings.

The ring positional table makes dot-product similarity along the longitude
axis a function of circular distance only (longitude wraps around the
globe); the latitude axis gets the same sinusoid family but its positions
never complete a cycle, so no wraparound similarity appears there. A
conventional transformer sinusoid table is provided for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .gridio import GridSpec, HOURS_PER_DAY


@dataclass(frozen=True)
class TokenizerConfig:
    patch_size: int
    embed_dim: int

    def __post_init__(self):
        if self.patch_size < 1:
            raise ValueError("patch_size must be positive")
        if self.embed_dim % 4 != 0:
            raise ValueError(f"embed_dim must be divisible by 4, got {self.embed_dim}")

    def validate_grid(self, spec: GridSpec):
        if spec.lat_points % self.patch_size or spec.lon_points % self.patch_size:
            raise ValueError(
                f"grid {spec.lat_points}x{spec.lon_points} not divisible by patch {self.patch_size}"
            )

    def token_grid(self, spec: GridSpec) -> tuple:
        """(h, w): token resolution of the patched grid."""
        self.validate_grid(spec)
        return spec.lat_points // self.patch_size, spec.lon_points // self.patch_size

    def patch_dim(self, spec: GridSpec) -> int:
        return self.patch_size * self.patch_size * spec.num_vars


@dataclass(frozen=True)
class PositionalTable:
    kind: str  # "ring" | "conventional"
    table: np.ndarray  # (L, D)


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


def ring_pe_2d(h: int, w: int, D: int) -> PositionalTable:
    """Ring positional table on an h x w token grid, longitude as the ring axis.

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
    return PositionalTable("ring", table.reshape(h * w, D))


def conventional_pe(L: int, D: int) -> PositionalTable:
    """Standard transformer sinusoid over a flat index 0..L-1."""
    if D % 2 != 0:
        raise ValueError(f"embed dim must be even, got {D}")
    pos = np.arange(L)[:, None]
    i = np.arange(D // 2)[None, :]
    angle = pos * np.power(10000.0, -2.0 * i / D)
    table = np.zeros((L, D))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return PositionalTable("conventional", table)


def similarity_matrix(table: PositionalTable) -> np.ndarray:
    """All-pairs dot products of table rows (L x L)."""
    return table.table @ table.table.T


# -- learned conditioning embeddings ---------------------------------------------------


class IntervalEmbedding:
    """Lookup table of learned vectors, one per forecast interval."""

    def __init__(self, intervals, embed_dim: int, rng: np.random.Generator):
        self.intervals = tuple(int(d) for d in intervals)
        if not self.intervals:
            raise ValueError("interval set must be non-empty")
        self.embed_dim = embed_dim
        self.table = Tensor(
            rng.normal(scale=0.5, size=(len(self.intervals), embed_dim)),
            requires_grad=True,
            name="interval_embedding.table",
        )

    def index_of(self, delta_hours: int) -> int:
        try:
            return self.intervals.index(int(delta_hours))
        except ValueError:
            raise KeyError(
                f"unknown interval {delta_hours}h; configured set is {self.intervals}"
            ) from None

    def __call__(self, delta_hours: int) -> Tensor:
        """(1, D) embedding row for one interval."""
        return dc.embedding_lookup(self.table, [self.index_of(delta_hours)])

    def params(self) -> dict:
        return {"interval_embedding.table": self.table}


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
        self.weight = Tensor(
            rng.normal(scale=1.0 / np.sqrt(self.num_features), size=(self.num_features, embed_dim)),
            requires_grad=True,
            name="temporal_embedding.weight",
        )
        self.bias = Tensor(np.zeros((1, embed_dim)), requires_grad=True, name="temporal_embedding.bias")

    def features(self, date_time_hours: int, travel_h: int, remaining_h: int, lead_h: int) -> np.ndarray:
        if travel_h < 0 or remaining_h < 0 or lead_h < 0:
            raise ValueError("times must be non-negative")
        if travel_h + remaining_h != lead_h:
            raise ValueError(
                f"inconsistent times: travel {travel_h} + remaining {remaining_h} != lead {lead_h}"
            )
        season_hours = self.season_length_days * HOURS_PER_DAY
        day_phase = 2.0 * np.pi * (date_time_hours % HOURS_PER_DAY) / HOURS_PER_DAY
        season_phase = 2.0 * np.pi * (date_time_hours % season_hours) / season_hours
        remaining_phase = 2.0 * np.pi * remaining_h / np.array(self.phase_hours)
        return np.concatenate(
            [
                [
                    np.sin(day_phase),
                    np.cos(day_phase),
                    np.sin(season_phase),
                    np.cos(season_phase),
                    travel_h / self.norm_hours,
                    remaining_h / self.norm_hours,
                    lead_h / self.norm_hours,
                ],
                np.sin(remaining_phase),
                np.cos(remaining_phase),
            ]
        )

    def __call__(self, times) -> Tensor:
        """(B, D) embedding of B (date_time_hours, travel_h, remaining_h, lead_h)
        tuples: one linear map over their stacked feature rows."""
        feats = Tensor(np.stack([self.features(*t) for t in times]))
        return dc.linear(feats, self.weight, self.bias)

    def params(self) -> dict:
        return {"temporal_embedding.weight": self.weight, "temporal_embedding.bias": self.bias}
