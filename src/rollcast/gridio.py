"""Weather-state data model, synthetic geophysical generator, and grid file I/O.

The generator produces a deterministic multi-variable field series on an
equirectangular lat-lon grid: zonal advection (periodic in longitude) plus
diffusion, a seasonal/diurnal cycle, and seeded localized "storm" injections
whose onsets split the series into smooth and abrupt regimes. It works in
array passes: one (V, H, W) update per step through flat gather tables, and
the cycles, scales and means applied to chunks of frames at once. Its output
bytes do not depend on the chunk size. The writer casts all frames into one
float32 buffer.

Grid file layout (little-endian):
    magic "ARRW", u16 version=1, u16 V, u16 H, u16 W,
    u32 num_steps, u32 base_step_hours, H x f64 latitudes,
    then num_steps frames of V*H*W float32, row-major [v][lat][lon].
A JSON sidecar manifest (<path>.json) carries variable names, split
boundaries, and the generator seed/config.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fileio import atomic_open

GRID_MAGIC = b"ARRW"
GRID_VERSION = 1

HOURS_PER_DAY = 24


class GridFileError(IOError):
    """Malformed grid file; message names the byte offset."""


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry: V variables on an H x W equirectangular grid."""

    num_vars: int
    lat_points: int
    lon_points: int
    lat_degrees: tuple
    base_step_hours: int = 6

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError(f"num_vars must be >= 1, got {self.num_vars}")
        if self.lat_points < 2 or self.lon_points < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.lat_points}x{self.lon_points}")
        lats = np.asarray(self.lat_degrees, dtype=np.float64)
        if lats.shape != (self.lat_points,):
            raise ValueError(f"expected {self.lat_points} latitudes, got {lats.shape}")
        if not np.all(np.isfinite(lats)):
            raise ValueError("latitudes must be finite")
        if np.any(np.diff(lats) >= 0):
            raise ValueError("latitudes must be strictly decreasing (north to south)")
        if np.any(np.abs(lats) > 90.0):
            raise ValueError("latitudes must lie in [-90, 90]")
        if self.base_step_hours < 1:
            raise ValueError("base_step_hours must be positive")
        object.__setattr__(self, "lat_degrees", tuple(float(x) for x in lats))

    @property
    def shape(self) -> tuple:
        return (self.num_vars, self.lat_points, self.lon_points)

    @staticmethod
    def cell_centered(num_vars: int, lat_points: int, lon_points: int, base_step_hours: int = 6) -> "GridSpec":
        """Cell-center latitudes of a regular equirectangular grid, +90 side first."""
        step = 180.0 / lat_points
        lats = 90.0 - step / 2.0 - step * np.arange(lat_points)
        return GridSpec(num_vars, lat_points, lon_points, tuple(lats), base_step_hours)


@dataclass(eq=False)
class GridField:
    """One weather state: values[v][lat][lon] at a timestamp (hours from epoch).

    A float32 or float64 array is kept as given, without a copy: dataset
    frames are float32 and forecasts float64. Any other input is cast to
    float64. Fields compare and hash by identity, so caches can key on them
    weakly.
    """

    spec: GridSpec
    values: np.ndarray
    timestamp_hours: int

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.dtype not in (np.float32, np.float64):
            values = values.astype(np.float64)
        self.values = values
        if self.values.shape != self.spec.shape:
            raise ValueError(f"values shape {self.values.shape} != spec shape {self.spec.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("field values must be finite")


# Storms: peak amplitude in units of the variable's scale, Gaussian width in
# grid cells, and the steps each one lasts.
STORM_AMPLITUDE = 2.5
STORM_WIDTH_CELLS = 2.0
STORM_DURATION_STEPS = 4
INIT_MODES = 4  # low-wavenumber modes in each variable's initial anomaly
# (name, mean, scale) of each variable the generator makes, in order
VARIABLES = (("temperature", 280.0, 8.0), ("zonal_wind", 0.0, 5.0))


@dataclass
class RegimeConfig:
    """Synthetic dynamics knobs; all pure functions of the seed once fixed.

    zonal_velocity_cells: eastward shift in grid cells per base step (per variable,
        cycled if shorter than V). Fractional shifts use periodic linear interpolation.
    diffusion: 5-point Laplacian coefficient per step (longitude periodic,
        latitude edges clamped).
    storm_rate: expected storm onsets per base step, at most 1; each onset
        injects a localized bump over STORM_DURATION_STEPS steps.
    seasonal_amplitude / diurnal_amplitude: amplitudes of the deterministic
        cycle added on output, in units of each variable's scale, at most 10
        in size (temperature then spans 200-360 K).
    season_length_days: length of the synthetic "year".
    """

    zonal_velocity_cells: tuple[float, ...] = (0.7, 1.1)
    diffusion: float = 0.04
    storm_rate: float = 0.04
    seasonal_amplitude: float = 0.6
    diurnal_amplitude: float = 0.15
    season_length_days: int = 60

    def __post_init__(self):
        if not self.zonal_velocity_cells:
            raise ValueError("zonal_velocity_cells must hold at least one shift")
        # the explicit five-point step is stable for coefficients up to 1/4
        if not 0 <= self.diffusion <= 0.25:
            raise ValueError(f"diffusion must lie in [0, 0.25], got {self.diffusion}")
        # the generator visits every onset at every step
        if not 0 <= self.storm_rate <= 1:
            raise ValueError(f"storm_rate must lie in [0, 1], got {self.storm_rate}")
        for name in ("seasonal_amplitude", "diurnal_amplitude"):
            if not abs(getattr(self, name)) <= 10:
                raise ValueError(f"{name} must lie in [-10, 10], got {getattr(self, name)}")
        if not self.season_length_days >= 1:
            raise ValueError(f"season_length_days must be >= 1, got {self.season_length_days}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class Dataset:
    """Ordered field series at base-step spacing plus split tags and metadata.

    The generator and `read_grid_file` make float32 frames, the precision
    the file stores, each a view of one shared array. Code that computes
    from frames upcasts them or sums in float64, so a dataset of float64
    fields, the same values at twice the memory, gives the same bits.
    """

    spec: GridSpec
    fields: list
    splits: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        step = self.spec.base_step_hours
        ts = [f.timestamp_hours for f in self.fields]
        for a, b in zip(ts, ts[1:]):
            if b - a != step:
                raise ValueError(f"timestamps must increase by {step}h, got {a} -> {b}")
        if not self.splits:
            self.splits = {"train": (0, len(self.fields))}

    def __len__(self):
        return len(self.fields)

    @property
    def start_hours(self) -> int:
        return self.fields[0].timestamp_hours

    def index_of(self, t_hours: int) -> int:
        step = self.spec.base_step_hours
        off = t_hours - self.start_hours
        idx, rem = divmod(off, step)
        if rem != 0 or not (0 <= idx < len(self.fields)):
            raise IndexError(f"timestamp {t_hours}h not in dataset")
        return int(idx)

    def at(self, t_hours: int) -> GridField:
        return self.fields[self.index_of(t_hours)]

    @property
    def variable_names(self) -> list:
        """Each variable's name; var0, var1, ... when the metadata records none."""
        return self.meta.get("variables") or [f"var{v}" for v in range(self.spec.num_vars)]

    @property
    def season_length_days(self) -> int:
        """Length of the data's year in days; 365 when the metadata records none."""
        return int(self.meta.get("season_length_days") or 365)

    def window_starts(self, split: str, hours: int) -> range:
        """Indices of `split` whose state `hours` later still lies in the split.

        `hours` counts whole base steps (a remainder is dropped). With 0 hours
        this is the split itself. Raises ValueError when the split is missing
        or holds too few states to span `hours`.
        """
        if split not in self.splits:
            raise ValueError(f"the dataset has no {split} split")
        lo, hi = self.splits[split]
        starts = range(lo, hi - hours // self.spec.base_step_hours)
        if not starts:
            raise ValueError(f"the {split} split holds {hi - lo} states, too few to span {hours}h")
        return starts


# -- synthetic dynamics ---------------------------------------------------------

# Frames rendered in one array pass. The output bytes do not depend on it. At
# 32 frames a desk-grid chunk is 256 KiB. One array of all frames raised peak
# RSS on the finetune and rollout benchmarks by 6-8 MB, as glibc raises its
# mmap threshold to the largest block freed; 64-frame chunks, by 0.5 MB.
RENDER_CHUNK = 32


def _stepper(spec: GridSpec, velocities, kappa: float):
    """One step of the anomaly core on a (V, H, W) stack: advection, then diffusion.

    Advection is semi-Lagrangian with periodic linear interpolation in
    longitude; a whole-cell shift is a plain roll. Diffusion is one explicit
    five-point step, longitude periodic and latitude edges clamped. Both read
    their cells through flat index tables built here once.
    """
    V, H, W = spec.shape
    u = np.asarray(velocities, dtype=np.float64)[:, None, None]
    whole = np.floor(u)
    frac = u - whole
    v, i, j = np.indices((V, H, W))

    def flat(i, j):
        return (v * H + i) * W + j % W

    src = j - whole.astype(np.int64)  # the column a whole-cell shift moves here
    cols = np.stack([flat(i, src), flat(i, src - 1)])
    nbrs = np.stack([flat(i, j + 1), flat(i, j - 1),
                     flat(np.maximum(i - 1, 0), j), flat(np.minimum(i + 1, H - 1), j)])
    whole_cell = frac == 0.0
    blend, blend_all = not whole_cell.all(), not whole_cell.any()

    # in-place updates, each the same rounding as the plain expression
    def step(a: np.ndarray) -> np.ndarray:
        rolled, rolled_west = a.take(cols)
        adv = rolled
        if blend:
            mixed = (1.0 - frac) * rolled
            mixed += frac * rolled_west
            adv = mixed if blend_all else np.where(whole_cell, rolled, mixed)
        if kappa == 0.0:
            return adv
        lap, west, north, south = adv.take(nbrs)  # east first
        lap += west
        lap += north
        lap += south
        lap -= 4.0 * adv
        lap *= kappa
        lap += adv
        return lap

    return step


def _storm_bump(spec: GridSpec, lat_idx: float, lon_idx: float, width: float) -> np.ndarray:
    """Gaussian bump centred at a grid location, wrapping around in longitude."""
    H, W = spec.lat_points, spec.lon_points
    di = np.arange(H)[:, None] - lat_idx
    dj_raw = np.abs(np.arange(W)[None, :] - lon_idx)
    dj = np.minimum(dj_raw, W - dj_raw)
    return np.exp(-(di**2 + dj**2) / (2.0 * width**2))


def _seasonal_cycle(cfg: RegimeConfig, spec: GridSpec, t_hours: np.ndarray) -> np.ndarray:
    """Deterministic seasonal and diurnal waves (T, V, H, W) at the (T,) hours.

    Both cycles travel westward in longitude (a thermal-tide analogue), so
    their phase is readable from any single snapshot and the induced change
    of state stays a function of the observable field.
    """
    season_hours = cfg.season_length_days * HOURS_PER_DAY
    phase_season = (2.0 * np.pi * (t_hours % season_hours) / season_hours)[:, None, None]
    phase_day = (2.0 * np.pi * (t_hours % HOURS_PER_DAY) / HOURS_PER_DAY)[:, None, None]
    lat = np.radians(np.asarray(spec.lat_degrees))[:, None]
    lon_angle = 2.0 * np.pi * np.arange(spec.lon_points)[None, :] / spec.lon_points
    var = np.arange(spec.num_vars)[:, None]
    waves = (
        cfg.seasonal_amplitude
        * np.sin(phase_season - lon_angle + 0.5 * var)
    )[:, :, None, :] * np.sin(lat)
    waves += (
        cfg.diurnal_amplitude
        * np.sin(phase_day - lon_angle + 0.25 * var)
    )[:, :, None, :] * np.cos(lat)
    return waves


def generate_synthetic(
    spec: GridSpec,
    num_steps: int,
    seed: int,
    regime_cfg: RegimeConfig | None = None,
    splits: dict | None = None,
) -> Dataset:
    """Deterministic synthetic dataset; a pure function of (spec, seed, cfg).

    The anomaly core evolves all variables at once, one (V, H, W) array pass
    per step: advection then diffusion, with storm bursts injected at seeded
    onset times. Every RENDER_CHUNK frames go into one float64 (C, V, H, W)
    array, which takes the seasonal cycle, scales and means in place and is
    then rounded to float32; each field views one frame of the rounded chunk.
    The output bytes do not depend on the chunk size.
    """
    if num_steps < 2:
        raise ValueError(f"num_steps must be >= 2, got {num_steps}")
    cfg = regime_cfg or RegimeConfig()
    if spec.num_vars > len(VARIABLES):
        raise ValueError(f"the generator makes {len(VARIABLES)} variables, spec needs {spec.num_vars}")
    rng = np.random.default_rng(seed)
    H, W, V = spec.lat_points, spec.lon_points, spec.num_vars

    # smooth initial anomaly: low-wavenumber modes, periodic in longitude
    lon_phase = 2.0 * np.pi * np.arange(W) / W
    lat_axis = np.linspace(0.0, np.pi, H)
    anomaly = np.zeros((V, H, W))
    for v in range(V):
        for _ in range(INIT_MODES):
            k_lon = rng.integers(1, 4)
            k_lat = rng.integers(1, 3)
            amp = rng.normal(0.5, 0.2)
            ph_lon = rng.uniform(0, 2 * np.pi)
            ph_lat = rng.uniform(0, 2 * np.pi)
            anomaly[v] += amp * np.cos(k_lon * lon_phase[None, :] + ph_lon) * np.cos(
                k_lat * lat_axis[:, None] + ph_lat
            )

    # pre-draw storm schedule so regime structure is explicit in the metadata
    onsets = []
    n_onsets = rng.poisson(cfg.storm_rate * num_steps)
    for _ in range(n_onsets):
        onsets.append(
            {
                "step": int(rng.integers(1, num_steps)),
                "var": int(rng.integers(0, V)),
                "lat": float(rng.uniform(0, H - 1)),
                "lon": float(rng.uniform(0, W)),
                "sign": float(rng.choice([-1.0, 1.0])),
            }
        )
    onsets.sort(key=lambda o: o["step"])
    starting = [[] for _ in range(num_steps)]
    for o in onsets:
        starting[o["step"]].append(o)
    envelope = [np.sin(np.pi * (age + 1) / (STORM_DURATION_STEPS + 1))
                for age in range(STORM_DURATION_STEPS)]

    step = _stepper(spec, [cfg.zonal_velocity_cells[v % len(cfg.zonal_velocity_cells)]
                           for v in range(V)], cfg.diffusion)
    mean = np.array([m for _, m, _ in VARIABLES[:V]])[:, None, None]
    scale = np.array([s for _, _, s in VARIABLES[:V]])[:, None, None]
    hours = np.arange(num_steps) * spec.base_step_hours
    fields = []
    storms = []  # (onset, bump) of the storms under way, in onset order
    for t0 in range(0, num_steps, RENDER_CHUNK):
        t1 = min(t0 + RENDER_CHUNK, num_steps)
        chunk = np.empty((t1 - t0, V, H, W))
        for t in range(t0, t1):
            if t:
                anomaly = step(anomaly)
                storms = [s for s in storms if t - s[0]["step"] < STORM_DURATION_STEPS]
                storms += [(o, _storm_bump(spec, o["lat"], o["lon"], STORM_WIDTH_CELLS))
                           for o in starting[t]]
                for o, bump in storms:
                    anomaly[o["var"]] += (
                        o["sign"] * STORM_AMPLITUDE * envelope[t - o["step"]] / STORM_DURATION_STEPS
                    ) * bump
            chunk[t - t0] = anomaly
        chunk += _seasonal_cycle(cfg, spec, hours[t0:t1])
        chunk *= scale
        chunk += mean
        # datasets live at float32 precision (the storage format), internals at float64
        frames = chunk.astype(np.float32)
        fields += [GridField(spec, frame, int(h)) for frame, h in zip(frames, hours[t0:t1])]

    meta = {
        "seed": int(seed),
        "generator": cfg.to_dict(),
        "variables": [name for name, _, _ in VARIABLES[:V]],
        "storm_onsets": [o["step"] for o in onsets],
        "season_length_days": cfg.season_length_days,
    }
    return Dataset(spec, fields, splits=dict(splits) if splits else {}, meta=meta)


def default_splits(num_steps: int, train: float = 0.7, val: float = 0.1) -> dict:
    """Contiguous train/val/test index ranges."""
    n_train = int(num_steps * train)
    n_val = int(num_steps * val)
    return {
        "train": (0, n_train),
        "val": (n_train, n_train + n_val),
        "test": (n_train + n_val, num_steps),
    }


# -- binary grid file -------------------------------------------------------------


def write_grid_file(path, dataset: Dataset, provenance: dict | None = None):
    """Write the dataset and its JSON sidecar manifest, each atomically."""
    spec = dataset.spec
    header = struct.pack(
        "<4sHHHHII",
        GRID_MAGIC,
        GRID_VERSION,
        spec.num_vars,
        spec.lat_points,
        spec.lon_points,
        len(dataset.fields),
        spec.base_step_hours,
    )
    frames = np.empty((len(dataset.fields), *spec.shape), dtype="<f4")
    np.stack([f.values for f in dataset.fields], out=frames)
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asarray(spec.lat_degrees, dtype="<f8"))
        fh.write(frames)

    manifest = {
        "format": {"magic": GRID_MAGIC.decode(), "version": GRID_VERSION},
        "variables": dataset.variable_names,
        "splits": {k: list(v) for k, v in dataset.splits.items()},
        "start_hours": dataset.start_hours,
        "seed": dataset.meta.get("seed"),
        "generator": dataset.meta.get("generator"),
        "season_length_days": dataset.meta.get("season_length_days"),
        "storm_onsets": dataset.meta.get("storm_onsets"),
    }
    if provenance:
        manifest["provenance"] = provenance
    with atomic_open(str(path) + ".json") as fh:
        json.dump(manifest, fh, indent=2)


def _read_manifest(path, num_steps: int, num_vars: int) -> dict:
    """The grid file's JSON sidecar manifest, {} when absent; its splits must lie
    within the file's frames, and its variables, when given, name each of the
    file's variables."""
    manifest_path = Path(str(path) + ".json")
    if not manifest_path.exists():
        return {}
    try:
        manifest = json.loads(manifest_path.read_text())
        manifest["start_hours"] = int(manifest.get("start_hours", 0))
        splits = {k: (int(lo), int(hi)) for k, (lo, hi) in manifest.get("splits", {}).items()}
        for k, (lo, hi) in splits.items():
            if not 0 <= lo <= hi <= num_steps:
                raise ValueError(f"split {k} [{lo}, {hi}) outside the file's {num_steps} frames")
        manifest["splits"] = splits
        names = manifest.get("variables")
        if names is not None and not (isinstance(names, list) and len(names) == num_vars
                                      and all(isinstance(n, str) for n in names)):
            raise ValueError(f"variables must be null or a list of {num_vars} names, got {names!r}")
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise GridFileError(f"malformed manifest {manifest_path}: {exc}") from exc
    return manifest


def read_grid_file(path) -> Dataset:
    """Read a grid file (and its sidecar manifest when present) back to a Dataset.

    The file is read into one buffer, and the dataset's float32 frames are
    views of its payload: no float64 copy is made. Any malformed input, in
    the file or its manifest, raises GridFileError naming the file."""

    def bad(msg: str) -> GridFileError:
        return GridFileError(f"grid file {path}: {msg}")

    blob = np.fromfile(path, dtype=np.uint8)
    if blob[:4].tobytes() != GRID_MAGIC:
        raise bad(f"bad magic {blob[:4].tobytes()!r} at offset 0")
    header_len = 4 + struct.calcsize("<HHHHII")
    if len(blob) < header_len:
        raise bad(f"header truncated at offset {len(blob)}")
    version, V, H, W, num_steps, base_step = struct.unpack_from("<HHHHII", blob, 4)
    if version != GRID_VERSION:
        raise bad(f"unsupported version {version} at offset 4")
    if num_steps < 1:
        raise bad(f"header declares no frames at offset {header_len - 8}")
    off = header_len
    lat_bytes = 8 * H
    if len(blob) < off + lat_bytes:
        raise bad(f"latitude block truncated at offset {off}")
    lats = np.frombuffer(blob, dtype="<f8", count=H, offset=off)
    off += lat_bytes
    try:
        spec = GridSpec(V, H, W, tuple(lats), base_step)
    except ValueError as exc:
        raise bad(f"bad grid header at offset 4: {exc}") from exc
    frame_len = 4 * V * H * W
    need = off + frame_len * num_steps
    if len(blob) < need:
        raise bad(
            f"payload truncated at offset {len(blob)}: header declares {num_steps} frames "
            f"({need} bytes total)"
        )
    if len(blob) > need:
        raise bad(f"{len(blob) - need} trailing bytes at offset {need}")

    manifest = _read_manifest(path, num_steps, V)
    start_hours = manifest.get("start_hours", 0)
    values = blob[off:].view("<f4").reshape(num_steps, V, H, W)
    # a float64 sum of float32 values cannot overflow, so it is finite exactly
    # when every value of its frame is
    finite = np.isfinite(values.sum(axis=(1, 2, 3), dtype=np.float64))
    if not finite.all():
        t = int(np.argmin(finite))
        raise bad(f"non-finite value in frame {t} at offset {off + t * frame_len}")
    fields = [GridField(spec, values[t], start_hours + t * base_step) for t in range(num_steps)]

    splits = manifest.get("splits", {})
    meta = {
        "variables": manifest.get("variables"),
        "seed": manifest.get("seed"),
        "generator": manifest.get("generator"),
        "season_length_days": manifest.get("season_length_days"),
        "storm_onsets": manifest.get("storm_onsets"),
    }
    return Dataset(spec, fields, splits=splits, meta=meta)
