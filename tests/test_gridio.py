"""Synthetic generator determinism and grid-file round trips."""

import numpy as np
import pytest

from rollcast import gridio
from rollcast.gridio import (
    GridField,
    GridFileError,
    GridSpec,
    RegimeConfig,
    generate_synthetic,
    read_grid_file,
    write_grid_file,
)

SMALL_SPEC = GridSpec.cell_centered(2, 8, 16)


def quiet_cfg(**overrides):
    """Regime with no storms and no seasonal forcing unless overridden."""
    base = dict(storm_rate=0.0, seasonal_amplitude=0.0, diurnal_amplitude=0.0)
    base.update(overrides)
    return RegimeConfig(**base)


# -- independent single-step oracle ------------------------------------------------


def advect_oracle(plane, shift):
    """Per-cell semi-Lagrangian advection, written independently of the generator."""
    H, W = plane.shape
    out = np.zeros_like(plane)
    for i in range(H):
        for j in range(W):
            src = j - shift
            j0 = int(np.floor(src))
            frac = src - j0
            out[i, j] = (1 - frac) * plane[i, j0 % W] + frac * plane[i, (j0 + 1) % W]
    return out


def diffuse_oracle(plane, kappa):
    H, W = plane.shape
    out = np.zeros_like(plane)
    for i in range(H):
        for j in range(W):
            north = plane[max(i - 1, 0), j]
            south = plane[min(i + 1, H - 1), j]
            east = plane[i, (j + 1) % W]
            west = plane[i, (j - 1) % W]
            out[i, j] = plane[i, j] + kappa * (east + west + north + south - 4 * plane[i, j])
    return out


def test_zero_storm_step_matches_direct_advection_diffusion():
    cfg = quiet_cfg(zonal_velocity_cells=(0.7, 1.25), diffusion=0.05)
    ds = generate_synthetic(SMALL_SPEC, 20, seed=3, regime_cfg=cfg)
    for t in (1, 7, 19):
        prev, cur = ds.fields[t - 1].values, ds.fields[t].values
        for v in range(SMALL_SPEC.num_vars):
            shift = cfg.zonal_velocity_cells[v]
            expected = diffuse_oracle(advect_oracle(prev[v], shift), cfg.diffusion)
            np.testing.assert_allclose(cur[v], expected, atol=1e-3)


# -- determinism and shape contracts ------------------------------------------------


def test_same_spec_and_seed_give_byte_identical_datasets():
    a = generate_synthetic(SMALL_SPEC, 50, seed=11)
    b = generate_synthetic(SMALL_SPEC, 50, seed=11)
    for fa, fb in zip(a.fields, b.fields):
        assert fa.values.tobytes() == fb.values.tobytes()
        assert fa.timestamp_hours == fb.timestamp_hours
    c = generate_synthetic(SMALL_SPEC, 50, seed=12)
    assert any(
        fa.values.tobytes() != fc.values.tobytes() for fa, fc in zip(a.fields, c.fields)
    )


def test_default_scale_dataset_shape_contract():
    spec = GridSpec.cell_centered(2, 16, 32)
    ds = generate_synthetic(spec, 400, seed=0)
    assert len(ds) == 400
    ts = [f.timestamp_hours for f in ds.fields]
    assert all(b - a == 6 for a, b in zip(ts, ts[1:]))
    assert all(f.values.shape == (2, 16, 32) for f in ds.fields)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError, match="decreasing"):
        GridSpec(1, 3, 4, (10.0, 20.0, 30.0))
    with pytest.raises(ValueError, match="num_vars"):
        GridSpec(0, 2, 4, (45.0, -45.0))
    with pytest.raises(ValueError):
        generate_synthetic(SMALL_SPEC, 1, seed=0)
    with pytest.raises(ValueError, match="variables"):
        generate_synthetic(
            GridSpec.cell_centered(3, 8, 16), 10, seed=0, regime_cfg=RegimeConfig()
        )


def test_longitude_periodicity_no_seam_artifact():
    ds = generate_synthetic(SMALL_SPEC, 300, seed=5)
    arr = ds.values_array()  # (T, V, H, W)
    W = arr.shape[-1]

    def corr(j, k):
        x = arr[..., j].ravel()
        y = arr[..., k].ravel()
        return np.corrcoef(x, y)[0, 1]

    interior = [corr(j, j + 1) for j in range(W - 1)]
    seam = corr(W - 1, 0)
    assert min(interior) - 0.05 <= seam <= max(interior) + 0.05


# -- binary file round trip ----------------------------------------------------------


def test_grid_file_roundtrip_is_identity(tmp_path):
    ds = generate_synthetic(SMALL_SPEC, 25, seed=9, splits=gridio.default_splits(25))
    path = tmp_path / "data.grid"
    write_grid_file(path, ds)
    back = read_grid_file(path)
    assert back.spec == ds.spec
    assert back.splits == ds.splits
    assert len(back) == len(ds)
    for fa, fb in zip(ds.fields, back.fields):
        assert fa.timestamp_hours == fb.timestamp_hours
        np.testing.assert_array_equal(fa.values, fb.values)


def test_grid_file_wrong_magic_reports_offset_zero(tmp_path):
    ds = generate_synthetic(SMALL_SPEC, 5, seed=0)
    path = tmp_path / "data.grid"
    write_grid_file(path, ds)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    bad = tmp_path / "bad.grid"
    bad.write_bytes(bytes(blob))
    with pytest.raises(GridFileError, match="offset 0"):
        read_grid_file(bad)


def test_grid_file_truncation_detected(tmp_path):
    ds = generate_synthetic(SMALL_SPEC, 5, seed=0)
    path = tmp_path / "data.grid"
    write_grid_file(path, ds)
    blob = path.read_bytes()
    cut = tmp_path / "cut.grid"
    cut.write_bytes(blob[: len(blob) - 100])
    # keep the sidecar consistent so the failure is the payload, not the manifest
    (tmp_path / "cut.grid.json").write_text((tmp_path / "data.grid.json").read_text())
    with pytest.raises(GridFileError, match="truncat"):
        read_grid_file(cut)


def test_grid_file_names_the_first_non_finite_frame_and_its_offset(tmp_path):
    ds = generate_synthetic(SMALL_SPEC, 5, seed=0)
    path = tmp_path / "data.grid"
    write_grid_file(path, ds)
    V, H, W = SMALL_SPEC.shape
    payload = 4 + 2 * 4 + 2 * 4 + 8 * H  # magic, header, latitudes
    frame = 4 * V * H * W
    blob = bytearray(path.read_bytes())
    values = np.frombuffer(blob, dtype="<f4", offset=payload).reshape(5, V, H, W)
    values[4, 0, 0, 0] = np.inf
    values[2, 1, 3, 7] = np.nan
    path.write_bytes(bytes(blob))
    with pytest.raises(GridFileError, match=f"non-finite value in frame 2 at offset {payload + 2 * frame}$"):
        read_grid_file(path)


def test_grid_field_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        GridField(SMALL_SPEC, np.zeros((1, 2, 3)), 0)
    bad = np.zeros(SMALL_SPEC.shape)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        GridField(SMALL_SPEC, bad, 0)


# -- split windows -------------------------------------------------------------------


def _split_dataset():
    """12 states at 6h steps: train [0, 8), test [8, 12)."""
    return generate_synthetic(SMALL_SPEC, 12, seed=2, splits={"train": (0, 8), "test": (8, 12)})


def test_window_starts_exact_fit_reaches_the_last_state_of_the_split():
    ds = _split_dataset()
    # four test states span 18h exactly: only the first start has room
    assert ds.window_starts("test", 18) == range(8, 9)
    assert ds.window_starts("test", 6) == range(8, 11)
    # 0h is the split itself
    assert ds.window_starts("train", 0) == range(0, 8)
    for i in ds.window_starts("train", 24):
        assert i + 24 // 6 < 8


def test_window_starts_one_state_short_raises():
    ds = _split_dataset()
    with pytest.raises(ValueError, match="the test split holds 4 states, too few to span 24h"):
        ds.window_starts("test", 24)


def test_window_starts_missing_split_raises():
    ds = _split_dataset()
    with pytest.raises(ValueError, match="no val split"):
        ds.window_starts("val", 6)


def test_season_length_days_comes_from_the_metadata():
    ds = _split_dataset()
    assert ds.season_length_days == RegimeConfig().season_length_days
    ds.meta.pop("season_length_days")
    assert ds.season_length_days == 365
