"""Synthetic generator determinism and grid-file round trips."""

import hashlib
import json
import tracemalloc

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


# -- pinned output bytes ------------------------------------------------------------

DESK_SPEC = GridSpec.cell_centered(2, 16, 32)


def _digest(ds) -> str:
    """SHA-256 of a dataset's float32 frames, its timestamps and its metadata."""
    h = hashlib.sha256()
    h.update(np.stack([f.values for f in ds.fields]).astype("<f4").tobytes())
    h.update(np.array([f.timestamp_hours for f in ds.fields], dtype="<i8").tobytes())
    h.update(json.dumps(ds.meta, sort_keys=True).encode())
    return h.hexdigest()


# (spec, steps, seed, regime, digest). The digests pin the generator's output
# bytes, so a rewrite of the generator must reproduce them exactly. They follow
# the rounding of numpy's sin and exp, which a numpy build may change.
GOLDEN = {
    "desk": (DESK_SPEC, 2000, 0, RegimeConfig(),
        "c8633f4cd435af6ddf8521a2f0a1fc826e76abaa5caab3d6a629160d2c7831c0"),
    "whole_cell_no_diffusion": (
        SMALL_SPEC, 120, 41, RegimeConfig(zonal_velocity_cells=(1.0, -2.0), diffusion=0.0),
        "a7640f20fd897cbf9fa19173dd3c46f94bcd528770c9c9a47318b6ccc5ba2dfd"),
    # onsets at steps 37, 38 and 38 of 40: storms cut short by the last step
    "storms_near_the_end": (
        GridSpec.cell_centered(2, 8, 16, base_step_hours=3), 40, 4,
        RegimeConfig(zonal_velocity_cells=(0.0, 1.5), storm_rate=0.3, seasonal_amplitude=-0.8),
        "252d8c58bcfac40926df4e3c6803169afea720029e69d7b0f0ef07d5446ee330"),
    "steps_2": (DESK_SPEC, 2, 4, RegimeConfig(),
        "f3f00e433bd41388dfd50153eb241af5c8d70d9ed2e143c46db07623c3788fea"),
    "steps_32": (DESK_SPEC, 32, 4, RegimeConfig(),
        "9b8e2c2f81bbf7831632433e8f3f8b980e0753a38ae2682891c4a68d7044824d"),
    "steps_33": (DESK_SPEC, 33, 4, RegimeConfig(),
        "cb4fe1f58bc69f5c14bfa83a144e5ab48a48b76059a7d837b1c0cc54dcc18e1d"),
    "steps_64": (DESK_SPEC, 64, 4, RegimeConfig(),
        "94bc7a8d6aca4f86a36ffe8e51f22e770e73c0fad2c93bb28896f3aa5ba2e8e4"),
    "steps_65": (DESK_SPEC, 65, 4, RegimeConfig(),
        "2b48fa7ff7a24bca87c94c23069d19cec2f18625ec211f72cfa44c994b8e49fd"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_generator_and_grid_file_keep_their_pinned_bytes(case, tmp_path):
    spec, steps, seed, cfg, digest = GOLDEN[case]
    ds = generate_synthetic(spec, steps, seed=seed, regime_cfg=cfg)
    assert all(f.values.dtype == np.float32 for f in ds.fields)
    assert _digest(ds) == digest
    write_grid_file(tmp_path / "data.grid", ds)
    back = read_grid_file(tmp_path / "data.grid")
    assert all(f.values.dtype == np.float32 for f in back.fields)
    assert _digest(back) == digest


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_output_bytes_do_not_depend_on_the_render_chunk(chunk, monkeypatch):
    spec, steps, seed, cfg, digest = GOLDEN["storms_near_the_end"]
    monkeypatch.setattr(gridio, "RENDER_CHUNK", chunk)
    assert _digest(generate_synthetic(spec, steps, seed=seed, regime_cfg=cfg)) == digest


def test_generator_peak_memory_stays_near_its_frames():
    steps = 2000
    tracemalloc.start()
    try:
        generate_synthetic(DESK_SPEC, steps, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    frame_bytes = steps * int(np.prod(DESK_SPEC.shape)) * 4  # float32 frames
    assert peak <= 1.5 * frame_bytes, f"peak {peak / 2**20:.1f} MiB"


def test_reading_the_desk_file_peaks_near_its_float32_payload(tmp_path):
    """The frames are views of the one buffer the file is read into."""
    steps = 2000
    path = tmp_path / "desk.grid"
    write_grid_file(path, generate_synthetic(DESK_SPEC, steps, seed=0))
    tracemalloc.start()
    try:
        ds = read_grid_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    payload = steps * int(np.prod(DESK_SPEC.shape)) * 4
    assert len(ds) == steps
    assert peak <= 1.25 * payload, f"peak {peak / 2**20:.1f} MiB"


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
    arr = np.stack([f.values for f in ds.fields])  # (T, V, H, W)
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


def test_manifest_variables_name_each_variable_or_fall_back(tmp_path):
    ds = generate_synthetic(SMALL_SPEC, 5, seed=0)
    path = tmp_path / "data.grid"
    write_grid_file(path, ds)
    manifest = json.loads((tmp_path / "data.grid.json").read_text())
    assert read_grid_file(path).variable_names == manifest["variables"]
    for names in (None, "absent"):
        edited = {k: v for k, v in manifest.items() if k != "variables"}
        if names != "absent":
            edited["variables"] = names
        (tmp_path / "data.grid.json").write_text(json.dumps(edited))
        assert read_grid_file(path).variable_names == ["var0", "var1"]
    # test_cli.py::test_exit_codes runs ["only_one"], 5 and ["a", 7] through the CLI
    for names in (["a", "b", "c"], [], "ab"):
        (tmp_path / "data.grid.json").write_text(json.dumps({**manifest, "variables": names}))
        with pytest.raises(GridFileError, match=r"data\.grid\.json.*2 names"):
            read_grid_file(path)


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
