"""Property tests: the grid and checkpoint readers under damaged input, and
the patch layout round trip."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rollcast.diffcore import CheckpointError, load_checkpoint, save_checkpoint
from rollcast.encoding import patchify, unpatchify
from rollcast.gridio import (
    Dataset,
    GridFileError,
    GridSpec,
    default_splits,
    generate_synthetic,
    read_grid_file,
    write_grid_file,
)

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# one damage to a byte string: cut it short, flip one bit, or append bytes
DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
)


def damage(blob: bytes, how) -> bytes:
    if how[0] == "truncate":
        return blob[: int(how[1] * len(blob))]
    if how[0] == "flip":
        out = bytearray(blob)
        out[int(how[1] * len(blob))] ^= 1 << how[2]
        return bytes(out)
    return blob + how[1]


@pytest.fixture(scope="module")
def grid_files(tmp_path_factory):
    """A small valid grid file's bytes and its manifest's bytes."""
    path = tmp_path_factory.mktemp("grid") / "small.grid"
    ds = generate_synthetic(GridSpec.cell_centered(2, 2, 4), 6, seed=3, splits=default_splits(6))
    write_grid_file(path, ds)
    return path.read_bytes(), (path.parent / "small.grid.json").read_bytes()


@FUZZ
@given(how=DAMAGE, in_manifest=st.booleans())
def test_damaged_grid_file_reads_or_raises_grid_file_error(tmp_path, grid_files, how, in_manifest):
    grid, manifest = grid_files
    if in_manifest:
        manifest = damage(manifest, how)
    else:
        grid = damage(grid, how)
    path = tmp_path / "fuzz.grid"
    path.write_bytes(grid)
    (tmp_path / "fuzz.grid.json").write_bytes(manifest)
    try:
        ds = read_grid_file(path)
    except GridFileError:
        return
    assert isinstance(ds, Dataset)
    assert all(np.all(np.isfinite(f.values)) for f in ds.fields)
    assert all(0 <= lo <= hi <= len(ds) for lo, hi in ds.splits.values())


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "small.ckpt"
    rng = np.random.default_rng(4)
    save_checkpoint(path, {"w": rng.normal(size=(2, 3)), "b": rng.normal(size=(3,)), "s": np.array(1.5)})
    return path.read_bytes()


@FUZZ
@given(how=DAMAGE)
def test_damaged_checkpoint_raises_checkpoint_error(tmp_path, checkpoint_bytes, how):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(damage(checkpoint_bytes, how))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@settings(max_examples=60, deadline=None)
@given(V=st.integers(1, 3), h=st.integers(1, 3), w=st.integers(1, 4), patch=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_patchify_unpatchify_round_trip(V, h, w, patch, seed):
    shape = (V, h * patch, w * patch)
    x = np.random.default_rng(seed).normal(size=shape)
    tokens = patchify(x, patch)
    assert tokens.shape == (h * w, V * patch * patch)
    assert unpatchify(tokens, shape, patch).tobytes() == x.tobytes()
