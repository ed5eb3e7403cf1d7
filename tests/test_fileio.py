"""Atomic writes: a write that fails leaves the old file as it was."""

import os

import numpy as np
import pytest

from rollcast.config import write_csv
from rollcast.diffcore import save_checkpoint
from rollcast.fileio import atomic_open


def test_failed_write_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a"], [[1], [2]], {"seed": 0})
    old = path.read_bytes()

    def rows():
        yield [3]
        raise RuntimeError("rows ran out partway")

    with pytest.raises(RuntimeError, match="partway"):
        write_csv(path, ["a"], rows(), {"seed": 1})
    assert path.read_bytes() == old

    with pytest.raises(RuntimeError, match="partway"):
        with atomic_open(path, "wb") as fh:
            fh.write(b"half a file")
            fh.flush()
            raise RuntimeError("failed partway")
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_failed_rename_leaves_the_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((2, 2))})
    old = path.read_bytes()

    def no_rename(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", no_rename)
    with pytest.raises(OSError, match="rename failed"):
        save_checkpoint(path, {"w": np.zeros((2, 2))})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_successful_write_replaces_the_file(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"old")
    with atomic_open(path, "wb") as fh:
        fh.write(b"new contents")
    assert path.read_bytes() == b"new contents"
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
