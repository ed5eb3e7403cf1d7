"""End-to-end CLI: all subcommands, determinism, resume, and exit codes."""

import dataclasses
import json
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rollcast.cli import load_model_checkpoint, main, save_dqn_checkpoint
from rollcast.config import RunConfig, apply_overrides, load_config, provenance, read_csv
from rollcast.gridio import read_grid_file
from rollcast.model import ForecastModel, PretrainTrainer
from rollcast.diffcore import load_checkpoint, save_checkpoint
from rollcast.scheduler import DQN, DQNConfig

TINY = {
    "seed": 5,
    "data": {
        "num_vars": 2,
        "lat_points": 8,
        "lon_points": 16,
        "steps": 120,
        "train_frac": 0.7,
        "val_frac": 0.1,
        "regime": {"season_length_days": 10},
    },
    "model": {
        "embed_dim": 16,
        "num_blocks": 1,
        "num_heads": 2,
        "patch_size": 4,
        "moe_num_private": 2,
        "moe_top_k": 1,
        "moe_alpha": 0.01,
    },
    "pretrain": {"steps": 8, "batch_size": 4, "lr": 0.003},
    "dqn": {"sync_every": 5, "batch_size": 8, "season_length_days": 10},
    "finetune": {
        "epochs": 1,
        "episodes_per_epoch": 3,
        "iterations_per_epoch": 10,
        "finetune_episodes": 2,
        "t_max": 2,
        "lead_times": [24, 36],
    },
    "eval": {"leads": [6, 24], "episodes": 4, "policy": "greedy"},
    "compare": {"lead": 48, "episodes": 5},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(root / "data.grid")]) == 0
    assert (
        main(
            [
                "pretrain", "--config", str(cfg_path),
                "--data", str(root / "data.grid"),
                "--out-dir", str(root / "pre"),
            ]
        )
        == 0
    )
    return root, cfg_path


def test_gen_data_deterministic_and_seed_sensitive(tmp_path, workdir):
    root, cfg_path = workdir
    out_a = tmp_path / "a.grid"
    out_b = tmp_path / "b.grid"
    out_c = tmp_path / "c.grid"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert main(["gen-data", "--config", str(cfg_path), "--seed", "99", "--out", str(out_c)]) == 0
    assert out_a.read_bytes() != out_c.read_bytes()


def test_gen_data_steps_override_lands_in_header(tmp_path, workdir):
    _, cfg_path = workdir
    out = tmp_path / "steps.grid"
    assert main([
        "gen-data", "--config", str(cfg_path), "--set", "data.steps=50", "--out", str(out)
    ]) == 0
    blob = out.read_bytes()
    num_steps = struct.unpack_from("<I", blob, 12)[0]
    assert num_steps == 50


def test_print_config_applies_overrides(capsys, workdir):
    _, cfg_path = workdir
    assert main([
        "pe-viz", "--config", str(cfg_path), "--set", "seed=123", "--print-config",
        "--out-dir", "/nonexistent-not-used",
    ]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["seed"] == 123
    assert dumped["pretrain"]["steps"] == 8


def test_pretrain_outputs_and_training_csv_schema(workdir):
    root, _ = workdir
    pre = root / "pre"
    assert (pre / "model.ckpt").exists()
    assert (pre / "model.ckpt.meta.json").exists()
    prov, header, rows = read_csv(pre / "training.csv")
    assert header == ["step", "l_delta", "aux1", "aux2", "total"]
    assert len(rows) == TINY["pretrain"]["steps"]
    assert prov["seed"] == 5
    for row in rows:
        assert np.isfinite(float(row[4]))
    summary = json.loads((pre / "pretrain_summary.json").read_text())
    assert set(summary["per_interval"]) == {"6", "12", "24"}
    for entry in summary["per_interval"].values():
        assert entry["persistence_loss"] > 0


def test_pretrain_seeded_runs_are_identical(tmp_path, workdir):
    root, cfg_path = workdir
    for d in ("r1", "r2"):
        assert (
            main(
                [
                    "pretrain", "--config", str(cfg_path),
                    "--data", str(root / "data.grid"),
                    "--out-dir", str(tmp_path / d),
                ]
            )
            == 0
        )
    a = (tmp_path / "r1" / "training.csv").read_bytes()
    b = (tmp_path / "r2" / "training.csv").read_bytes()
    assert a == b
    assert (tmp_path / "r1" / "model.ckpt").read_bytes() == (tmp_path / "r2" / "model.ckpt").read_bytes()


def test_pretrain_router_csv_takes_every_block_from_the_training_forward(tmp_path, workdir):
    root, cfg_path = workdir
    sets = ["pretrain.steps=11", "model.num_blocks=2"]
    outs = {}
    for flags in ([], ["--router-csv"]):
        out = tmp_path / ("router" if flags else "plain")
        assert main([
            "pretrain", "--config", str(cfg_path), *[a for v in sets for a in ("--set", v)],
            "--data", str(root / "data.grid"), "--out-dir", str(out), *flags,
        ]) == 0
        outs[bool(flags)] = out
    # the telemetry leaves training as it was
    assert (outs[True] / "training.csv").read_bytes() == (outs[False] / "training.csv").read_bytes()
    assert not (outs[False] / "router.csv").exists()

    prov, header, rows = read_csv(outs[True] / "router.csv")
    assert header == ["step", "block", "interval_hours", "expert_0", "expert_1"]
    cfg = apply_overrides(load_config(cfg_path), sets)
    assert prov == provenance(cfg)
    ds = read_grid_file(root / "data.grid")
    model = ForecastModel.from_dataset(cfg.model, ds, seed=cfg.seed)
    trainer = PretrainTrainer(model, ds, cfg.pretrain)
    got = [tuple(int(x) for x in row) for row in rows]
    # one row per block and interval present in the batch, every 10 steps
    expected = []
    for step in (0, 10):
        per_interval = Counter(d for _, _, d in trainer.sample_batch(step))
        expected += [(step, block, d, per_interval[d] * model.num_tokens * cfg.model.moe_top_k)
                     for d in sorted(per_interval) for block in (0, 1)]
    assert [(r[0], r[1], r[2], sum(r[3:])) for r in got] == expected
    # step 0's counts are those of the training forward itself
    step0 = [(0, block, d, *counts) for d, block, counts in trainer.step(0)["usage"]]
    assert [r for r in got if r[0] == 0] == step0


def test_pretrain_resume_matches_uninterrupted(tmp_path, workdir):
    root, cfg_path = workdir
    # uninterrupted run with a write-through checkpoint halfway
    full_dir = tmp_path / "full"
    assert main([
        "pretrain", "--config", str(cfg_path), "--set", "pretrain.checkpoint_every=4",
        "--data", str(root / "data.grid"), "--out-dir", str(full_dir),
    ]) == 0
    # first leg is interrupted at step 4, second leg resumes to 8
    leg1 = tmp_path / "leg1"
    assert main([
        "pretrain", "--config", str(cfg_path), "--stop-after", "4",
        "--data", str(root / "data.grid"), "--out-dir", str(leg1),
    ]) == 0
    leg2 = tmp_path / "leg2"
    assert main([
        "pretrain", "--config", str(cfg_path),
        "--data", str(root / "data.grid"), "--out-dir", str(leg2),
        "--resume", str(leg1 / "model.ckpt"),
    ]) == 0
    _, _, full_rows = read_csv(full_dir / "training.csv")
    _, _, resumed_rows = read_csv(leg2 / "training.csv")
    assert resumed_rows == full_rows[4:]
    assert (full_dir / "model.ckpt").read_bytes() == (leg2 / "model.ckpt").read_bytes()


def test_finetune_eval_compare_pipeline(workdir, tmp_path):
    root, cfg_path = workdir
    fin = root / "fin"
    assert (
        main(
            [
                "finetune", "--config", str(cfg_path),
                "--data", str(root / "data.grid"),
                "--checkpoint", str(root / "pre" / "model.ckpt"),
                "--out-dir", str(fin),
            ]
        )
        == 0
    )
    assert (fin / "model_finetuned.ckpt").exists() and (fin / "dqn.ckpt").exists()
    # the sidecar records every DQN config field of the run
    dqn_meta = json.loads((fin / "dqn.ckpt.meta.json").read_text())
    expected_dqn = dataclasses.asdict(DQNConfig(**TINY["dqn"], seed=TINY["seed"]))
    assert dqn_meta["dqn_config"] == expected_dqn
    # head fine-tuning leaves the frozen embedding the DQN was trained on alone
    finetuned, _ = load_model_checkpoint(fin / "model_finetuned.ckpt")
    fingerprint = DQN(finetuned, DQNConfig()).q_main.weather.fingerprint()
    assert dqn_meta["forecaster_fingerprint"] == fingerprint
    prov, header, rows = read_csv(fin / "episodes.csv")
    assert header == [
        "episode", "epoch", "t0_hours", "lead_hours", "intervals", "rewards", "return", "epsilon",
    ]
    assert len(rows) == 3
    for row in rows:
        intervals = [int(x) for x in row[4].split(";")]
        assert sum(intervals) == int(row[3])
        rewards = [float(x) for x in row[5].split(";")]
        assert len(rewards) == len(intervals)
        # fields carry 6 decimals, so the sum can be off by rounding only
        assert abs(sum(rewards) - float(row[6])) < 1e-5 * max(1, len(rewards))

    # eval with fixed policy
    eval_csv = tmp_path / "eval.csv"
    assert (
        main(
            [
                "eval", "--config", str(cfg_path),
                "--data", str(root / "data.grid"),
                "--checkpoint", str(fin / "model_finetuned.ckpt"),
                "--out", str(eval_csv),
            ]
        )
        == 0
    )
    _, header, rows = read_csv(eval_csv)
    assert header == ["variable", "lead_hours", "rmse", "acc"]
    assert len(rows) == 2 * 2  # two variables x two leads
    names = {r[0] for r in rows}
    assert names == {"temperature", "zonal_wind"}
    for r in rows:
        assert float(r[2]) >= 0.0
        assert -1.0 <= float(r[3]) <= 1.0

    # compare without dqn: no adaptive row; with dqn: adaptive row present
    cmp_a = tmp_path / "cmp_a.csv"
    assert (
        main(
            [
                "compare-rollouts", "--config", str(cfg_path),
                "--data", str(root / "data.grid"),
                "--checkpoint", str(fin / "model_finetuned.ckpt"),
                "--out", str(cmp_a),
            ]
        )
        == 0
    )
    _, header_a, rows_a = read_csv(cmp_a)
    assert [r[0] for r in rows_a] == ["naive", "greedy", "random"]
    assert header_a[:2] == ["policy", "lead_hours"]
    assert "rmse_temperature" in header_a and "mean_return" in header_a

    cmp_b = tmp_path / "cmp_b.csv"
    assert (
        main(
            [
                "compare-rollouts", "--config", str(cfg_path),
                "--data", str(root / "data.grid"),
                "--checkpoint", str(fin / "model_finetuned.ckpt"),
                "--dqn", str(fin / "dqn.ckpt"),
                "--out", str(cmp_b),
            ]
        )
        == 0
    )
    _, _, rows_b = read_csv(cmp_b)
    assert [r[0] for r in rows_b] == ["naive", "greedy", "random", "adaptive"]
    # identical episode sets: fixed policies unchanged by the dqn flag
    assert [r[1:] for r in rows_a] == [r[1:] for r in rows_b[:3]]


def test_pe_viz_matrices(tmp_path, workdir):
    _, cfg_path = workdir
    out = tmp_path / "pe"
    assert main([
        "pe-viz", "--config", str(cfg_path), "--height-tokens", "3",
        "--width-tokens", "8", "--dim", "16", "--out-dir", str(out),
    ]) == 0
    _, header, ring_rows = read_csv(out / "ring_similarity.csv")
    _, _, conv_rows = read_csv(out / "conventional_similarity.csv")
    L = 24
    assert len(header) == L and len(ring_rows) == L and len(conv_rows) == L
    ring = np.array([[float(x) for x in row] for row in ring_rows])
    conv = np.array([[float(x) for x in row] for row in conv_rows])
    # ring: circular along the longitude axis of row 0 of the token grid
    w = 8
    for a in range(w):
        for b in range(w):
            d = min(abs(a - b), w - abs(a - b))
            assert abs(ring[a, b] - ring[0, d]) < 1e-9
    # conventional: flat-index table is not circular
    assert conv[0, w - 1] < conv[0, 1]


def test_exit_codes(tmp_path, workdir):
    root, cfg_path = workdir
    # 2: config error (unknown key)
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"nope": 1}))
    assert main(["gen-data", "--config", str(bad_cfg), "--out", str(tmp_path / "x.grid")]) == 2
    # 2: bad override path
    assert main([
        "gen-data", "--config", str(cfg_path), "--set", "data.nope=1",
        "--out", str(tmp_path / "y.grid"),
    ]) == 2
    # 4: missing data file
    assert main([
        "pretrain", "--config", str(cfg_path), "--data", str(tmp_path / "missing.grid"),
        "--out-dir", str(tmp_path / "out"),
    ]) == 4
    # 4: corrupt grid file
    corrupt = tmp_path / "corrupt.grid"
    corrupt.write_bytes(b"JUNKJUNKJUNK")
    assert main([
        "pretrain", "--config", str(cfg_path), "--data", str(corrupt),
        "--out-dir", str(tmp_path / "out2"),
    ]) == 4
    # 4: malformed grid files: trailing bytes, a manifest that is not JSON,
    # a header with no variables, a non-finite frame value
    grid = (root / "data.grid").read_bytes()
    manifest = (root / "data.grid.json").read_text()
    header = struct.calcsize("<4sHHHHII")
    no_vars = bytearray(grid)
    struct.pack_into("<H", no_vars, 6, 0)
    nan_frame = bytearray(grid)
    struct.pack_into("<f", nan_frame, header + 8 * TINY["data"]["lat_points"], float("nan"))
    for name, blob, text in (
        ("trailing", grid + b"\0\0\0\0", manifest),
        ("bad_manifest", grid, "{bad"),
        ("no_vars", bytes(no_vars), manifest),
        ("nan_frame", bytes(nan_frame), manifest),
    ):
        (tmp_path / f"{name}.grid").write_bytes(blob)
        (tmp_path / f"{name}.grid.json").write_text(text)
        assert main([
            "pretrain", "--config", str(cfg_path), "--set", "pretrain.steps=1",
            "--data", str(tmp_path / f"{name}.grid"), "--out-dir", str(tmp_path / f"{name}_out"),
        ]) == 4, name
    # 4: model checkpoint without its per-interval change scales
    arrays = load_checkpoint(root / "pre" / "model.ckpt")
    del arrays["norm.delta_scale"]
    stale = tmp_path / "stale.ckpt"
    save_checkpoint(stale, arrays)
    (tmp_path / "stale.ckpt.meta.json").write_text((root / "pre" / "model.ckpt.meta.json").read_text())
    assert main([
        "finetune", "--config", str(cfg_path), "--data", str(root / "data.grid"),
        "--checkpoint", str(stale), "--out-dir", str(tmp_path / "stale_out"),
    ]) == 4
    # 4: malformed model sidecar, with an unknown config key or truncated JSON
    meta_text = (root / "pre" / "model.ckpt.meta.json").read_text()
    meta = json.loads(meta_text)
    meta["model_config"]["nope"] = 1
    for name, text in (("unknown_key", json.dumps(meta)), ("truncated", meta_text[:40])):
        bad = tmp_path / f"{name}.ckpt"
        bad.write_bytes((root / "pre" / "model.ckpt").read_bytes())
        (tmp_path / f"{name}.ckpt.meta.json").write_text(text)
        assert main([
            "eval", "--config", str(cfg_path), "--data", str(root / "data.grid"),
            "--checkpoint", str(bad), "--out", str(tmp_path / f"{name}.csv"),
        ]) == 4
    # 4: DQN sidecar with an unknown config key
    model, _ = load_model_checkpoint(root / "pre" / "model.ckpt")
    bad_dqn = tmp_path / "bad_dqn.ckpt"
    save_dqn_checkpoint(bad_dqn, DQN(model, DQNConfig()), RunConfig())
    meta = json.loads((tmp_path / "bad_dqn.ckpt.meta.json").read_text())
    meta["dqn_config"]["nope"] = 1
    (tmp_path / "bad_dqn.ckpt.meta.json").write_text(json.dumps(meta))
    assert main([
        "compare-rollouts", "--config", str(cfg_path), "--data", str(root / "data.grid"),
        "--checkpoint", str(root / "pre" / "model.ckpt"), "--dqn", str(bad_dqn),
        "--out", str(tmp_path / "bad_dqn.csv"),
    ]) == 4
    # 4: DQN trained on another forecaster (its frozen tokenizer differs)
    good_dqn = tmp_path / "good_dqn.ckpt"
    save_dqn_checkpoint(good_dqn, DQN(model, DQNConfig()), RunConfig())
    arrays = load_checkpoint(root / "pre" / "model.ckpt")
    arrays["tokenizer.weight"] = arrays["tokenizer.weight"] * 2.0
    other = tmp_path / "other.ckpt"
    save_checkpoint(other, arrays)
    (tmp_path / "other.ckpt.meta.json").write_text((root / "pre" / "model.ckpt.meta.json").read_text())
    assert main([
        "compare-rollouts", "--config", str(cfg_path), "--data", str(root / "data.grid"),
        "--checkpoint", str(other), "--dqn", str(good_dqn), "--out", str(tmp_path / "other.csv"),
    ]) == 4
    # 4: DQN sidecar written before fingerprints were recorded
    meta = json.loads((tmp_path / "good_dqn.ckpt.meta.json").read_text())
    del meta["forecaster_fingerprint"]
    (tmp_path / "good_dqn.ckpt.meta.json").write_text(json.dumps(meta))
    assert main([
        "compare-rollouts", "--config", str(cfg_path), "--data", str(root / "data.grid"),
        "--checkpoint", str(root / "pre" / "model.ckpt"), "--dqn", str(good_dqn),
        "--out", str(tmp_path / "no_fingerprint.csv"),
    ]) == 4
    # 3: numeric divergence (absurd learning rate)
    assert main([
        "pretrain", "--config", str(cfg_path), "--set", "pretrain.lr=1e18",
        "--set", "pretrain.steps=30",
        "--data", str(root / "data.grid"), "--out-dir", str(tmp_path / "div"),
    ]) == 3


# (command, override, settings of the dataset it runs on beyond the module's,
# text the error message names); "print-config" cases are rejected while the
# config loads, before any work
MALFORMED = [
    ("print-config", "model.moe_top_k=9", (), "moe_top_k"),
    ("print-config", "model.moe_alpha=-1", (), "moe_alpha"),
    ("print-config", "model.num_heads=0", (), "num_heads"),
    ("print-config", "model.num_blocks=0", (), "num_blocks"),
    ("print-config", "model.patch_size=0", (), "patch_size"),
    ("print-config", "model.embed_dim=18", (), "embed_dim"),
    ("print-config", "model.intervals=[0,6,12]", (), "intervals"),
    ("print-config", "data.steps=1", (), "steps"),
    ("print-config", "data.lat_points=1", (), "lat_points"),
    ("print-config", "data.base_step_hours=0", (), "base_step_hours"),
    ("print-config", "data.num_vars=3", (), "num_vars"),
    ("print-config", "data.train_frac=1.5", (), "train_frac"),
    ("print-config", "pretrain.batch_size=0", (), "batch_size"),
    ("print-config", "dqn.sync_every=0", (), "sync_every"),
    ("print-config", "finetune.finetune_episodes=0", (), "finetune_episodes"),
    ("print-config", "eval.policy=best", (), "policy"),
    ("pretrain", "model.intervals=[6,12,25]", (), "25"),
    ("pretrain", "model.patch_size=5", (), "patch 5"),
    ("pretrain", None, ("data.base_step_hours=12",), "12h base step"),
    ("finetune", None, ("data.lat_points=12",), "lat_points12.grid"),
    ("eval", None, ("data.lat_points=12",), "lat_points12.grid"),
    ("compare-rollouts", None, ("data.lat_points=12",), "lat_points12.grid"),
    ("finetune", "finetune.lead_times=[7]", (), "finetune.lead_times"),
    ("eval", "eval.leads=[7]", (), "eval.leads"),
    ("compare-rollouts", "compare.lead=7", (), "compare.lead"),
    ("pe-viz", None, (), "--dim"),
]


@pytest.mark.parametrize("command, override, data_sets, named", MALFORMED,
                         ids=[" ".join(x for x in (c, o, *d) if x) for c, o, d, _ in MALFORMED])
def test_malformed_settings_exit_2(command, override, data_sets, named, tmp_path, workdir, capsys):
    root, cfg_path = workdir
    base = ["--config", str(cfg_path)] + (["--set", override] if override else [])
    data = root / "data.grid"
    if data_sets:
        data = root / (data_sets[0].split(".")[1].replace("=", "") + ".grid")
        if not data.exists():
            assert main(["gen-data", "--config", str(cfg_path),
                         *[a for s in data_sets for a in ("--set", s)], "--out", str(data)]) == 0
    ckpt = ["--data", str(data), "--checkpoint", str(root / "pre" / "model.ckpt")]
    argv = {
        "print-config": ["gen-data", *base, "--print-config", "--out", str(tmp_path / "x")],
        "pe-viz": ["pe-viz", *base, "--dim", "6", "--out-dir", str(tmp_path / "pe")],
        "pretrain": ["pretrain", *base, "--set", "pretrain.steps=1", "--data", str(data),
                     "--out-dir", str(tmp_path / "out")],
        "finetune": ["finetune", *base, *ckpt, "--out-dir", str(tmp_path / "out")],
        "eval": ["eval", *base, *ckpt, "--out", str(tmp_path / "out.csv")],
        "compare-rollouts": ["compare-rollouts", *base, *ckpt, "--out", str(tmp_path / "out.csv")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err, err
